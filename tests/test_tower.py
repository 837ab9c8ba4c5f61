"""Field towers, compatible character sequences, and limit behaviour.

Oracle: trace compatibility is replayed as a character identity (the
TowerCharacter constructor itself recomputes it against every subfield
element), and the level magnitudes are checked against frozen rationals.
The relative-trace index lists of superchar.gf stand against the linear
scan with one field_trace per element, its embedding index lists against
one Horner evaluation per element, convergence_report against the
report that rebuilds every level's label and column, and the growth scans,
which read closed sizes, against the same reports on walked sizes
(tests/oracles.py).
"""

import itertools
from fractions import Fraction

import pytest

from oracles import (
    char_extend_scan,
    conj,
    convergence_report_by_levels,
    horner_embed,
    mul,
    plancherel_profile_walk_all,
    rational_part,
    root,
    scale,
    size_scan_walked,
    tower_supercharacter,
)
from superchar.cyclotomic import Cyclotomic
from superchar.gf import field_construct, field_embed, field_trace, trace_indices
from superchar.partitions import (
    ColouredPartition,
    enumerate_partitions,
    format_partition,
    parse_coloured,
    parse_partition,
)
from superchar.tower import (
    FieldTower,
    TowerCharacter,
    TowerLabel,
    _abs2,
    char_extend,
    char_restrict,
    convergence_report,
    fsc_diagnostic,
    plancherel_profile,
)


def _tw(degrees=(1, 2), p=2):
    return FieldTower(p, degrees)


# ------------------------------------------------------------ tower shape

def test_tower_requires_divisor_chain():
    FieldTower(2, (1, 2, 6))
    FieldTower(3, (1, 3))
    with pytest.raises(ValueError):
        FieldTower(2, (2, 4, 6))  # 6 not a multiple of 4
    with pytest.raises(ValueError):
        FieldTower(2, (2, 3))  # 3 not a multiple of 2
    with pytest.raises(ValueError):
        FieldTower(2, (2, 2))  # not strictly increasing
    with pytest.raises(ValueError):
        FieldTower(2, ())
    for degrees in [(0, 2), (0,), (-2, 2), (1, 0)]:  # (0, 2) reached b % 0
        with pytest.raises(ValueError, match="must all be at least 1"):
            FieldTower(2, degrees)


def test_tower_levels_and_embed():
    tw = _tw((1, 2, 4))
    assert len(tw) == 3
    assert tw.field(1).order == 2 and tw.field(3).order == 16
    with pytest.raises(ValueError):
        tw.field(4)
    one16 = tw.embed(tw.field(1).one, 3)
    assert one16 == tw.field(3).one
    x = tw.field(2).gen
    y = tw.embed(x, 3)
    assert y ** 4 == y and y != tw.field(3).zero  # lands in the GF(4) copy
    with pytest.raises(ValueError):
        tw.embed(field_construct(2, 3).gen, 3)  # GF(8) is not a level


# ------------------------------------------------- compatible sequences

def test_char_extend_worked_examples():
    f2 = field_construct(2, 1)
    f4 = field_construct(2, 2)
    assert char_extend(f2.zero, f4) == f4.zero
    assert char_extend(f2.one, f4) == f4.gen  # first trace-1 element
    for beta in f4.elements:
        lifted = char_extend(beta, field_construct(2, 4))
        assert field_trace(lifted, 2) == beta


TOWER_CONFIGS = [(2, (1, 2, 4, 8)), (2, (1, 3, 6)), (3, (1, 2, 4))]


def _field_pairs(p, degrees):
    fields = FieldTower(p, degrees).fields
    return [(lo, hi) for k, lo in enumerate(fields) for hi in fields[k + 1:]]


@pytest.mark.parametrize("p,degrees", TOWER_CONFIGS)
def test_relative_traces_match_the_scan(p, degrees):
    for lo, hi in _field_pairs(p, degrees):
        traces = trace_indices(lo, hi)
        assert traces == [field_trace(x, lo.m).index for x in hi.elements]
        for beta in lo.elements:
            assert char_extend(beta, hi) == char_extend_scan(beta, hi)


@pytest.mark.parametrize("p,degrees", TOWER_CONFIGS)
def test_embedding_lists_match_horner(p, degrees):
    for lo, hi in _field_pairs(p, degrees):
        emb = field_embed(lo, hi)
        assert emb.images == [horner_embed(x, hi).index for x in lo.elements]
        for x in lo.elements:
            assert emb(x).field == hi
            assert emb.preimage(emb(x)) == x


def test_trace_indices_refuse_a_non_subfield_pair():
    with pytest.raises(ValueError, match="not a subfield pair"):
        trace_indices(field_construct(2, 2), field_construct(2, 3))
    with pytest.raises(ValueError, match="not a subfield pair"):
        trace_indices(field_construct(2, 1), field_construct(3, 2))


def test_char_restrict_worked_examples():
    tw = _tw()
    f2, f4 = tw.field(1), tw.field(2)
    t = TowerCharacter(tw, [f2.one, f4.gen])
    assert char_restrict(t, 1) == f2.one
    assert char_restrict(t, 2) == f4.gen
    with pytest.raises(ValueError):
        char_restrict(t, 3)
    zero = TowerCharacter(tw, [f2.zero, f4.zero])
    assert zero.m0 is None
    assert char_restrict(zero, 1) == f2.zero


def test_compatibility_is_enforced():
    tw = _tw()
    f2, f4 = tw.field(1), tw.field(2)
    with pytest.raises(ValueError):
        TowerCharacter(tw, [f2.one, f4.one])  # Tr(1) = 0 != 1
    with pytest.raises(ValueError):
        TowerCharacter(tw, [f2.one])  # wrong length
    with pytest.raises(ValueError):
        TowerCharacter(tw, [f4.one, f4.one])  # wrong bottom field


def test_m0_phenomenon():
    # beta2 = 1 is nontrivial at level 2 but restricts to the trivial
    # character one level down
    tw = _tw()
    f2, f4 = tw.field(1), tw.field(2)
    t = TowerCharacter(tw, [f2.zero, f4.one])
    assert t.m0 == 2
    assert char_restrict(t, 1) == f2.zero
    lab = TowerLabel(tw, parse_partition("1,3/2", 3), {(1, 3): t})
    assert lab.m0 == 2
    with pytest.raises(ValueError):
        lab.level_label(1)
    level2 = lab.level_label(2)
    assert level2.colours[(1, 3)] == f4.one


def test_from_level1_extends_deterministically():
    tw = _tw((1, 2, 4))
    f2 = tw.field(1)
    t = TowerCharacter.from_level1(tw, f2.one)
    assert t.m0 == 1
    assert t.betas[1] == tw.field(2).gen
    assert field_trace(t.betas[2], 2) == t.betas[1]
    lab = TowerLabel.from_level1(tw, parse_coloured("1,3/2 | 1,3=1", 3, f2, dual=True))
    assert lab.m0 == 1
    assert lab.level_label(1) == parse_coloured("1,3/2 | 1,3=1", 3, f2, dual=True)


def test_trivial_colour_rejected_in_labels():
    tw = _tw()
    f2, f4 = tw.field(1), tw.field(2)
    zero = TowerCharacter(tw, [f2.zero, f4.zero])
    with pytest.raises(ValueError):
        TowerLabel(tw, parse_partition("1,3/2", 3), {(1, 3): zero})


def test_colour_from_a_tower_over_another_prime_is_refused():
    tw3, tw2 = _tw(p=3), _tw(p=2)
    own = TowerCharacter.from_level1(tw3, tw3.field(1).one)
    other = TowerCharacter.from_level1(tw2, tw2.field(1).one)
    pi = parse_partition("1,3/2", 3)
    with pytest.raises(ValueError, match="colour tower mismatch"):
        TowerLabel(tw3, pi, {(1, 3): other})
    # a colour from an equal tower built separately is still accepted
    lab = TowerLabel(_tw(p=3), pi, {(1, 3): own})
    assert lab.level_label(1).colours[(1, 3)] == tw3.field(1).one


# --------------------------------------------------------- level values

def test_tower_supercharacter_worked_examples():
    tw = _tw()
    f2, f4 = tw.field(1), tw.field(2)
    lab = TowerLabel.from_level1(
        tw, parse_coloured("1,4/2/3 | 1,4=1", 4, f2, dual=True))
    col1 = parse_coloured("1/2,3/4 | 2,3=1", 4, f2)
    v1 = tower_supercharacter(lab, 1, col1)
    assert rational_part(v1) == Fraction(1, 2)
    col2 = ColouredPartition(col1.partition, {(2, 3): f4.one})
    v2 = tower_supercharacter(lab, 2, col2)
    assert rational_part(v2) == Fraction(1, 4)
    with pytest.raises(ValueError):
        tower_supercharacter(lab, 1, col2)  # colours at the wrong level


def test_tower_supercharacter_no_arcs_label():
    tw = _tw()
    f2 = tw.field(1)
    lab = TowerLabel(tw, parse_partition("1/2/3", 3), {})
    for text in ("1/2/3", "1,2/3 | 1,2=1", "1,3/2 | 1,3=1"):
        col = parse_coloured(text, 3, f2)
        assert tower_supercharacter(lab, 1, col) == 1


def test_limit_value_cases():
    tw = _tw()
    f2 = tw.field(1)

    def limit(label, col_text, n):
        return convergence_report(label, parse_coloured(col_text, n, f2))["limit"]

    nested = TowerLabel.from_level1(
        tw, parse_coloured("1,4/2/3 | 1,4=1", 4, f2, dual=True))
    assert limit(nested, "1/2,3/4 | 2,3=1", 4) == Cyclotomic.zero(2)
    shadowed = TowerLabel.from_level1(
        tw, parse_coloured("1,3/2 | 1,3=1", 3, f2, dual=True))
    assert limit(shadowed, "1,2/3 | 1,2=1", 3) == Cyclotomic.zero(2)
    assert limit(shadowed, "1,3/2 | 1,3=1", 3) == -1  # stable
    trivial = TowerLabel(tw, parse_partition("1/2/3", 3), {})
    assert limit(trivial, "1,2/3 | 1,2=1", 3) == 1


# ------------------------------------------------------------ convergence

def test_convergence_decay_magnitudes_frozen():
    tw = FieldTower(2, (1, 2, 6))
    f2 = tw.field(1)
    lab = TowerLabel.from_level1(
        tw, parse_coloured("1,4/2/3 | 1,4=1", 4, f2, dual=True))
    col = parse_coloured("1/2,3/4 | 2,3=1", 4, f2)
    rep = convergence_report(lab, col)
    assert rep["nest"] == 1
    assert rep["limit"] == Cyclotomic.zero(2)
    assert not rep["stabilized"]
    assert rep["verdict"] == "norm decays as q_m^-1"
    assert [e["abs2"] for e in rep["levels"]] == [
        Fraction(1, 4), Fraction(1, 16), Fraction(1, 4096)]
    # |v| itself: 1/2, 1/4, 1/64
    assert [e["q"] for e in rep["levels"]] == [2, 4, 64]


def test_convergence_stabilizing_example():
    tw = FieldTower(2, (1, 2, 6))
    f2 = tw.field(1)
    lab = TowerLabel.from_level1(
        tw, parse_coloured("1,3/2 | 1,3=1", 3, f2, dual=True))
    col = parse_coloured("1,3/2 | 1,3=1", 3, f2)
    rep = convergence_report(lab, col)
    assert rep["stabilized"]
    assert rep["verdict"] == "stabilized at level 1"
    vals = [e["value"] for e in rep["levels"]]
    assert vals == [-1] * 3
    assert rep["limit"] == -1


def test_convergence_trivial_label():
    tw = FieldTower(2, (1, 2, 6))
    f2 = tw.field(1)
    lab = TowerLabel(tw, parse_partition("1/2/3", 3), {})
    rep = convergence_report(lab, parse_coloured("1/2/3", 3, f2))
    assert rep["stabilized"] and rep["limit"] == 1
    assert all(e["value"] == 1 for e in rep["levels"])


def test_convergence_reports_undefined_prefix():
    tw = _tw()
    f2, f4 = tw.field(1), tw.field(2)
    t = TowerCharacter(tw, [f2.zero, f4.one])
    lab = TowerLabel(tw, parse_partition("1,3/2", 3), {(1, 3): t})
    col = parse_coloured("1,3/2 | 1,3=1", 3, f2)
    rep = convergence_report(lab, col)
    assert rep["first_defined_level"] == 2
    assert rep["levels"][0] == {"level": 1, "q": 2, "defined": False}
    assert rep["levels"][1]["defined"]


def test_convergence_shadowed_label_is_zero_everywhere():
    tw = _tw()
    f2 = tw.field(1)
    lab = TowerLabel.from_level1(
        tw, parse_coloured("1,3/2 | 1,3=1", 3, f2, dual=True))
    rep = convergence_report(lab, parse_coloured("1,2/3 | 1,2=1", 3, f2))
    assert rep["stabilized"]
    assert all(e["value"] == Cyclotomic.zero(2) for e in rep["levels"])


def test_nest_zero_labels_stabilize_from_first_defined_level():
    tw = _tw()
    f2 = tw.field(1)
    from superchar import enumerate_labels
    for row in enumerate_labels(3, f2, dual=True):
        lab = TowerLabel.from_level1(tw, row)
        for col in enumerate_labels(3, f2):
            rep = convergence_report(lab, col)
            if rep["limit"]:
                assert rep["stabilized"], (row, col)
                defined = [e["value"] for e in rep["levels"] if e["defined"]]
                assert all(v == rep["limit"] for v in defined)


def test_convergence_report_matches_level_by_level_oracle():
    # every (row, column) pair of the tower chain p = 2, degrees 1,2,4,8 at
    # n = 4: each row partition with an arc, all colours 1
    tw = FieldTower(2, (1, 2, 4, 8))
    f2 = tw.field(1)
    pairs = 0
    for pi in enumerate_partitions(4):
        if not pi.arcs():
            continue
        lab = TowerLabel.from_level1(
            tw, ColouredPartition(pi, dict.fromkeys(pi.arcs(), f2.one), dual=True)
        )
        for pip in enumerate_partitions(4):
            col = ColouredPartition(pip, dict.fromkeys(pip.arcs(), f2.one))
            assert convergence_report(lab, col) == convergence_report_by_levels(
                lab, col
            ), (format_partition(pi), format_partition(pip))
            pairs += 1
    assert pairs == 210


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_abs2_is_the_norm_of_each_monomial(p):
    # |+-zeta^t p^-d|^2 = p^-2d by the cyclic convolution, as by the product
    # with the conjugate; |1 + zeta|^2, irrational at p >= 5, is refused
    for t, d, sign in itertools.product(range(p), range(4), (1, -1)):
        v = scale(root(p, t), Fraction(sign, p ** d))
        assert _abs2(v) == rational_part(mul(v, conj(v))) == Fraction(1, p ** (2 * d))
    assert _abs2(Cyclotomic.zero(p)) == 0
    if p > 3:
        with pytest.raises(AssertionError, match="not rational"):
            _abs2(Cyclotomic(p, [1, 1] + [0] * (p - 2)))


# ------------------------------------------------------------ diagnostics

def test_fsc_diagnostic_u3_frozen():
    tw = _tw()
    rep = fsc_diagnostic(3, tw)
    assert rep["stable_superclasses_match_center"]
    assert rep["stable_dual_orbits_match_superdiagonal"]
    sc = {r["label"]: r for r in rep["superclasses"]}
    assert sc["1,3/2 | 1,3=1"]["sizes"] == [1, 1]
    assert sc["1,3/2 | 1,3=1"]["stable"]
    assert sc["1,2/3 | 1,2=1"]["sizes"] == [2, 4]
    assert not sc["1,2/3 | 1,2=1"]["stable"]
    assert sc["1/2/3"]["sizes"] == [1, 1]
    du = {r["label"]: r for r in rep["dual_orbits"]}
    assert du["1,2/3 | 1,2=1"]["sizes"] == [1, 1]
    assert du["1,3/2 | 1,3=1"]["sizes"] == [4, 16]
    assert not du["1,3/2 | 1,3=1"]["stable"]


def test_fsc_diagnostic_n2_everything_stable():
    rep = fsc_diagnostic(2, _tw())
    assert all(r["stable"] for r in rep["superclasses"])
    assert all(r["stable"] for r in rep["dual_orbits"])
    assert rep["stable_superclasses_match_center"]


def test_fsc_diagnostic_needs_two_levels():
    with pytest.raises(ValueError):
        fsc_diagnostic(3, _tw(), levels=[1])


def test_plancherel_profile_u3_frozen():
    rep = plancherel_profile(3, _tw())
    assert rep["fsc_arcs"] == [(1, 3)]
    weights = [e["weight"] for e in rep["profile"]]
    assert weights == [Fraction(5, 8), Fraction(49, 64)]
    assert rep["strictly_increasing"]
    # the closed count behind the weights: (1 + (q-1) q^2) / q^3
    for e in rep["profile"]:
        q = e["q"]
        assert e["weight"] == Fraction(1 + (q - 1) * q * q, q ** 3)


# towers whose default levels the walked oracles can afford: each walks
# every orbit at every feasible level, up to GF(81)^3 = 531,441 states
WALKED_TOWERS = [
    (3, 2, (1, 2, 4, 8)),
    (4, 2, (1, 2, 4, 8)),
    (3, 2, (1, 2, 6)),
    (3, 3, (1, 2, 4)),
]


@pytest.mark.parametrize("n,p,degrees", WALKED_TOWERS)
def test_growth_scans_match_the_walked_oracles(monkeypatch, n, p, degrees):
    import superchar.tower as tower_mod

    tw = FieldTower(p, degrees)
    closed = fsc_diagnostic(n, tw)
    assert plancherel_profile(n, tw) == plancherel_profile_walk_all(n, tw)
    monkeypatch.setattr(tower_mod, "_size_scan", size_scan_walked)
    assert closed == fsc_diagnostic(n, tw)


def test_growth_scans_walk_no_orbit(monkeypatch):
    import superchar.dual as dual_mod
    import superchar.orbits as orbits_mod

    calls = []
    walk = orbits_mod.orbit_states

    def counting(*args, **kwargs):
        calls.append(args)
        return walk(*args, **kwargs)

    monkeypatch.setattr(orbits_mod, "orbit_states", counting)
    monkeypatch.setattr(dual_mod, "orbit_states", counting)
    # the three scans of the queries benchmark workload
    chain = FieldTower(2, (1, 2, 4, 8))
    fsc_diagnostic(4, chain)
    plancherel_profile(4, chain)
    fsc_diagnostic(3, FieldTower(2, (1, 2, 6)))
    assert calls == []


@pytest.mark.parametrize("levels", [[2, 2], [3, 1], [1, 3, 2]])
def test_growth_scans_refuse_levels_not_strictly_increasing(levels):
    tw = _tw((1, 2, 4))
    for scan in (fsc_diagnostic, plancherel_profile):
        with pytest.raises(ValueError, match="not strictly increasing"):
            scan(3, tw, levels=levels)
    assert fsc_diagnostic(3, tw, levels=[1, 3])["levels"] == [1, 3]


def test_plancherel_profile_rejects_single_level():
    with pytest.raises(ValueError):
        plancherel_profile(3, _tw(), levels=[2])
