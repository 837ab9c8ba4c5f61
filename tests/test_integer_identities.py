"""The integer identity kernels of superchar.table against Fraction loops.

Oracle: tests/oracles.py, the direct loops on Cyclotomic values, by its
integer helper, for <xi_i, xi_j>, super-Plancherel and conjugate
symmetry, the entry-by-entry i <= j Gram scan that the packed columns
replaced, and the label scan for inverse columns.  Tables come from
build_table; route agreement is tested elsewhere.
"""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import superchar.table as table_mod
from oracles import add, conj, rational, root, scale, with_values
from superchar.cyclotomic import Cyclotomic
from superchar.gf import field_construct
from superchar.table import (
    _gram_entry,
    _inverse_columns,
    build_table,
    inner_product,
    plancherel,
    table_from_json,
    table_to_json,
    verify_theory,
)

# the configs of the benchmark's verify operations, U_4(F_3) and U_3(F_7)
BENCHMARK_CONFIGS = [(4, 3, 1), (3, 7, 1)]
# the table configs the other tests build, plus U_3(F_7)
CONFIGS = [
    (1, 2, 1), (1, 3, 1), (2, 2, 1), (2, 3, 1), (3, 2, 1), (3, 3, 1), (2, 5, 1),
    (3, 2, 2), (4, 2, 1), (4, 3, 1), (5, 2, 1), (3, 7, 1),
]


@lru_cache(maxsize=None)
def _table(n, p, m):
    return build_table(n, field_construct(p, m))


@pytest.mark.parametrize("n,p,m", CONFIGS)
def test_gram_matrix_equals_fraction_oracle(n, p, m):
    t = _table(n, p, m)
    pairs = [(i, j) for i in range(t.size) for j in range(t.size)]
    assert [inner_product(t, i, j) for i, j in pairs] == [
        oracles.inner_product(t, i, j) for i, j in pairs
    ]


@pytest.mark.parametrize("n,p,m", CONFIGS)
def test_plancherel_equals_fraction_oracle(n, p, m):
    t = _table(n, p, m)
    assert plancherel(t) == oracles.plancherel(t)


def _non_monomial(p):
    half_plus_zeta = Cyclotomic(p, [1, 2] + [0] * (p - 2), 2)
    coords = st.fractions(min_value=-2, max_value=2, max_denominator=4)
    return st.one_of(
        st.just(root(p, p - 1)),  # (-1, ..., -1) on the power basis
        st.just(half_plus_zeta),
        st.lists(coords, min_size=p - 1, max_size=p - 1).map(
            lambda cs: oracles.cyclotomic(p, cs)
        ),
    )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(3, 3, 1), (2, 7, 1), (3, 2, 2), (2, 5, 1)] + BENCHMARK_CONFIGS),
       st.data())
def test_corrupted_tables_get_oracle_verdicts(config, data):
    base = _table(*config)
    p = base.field.p
    values = [list(row) for row in base.values]
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, base.size - 1))
        j = data.draw(st.integers(0, base.size - 1))
        values[i][j] = data.draw(_non_monomial(p))
    t = with_values(base, values)
    report = {c[0]: c for c in verify_theory(t)}
    assert report["orthogonality"] == oracles.orthogonality_check(t)
    assert report["plancherel-identity"] == oracles.plancherel_check(t)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(3, 3, 1), (2, 7, 1), (3, 2, 2), (3, 5, 1), (4, 2, 1)]
                       + BENCHMARK_CONFIGS), st.data())
def test_conjugate_symmetry_equals_cyclotomic_oracle(config, data):
    # some corruptions write the conjugate into the inverse column too,
    # so that a corrupted table can still pass this one check
    base = _table(*config)
    values = [list(row) for row in base.values]
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, base.size - 1))
        j = data.draw(st.integers(0, base.size - 1))
        v = data.draw(_non_monomial(base.field.p))
        values[i][j] = v
        if data.draw(st.booleans()):
            values[i][_inverse_columns(base)[j]] = conj(v)
    t = with_values(base, values)
    report = {c[0]: c for c in verify_theory(t)}
    assert report["conjugate-symmetry"] == oracles.conjugate_symmetry_check(t)


def _count_cyclotomics(monkeypatch):
    """A list whose one entry counts the Cyclotomics built from now on."""
    built = [0]
    init = Cyclotomic.__init__

    def counting_init(self, *args):
        built[0] += 1
        init(self, *args)

    monkeypatch.setattr(Cyclotomic, "__init__", counting_init)
    return built


def test_verify_theory_builds_few_cyclotomics(monkeypatch):
    # a count, not a timing: the Fraction loops built ~700k values here,
    # and the closed table as Cyclotomics 3,025 more, one per cell
    built = _count_cyclotomics(monkeypatch)
    t = build_table(3, field_construct(7, 1))  # |A| = 343: full cross-check
    report = verify_theory(t)
    assert all(ok for _, ok, _ in report)
    assert built[0] == 0


def test_plancherel_builds_only_the_spot_cyclotomics(monkeypatch):
    # 64 averages from sch_bruteforce and 64 sampled closed cells; the
    # other 65,985 cells of U_5(F_3) stay integers
    built = _count_cyclotomics(monkeypatch)
    report = plancherel(build_table(5, field_construct(3, 1)))
    assert report["identity_holds"]
    assert built[0] <= 128


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.data())
def test_gram_entry_is_hermitian(p, data):
    # swapping the rows sends x^k to x^-k: the mirror entry is never computed
    cell = st.lists(st.tuples(st.integers(0, p - 1), st.integers(-9, 9)),
                    max_size=3).map(tuple)
    k = data.draw(st.integers(1, 5))
    rows = [data.draw(st.lists(cell, min_size=k, max_size=k)) for _ in range(2)]
    sizes = data.draw(st.lists(st.integers(1, 50), min_size=k, max_size=k))
    forward = _gram_entry(rows[0], rows[1], sizes, p)
    backward = _gram_entry(rows[1], rows[0], sizes, p)
    assert backward == [forward[-e % p] for e in range(p)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(3, 3, 1), (3, 2, 2), (2, 5, 1), (4, 2, 1)] + BENCHMARK_CONFIGS),
       st.data())
def test_half_gram_finds_the_full_scan_failure(config, data):
    # corrupt cells below the diagonal too, where the full scan would meet
    # a failing (i, j) with i > j only after its mirror (j, i)
    base = _table(*config)
    values = [list(row) for row in base.values]
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(1, base.size - 1))
        j = data.draw(st.integers(0, i))
        values[i][j] = data.draw(_non_monomial(base.field.p))
    t = with_values(base, values)
    report = {c[0]: c for c in verify_theory(t)}
    assert report["orthogonality"] == oracles.orthogonality_check(t)
    assert report["orthogonality"] == oracles.half_gram_check(t)


def test_verify_theory_converts_the_table_once(monkeypatch):
    calls = 0
    convert = table_mod._integer_cells

    def counting(rows, p):
        nonlocal calls
        calls += 1
        return convert(rows, p)

    monkeypatch.setattr(table_mod, "_integer_cells", counting)
    f = field_construct(7, 1)
    t = build_table(3, f)  # holds its integer cells
    assert all(ok for _, ok, _ in verify_theory(t))
    assert calls == 0
    given = table_from_json(table_to_json(t))  # values become cells here, once
    assert calls == 1
    report = {c[0]: c for c in verify_theory(given)}
    assert calls == 1
    assert report["plancherel-identity"] == oracles.plancherel_check(given)


def _near_bound(p):
    # numerators up to 10^30 over denominators up to 3^12: the cells, the
    # width and the Gram entries of the corrupted table all grow with them
    return st.builds(
        lambda num, k: Cyclotomic(p, num, 3**k),
        st.lists(st.integers(-10**30, 10**30), min_size=p, max_size=p),
        st.integers(0, 12),
    )


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(3, 3, 1), (2, 7, 1), (3, 2, 2)] + BENCHMARK_CONFIGS), st.data())
def test_near_bound_corruptions_get_oracle_verdicts(config, data):
    # a corrupted row may take one huge value in every cell, which puts
    # its Gram entries within a few bits of the width bound
    base = _table(*config)
    values = [list(row) for row in base.values]
    jinv = _inverse_columns(base)
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, base.size - 1))
        v = data.draw(_near_bound(base.field.p))
        if data.draw(st.booleans()):
            values[i] = [v] * base.size
        else:
            j = data.draw(st.integers(0, base.size - 1))
            values[i][j] = v
            if data.draw(st.booleans()):
                values[i][jinv[j]] = conj(v)
    t = with_values(base, values)
    report = {c[0]: c for c in verify_theory(t)}
    assert report["orthogonality"] == oracles.half_gram_check(t)
    assert report["orthogonality"] == oracles.orthogonality_check(t)
    assert report["conjugate-symmetry"] == oracles.conjugate_symmetry_check(t)


def test_gram_row_fails_where_the_orbit_size_does_not_divide_the_scale():
    # one row holding the cell 1, one class of size 1, an orbit of size 3,
    # D^2 |A| = 4: |A| D^2 <xi_0, xi_0> = 1 = 4 // 3, but 3 does not
    # divide 4, so <xi_0, xi_0> = 1/4 is not 1/3 and row 0 fails.  Walked
    # orbits never leave a remainder; a hand-built table can.
    rows = [[((0, 1),)]]
    width = table_mod._kronecker_width(1, 2, 1, 4)
    cols = table_mod._packed_columns(rows, 1, 2, width)
    assert table_mod._first_bad_gram_row(rows, cols, [1], [3], 2, width, 4, [0]) == 0


def test_a_narrower_width_aliases(monkeypatch):
    # U_2(F_2): |A| = 2, every orbit of size 1, cells over D = 1, so
    # cmax = 5 and the width is bit_length(2 * 25 * 2 * 2 + 2) + 1 = 9.
    # Row 0 (5, 3) fails at (0, 0): <xi_0, xi_0> = 34 / 2, not 1.  Its
    # packed row holds 34 - 2 = 32 in field 0 and <xi_0, xi_1> = -1 in
    # field 1, so at width 9 - 4 the two cancel and row 0 passes.
    f = field_construct(2, 1)
    base = build_table(2, f)
    rows = [[5, 3], [-2, 3]]
    t = with_values(base, [[rational(2, v) for v in row] for row in rows])
    truth = oracles.orthogonality_check(t)
    assert truth == ("orthogonality", False, "fails at rows (0, 0)")
    width = table_mod._kronecker_width
    assert width(5, 2, 2, 2) == 9
    verdicts = {}
    for narrower in (0, 3, 4):
        monkeypatch.setattr(table_mod, "_kronecker_width",
                            lambda *args, k=narrower: width(*args) - k)
        verdicts[narrower] = {c[0]: c for c in verify_theory(t)}["orthogonality"]
    assert verdicts[0] == verdicts[3] == truth
    assert verdicts[4] == ("orthogonality", False, "fails at rows (1, 1)")


def test_inverse_columns_equal_the_label_scan():
    for config in CONFIGS:
        t = _table(*config)
        assert _inverse_columns(t) == [
            oracles.inverse_column(t, j) for j in range(len(t.superclasses))
        ]


def _count_calls(monkeypatch, name):
    """The argument tuples of every call of table_mod.<name> from now on."""
    calls = []
    real = getattr(table_mod, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(table_mod, name, counting)
    return calls


def test_packed_checks_rescan_only_the_failing_row(monkeypatch):
    gram = _count_calls(monkeypatch, "_gram_entry")
    conj = _count_calls(monkeypatch, "_is_conjugate")
    base = _table(4, 3, 1)
    assert all(ok for _, ok, _ in verify_theory(base))
    assert gram == conj == []

    # row i becomes 3/5 xi_i + 4/5 xi_j with |O_i| = |O_j| and j > i + 1:
    # <xi_i', xi_i'> = 1 / |O_i| still, and the one failing entry is
    # (i, j), so the rescan reads (i, i), ..., (i, j) and nothing else.
    # The new row is conjugate-symmetric, as both of its terms are.
    sizes = [o.size for o in base.dual_orbits]
    i, j = next((i, j) for i in range(1, base.size) for j in range(i + 2, base.size)
                if sizes[i] == sizes[j])
    values = [list(row) for row in base.values]
    values[i] = [add(scale(u, Fraction(3, 5)), scale(v, Fraction(4, 5)))
                 for u, v in zip(base.values[i], base.values[j])]
    t = with_values(base, values)
    report = {c[0]: c for c in verify_theory(t)}
    assert report["orthogonality"] == oracles.orthogonality_check(t)
    assert report["orthogonality"][2] == f"fails at rows {(i, j)}"
    _, rows = t.integer_cells()
    assert [(a, b) for a, b, *_ in gram] == [(rows[i], rows[k]) for k in range(i, j + 1)]
    assert conj == []
    assert report["conjugate-symmetry"][1]

    # one cell off its conjugate: only the first failing column is
    # rescanned, up to the failing row
    gram.clear()
    values = [list(row) for row in base.values]
    values[i][j] = add(values[i][j], root(3))
    t = with_values(base, values)
    report = {c[0]: c for c in verify_theory(t)}
    assert report["conjugate-symmetry"] == oracles.conjugate_symmetry_check(t)
    assert report["conjugate-symmetry"][2].startswith(f"fails at row {i}, ")
    assert len(conj) == i + 1
