"""Table axes built from labels with closed sizes, members walked lazily.

Oracle: enumerate_superclasses and enumerate_dual_orbits, which walk every
orbit and check the cover.  The lazy axes of build_table must agree with
them wherever both can run, a walk must check the closed size it was given,
and the spot cross-check must walk only the smaller orbit of each cell it
samples.
"""

import io
import json
from contextlib import redirect_stdout

import pytest

import superchar.gf as gf_mod
import superchar.orbits as orbits_mod
import superchar.partitions as partitions_mod
import superchar.table as table_mod
from superchar import cli
from superchar.dual import DualOrbit, enumerate_dual_orbits
from superchar.gf import field_construct
from superchar.orbits import Superclass, enumerate_superclasses
from superchar.partitions import compute_SR, enumerate_labels, r_of
from superchar.table import SupercharTable, build_table, plancherel, verify_theory

# every config with |A| = q^(n(n-1)/2) <= 4096
SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1),
                (13, 1), (2, 4)]
SMALL_CONFIGS = (
    [(1, 2, 1), (1, 3, 1)]
    + [(2, p, m) for p, m in SMALL_FIELDS]
    + [(3, p, m) for p, m in SMALL_FIELDS]
    + [(4, 2, 1), (4, 3, 1), (4, 2, 2), (5, 2, 1)]
)


def _axis(orbit):
    return orbit.label, orbit.size, orbit.rep, orbit.members


@pytest.mark.parametrize("n,p,m", SMALL_CONFIGS)
def test_lazy_axes_equal_walked_enumerators(n, p, m):
    f = field_construct(p, m)
    t = build_table(n, f)
    assert [_axis(o) for o in t.dual_orbits] == [
        _axis(o) for o in enumerate_dual_orbits(n, f)
    ]
    assert [_axis(k) for k in t.superclasses] == [
        _axis(k) for k in enumerate_superclasses(n, f)
    ]


@pytest.mark.parametrize("n,p,m", [(3, 7, 1), (4, 3, 1), (5, 2, 1), (5, 3, 1)])
def test_spot_plancherel_equals_walked(monkeypatch, n, p, m):
    monkeypatch.setattr(table_mod, "_FULL_VALIDATION_LIMIT", 0)  # every size spot
    f = field_construct(p, m)
    spot = build_table(n, f)
    walked = SupercharTable(
        n, f, enumerate_dual_orbits(n, f), enumerate_superclasses(n, f), spot.values
    )
    assert plancherel(spot) == plancherel(walked)


def test_spot_walks_the_smaller_orbit_of_each_sampled_cell(monkeypatch):
    walks = []
    averaged = []
    walk = orbits_mod.orbit_states
    bruteforce = table_mod.sch_bruteforce

    def counting_walk(n, field, start, dual=False):
        states = walk(n, field, start, dual)
        walks.append((start, dual, len(states)))
        return states

    def recording_bruteforce(orbit, state):
        averaged.append((orbit, state))
        return bruteforce(orbit, state)

    monkeypatch.setattr(orbits_mod, "orbit_states", counting_walk)
    monkeypatch.setattr(table_mod, "sch_bruteforce", recording_bruteforce)
    t = build_table(5, field_construct(3, 1))
    pairs = table_mod._spot_pairs(t)
    assert len(averaged) == len(pairs) == table_mod._SPOT_CHECKS
    for (i, j), (orbit, at) in zip(pairs, averaged):
        row, col = t.dual_orbits[i], t.superclasses[j]
        # ties go to the dual orbit
        smaller, other = (row, col) if row.size <= col.size else (col, row)
        assert orbit is smaller and at == other.rep.dense()
    chosen = {id(o): o for o, _ in averaged}.values()
    assert sorted(walks) == sorted((o.rep.dense(), o.dual, o.size) for o in chosen)
    assert {o.dual for o in chosen} == {True, False}
    # the dual orbits of the sampled rows alone hold 14,703 states
    assert sum(size for _, _, size in walks) == 3379


def test_representatives_are_built_when_read(monkeypatch):
    # plancherel on U_5(F_3) reads about 100 of its 514 representatives
    f = field_construct(3, 1)
    built = []
    real = orbits_mod.build_e
    monkeypatch.setattr(orbits_mod, "build_e",
                        lambda label, field: built.append(label) or real(label, field))
    labels = enumerate_labels(4, f, dual=True)
    axis = [DualOrbit.from_label(label, f) for label in labels]
    assert built == []
    assert axis[5].rep == real(labels[5], f)
    assert built == [labels[5]]


def test_given_members_are_kept():
    t = build_table(3, field_construct(2, 1))
    o = t.dual_orbits[-1]
    tampered = DualOrbit(o.label, o.field, 1, (o.members[0],))
    assert tampered.members == (o.members[0],)


# -- a wrong closed size is caught wherever an orbit is walked ---------------


def _unchecked_table(n, f):
    """The axes of build_table, by from_label, and the closed cells, with
    no cross-check: no orbit is walked until something reads it."""
    row_labels, col_labels = enumerate_labels(n, f, dual=True), enumerate_labels(n, f)
    rows = [DualOrbit.from_label(lab, f) for lab in row_labels]
    cols = [Superclass.from_label(lab, f) for lab in col_labels]
    cells = table_mod._closed_cells(row_labels, col_labels, f)
    return SupercharTable(n, f, rows, cols, cells=cells)


def _bump_r(monkeypatch):
    """r_of one too large on partitions with two or more arcs."""
    wrong = lambda pi: r_of(pi) + (len(pi.arcs()) >= 2)  # noqa: E731
    monkeypatch.setattr(partitions_mod, "r_of", wrong)
    return wrong


def _bump_s(monkeypatch):
    """|S(pi)| one too large on partitions with exactly one arc."""

    def wrong(pi):
        s, reach = compute_SR(pi)
        return (s | {(0, 0)}, reach) if len(pi.arcs()) == 1 else (s, reach)

    monkeypatch.setattr(partitions_mod, "compute_SR", wrong)


@pytest.mark.parametrize("mutate,axis", [(_bump_r, "dual_orbits"),
                                         (_bump_s, "superclasses")])
def test_wrong_closed_size_raises_when_walked(monkeypatch, mutate, axis):
    f = field_construct(3, 1)
    mutate(monkeypatch)
    t = _unchecked_table(4, f)  # nothing walked, nothing checked
    affected = [o for o in getattr(t, axis) if len(o.label.arcs()) == (
        1 if axis == "superclasses" else 2)]
    unaffected = [o for o in getattr(t, axis) if not o.label.arcs()]
    assert affected and unaffected
    with pytest.raises(AssertionError, match="walk found"):
        affected[0].members
    assert len(unaffected[0].members) == 1
    with pytest.raises(AssertionError, match="walk found"):
        verify_theory(_unchecked_table(4, f))
    with pytest.raises(AssertionError, match="walk found"):
        build_table(4, f, full=True)


def test_wrong_r_fails_the_spot_cross_check_and_the_cli(monkeypatch, capsys):
    _bump_r(monkeypatch)
    with pytest.raises(AssertionError, match="walk found"):
        build_table(5, field_construct(3, 1))
    assert cli.main(["plancherel", "--n", "5", "--p", "3"]) == 1
    assert "walk found" in capsys.readouterr().err


def test_wrong_s_fails_the_spot_cross_check_and_the_cli(monkeypatch, capsys):
    # the spot cross-check walks the superclasses it averages over
    _bump_s(monkeypatch)
    with pytest.raises(AssertionError, match="walk found"):
        build_table(5, field_construct(3, 1))
    assert cli.main(["plancherel", "--n", "5", "--p", "3"]) == 1
    assert "walk found" in capsys.readouterr().err


def test_orbits_dual_reports_the_walked_size(monkeypatch):
    # with r_of wrong everywhere, a closed size would match its prediction
    wrong = _bump_r(monkeypatch)
    monkeypatch.setattr(cli, "r_of", wrong)
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(["orbits", "--n", "4", "--p", "3", "--dual"]) == 1
    rows = json.loads(buf.getvalue())["orbits"]
    walked = [o.size for o in enumerate_dual_orbits(4, field_construct(3, 1))]
    assert [r["size"] for r in rows] == walked
    arcs = [sum(len(b) - 1 for b in r["label"]["blocks"]) for r in rows]
    assert [not r["prediction_matches"] for r in rows] == [a >= 2 for a in arcs]
    assert any(a >= 2 for a in arcs)


def test_build_table_keeps_the_space_cap(monkeypatch):
    # a table at the space cap is built, one above it refused
    monkeypatch.delenv("SUPERCHAR_CAP", raising=False)
    monkeypatch.setattr(gf_mod, "_SPACE_CAP", 64)
    assert build_table(4, field_construct(2, 1)).order == 64
    with pytest.raises(ValueError, match="space cap"):
        build_table(3, field_construct(5, 1))


@pytest.mark.parametrize("axis,one,space", [
    ("dual_orbits", "dual orbit", "characters"),
    ("superclasses", "superclass", "algebra elements"),
])
def test_verify_checks_the_cover(axis, one, space):
    f = field_construct(3, 1)
    t = build_table(3, f)
    orbits = list(getattr(t, axis))
    first, last = orbits[0], orbits[-1]
    kind = type(first)

    def table_with(changed):
        axes = {"dual_orbits": t.dual_orbits, "superclasses": t.superclasses, axis: changed}
        return SupercharTable(3, f, axes["dual_orbits"], axes["superclasses"], t.values)

    shared = tuple(sorted(first.members + last.members[:1]))
    overlapping = [kind(first.label, first.field, 2, shared)] + orbits[1:]
    with pytest.raises(AssertionError, match=f"{one} of .* overlaps an earlier one"):
        verify_theory(table_with(overlapping))
    short = orbits[:-1] + [kind(last.label, last.field, last.size - 1, last.members[1:])]
    with pytest.raises(AssertionError, match=f"cover 26 of 27 {space}"):
        verify_theory(table_with(short))
