"""The averaging route as one additive Fourier transform.

Oracles: _pairing_hist, which sums the pairing character over the orbit
members one cell at a time, and the member-by-member constancy scan in
tests/oracles.py.  The transform's row blocks must reproduce the first on
every cell, and the verdict read by both the full cross-check and
verify_theory must give the second's verdict and detail on tables whose
dual orbits have been tampered with, at the default block size and at one
row per block.  The average over a cell's superclass, which the spot
cross-check takes where that is the smaller orbit, must equal the average
over its dual orbit.
"""

import random
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import superchar.table as table_mod
from superchar.cyclotomic import Cyclotomic
from superchar.dual import DualOrbit, enumerate_dual_orbits
from superchar.gf import field_construct
from superchar.orbits import enumerate_superclasses
from superchar.table import (
    RouteDisagreement,
    SupercharTable,
    _additive_fourier,
    _pairing_hist,
    _route_blocks,
    _route_failure,
    _spot_pairs,
    build_table,
    sch_bruteforce,
    verify_theory,
)

# every config with |A| = q^(n(n-1)/2) <= 4096 and q <= 16
SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1),
                (13, 1), (2, 4)]
ROUTE_CONFIGS = (
    [(1, 2, 1), (1, 3, 1)]
    + [(2, p, m) for p, m in SMALL_FIELDS]
    + [(3, p, m) for p, m in SMALL_FIELDS]
    + [(4, 2, 1), (4, 3, 1), (4, 2, 2), (5, 2, 1)]
)


@lru_cache(maxsize=None)
def _table(n, p, m):
    return build_table(n, field_construct(p, m))


def _fresh(t, dual_orbits=None):
    """The same table with no cached route, optionally other dual orbits."""
    return SupercharTable(
        t.n, t.field, dual_orbits or t.dual_orbits, t.superclasses, t.values
    )


def _dft(vec, p, digits):
    """The transform by its definition, one output at a time."""
    size = p**digits

    def coords(k):
        return [(k // p**d) % p for d in range(digits)]

    out = [[0] * size for _ in range(p)]
    for c in range(size):
        cc = coords(c)
        for b in range(size):
            t = sum(x * y for x, y in zip(coords(b), cc))
            for e in range(p):
                out[(e + t) % p][c] += vec[e][b]
    return out


@pytest.mark.parametrize("p,digits", [(2, 0), (2, 3), (3, 2), (5, 2), (7, 1)])
def test_additive_fourier_matches_definition(p, digits):
    rng = random.Random(p * 10 + digits)
    vec = [[rng.randrange(50) for _ in range(p**digits)] for _ in range(p)]
    assert _additive_fourier([v[:] for v in vec], p, digits) == _dft(vec, p, digits)


@pytest.mark.parametrize("n,p,m", ROUTE_CONFIGS)
def test_transform_equals_pairing_hist_on_every_cell(n, p, m):
    t = _table(n, p, m)
    for rows, j, col, decode in _route_blocks(t):
        key = [c[0] for c in col]
        assert all(c.count(e) == len(c) for c, e in zip(col, key))
        rep = t.superclasses[j].rep.dense()
        assert decode(key) == [_pairing_hist(t.dual_orbits[i].members, rep, t.field)
                               for i in rows]


@pytest.mark.parametrize("n,p,m", [(1, 2, 1), (1, 3, 1), (2, 2, 1), (2, 2, 2), (2, 5, 1)])
def test_verify_theory_small_n(n, p, m):
    t = _fresh(_table(n, p, m))
    report = {c[0]: c for c in verify_theory(t)}
    assert all(ok for _, ok, _ in report.values())
    assert report["superclass-constancy"] == oracles.constancy_check(t)
    assert report["superclass-constancy"][2] == f"{t.order * t.size} member evaluations"


def _tampered(t, moves):
    """t with members moved between dual orbits: (src, member, dst, swap)
    moves member index `member` of orbit src into orbit dst, and with swap
    also member 0 of dst into src.  No orbit is left empty."""
    members = [list(o.members) for o in t.dual_orbits]
    for src, k, dst, swap in moves:
        if src == dst or (len(members[src]) == 1 and not swap):
            continue
        b = members[src].pop(k % len(members[src]))
        if swap:
            members[src].append(members[dst].pop(0))
        members[dst].append(b)
    orbits = [
        DualOrbit(o.label, o.rep, len(ms), tuple(sorted(ms)))
        for o, ms in zip(t.dual_orbits, members)
    ]
    return _fresh(t, orbits)


def _constancy(t):
    return next(c for c in verify_theory(t) if c[0] == "superclass-constancy")


def test_moved_member_is_caught():
    t = _table(4, 3, 1)
    last = t.size - 1
    tampered = _tampered(t, [(last, 5, 1, True)])
    report = {c[0]: c for c in verify_theory(tampered)}
    assert not report["superclass-constancy"][1]
    assert report["superclass-constancy"] == oracles.constancy_check(tampered)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(3, 3, 1), (3, 2, 2), (4, 2, 1), (2, 5, 1), (3, 5, 1)]),
    st.data(),
)
def test_tampered_orbits_get_oracle_verdicts(config, data):
    t = _table(*config)
    row = st.integers(0, t.size - 1)
    moves = data.draw(
        st.lists(st.tuples(row, st.integers(0, 200), row, st.booleans()),
                 min_size=1, max_size=3)
    )
    tampered = _tampered(t, moves)
    expected = oracles.constancy_check(tampered)
    assert _constancy(tampered) == expected
    with mock.patch.object(table_mod, "_ROUTE_BLOCK_BITS", 1):  # one row per block
        assert _constancy(_fresh(tampered)) == expected


def _first_failing_rows(t, j):
    """Per member of class j, the first row whose average there is not the
    table cell, or None; member by member through _pairing_hist."""
    out = []
    for state in t.superclasses[j].members:
        out.append(next(
            (i for i, o in enumerate(t.dual_orbits)
             if Cyclotomic(t.field.p, _pairing_hist(o.members, state, t.field), o.size)
             != t.values[i][j]),
            None,
        ))
    return out


def test_row_blocks_give_the_same_route(monkeypatch):
    monkeypatch.setattr(table_mod, "_ROUTE_BLOCK_BITS", 1)  # one row per block
    t = _table(4, 3, 1)
    moved = _tampered(t, [(t.size - 1, 5, 1, True)])
    assert _route_failure(moved) is not None
    assert _constancy(moved) == oracles.constancy_check(moved)
    # the class's smallest failing member fails only in a later block than
    # a larger member of the class does
    small = _table(3, 3, 1)
    later = _tampered(small, [(3, 173, 9, True), (6, 148, 4, True)])
    i, j, state = _route_failure(later)
    first = _first_failing_rows(later, j)
    m = later.superclasses[j].members.index(state)
    assert first[:m] == [None] * m and first[m] == i
    assert any(r is not None and r < i for r in first[m + 1:])
    assert _constancy(later) == oracles.constancy_check(later)
    assert _constancy(_fresh(t)) == oracles.constancy_check(t)


def test_full_cross_check_and_verify_compare_each_cell_once(monkeypatch):
    calls = 0
    uncounted = table_mod._route_matches

    def counting(*args):
        nonlocal calls
        calls += 1
        return uncounted(*args)

    monkeypatch.setattr(table_mod, "_route_matches", counting)
    t = build_table(4, field_construct(3, 1), full=True)
    assert calls == t.size * len(t.superclasses) == 2401
    assert all(ok for _, ok, _ in verify_theory(t))
    assert calls == 2401


def test_no_member_by_member_evaluations(monkeypatch):
    calls = 0

    def counting(members, a, field):
        nonlocal calls
        calls += 1
        return _pairing_hist(members, a, field)

    monkeypatch.setattr(table_mod, "_pairing_hist", counting)
    f = field_construct(3, 1)
    t = build_table(4, f, full=True)
    report = verify_theory(t)
    assert all(ok for _, ok, _ in report)
    assert calls == 0
    monkeypatch.setattr(table_mod, "_FULL_VALIDATION_LIMIT", 0)
    build_table(4, f)  # the spot cross-check still samples cells
    assert calls == 64


def test_full_cross_check_reports_the_average(monkeypatch):
    uncorrupted = table_mod._closed_cells

    def corrupted(rows, cols, field):
        # conjugate where both labels have arcs: zeta^t becomes zeta^-t
        denom, cells = uncorrupted(rows, cols, field)
        p = field.p
        return denom, [
            [tuple((-e % p, c) for e, c in cell) if col.arcs() and row.arcs() else cell
             for col, cell in zip(cols, line)]
            for row, line in zip(rows, cells)
        ]

    monkeypatch.setattr(table_mod, "_closed_cells", corrupted)
    f = field_construct(3, 1)
    with pytest.raises(RouteDisagreement) as info:
        build_table(3, f, full=True)
    err = info.value
    orbit = next(o for o in enumerate_dual_orbits(3, f) if o.label == err.row_label)
    cls = next(k for k in enumerate_superclasses(3, f) if k.label == err.col_label)
    assert err.brute == sch_bruteforce(orbit, cls.rep.dense())
    assert err.closed != err.brute


# -- the spot cross-check averages over either orbit of a cell ----------------


def _both_sides(orbit, cls):
    return (sch_bruteforce(cls, orbit.rep.dense()),
            sch_bruteforce(orbit, cls.rep.dense()))


@pytest.mark.parametrize("n,p,m", ROUTE_CONFIGS)
def test_superclass_average_equals_dual_average_on_every_cell(n, p, m):
    t = _table(n, p, m)
    for orbit in t.dual_orbits:
        for cls in t.superclasses:
            by_class, by_orbit = _both_sides(orbit, cls)
            assert by_class == by_orbit, (orbit.label, cls.label)


def test_superclass_average_equals_dual_average_on_the_spot_cells():
    t = build_table(5, field_construct(3, 1))
    for i, j in _spot_pairs(t):
        by_class, by_orbit = _both_sides(t.dual_orbits[i], t.superclasses[j])
        assert by_class == by_orbit, (i, j)


def test_spot_cross_check_catches_a_cell_averaged_over_its_superclass(monkeypatch):
    f = field_construct(3, 1)
    t = build_table(5, f)
    i, j = next(
        (i, j) for i, j in _spot_pairs(t)
        if t.dual_orbits[i].size > t.superclasses[j].size
    )
    uncorrupted = table_mod._closed_cells

    def corrupted(rows, cols, field):
        # one cell: zeta^t becomes zeta^(t+1), and zero becomes one
        denom, cells = uncorrupted(rows, cols, field)
        cell = cells[i][j]
        cells[i][j] = tuple(((e + 1) % field.p, c) for e, c in cell) or ((0, denom),)
        return denom, cells

    monkeypatch.setattr(table_mod, "_closed_cells", corrupted)
    with pytest.raises(RouteDisagreement) as info:
        build_table(5, f)
    err = info.value
    orbit, cls = t.dual_orbits[i], t.superclasses[j]
    assert (err.row_label, err.col_label) == (orbit.label, cls.label)
    assert err.brute == sch_bruteforce(orbit, cls.rep.dense())
    assert err.closed != err.brute
