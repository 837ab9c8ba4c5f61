"""The averaging route as one additive Fourier transform.

Oracles: _pairing_hist, which sums the pairing character over the orbit
members one cell at a time, and the member-by-member constancy scan in
tests/oracles.py.  The transform's row blocks must reproduce the first on
every cell, and the verdict read by both the full cross-check and
verify_theory must give the second's verdict and detail on tables whose
dual orbits have been tampered with, at the default block size and at one
row per block.  The average over a cell's superclass, which the spot
cross-check takes where that is the smaller orbit, must equal the average
over its dual orbit.  The route and the Gram on one row per torus orbit
must give the report of a copy that checks every row, and each torus pass
must catch the corruption that only it can see.
"""

import random
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import itertools

import oracles
import superchar.table as table_mod
from superchar.cyclotomic import Cyclotomic
from superchar.dual import DualOrbit, enumerate_dual_orbits
from superchar.gf import field_construct
from superchar.orbits import Superclass, enumerate_superclasses, pack, unpack
from superchar.table import (
    RouteDisagreement,
    SupercharTable,
    _additive_fourier,
    _equivariant,
    _orbit_rows,
    _pairing_hist,
    _route_blocks,
    _route_failure,
    _route_scan,
    _spot_pairs,
    _torus_axis,
    _transported,
    build_table,
    sch_bruteforce,
    table_from_json,
    table_to_json,
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
        t.n, t.field, dual_orbits or t.dual_orbits, t.superclasses, t.integer_cells()
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
    for rows, j, col, decode in _route_blocks(t, range(t.size)):
        key = [c[0] for c in col]
        assert all(c.count(e) == len(c) for c, e in zip(col, key))
        rep = t.superclasses[j].rep.dense()
        assert decode(key) == [oracles.pairing_hist(oracles.dense_members(t.dual_orbits[i]),
                                                    rep, t.field)
                               for i in rows]
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
        DualOrbit(o.label, o.field, len(ms), tuple(sorted(ms)))
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
    for state in oracles.dense_members(t.superclasses[j]):
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
    m = oracles.dense_members(later.superclasses[j]).index(state)
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
    # one row per torus orbit: the 15 all-ones colourings, one per partition
    assert calls == len(t._rows) * len(t.superclasses) == 15 * 49
    assert all(ok for _, ok, _ in verify_theory(t))
    assert calls == 735


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


# -- one row per torus orbit ---------------------------------------------------


def _all_ones_rows(t):
    return [i for i, o in enumerate(t.dual_orbits)
            if all(v == t.field.one for v in o.label.colours.values())]


def _every_row(monkeypatch):
    """The full scan: the route and the Gram on every row."""
    monkeypatch.setattr(table_mod, "_orbit_rows", lambda table: range(table.size))


@pytest.mark.parametrize("n,p,m", ROUTE_CONFIGS)
def test_one_row_per_torus_orbit_gives_the_full_report(n, p, m, monkeypatch):
    t = _fresh(_table(n, p, m))
    reduced = verify_theory(t)
    assert list(t._rows) == _all_ones_rows(t)  # Bell(n) rows, every row at q = 2
    if t.order <= 729:
        assert reduced[4] == oracles.constancy_check(t)
        assert reduced[5] == oracles.half_gram_check(t)
    _every_row(monkeypatch)
    full = _fresh(t)
    assert verify_theory(full) == reduced
    assert list(full._rows) == list(range(t.size))


def _with_values(t, change):
    """t with values[i][j] = change(i, j, value) on every cell."""
    values = [[change(i, j, v) for j, v in enumerate(row)] for i, row in enumerate(t.values)]
    return oracles.with_values(t, values)


def _bumped(v):
    """A cell moved off its value: zeta times it, or 1 where it is 0."""
    return oracles.mul(v, oracles.root(v.p)) if v else oracles.root(v.p, 0)


def _reports_agree(t):
    report = verify_theory(t)
    assert report[4] == oracles.constancy_check(t)
    assert report[5] == oracles.half_gram_check(t)
    return report


def test_a_corrupted_non_representative_cell_is_caught_by_equivariance():
    base = _table(3, 3, 1)
    reps = _all_ones_rows(base)
    i = next(i for i in range(base.size) if i not in reps)
    t = _with_values(base, lambda a, b, v: _bumped(v) if (a, b) == (i, 4) else v)
    rows = _torus_axis(t.dual_orbits, t.field)
    assert not _equivariant(t, rows, _torus_axis(t.superclasses, t.field))
    # the representatives alone see nothing
    assert _route_scan(t, reps) is None
    report = _reports_agree(t)
    assert not report[4][1] and not report[5][1]
    assert list(t._rows) == list(range(t.size))


def test_a_representative_row_fixed_by_no_stabilizer_is_caught():
    # the trivial row is its own torus orbit; one cell of it off breaks
    # its invariance under the torus, which fixes its label
    base = _table(3, 3, 1)
    j = next(j for j, k in enumerate(base.superclasses) if k.label.arcs())
    t = _with_values(base, lambda a, b, v: _bumped(v) if (a, b) == (0, j) else v)
    assert not _equivariant(t, _torus_axis(t.dual_orbits, t.field),
                            _torus_axis(t.superclasses, t.field))
    assert not _reports_agree(t)[4][1]


def _corrupted_along_a_torus_orbit():
    """U_3(F_3) with one cell moved along its whole torus orbit,
    (s.lambda0, s.K) for every s: both passes hold, and lambda0 fails."""
    base = _table(3, 3, 1)
    f = base.field
    lam = next(k for k in _all_ones_rows(base) if len(base.dual_orbits[k].label.arcs()) == 1)
    row_of = {o.label: i for i, o in enumerate(base.dual_orbits)}
    col_of = {k.label: j for j, k in enumerate(base.superclasses)}
    K = base.superclasses[5].label
    cells = {(row_of[oracles.torus_label(base.dual_orbits[lam].label, s, f)],
              col_of[oracles.torus_label(K, s, f)])
             for s in itertools.product(range(f.order - 1), repeat=base.n)}
    return _with_values(base, lambda a, b, v: _bumped(v) if (a, b) in cells else v)


def _logged(monkeypatch, name, log):
    """Record the rows each call of table_mod.name checks, its last argument."""
    real = getattr(table_mod, name)
    monkeypatch.setattr(table_mod, name, lambda *args: log.append(list(args[-1])) or real(*args))


def test_a_corrupted_representative_cell_is_caught_by_the_route(monkeypatch):
    t = _corrupted_along_a_torus_orbit()
    reps = _all_ones_rows(t)
    assert list(_orbit_rows(t)) == reps
    scans, grams = [], []
    _logged(monkeypatch, "_route_scan", scans)
    _logged(monkeypatch, "_first_bad_gram_row", grams)
    report = _reports_agree(t)
    assert not report[4][1] and not report[5][1]
    # the failure on the representatives sends the route, and only the
    # route, over every row; the Gram scans the representatives once
    assert scans == [reps, list(range(t.size))]
    assert grams == [reps]
    assert list(t._rows) == reps


def test_rows_read_back_out_of_order_are_each_checked():
    # the table above, read back with its first non-representative row,
    # 1,2/3 | 1,2=2 of the corrupted torus orbit, moved to the front: the
    # Gram on the representatives alone would read "fails at rows (1, 2)"
    # where the full scan reads (0, 1)
    t = _corrupted_along_a_torus_orbit()
    obj = table_to_json(t)
    k = next(i for i in range(t.size) if i not in _all_ones_rows(t))
    for key in ("rows", "values"):
        obj[key].insert(0, obj[key].pop(k))
    back = table_from_json(obj)
    assert list(_orbit_rows(back)) == list(range(back.size))
    assert not _reports_agree(back)[5][1]


def test_a_moved_member_of_a_non_representative_row_is_caught_by_transport():
    base = _table(3, 3, 1)
    reps = _all_ones_rows(base)
    src, dst = [i for i in range(base.size) if i not in reps][:2]
    t = _tampered(base, [(src, 0, dst, True)])  # a member of each swapped
    rows = _torus_axis(t.dual_orbits, t.field)
    assert not _transported(t.dual_orbits, *rows, t.field, False)
    assert _route_scan(t, reps) is None
    assert not _reports_agree(t)[4][1]
    assert list(t._rows) == list(range(t.size))


def test_swapped_members_of_two_columns_are_caught_by_transport():
    # U_2(F_4): the all-ones row reads zeta^Tr(c) on the class of c, which
    # is -1 at both c = w and c = w^2; swapping those two classes' members
    # fools it, but not the row of colour w
    f = field_construct(2, 2)
    base = _table(2, 2, 2)
    w, w2 = f.gen, f.gen * f.gen
    at = {k.label.colours.get((1, 2)): j for j, k in enumerate(base.superclasses)}
    cols = list(base.superclasses)
    for c, other in ((w, w2), (w2, w)):
        k = base.superclasses[at[c]]
        cols[at[c]] = Superclass(k.label, f, 1, base.superclasses[at[other]].members)
    t = SupercharTable(base.n, f, base.dual_orbits, cols, base.integer_cells())
    assert not _transported(t.superclasses, *_torus_axis(t.superclasses, f), f, True)
    assert _route_scan(t, _all_ones_rows(t)) is None
    assert not _reports_agree(t)[4][1]


def test_a_representative_column_not_fixed_by_its_stabilizer_is_caught():
    # the class of e_12 in U_3(F_3), {a12 = 1, a23 = 0}, is fixed by the
    # torus elements constant on {1, 2} and {3}; its copy with a13 = 1
    # swapped for a23 = 1 is not, and its torus images keep transport
    f = field_construct(3, 1)
    axis = enumerate_superclasses(3, f)
    reps, logs = _torus_axis(axis, f)
    r = next(k for k, o in enumerate(axis)
             if list(o.label.colours) == [(1, 2)] and reps[k] == k)
    members = [unpack(3, f, x) for x in axis[r].members]
    members[members.index((1, 1, 0))] = (1, 0, 1)
    moved = list(axis)
    for k, o in enumerate(axis):
        if reps[k] == r:
            states = [oracles.torus_state(3, f, x, logs[k]) for x in members]
            moved[k] = Superclass(o.label, f, o.size, tuple(sorted(pack(f, x) for x in states)))
    assert _transported(moved, reps, logs, f, False)
    assert not _transported(moved, reps, logs, f, True)
    assert _transported(axis, reps, logs, f, True)


def test_transport_reads_members_as_the_torus_moves_them():
    # every orbit of both axes is t.(its all-ones orbit), state by state
    for n, p, m in [(3, 3, 1), (3, 2, 2), (4, 3, 1), (3, 5, 1)]:
        t = _table(n, p, m)
        for axis in (t.dual_orbits, t.superclasses):
            reps, logs = _torus_axis(axis, t.field)
            for o, r, s in zip(axis, reps, logs):
                moved = {pack(t.field, oracles.torus_state(n, t.field, x, s, o.dual))
                         for x in oracles.dense_members(axis[r])}
                assert moved == set(o.members)
