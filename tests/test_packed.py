"""Packed states: the orbit walk on ints, the one-multiply pairing, and the
bit-mask closed table, each against the slow path it replaced.

Oracles in tests/oracles.py: the coset walk on dense tuples
(coset_orbit_states), the pairing histogram on dense states
(pairing_hist), and the closed shape on arc sets with the cell-by-cell
closed table (closed_shape, closed_cells).  The packing must also keep
the order of the dense tuples, since orbit members are sorted packed ints
and the first failing member of a class is the smallest.  A failure
still names its member as a dense tuple, pinned byte for byte.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import superchar.table as table_mod
from superchar.gf import field_construct
from superchar.nilpotent import fits_space, positions
from superchar.orbits import _move_programs, _packing, orbit_states, pack, unpack
from superchar.partitions import _closed_shape, build_e, enumerate_labels, enumerate_partitions
from superchar.table import (
    RouteDisagreement,
    _closed_cells,
    _pairing_hist,
    build_table,
    table_from_json,
    table_to_json,
    verify_theory,
)

# as in test_route: every config with |A| <= 4096 and q <= 16
SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1),
                (13, 1), (2, 4)]
ROUTE_CONFIGS = (
    [(1, 2, 1), (1, 3, 1)]
    + [(2, p, m) for p, m in SMALL_FIELDS]
    + [(3, p, m) for p, m in SMALL_FIELDS]
    + [(4, 2, 1), (4, 3, 1), (4, 2, 2), (5, 2, 1)]
)
# every ROUTE_CONFIGS table, the two largest walks of the benchmark's
# tables, and GF(8) and GF(9) at n = 4
WALK_CONFIGS = ROUTE_CONFIGS + [(5, 3, 1), (6, 2, 1), (4, 2, 3), (4, 3, 2)]


@pytest.mark.parametrize("dual", [False, True], ids=["superclass", "dual"])
@pytest.mark.parametrize("n,p,m", WALK_CONFIGS)
def test_packed_walk_matches_tuple_walk_on_every_orbit(n, p, m, dual):
    f = field_construct(p, m)
    for label in enumerate_labels(n, f, dual=dual):
        start = build_e(label, f).dense()
        packed = orbit_states(n, f, start, dual)
        dense = oracles.coset_orbit_states(n, f, start, dual)
        # sorted ints read back are the sorted tuples: members keep tuple order
        assert [unpack(n, f, x) for x in sorted(packed)] == sorted(dense), label


@settings(max_examples=80, deadline=None)
@given(
    config=st.sampled_from([(3, 2, 2), (3, 2, 3), (3, 3, 2), (4, 3, 1), (4, 2, 2),
                            (3, 7, 1), (3, 5, 1), (5, 2, 1), (4, 5, 1)]),
    dual=st.booleans(),
    data=st.data(),
)
def test_packed_walk_matches_tuple_walk_from_random_starts(config, dual, data):
    n, p, m = config
    f = field_construct(p, m)
    size = len(positions(n))
    start = tuple(data.draw(st.lists(st.integers(0, f.order - 1),
                                     min_size=size, max_size=size)))
    packed = orbit_states(n, f, start, dual)
    assert pack(f, start) in packed
    assert {unpack(n, f, x) for x in packed} == oracles.coset_orbit_states(n, f, start, dual)


PACK_CONFIGS = [(3, 2, 1), (4, 3, 1), (3, 2, 2), (3, 2, 3), (3, 3, 2), (5, 3, 1),
                (6, 2, 1), (3, 101, 1), (2, 251, 2), (2, 65521, 1)]


@settings(max_examples=200, deadline=None)
@given(config=st.sampled_from(PACK_CONFIGS), data=st.data())
def test_int_order_is_tuple_order(config, data):
    n, p, m = config
    f = field_construct(p, m)
    size = len(positions(n))
    states = st.lists(st.integers(0, f.order - 1), min_size=size, max_size=size)
    a, b = tuple(data.draw(states)), tuple(data.draw(states))
    assert unpack(n, f, pack(f, a)) == a
    assert (pack(f, a) < pack(f, b)) == (a < b)
    assert (pack(f, a) == pack(f, b)) == (a == b)


def test_every_superdiagonal_program_is_one_shift():
    # the walk moves a program's sources with one mask and one shift, so
    # every pair of a superdiagonal program is the same rank offset apart
    for n in range(2, 9):
        for dual in (False, True):
            for _, _, pairs, _ in _move_programs(n, dual):
                assert len({d - s for d, s in pairs}) <= 1, (n, dual, pairs)


# the widest packing under the default caps (U_2(F_65521), w = 33), the
# widest with two digits (U_2(F_251^2)) and with three entries (U_3(F_101))
@pytest.mark.parametrize("n,p,m", [(2, 65521, 1), (2, 251, 2), (3, 101, 1),
                                   (4, 3, 1), (3, 2, 3), (4, 2, 2)])
def test_one_multiply_pairing_matches_the_dense_pairing(n, p, m):
    f = field_construct(p, m)
    assert fits_space(n, f)
    size, top = len(positions(n)), f.order - 1
    w = _packing(f, size)[0]
    assert w == (m * size * (p - 1) ** 2).bit_length() + 1
    rng = random.Random(n * 1000 + p + m)
    # the largest digit sums: every digit p - 1, of b and of a's trace duals
    full_dual = table_mod._trace_dual_index(f).index(top)
    members = [(top,) * size] + [tuple(rng.randrange(f.order) for _ in range(size))
                                 for _ in range(200)]
    for a in [(full_dual,) * size, (top,) * size] + members[1:20]:
        assert _pairing_hist([pack(f, b) for b in members], a, f) == (
            oracles.pairing_hist(members, a, f)), a


@pytest.mark.parametrize("n", range(1, 7))
def test_mask_shape_matches_the_arc_set_shape_on_every_pair(n):
    parts = list(enumerate_partitions(n))
    for pi in parts:
        for pip in parts:
            assert _closed_shape(pi, pip) == oracles.closed_shape(pi, pip), (pi, pip)


@pytest.mark.parametrize("n,p,m", ROUTE_CONFIGS + [(5, 3, 1), (6, 2, 1), (3, 19, 1)])
def test_closed_cells_match_the_cell_by_cell_table(n, p, m):
    f = field_construct(p, m)
    rows, cols = enumerate_labels(n, f, dual=True), enumerate_labels(n, f)
    assert _closed_cells(rows, cols, f) == oracles.closed_cells(rows, cols, f)


# -- a failure names its member as a dense tuple -----------------------------


def test_constancy_detail_names_the_member_as_a_dense_tuple():
    f = field_construct(3, 1)
    obj = table_to_json(build_table(4, f))
    obj["values"][7][21] = obj["values"][7][22]  # two cells that differ
    checks = verify_theory(table_from_json(obj))
    assert [c for c in checks if c[0] == "superclass-constancy"] == [
        ("superclass-constancy", False, "row 7, column 21, member (0, 0, 0, 1, 0, 2)")
    ]


@pytest.mark.parametrize("n,message", [
    (3, "routes disagree at row '1,2/3 | 1,2=1', column '1,2/3 | 1,2=1': "
        "closed -1 + -1*z vs average 0 + 1*z"),
    (5, "routes disagree at row '1,2,3/4,5 | 1,2=2;2,3=1;4,5=1', "
        "column '1,2/3/4,5 | 1,2=2;4,5=1': closed 0 + 1*z vs average -1 + -1*z"),
])
def test_route_disagreement_message_is_unchanged(monkeypatch, n, message):
    # U_3(F_3) by the full route, U_5(F_3) by the spot cells
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
    with pytest.raises(RouteDisagreement) as info:
        build_table(n, field_construct(3, 1))
    assert str(info.value) == message
