"""Two-sided orbits on A, superclass enumeration, canonical forms.

Oracle: exhaustive BFS over the orbit, with a scan for the unique member
whose nonzero entries hit each row and column at most once.  The fast
elimination in canonical_form must reproduce that member exactly.
"""

import random

import pytest

from oracles import group_mul, to_state, verge_state
from superchar.gf import field_construct
from superchar.nilpotent import NilMatrix, group_inv, parse_matrix, positions
from superchar.orbits import (
    canonical_form,
    enumerate_superclasses,
    orbit_states,
    superclass_orbit,
)
from superchar.partitions import build_e, count_labels, enumerate_labels, parse_coloured


# ---------------------------------------------------------------- oracles

def _random_matrix(n, f, rng):
    entries = {}
    for pos in positions(n):
        v = f.element_by_index(rng.randrange(f.order))
        if v != f.zero:
            entries[pos] = v
    return NilMatrix(n, f, entries)


# ------------------------------------------------------------- orbit BFS

def test_orbit_worked_examples():
    f = field_construct(2, 1)
    zero = NilMatrix.zero(3, f)
    assert superclass_orbit(zero) == {zero}
    e12 = NilMatrix.single(3, f, 1, 2, f.one)
    e13 = NilMatrix.single(3, f, 1, 3, f.one)
    assert superclass_orbit(e12) == {e12, e12 + e13}
    assert superclass_orbit(e13) == {e13}


def test_orbit_is_invariant_under_two_sided_moves():
    rng = random.Random(3)
    for n, q in [(3, 3), (4, 2)]:
        f = field_construct(q, 1)
        for _ in range(10):
            a = _random_matrix(n, f, rng)
            orbit = superclass_orbit(a)
            g = _random_matrix(n, f, rng)
            h = _random_matrix(n, f, rng)
            # (1+c) a (1+d) = a + ca + ad + cad for the bodies c of 1 + g
            # and d of (1 + h)^-1
            c, d = g, group_inv(h)
            full = a + c @ a + a @ d + c @ (a @ d)
            assert full in orbit
            for b in orbit:
                assert superclass_orbit(b) == orbit


def test_orbit_sizes_divide_group_squared():
    for n, q in [(3, 2), (3, 3), (4, 2)]:
        f = field_construct(q, 1)
        order = q ** len(positions(n))
        for sc in enumerate_superclasses(n, f):
            assert (order * order) % sc.size == 0


def test_superclasses_are_unions_of_conjugacy_classes():
    rng = random.Random(17)
    for n, q in [(3, 2), (3, 3), (4, 2)]:
        f = field_construct(q, 1)
        for _ in range(25):
            a = _random_matrix(n, f, rng)
            orbit = superclass_orbit(a)
            g = _random_matrix(n, f, rng)
            conj = group_mul(group_mul(g, a), group_inv(g))  # (1+g)(1+a)(1+g)^-1
            assert conj in orbit


# --------------------------------------------------------- canonical form

def test_canonical_form_worked_examples():
    f2 = field_construct(2, 1)
    z = canonical_form(NilMatrix.zero(3, f2))
    assert z.arcs() == frozenset() and z.colours == {}
    a = parse_matrix("a12=1,a13=1", 3, f2)
    lab = canonical_form(a)
    assert lab == parse_coloured("1,2/3 | 1,2=1", 3, f2)
    f3 = field_construct(3, 1)
    b = parse_matrix("a12=2,a13=1", 3, f3)
    assert canonical_form(b) == parse_coloured("1,2/3 | 1,2=2", 3, f3)


def test_canonical_form_is_idempotent_on_labels():
    for f in (field_construct(2, 1), field_construct(3, 1), field_construct(2, 2)):
        for lab in enumerate_labels(3, f):
            assert canonical_form(build_e(lab, f)) == lab
        for lab in enumerate_labels(4, f):
            assert canonical_form(build_e(lab, f)) == lab


def test_canonical_form_matches_orbit_scan_oracle():
    rng = random.Random(41)
    for n, p, m in [(3, 2, 1), (3, 3, 1), (4, 2, 1), (3, 2, 2), (4, 3, 1)]:
        f = field_construct(p, m)
        for _ in range(30):
            a = _random_matrix(n, f, rng)
            verge = verge_state(n, orbit_states(n, f, a.dense()))
            assert to_state(n, canonical_form(a).colours) == verge


def test_canonical_form_constant_on_orbits():
    rng = random.Random(8)
    f = field_construct(3, 1)
    for _ in range(10):
        a = _random_matrix(4, f, rng)
        lab = canonical_form(a)
        orbit = superclass_orbit(a)
        assert build_e(lab, f) in orbit
        for b in orbit:
            assert canonical_form(b) == lab


# ------------------------------------------------------------ enumeration

def test_enumerate_superclasses_golden_u3_f2():
    from superchar import format_coloured
    f = field_construct(2, 1)
    scs = enumerate_superclasses(3, f)
    assert [format_coloured(sc.label) for sc in scs] == [
        "1/2/3",
        "1,2/3 | 1,2=1",
        "1/2,3 | 2,3=1",
        "1,2,3 | 1,2=1;2,3=1",
        "1,3/2 | 1,3=1",
    ]
    assert [sc.size for sc in scs] == [1, 2, 2, 2, 1]


def test_enumerate_superclasses_n2_all_singletons():
    for q in (2, 3, 5):
        f = field_construct(q, 1)
        scs = enumerate_superclasses(2, f)
        assert len(scs) == q
        assert all(sc.size == 1 for sc in scs)


def test_enumerate_superclasses_n1():
    f = field_construct(2, 1)
    scs = enumerate_superclasses(1, f)
    assert len(scs) == 1 and scs[0].size == 1


def test_superclass_cover_and_count():
    for n, p, m in [(3, 3, 1), (4, 2, 1), (4, 3, 1), (3, 2, 2)]:
        f = field_construct(p, m)
        scs = enumerate_superclasses(n, f)
        assert len(scs) == count_labels(n, f.order)
        assert sum(sc.size for sc in scs) == f.order ** len(positions(n))
        seen = set()
        for sc in scs:
            members = {NilMatrix.from_dense(n, f, s) for s in sc.members}
            assert len(members) == sc.size
            assert not (seen & members)
            seen |= members
            assert sc.rep in members
            assert sc.rep == build_e(sc.label, f)


def test_superclass_members_share_canonical_form():
    f = field_construct(3, 1)
    for sc in enumerate_superclasses(3, f):
        for b in (NilMatrix.from_dense(3, f, s) for s in sc.members):
            assert canonical_form(b) == sc.label
