"""Trace-pairing dual, contragredient action, dual orbit enumeration.

Oracle: the defining property.  Every fast-move image is replayed through
dense transport of the pairing argument, dual_eval(b', a) against
dual_eval(b, g^-1 a h) over a spanning set of a's; dual_eval, the
character value as a Cyclotomic, is the reference in tests/oracles.py.
"""

import itertools
import random

import pytest

import superchar.dual as dual_mod
import superchar.orbits as orbits_mod
from oracles import dense_members, dual_eval, group_mul, mul, root
from superchar.dual import (
    dual_act,
    dual_canonical,
    dual_orbit,
    enumerate_dual_orbits,
    pairing_exponent,
)
from superchar.gf import field_construct, trace_lift
from superchar.nilpotent import NilMatrix, group_inv, positions
from superchar.partitions import count_labels, parse_coloured


def _random_matrix(n, f, rng):
    entries = {}
    for pos in positions(n):
        v = f.element_by_index(rng.randrange(f.order))
        if v != f.zero:
            entries[pos] = v
    return NilMatrix(n, f, entries)


def _transport(a, g, h):
    # (1+g)^-1 a (1+h) inside the matrix algebra, for bodies g and h:
    # (1+c) a (1+d) with c = group_inv(g), d = h
    c = group_inv(g)
    d = h
    return a + c @ a + a @ d + c @ (a @ d)


def base_character(field, x):
    """tau(x) = zeta_p^lift(Tr(x)), the character of the field that the
    pairing reads."""
    assert x.field == field
    return root(field.p, trace_lift(x))


# ----------------------------------------------------------- base pairing

def test_base_character_worked_examples():
    f2 = field_construct(2, 1)
    assert base_character(f2, f2.zero) == root(2, 0)
    assert base_character(f2, f2.one) == root(2)
    f4 = field_construct(2, 2)
    assert base_character(f4, f4.zero) == root(2, 0)
    assert base_character(f4, f4.gen) == root(2)  # trace of gen is 1
    f3 = field_construct(3, 1)
    assert base_character(f3, f3.one) == root(3)
    assert base_character(f3, f3.from_int(2)) == root(3, 2)


def test_base_character_is_multiplicative_in_addition():
    for f in (field_construct(2, 2), field_construct(3, 1), field_construct(5, 1)):
        for x in f.elements:
            for y in f.elements:
                assert base_character(f, x + y) == \
                    mul(base_character(f, x), base_character(f, y))


def test_base_character_nontrivial():
    for f in (field_construct(2, 1), field_construct(3, 2), field_construct(2, 3)):
        assert any(base_character(f, x) != root(f.p, 0)
                   for x in f.elements)


def test_dual_eval_worked_examples():
    f = field_construct(2, 1)
    zero = NilMatrix.zero(3, f)
    e13 = NilMatrix.single(3, f, 1, 3, f.one)
    e12 = NilMatrix.single(3, f, 1, 2, f.one)
    for a in (zero, e12, e13, e12 + e13):
        assert dual_eval(zero, a) == root(2, 0)
    assert dual_eval(e13, e13) == root(2)
    assert dual_eval(e13, e12) == root(2, 0)
    assert pairing_exponent(e13, e13) == 1
    assert pairing_exponent(e13, e12) == 0


def test_dual_eval_additive_in_argument():
    rng = random.Random(9)
    f = field_construct(3, 1)
    for _ in range(40):
        b = _random_matrix(3, f, rng)
        a1 = _random_matrix(3, f, rng)
        a2 = _random_matrix(3, f, rng)
        assert dual_eval(b, a1 + a2) == mul(dual_eval(b, a1), dual_eval(b, a2))


def test_the_replay_compares_pairing_exponents(monkeypatch):
    # the defining property is read through pairing_exponent: an exponent
    # one off on every other call breaks it at the first basis matrix
    real, calls = dual_mod.pairing_exponent, itertools.count()
    monkeypatch.setattr(dual_mod, "pairing_exponent",
                        lambda b, a: real(b, a) + next(calls) % 2)
    with pytest.raises(AssertionError, match="violates the defining property"):
        dual_mod._validate_moves(3, field_construct(3, 1), (1, 0, 2))


def test_pairing_separates_points():
    # b -> theta_b is injective: nonzero b pairs nontrivially with some
    # basis matrix, so the kernel of the pairing is trivial
    for n, p, m in [(3, 2, 1), (3, 3, 1), (2, 2, 2)]:
        f = field_construct(p, m)
        for state in itertools.product(range(f.order), repeat=len(positions(n))):
            b = NilMatrix.from_dense(n, f, state)
            if b.is_zero():
                continue
            hit = False
            for (i, j) in positions(n):
                for alpha in f.nonzero():
                    a = NilMatrix.single(n, f, i, j, alpha)
                    if pairing_exponent(b, a) != 0:
                        hit = True
                        break
                if hit:
                    break
            assert hit


# ------------------------------------------------------------- the action

def test_dual_act_worked_examples():
    f = field_construct(2, 1)
    one = NilMatrix.zero(3, f)  # the body of the identity
    e13 = NilMatrix.single(3, f, 1, 3, f.one)
    e12 = NilMatrix.single(3, f, 1, 2, f.one)
    assert dual_act(one, one, e13) == e13
    h = NilMatrix.single(3, f, 2, 3, f.one)
    assert dual_act(one, h, e13) == e13 + e12
    # superdiagonal characters are fixed by everything
    algebra = [
        NilMatrix.from_dense(3, f, s) for s in itertools.product((0, 1), repeat=3)
    ]
    for c in algebra:
        for d in algebra:
            assert dual_act(c, d, e12) == e12


def test_dual_act_defining_property():
    rng = random.Random(29)
    for n, p, m in [(3, 2, 1), (3, 3, 1), (4, 2, 1), (3, 2, 2)]:
        f = field_construct(p, m)
        for _ in range(25):
            b = _random_matrix(n, f, rng)
            g = _random_matrix(n, f, rng)
            h = _random_matrix(n, f, rng)
            moved = dual_act(g, h, b)
            for (i, j) in positions(n):
                a = NilMatrix.single(n, f, i, j, f.nonzero()[0])
                assert dual_eval(moved, a) == dual_eval(b, _transport(a, g, h))


def test_dual_act_is_a_left_action():
    rng = random.Random(31)
    f = field_construct(3, 1)
    for _ in range(40):
        b = _random_matrix(4, f, rng)
        g1, h1, g2, h2 = (_random_matrix(4, f, rng) for _ in range(4))
        once = dual_act(g2, h2, dual_act(g1, h1, b))
        assert once == dual_act(group_mul(g2, g1), group_mul(h2, h1), b)


# ----------------------------------------------------------------- orbits

def test_dual_orbit_worked_examples():
    f = field_construct(2, 1)
    zero = NilMatrix.zero(3, f)
    assert dual_orbit(zero) == {zero}
    e12 = NilMatrix.single(3, f, 1, 2, f.one)
    e23 = NilMatrix.single(3, f, 2, 3, f.one)
    e13 = NilMatrix.single(3, f, 1, 3, f.one)
    orbit = dual_orbit(e13)
    assert orbit == {e13, e13 + e12, e13 + e23, e13 + e12 + e23}
    assert dual_orbit(e12 + e23) == {e12 + e23}


def test_dual_canonical_worked_examples():
    f = field_construct(2, 1)
    e13 = NilMatrix.single(3, f, 1, 3, f.one)
    lab = dual_canonical(e13 + NilMatrix.single(3, f, 1, 2, f.one))
    assert lab == parse_coloured("1,3/2 | 1,3=1", 3, f, dual=True)
    assert lab.dual
    e12 = NilMatrix.single(3, f, 1, 2, f.one)
    e23 = NilMatrix.single(3, f, 2, 3, f.one)
    assert dual_canonical(e12 + e23) == parse_coloured(
        "1,2,3 | 1,2=1;2,3=1", 3, f, dual=True)


def test_validated_bfs_accepts_small_configs():
    # validate=True replays every BFS edge against the defining property
    for n, p, m in [(3, 2, 1), (3, 3, 1), (3, 2, 2), (4, 2, 1)]:
        f = field_construct(p, m)
        orbits = enumerate_dual_orbits(n, f, validate=True)
        assert len(orbits) == count_labels(n, f.order)


@pytest.mark.parametrize("p,m", [(3, 1), (2, 2)])
def test_validation_replays_every_state_before_the_walk(monkeypatch, p, m):
    # U_3(F_3) and U_3(F_4): one replay per state of A°, all before any walk
    f = field_construct(p, m)
    events = []
    replay, walk = dual_mod._validate_moves, orbits_mod.orbit_states

    def counting_replay(n, field, state):
        events.append(state)
        return replay(n, field, state)

    def counting_walk(*args):
        events.append("walk")
        return walk(*args)

    monkeypatch.setattr(dual_mod, "_validate_moves", counting_replay)
    monkeypatch.setattr(orbits_mod, "orbit_states", counting_walk)
    orbits = enumerate_dual_orbits(3, f, validate=True)
    states = events[:f.order ** 3]
    assert events[len(states):] == ["walk"] * len(orbits)
    assert len(set(states)) == len(states) == f.order ** 3
    assert set(states) == {s for o in orbits for s in dense_members(o)}


def test_singleton_orbits_are_exactly_superdiagonal_labels():
    for n, q in [(3, 2), (3, 3), (4, 2)]:
        f = field_construct(q, 1)
        for orb in enumerate_dual_orbits(n, f):
            superdiag = all(j == i + 1 for (i, j) in orb.label.arcs())
            assert (orb.size == 1) == superdiag


def test_elementary_orbit_size_law():
    # single-arc labels: orbit size q^(2(j-i-1)), checked by raw BFS
    for n, q in [(3, 2), (4, 2), (4, 3), (5, 2)]:
        f = field_construct(q, 1)
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                b = NilMatrix.single(n, f, i, j, f.one)
                assert len(dual_orbit(b)) == q ** (2 * (j - i - 1))


def test_dual_orbits_cover_the_space():
    for n, p, m in [(3, 2, 1), (3, 3, 1), (4, 2, 1), (3, 2, 2)]:
        f = field_construct(p, m)
        orbits = enumerate_dual_orbits(n, f)
        assert sum(o.size for o in orbits) == f.order ** len(positions(n))
        seen = set()
        for o in orbits:
            members = {NilMatrix.from_dense(n, f, s) for s in dense_members(o)}
            assert len(members) == o.size
            assert not (seen & members)
            seen |= members
        # canonical labels are constant on orbits
        for o in orbits[:4]:
            for s in dense_members(o):
                b = NilMatrix.from_dense(n, f, s)
                assert dual_canonical(b) == o.label
