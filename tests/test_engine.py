"""The dense orbit engine behind superclasses and dual orbits, and the
shortcuts that stand in for it: closed orbit sizes and the eliminations.

Oracles: the sparse dict BFS in tests/oracles.py, which applies every
elementary move 1 + alpha*e_ij with every nonzero alpha in FieldElement
arithmetic, and the basis-scalar walk that the coset walk replaced, which
applies the compiled programs with alpha over the F_p-basis only.  The
engine generates whole superdiagonal root-subgroup cosets, so equal orbit
sets also check the generation argument.
The engine's orbits in turn are the oracle for the closed sizes
q^|S(pi)| and q^r(pi), and, scanned by verge_state, for the labels that
canonical_form and dual_canonical find by elimination.  Above the space
cap, where no orbit can be walked, the entry-dict eliminations of
tests/oracles.py are their oracle, and the NilMatrix actions check every
root-subgroup program the eliminations use.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    basis_orbit_states,
    compute_SR,
    dense_orbit,
    dict_canonical_form,
    dict_dual_canonical,
    dict_orbit_states,
    r_of,
    to_state,
    verge_state,
)
from superchar import orbits
from superchar.dual import dual_act, dual_canonical, enumerate_dual_orbits
from superchar.gf import field_construct, space_cap
from superchar.nilpotent import NilMatrix, positions
from superchar.orbits import canonical_form, orbit_states
from superchar.partitions import (
    ColouredPartition,
    build_e,
    enumerate_labels,
    enumerate_partitions,
)


def closed_size(label, q):
    """q^r(pi) for a dual orbit, q^|S(pi)| for a superclass, on sets."""
    if label.dual:
        return q ** r_of(label.partition)
    return q ** len(compute_SR(label.partition)[0])


# every (n, q) with n >= 3 and |A| <= 4096, and n = 2 (no moves) up to q = 16
SMALL_CONFIGS = (
    [(2, p, m) for p, m in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3),
                            (3, 2), (11, 1), (13, 1), (2, 4)]]
    + [(3, p, m) for p, m in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3),
                              (3, 2), (11, 1), (13, 1), (2, 4)]]
    + [(4, 2, 1), (4, 3, 1), (4, 2, 2), (5, 2, 1)]
)


@pytest.mark.parametrize("dual", [False, True], ids=["superclass", "dual"])
@pytest.mark.parametrize("n,p,m", SMALL_CONFIGS)
def test_engine_matches_dict_bfs_on_every_label(n, p, m, dual):
    f = field_construct(p, m)
    assert f.order ** len(positions(n)) <= 4096
    for label in enumerate_labels(n, f, dual=dual):
        rep = build_e(label, f)
        got = dense_orbit(n, f, rep.dense(), dual)
        assert got == dict_orbit_states(n, f, dict(rep.entries), dual), label
        assert closed_size(label, f.order) == len(got), label


HYPOTHESIS_CONFIGS = [(3, 3, 1), (3, 2, 2), (3, 5, 1), (4, 2, 1), (4, 3, 1),
                      (4, 2, 2), (5, 2, 1), (3, 2, 3)]


@settings(max_examples=60, deadline=None)
@given(
    config=st.sampled_from(HYPOTHESIS_CONFIGS),
    dual=st.booleans(),
    data=st.data(),
)
def test_engine_matches_dict_bfs_from_random_starts(config, dual, data):
    n, p, m = config
    f = field_construct(p, m)
    start = tuple(
        data.draw(st.lists(
            st.integers(0, f.order - 1),
            min_size=len(positions(n)), max_size=len(positions(n)),
        ))
    )
    entries = dict(NilMatrix.from_dense(n, f, start).entries)
    assert dense_orbit(n, f, start, dual) == dict_orbit_states(n, f, entries, dual)


@pytest.mark.parametrize("corruption", ["sign", "destination", "swap"])
def test_corrupted_move_program_fails_validation(monkeypatch, corruption):
    compiled = orbits._move_programs

    def corrupted(n, dual):
        programs = list(compiled(n, dual))
        k = next(k for k, prog in enumerate(programs) if prog[2])
        i, left, pairs, sign = programs[k]
        if corruption == "sign":
            programs[k] = (i, left, pairs, -sign)
        elif corruption == "swap":  # source and destination exchanged
            programs[k] = (i, left, tuple((s, d) for d, s in pairs), sign)
        else:
            (dst, src), rest = pairs[0], pairs[1:]
            other = next(r for r in range(len(positions(n))) if r not in (dst, src))
            programs[k] = (i, left, ((other, src),) + rest, sign)
        return tuple(programs)

    f = field_construct(3, 1)
    enumerate_dual_orbits(3, f, validate=True)
    monkeypatch.setattr(orbits, "_move_programs", corrupted)
    with pytest.raises(AssertionError, match="disagrees with the transport"):
        enumerate_dual_orbits(3, f, validate=True)


def test_field_without_index_tables(monkeypatch):
    # no field holds an O(q^2) table; a walk over GF(257) runs on its O(q)
    # log and Zech tables under a raised cap (257^3 exceeds the default)
    monkeypatch.setenv("SUPERCHAR_CAP", "20000000")
    f = field_construct(257, 1)
    e12 = NilMatrix.single(3, f, 1, 2, f.one)
    assert len(orbit_states(3, f, e12.dense())) == 257
    assert len(orbit_states(3, f, e12.dense(), dual=True)) == 1
    e23 = NilMatrix.single(3, f, 2, 3, f.one)
    assert dense_orbit(3, f, e23.dense()) == dict_orbit_states(
        3, f, dict(e23.entries)
    )


def test_images_bounded_by_superdiagonal_moves(monkeypatch):
    # a deterministic cost guard: each superdiagonal root-subgroup coset is
    # generated once, so a walk makes at most 2(n-1)|O| images (one per state
    # and subgroup), where the basis-scalar walk made up to 2(n-1)m|O| and
    # every elementary move up to n(n-1)(q-1)|O|; every state but the start
    # is an image.  A coset expansion iterates the walk's Gray-code step
    # list seq once and makes one image per step, q - 1 in all
    expansions = []

    class CountingSeq(list):
        def __iter__(self):
            expansions.append(len(self))
            return super().__iter__()

    packing = orbits._packing

    def counting_packing(field, size):
        w, spread, gather, ones, seq, times = packing(field, size)
        return w, spread, gather, ones, CountingSeq(seq), times

    monkeypatch.setattr(orbits, "_packing", counting_packing)
    orbits._walk_moves.cache_clear()
    try:
        for n, p, m in [(4, 3, 1), (4, 2, 2), (3, 3, 2)]:
            f = field_construct(p, m)
            for dual in (False, True):
                for label in enumerate_labels(n, f, dual=dual):
                    expansions.clear()
                    size = len(orbit_states(n, f, build_e(label, f).dense(), dual))
                    assert size - 1 <= sum(expansions) <= 2 * (n - 1) * size, label
                    assert all(k == f.order - 1 for k in expansions)
    finally:
        orbits._walk_moves.cache_clear()


def _one_label_per_partition(n, f, dual):
    """A label on every set partition of [n], its arc colours spread over
    F_q^* and away from the F_p-basis."""
    out = []
    for pi in enumerate_partitions(n):
        arcs = sorted(pi.arcs())
        colours = {
            arc: f.element_by_index(f.exp[(5 * k + 3) % (f.order - 1)])
            for k, arc in enumerate(arcs)
        }
        out.append(ColouredPartition(pi, colours, dual=dual))
    return out


# n = 3 and 4 over the extension fields up to GF(16); U_4(F_16) needs a
# raised space cap.  The dict BFS, about 0.3 ms a state over GF(16), runs
# on the orbits of at most 1024 states
EXTENSION_CONFIGS = [(3, 2, 2), (4, 2, 2), (3, 2, 3), (4, 2, 3), (3, 3, 2),
                     (4, 3, 2), (3, 2, 4), (4, 2, 4)]


@pytest.mark.parametrize("dual", [False, True], ids=["superclass", "dual"])
@pytest.mark.parametrize("n,p,m", EXTENSION_CONFIGS)
def test_coset_walk_matches_basis_and_dict_bfs(monkeypatch, n, p, m, dual):
    monkeypatch.setenv("SUPERCHAR_CAP", str(1 << 24))
    f = field_construct(p, m)
    for label in _one_label_per_partition(n, f, dual):
        rep = build_e(label, f)
        got = dense_orbit(n, f, rep.dense(), dual)
        assert got == basis_orbit_states(n, f, rep.dense(), dual), label
        assert len(got) == closed_size(label, f.order), label
        if len(got) <= 1024:
            assert got == dict_orbit_states(n, f, dict(rep.entries), dual), label


@pytest.mark.parametrize("dual", [False, True], ids=["superclass", "dual"])
def test_coset_walk_over_gf64(dual):
    f = field_construct(2, 6)
    # the largest orbit: the chain 1-2-3 (64 states) or the dual 1,3/2 (4096)
    label = max(
        _one_label_per_partition(3, f, dual), key=lambda lab: closed_size(lab, 64)
    )
    rep = build_e(label, f)
    got = dense_orbit(3, f, rep.dense(), dual)
    assert got == basis_orbit_states(3, f, rep.dense(), dual)
    assert got == dict_orbit_states(3, f, dict(rep.entries), dual)
    assert len(got) == closed_size(label, f.order)


# both kinds; over GF(9) -1 has log 4, so c = -v/pivot differs from v/pivot
# in the index arithmetic, and GF(8) has m = 3 with p = 2
@pytest.mark.parametrize(
    "n,p,m,dual",
    [(3, 3, 1, True), (4, 2, 1, True), (3, 2, 2, True), (4, 2, 1, False)]
    + [(3, 3, 1, False), (3, 2, 2, False)]
    + [(n, p, m, dual) for n, p, m in [(3, 3, 2), (3, 2, 3), (3, 7, 1), (4, 3, 1)]
       for dual in (False, True)],
)
def test_elimination_matches_orbit_scan_on_every_matrix(n, p, m, dual):
    f = field_construct(p, m)
    canonical = dual_canonical if dual else canonical_form
    for start in itertools.product(range(f.order), repeat=len(positions(n))):
        label = canonical(NilMatrix.from_dense(n, f, start))
        assert label.dual == dual
        verge = verge_state(n, dense_orbit(n, f, start, dual))
        assert to_state(n, label.colours) == verge, start


# n <= 5 and q in {2, 3, 4, 5}, leaving out U_5(F_4), whose typical orbit
# of 4^8 states takes about a second to walk, and U_5(F_5), above the space
# cap; then GF(64) and GF(8), where the Zech rows are long
ELIMINATION_CONFIGS = [(2, 5, 1), (3, 2, 1), (3, 3, 1), (3, 2, 2), (3, 5, 1),
                       (4, 2, 1), (4, 3, 1), (4, 2, 2), (4, 5, 1), (5, 2, 1),
                       (5, 3, 1), (3, 2, 6), (4, 2, 3)]


@settings(max_examples=200, deadline=None)
@given(
    config=st.sampled_from(ELIMINATION_CONFIGS),
    dual=st.booleans(),
    data=st.data(),
)
def test_elimination_matches_orbit_scan_from_random_starts(config, dual, data):
    n, p, m = config
    f = field_construct(p, m)
    start = tuple(
        data.draw(st.lists(
            st.integers(0, f.order - 1),
            min_size=len(positions(n)), max_size=len(positions(n)),
        ))
    )
    canonical = dual_canonical if dual else canonical_form
    label = canonical(NilMatrix.from_dense(n, f, start))
    states = dense_orbit(n, f, start, dual)
    assert to_state(n, label.colours) == verge_state(n, states)
    assert closed_size(label, f.order) == len(states)


# |A| above the space cap, where no walk can check classify: the dict
# eliminations, in FieldElement arithmetic, are the oracle
PAST_CAP_CONFIGS = [(7, 2, 1), (8, 2, 1), (9, 2, 1), (5, 3, 2), (4, 2, 6),
                    (4, 2, 8)]


@pytest.mark.parametrize("dual", [False, True], ids=["superclass", "dual"])
@pytest.mark.parametrize("n,p,m", PAST_CAP_CONFIGS)
def test_elimination_matches_dict_elimination_past_the_space_cap(n, p, m, dual):
    f = field_construct(p, m)
    assert f.order ** len(positions(n)) > space_cap()
    canonical = dual_canonical if dual else canonical_form
    oracle = dict_dual_canonical if dual else dict_canonical_form
    rng = random.Random(17)
    for _ in range(300):
        density = rng.random()  # sparse and dense matrices alike
        start = tuple(
            rng.randrange(1, f.order) if rng.random() < density else 0
            for _ in positions(n)
        )
        a = NilMatrix.from_dense(n, f, start)
        assert canonical(a) == oracle(a), start


@pytest.mark.parametrize("dual", [False, True], ids=["superclass", "dual"])
@pytest.mark.parametrize("n,p,m", [(4, 3, 1), (4, 2, 2), (3, 3, 2)])
def test_every_root_subgroup_program_matches_the_group_action(n, p, m, dual):
    # _program compiles every 1 + alpha*e_ij, not only the superdiagonal
    # ones the walk replays against dual_act; check each against the
    # NilMatrix action at every nonzero alpha, from seeded random states
    f = field_construct(p, m)
    pos = positions(n)
    one = NilMatrix.zero(n, f)  # the body of the identity
    rng = random.Random(5)
    for _ in range(4):
        b = NilMatrix.from_dense(n, f, tuple(rng.randrange(f.order) for _ in pos))
        for (i, j), left, alpha in itertools.product(pos, (True, False), f.nonzero()):
            pairs, sign = orbits._program(n, dual, i, j, left)
            img = dict(b.entries)
            for d, src in pairs:
                step = f.from_int(sign) * alpha * b.entry(*pos[src])
                img[pos[d]] = b.entry(*pos[d]) + step
            e = NilMatrix.single(n, f, i, j, alpha)
            if dual:
                moved = dual_act(e, one, b) if left else dual_act(one, e, b)
            else:  # (1 + e) b or b (1 + e)
                moved = b + (e @ b if left else b @ e)
            assert NilMatrix(n, f, img) == moved, (i, j, left, alpha)
