"""Superclasses: two-sided orbits GaG in A, their enumeration, and the
reduction of any matrix to its canonical coloured-set-partition label.

A dense state is the tuple of field enumeration indices over positions(n),
row-major.  One compiler, _program, turns any root subgroup 1 + alpha*e_ij
on either side into (dst_rank, src_rank) pairs plus a sign: a move sets
dst += sign * alpha * src, and keeps a strictly upper matrix strictly
upper.  The eliminations, canonical_form here and dual_canonical in
superchar.dual, are _clear steps on dense states through the Zech table of
superchar.gf.  Each adds c = -v/pivot times the pivot's row or column, the
multiple that zeroes the target entry v; alpha ranges over all of F_q, so
that is a move whatever the sign.

One engine, orbit_states, walks the superclasses here and the dual orbits
of superchar.dual on packed states: pack makes a dense state one int, one
w-bit field per base-p digit, highest first, so the ints sort as the
tuples do; w = bit_length(mN(p-1)^2) + 1 for mN digits holds a pairing sum
of superchar.table.  A packed add mod p is s = a + v; s -= p * (((s + K)
>> (w-1)) & ONES), ONES a 1 per field, K = ONES * (2^(w-1) - p): the top
bit of a field is set after adding K where its sum reached p.

An orbit object (Superclass here, DualOrbit in superchar.dual) carries its
label, field and size; its members, a sorted tuple of packed states, are
walked only on first read unless given, and a walk checks the size.
check_cover checks that the members of a list of orbits partition A.
"""

from __future__ import annotations

from collections.abc import KeysView
from functools import lru_cache

from .gf import FiniteField
from .nilpotent import NilMatrix, fits_space, position_rank, positions
from .partitions import (
    ColouredPartition,
    build_e,
    chain_label,
    closed_size,
    enumerate_labels,
)


@lru_cache(maxsize=None)
def _program(n: int, dual: bool, i: int, j: int, left: bool) -> tuple:
    """(pairs, sign) for the root subgroup 1 + alpha*e_ij acting on one side.

    pairs are (dst_rank, src_rank); a move sets dst += sign*alpha*src.
    Superclass left: row i += alpha row j.  Superclass right: column j +=
    alpha column i.  The contragredient action swaps each pair: dual left,
    row j -= alpha row i, right of j; dual right, column i += alpha column
    j, above i.
    """
    rank = position_rank(n)
    if left:
        pairs = [(rank[i, s], rank[j, s]) for s in range(j + 1, n + 1)]
    else:
        pairs = [(rank[r, j], rank[r, i]) for r in range(1, i)]
    if dual:
        pairs = [(src, dst) for dst, src in pairs]
    return tuple(pairs), -1 if dual and left else 1


@lru_cache(maxsize=None)
def _move_programs(n: int, dual: bool) -> tuple:
    """(i, left, pairs, sign) for the superdiagonal 1 + alpha*e_{i,i+1}."""
    return tuple(
        (i, left) + _program(n, dual, i, i + 1, left)
        for i in range(1, n)
        for left in (True, False)
    )


def _clear(state: list, program, t: int, piv: int, field: FiniteField) -> None:
    """Zero state[t], when nonzero, by one move of program, whose pairs
    hold (t, piv): every destination gains c times its source, where
    c = -v/pivot for v = state[t].  That is the multiple that zeroes the
    target whatever the program's sign: it is the move at alpha = sign*c,
    and alpha ranges over F_q.  A sum a + g^x is g^x at a = 0, else
    g^(log a) (1 + g^(x - log a)) through the Zech table."""
    v = state[t]
    if not v:
        return
    exp, log, zech, n = field.exp, field.log, field.zech, field.order - 1
    lc = log[field.p - 1] + log[v] - log[state[piv]]
    for d, s in program[0]:
        u = state[s]
        if u:
            x, la = (lc + log[u]) % n, log[state[d]]
            state[d] = exp[x] if la > n else exp[la + zech[x - la]]


@lru_cache(maxsize=None)
def _packing(field: FiniteField, size: int) -> tuple:
    """(w, spread, gather, ONES, seq, times) for size entries: spread[x],
    index x's digits as packed fields, and gather its inverse; seq[i-1] =
    v_p(i), the digit a modular p-ary Gray code raises at step i, reaching
    each nonzero vector of F_p^m once; times[k], spread[x] -> spread[g^k x]."""
    p, m, q = field.p, field.m, field.order
    w = (m * size * (p - 1) ** 2).bit_length() + 1
    spread = [sum(k // p**d % p << d * w for d in range(m)) for k in range(q)]
    ones = sum(1 << f * w for f in range(m * size))
    seq = [next(j for j in range(m) if i // p**j % p) for i in range(1, q)]
    times = [{spread[x]: spread[field.exp[field.log[x] + k]] for x in range(q)}
             for k in range(m)]
    return w, spread, dict(zip(spread, range(q))), ones, seq, times


def pack(field: FiniteField, state) -> int:
    """The packed int of a dense state."""
    w, spread = _packing(field, len(state))[:2]
    x, mw = 0, field.m * w
    for v in state:
        x = x << mw | spread[v]
    return x


def unpack(n: int, field: FiniteField, x: int) -> tuple[int, ...]:
    """The dense state over positions(n) of a packed int."""
    size = len(positions(n))
    w, _, gather = _packing(field, size)[:3]
    mw = field.m * w
    return tuple(gather[x >> k * mw & (1 << mw) - 1] for k in reversed(range(size)))


@lru_cache(maxsize=None)
def _walk_moves(n: int, field: FiniteField, programs: tuple) -> tuple:
    """The packing, and per program k with pairs (bit k, source mask, right
    and left shift, destination offsets).  One shift serves all its pairs:
    a superdiagonal program moves (i+1, s) to (i, s), n - i - 1 ranks
    apart for every s, or (r, i) to (r, i+1), or the reverse."""
    size = len(positions(n))
    packing = _packing(field, size)
    mw, out = field.m * packing[0], []
    for k, (_, _, pairs, _) in enumerate(programs):
        if pairs:
            shift = (pairs[0][0] - pairs[0][1]) * mw
            mask = sum((1 << mw) - 1 << (size - 1 - s) * mw for _, s in pairs)
            offsets = tuple((size - 1 - d) * mw for d, _ in pairs)
            out.append((1 << k, mask, max(shift, 0), max(-shift, 0), offsets))
    return packing, tuple(out)


def check_space(n: int, field: FiniteField) -> None:
    """ValueError when |A| exceeds the space cap that orbit walks obey."""
    if not fits_space(n, field):
        raise ValueError(
            f"|A| = {field.order}^{len(positions(n))} exceeds the space cap"
        )


def orbit_states(n: int, field: FiniteField, start: tuple, dual: bool = False) -> KeysView:
    """The packed states, a set view, of the two-sided orbit of the dense
    state start: the superclass G a G, or with dual=True the contragredient
    orbit of the pairing matrix.

    The acting subgroups are the superdiagonal root subgroups
    X = {1 + alpha*e_{i,i+1} : alpha in F_q}, one per side and i.  They
    generate U_n(F_q): the commutator of 1 + alpha e_{i,j} and
    1 + beta e_{j,j+1} is 1 + alpha*beta e_{i,j+1}, so each diagonal above
    is reached from the one below, and the root subgroups generate U_n.
    An orbit is closed under any generating set of the acting group, so
    these orbits are the orbits under every elementary move.
    """
    check_space(n, field)
    moves = _walk_moves(n, field, _move_programs(n, dual))
    return _walk(field, pack(field, start), moves).keys()


def _walk(field: FiniteField, first: int, moves: tuple) -> dict:
    """The packed states reached from first by moves, in the order found.

    A compiled program reads sources disjoint from its destinations, so
    X.s = {s + beta*v(s) : beta in F_q}, v(s) the source entries at their
    destinations, whatever the program's sign, and every member of that
    coset has the same coset.  The walk therefore expands each coset once:
    one map holds, per state found, the bits of the subgroups whose coset
    through it is already generated, read when the state is expanded (and
    never after), and the expansion generates the q - 1 images of every
    other coset with a nonzero v, at most 2(n-1)|O| per orbit: s + beta*v
    over the F_p-span of the g^k v, one packed add (a XOR at p = 2) per
    image in the order of seq; at m = 1, s + v, s + 2v, ..., s + (p-1)v.
    """
    (w, _, _, ones, seq, times), moves = moves
    p, m = field.p, field.m
    top, fix, block = w - 1, ones * ((1 << w - 1) - p), (1 << m * w) - 1
    done, stack = {first: 0}, [first]  # done: state -> bits of its cosets generated
    while stack:
        s = stack.pop()
        bits = done[s]
        for bit, mask, right, left, offsets in moves:
            if bits & bit:
                continue
            v = (s & mask) >> right << left
            if not v:
                continue
            gens = [v] if m == 1 else [sum(mul[v >> d & block] << d for d in offsets)
                                       for mul in times]
            t = s
            for k in seq:
                if p == 2:
                    t ^= gens[k]
                else:
                    t += gens[k]
                    t -= p * ((t + fix) >> top & ones)
                if t in done:
                    done[t] |= bit
                else:
                    done[t] = bit
                    stack.append(t)
    return done


def superclass_orbit(a: NilMatrix) -> set[NilMatrix]:
    """The full two-sided orbit GaG."""
    states = orbit_states(a.n, a.field, a.dense())
    return {NilMatrix.from_dense(a.n, a.field, unpack(a.n, a.field, s)) for s in states}


def canonical_form(a: NilMatrix) -> ColouredPartition:
    """The unique coloured partition labelling the superclass of a.

    Bottom-up elimination on the dense state: rows n-1 down to 1; the
    leftmost entry of the row is the pivot; the column above it is cleared
    by left moves 1 + alpha*e_ki before the row to its right is cleared by
    right moves 1 + alpha*e_jl (in that order, so the column moves touch
    only the pivot row).  A pivot column is cleared above its pivot, so no
    later row has an entry there.  Every step is an orbit move, so
    membership is structural; the result must be a verge, and a non-verge
    result raises AssertionError.
    """
    n, field = a.n, a.field
    state, rank = list(a.dense()), position_rank(n)
    for i in range(n - 1, 0, -1):
        j = next((j for j in range(i + 1, n + 1) if state[rank[i, j]]), None)
        if j is None:
            continue
        piv = rank[i, j]
        for k in range(1, i):
            _clear(state, _program(n, False, k, i, True), rank[k, j], piv, field)
        for l in range(j + 1, n + 1):
            _clear(state, _program(n, False, j, l, False), rank[i, l], piv, field)
    return _verge_label(n, field, state)


def _verge_label(n: int, field: FiniteField, state, dual=False) -> ColouredPartition:
    """The label read off an eliminated dense state, which must be a verge:
    no row and no column holds two entries."""
    pos, elements = positions(n), field.elements
    colours, succ, has_pred = {}, {}, set()
    for k, v in enumerate(state):
        if v:
            i, j = pos[k]
            if i in succ or j in has_pred:
                raise AssertionError("elimination left a matrix that is not a verge")
            succ[i] = j
            has_pred.add(j)
            colours[i, j] = elements[v]
    return chain_label(n, succ, has_pred, colours, dual)


class _Orbit:
    """An orbit labelled by a coloured partition: the label, its field, the
    size, the representative build_e(label), built when read, and the
    members, a sorted tuple of packed states, kept as given if given, else
    walked with orbit_states on first read and cached; a walk whose count
    differs from size raises AssertionError, so a closed size is checked
    whenever it is walked.
    """

    __slots__ = ("label", "field", "size", "_members")
    dual = False

    def __init__(self, label: ColouredPartition, field: FiniteField, size: int, members=None):
        self.label = label
        self.field = field
        self.size = size
        self._members = members

    @classmethod
    def from_label(cls, label: ColouredPartition, field: FiniteField):
        """The orbit of label with its closed size, members not yet walked."""
        return cls(label, field, closed_size(label, field.order))

    rep = property(lambda self: build_e(self.label, self.field))

    @property
    def members(self) -> tuple:
        if self._members is None:
            states = orbit_states(self.label.n, self.field, self.rep.dense(), self.dual)
            if len(states) != self.size:
                raise AssertionError(
                    f"{self!r}: the walk found {len(states)} states"
                )
            self._members = tuple(sorted(states))
        return self._members

    def __repr__(self):
        return f"{type(self).__name__}({self.label!r}, size={self.size})"


class Superclass(_Orbit):
    __slots__ = ()


_COVER_WORDS = {
    False: ("superclass", "superclasses", "algebra elements"),
    True: ("dual orbit", "dual orbits", "characters"),
}


def check_cover(axes, total: int) -> None:
    """AssertionError unless the members of axes, all superclasses or all
    dual orbits, are pairwise disjoint and cover all total states."""
    one, many, space = _COVER_WORDS[axes[0].dual]
    seen: set = set()
    for axis in axes:
        states = axis.members
        if not seen.isdisjoint(states):
            raise AssertionError(f"{one} of {axis.label!r} overlaps an earlier one")
        seen.update(states)
    if len(seen) != total:
        raise AssertionError(f"{many} cover {len(seen)} of {total} {space}")


def _walked_axes(kind, n: int, field: FiniteField) -> list:
    """One orbit of kind (Superclass or DualOrbit) per label, canonical
    order, each walked with orbit_states and sized by its walk; the list
    is cover-checked."""
    out = []
    for label in enumerate_labels(n, field, dual=kind.dual):
        states = orbit_states(n, field, build_e(label, field).dense(), kind.dual)
        out.append(kind(label, field, len(states), tuple(sorted(states))))
    check_cover(out, field.order ** len(positions(n)))
    return out


def enumerate_superclasses(n: int, field: FiniteField) -> list[Superclass]:
    """One superclass per coloured partition, canonical order, walked and
    cover-checked; each size is the walked state count."""
    return _walked_axes(Superclass, n, field)
