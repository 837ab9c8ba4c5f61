"""Superclasses: two-sided orbits GaG in A, their BFS enumeration, and the
reduction of any matrix to its canonical coloured-set-partition label.

One BFS engine, orbit_states, walks both the superclasses here and the dual
orbits of superchar.dual.  A state is the dense tuple of field enumeration
indices over positions(n), row-major.  Each generator of the engine is a
move program compiled once per (n, dual): (dst_rank, src_rank) pairs plus a
sign, applied as dst += sign * alpha * src by Zech addition on the log
tables of superchar.gf.  Every move keeps a strictly upper matrix strictly
upper, so no projection is ever needed.

An orbit object (Superclass here, DualOrbit in superchar.dual) carries its
label, representative and size; its members are walked only on first read
unless given, and a walk checks the size.  check_cover checks that the
members of a list of orbits partition A.
"""

from __future__ import annotations

from functools import lru_cache

from .gf import FiniteField, space_cap
from .nilpotent import NilMatrix, position_rank, positions
from .partitions import (
    ColouredPartition,
    build_e,
    closed_size,
    enumerate_labels,
    partition_from_arcs,
)


def _add_into(b: dict, key, term) -> None:
    cur = b.get(key)
    if cur is None:
        b[key] = term
        return
    s = cur + term
    if s:
        b[key] = s
    else:
        del b[key]


@lru_cache(maxsize=None)
def _move_programs(n: int, dual: bool) -> tuple:
    """(i, left, pairs, sign) for 1 + alpha*e_{i,i+1} acting on one side.

    pairs are (dst_rank, src_rank); a move sets dst += sign*alpha*src.
    Superclass left: row i += alpha row i+1.  Superclass right: column i+1
    += alpha column i.  Dual left: row i+1 -= alpha row i, right of i+1.
    Dual right: column i += alpha column i+1, above i.
    """
    rank = position_rank(n)
    out = []
    for i in range(1, n):
        j = i + 1
        right_of = range(j + 1, n + 1)
        above = range(1, i)
        if dual:
            left = tuple((rank[j, s], rank[i, s]) for s in right_of)
            right = tuple((rank[r, i], rank[r, j]) for r in above)
            out += [(i, True, left, -1), (i, False, right, 1)]
        else:
            left = tuple((rank[i, s], rank[j, s]) for s in right_of)
            right = tuple((rank[r, j], rank[r, i]) for r in above)
            out += [(i, True, left, 1), (i, False, right, 1)]
    return tuple(out)


@lru_cache(maxsize=None)
def _move_rows(field: FiniteField) -> dict:
    """Per sign, the rows v -> log(sign*alpha*v) over enumeration indices
    v, for alpha over the F_p-basis 1, x, ..., x^(m-1)."""
    exp, log = field.exp, field.log
    basis = [field.element_by_index(field.p**k) for k in range(field.m)]
    scalars = {1: basis, -1: [-alpha for alpha in basis]}
    return {
        sign: [[log[exp[lv + log[c.index]]] for lv in log] for c in cs]
        for sign, cs in scalars.items()
    }


def _images(state: tuple, moves, field: FiniteField) -> list[tuple]:
    """Images of one state under every move whose source entries are not
    all zero; a move with an all-zero source fixes the state.  Each entry
    update dst += sign*alpha*src is one Zech addition on logs."""
    exp, log, zech = field.exp, field.log, field.zech
    out = []
    for pairs, rows in moves:
        live = [(d, state[r]) for d, r in pairs if state[r]]
        if live:
            for row in rows:
                img = list(state)
                for d, v in live:
                    a = img[d]
                    if a:
                        la = log[a]
                        img[d] = exp[la + zech[row[v] - la]]
                    else:
                        img[d] = exp[row[v]]
                out.append(tuple(img))
    return out


def check_space(n: int, field: FiniteField) -> None:
    """ValueError when |A| exceeds the space cap that orbit walks obey."""
    if field.order ** len(positions(n)) > space_cap():
        raise ValueError(
            f"|A| = {field.order}^{len(positions(n))} exceeds the space cap"
        )


def orbit_states(
    n: int, field: FiniteField, start: tuple, dual: bool = False, check=None
) -> set[tuple[int, ...]]:
    """Dense states of the two-sided orbit of start: the superclass G a G,
    or with dual=True the contragredient orbit of the pairing matrix.

    The generators are the superdiagonal 1 + alpha*e_{i,i+1} with alpha over
    the F_p-basis 1, x, ..., x^(m-1) of F_q, on either side: 2(n-1)m moves
    per state.  They generate U_n(F_q): e_{i,i+1}^2 = 0 gives
    (1 + alpha e)(1 + beta e) = 1 + (alpha + beta) e, so each superdiagonal
    root subgroup is reached from the basis; the commutator of 1 + alpha
    e_{i,j} and 1 + beta e_{j,j+1} is 1 + alpha*beta e_{i,j+1}, so each
    diagonal above is reached from the one below; and the root subgroups
    generate U_n.  An orbit is closed under any generating set of the
    acting group, so these orbits are the orbits under every elementary
    move.  check(state, programs), when given, runs on every state before
    it expands, with the compiled programs the engine applies.
    """
    check_space(n, field)
    visited = {start}
    programs = _move_programs(n, dual)
    moves = [(pairs, sign) for _, _, pairs, sign in programs if pairs]
    if moves:  # n <= 2 has no move and needs no rows
        rows = _move_rows(field)
        moves = [(pairs, rows[sign]) for pairs, sign in moves]
    frontier = [start]
    while frontier:
        new = []
        for state in frontier:
            if check is not None:
                check(state, programs)
            for t in _images(state, moves, field):
                if t not in visited:
                    visited.add(t)
                    new.append(t)
        frontier = new
    return visited


def superclass_orbit(a: NilMatrix) -> set[NilMatrix]:
    """The full two-sided orbit GaG."""
    states = orbit_states(a.n, a.field, a.dense())
    return {NilMatrix.from_dense(a.n, a.field, s) for s in states}


def _verge_arcs(nonzero_positions) -> frozenset | None:
    """Arc set of a verge matrix from its nonzero positions, or None if a
    row or column repeats."""
    rows, cols = set(), set()
    arcs = []
    for (i, j) in nonzero_positions:
        if i in rows or j in cols:
            return None
        rows.add(i)
        cols.add(j)
        arcs.append((i, j))
    return frozenset(arcs)


def canonical_form(a: NilMatrix) -> ColouredPartition:
    """The unique coloured partition labelling the superclass of a.

    Bottom-up elimination: rows n-1 down to 1; the leftmost entry of the
    row is the pivot; the column above it is cleared by left
    multiplications before the row to its right is cleared by right
    multiplications (in that order, so the column operations touch only
    the pivot row).  A pivot column is cleared above its pivot, so no
    later row has an entry there.  Every operation is an orbit move, so
    membership is structural; the result must be a verge, and a non-verge
    result raises AssertionError.
    """
    n = a.n
    w = dict(a.entries)
    for i in range(n - 1, 0, -1):
        pivot_j = next((j for j in range(i + 1, n + 1) if (i, j) in w), None)
        if pivot_j is None:
            continue
        pivot = w[(i, pivot_j)]
        for k in range(1, i):
            v = w.get((k, pivot_j))
            if v is not None:
                lam = -v / pivot
                for (r, s), u in [it for it in w.items() if it[0][0] == i]:
                    _add_into(w, (k, s), lam * u)
        for l in range(pivot_j + 1, n + 1):
            v = w.get((i, l))
            if v is not None:
                lam = -v / pivot
                for (r, s), u in [it for it in w.items() if it[0][1] == pivot_j]:
                    _add_into(w, (r, l), lam * u)
    return _verge_label(n, w)


def _verge_label(n: int, w: dict, dual: bool = False) -> ColouredPartition:
    """The label read off an eliminated entry dict, which must be a verge."""
    arcs = _verge_arcs(w)
    if arcs is None:
        raise AssertionError("elimination left a matrix that is not a verge")
    return ColouredPartition(partition_from_arcs(n, arcs), w, dual=dual)


class _Orbit:
    """An orbit labelled by a coloured partition: the label, the
    representative build_e(label), the size and the members, a sorted tuple
    of dense states.  Members given to the constructor are kept as given.
    Otherwise the first read of members walks the orbit with orbit_states
    and caches it; a walk whose count differs from size raises
    AssertionError, so a closed size is checked whenever it is walked.
    """

    __slots__ = ("label", "rep", "size", "_members")
    dual = False

    def __init__(self, label: ColouredPartition, rep: NilMatrix, size: int, members=None):
        self.label = label
        self.rep = rep
        self.size = size
        self._members = members

    @classmethod
    def from_label(cls, label: ColouredPartition, field: FiniteField):
        """The orbit of label with its closed size, members not yet walked."""
        return cls(label, build_e(label, field), closed_size(label, field.order))

    @property
    def members(self) -> tuple:
        if self._members is None:
            rep = self.rep
            states = orbit_states(rep.n, rep.field, rep.dense(), self.dual)
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


def enumerate_superclasses(n: int, field: FiniteField) -> list[Superclass]:
    """One superclass per coloured partition, canonical order, walked and
    cover-checked; each size is the walked state count."""
    out = []
    for label in enumerate_labels(n, field):
        rep = build_e(label, field)
        states = orbit_states(n, field, rep.dense())
        out.append(Superclass(label, rep, len(states), tuple(sorted(states))))
    check_cover(out, field.order ** len(positions(n)))
    return out
