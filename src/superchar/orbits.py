"""Superclasses: two-sided orbits GaG in A, their enumeration, and the
reduction of any matrix to its canonical coloured-set-partition label.

A state is the dense tuple of field enumeration indices over positions(n),
row-major.  One compiler, _program, turns any root subgroup 1 + alpha*e_ij
on either side into (dst_rank, src_rank) pairs plus a sign: a move sets
dst += sign * alpha * src, and keeps a strictly upper matrix strictly
upper.  One engine, orbit_states, walks the superclasses here and the
dual orbits of superchar.dual on the superdiagonal programs, one
root-subgroup coset at a time, generating each coset's q - 1 other members
once by Zech addition on the log tables of superchar.gf, from one map of
each state found to the bits of its cosets already generated.  The
eliminations, canonical_form here and dual_canonical there, are _clear
steps on the same states, programs and Zech rows.  Each adds c = -v/pivot
times the pivot's row or column, the multiple that zeroes the target entry
v; alpha ranges over all of F_q, so that is a move whatever the sign.

An orbit object (Superclass here, DualOrbit in superchar.dual) carries its
label, representative and size; its members are walked only on first read
unless given, and a walk checks the size.  check_cover checks that the
members of a list of orbits partition A.
"""

from __future__ import annotations

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


@lru_cache(maxsize=None)
def _sum_rows(field: FiniteField) -> list:
    """rows[a][u], the index of a + g^u for 0 <= u < 2(q-1), two periods
    of O(q) per field element a.  rows[0] is read off exp; a row for
    a != 0 is built by _sum_row the first time a walk or an elimination
    adds to an entry a (None until then)."""
    rows = [None] * field.order
    rows[0] = field.exp[: 2 * (field.order - 1)]
    return rows


def _sum_row(rows: list, a: int, field: FiniteField) -> list:
    """Fill rows[a]: a + g^u = g^la (1 + g^(u - la)), one rotation of the
    Zech table read through exp."""
    exp, zech, la, n = field.exp, field.zech, field.log[a], field.order - 1
    row = [exp[la + z] for z in zech[n - la:] + zech[:n - la]]
    rows[a] = row + row
    return rows[a]


def _clear(state: list, program, t: int, piv: int, field: FiniteField) -> None:
    """Zero state[t], when nonzero, by one move of program, whose pairs
    hold (t, piv): every destination gains c times its source, where
    c = -v/pivot for v = state[t].  That is the multiple that zeroes the
    target whatever the program's sign: it is the move at alpha = sign*c,
    and alpha ranges over F_q."""
    v = state[t]
    if not v:
        return
    log, rows = field.log, _sum_rows(field)
    lc = (log[field.p - 1] + log[v] - log[state[piv]]) % (field.order - 1)
    for d, s in program[0]:
        u = state[s]
        if u:
            a = state[d]
            state[d] = (rows[a] or _sum_row(rows, a, field))[lc + log[u]]


def _coset(state: tuple, pairs, field: FiniteField, rows: list) -> list[tuple]:
    """The q - 1 images state + beta*v for beta = g^0, ..., g^(q-2), where
    v holds the program's source entries at their destinations (pairs are
    (dst_rank, src_rank)), or [] when every source entry is zero.  Entry d
    of the image at g^j is state[d] + g^(j + log v_d), a slice of the row
    of state[d] in rows = _sum_rows(field)."""
    log, n = field.log, field.order - 1
    cols = []
    for d, r in pairs:
        v = state[r]
        if v:
            a = state[d]
            row = rows[a] or _sum_row(rows, a, field)
            lv = log[v]
            cols.append((d, row[lv:lv + n]))
    out = []
    if not cols:
        return out
    img = list(state)
    if len(cols) == 1:  # the common case, without the zip: 2-4x faster
        d, col = cols[0]
        for c in col:
            img[d] = c
            out.append(tuple(img))
        return out
    dsts = [d for d, _ in cols]
    for values in zip(*[col for _, col in cols]):
        for d, c in zip(dsts, values):
            img[d] = c
        out.append(tuple(img))
    return out


def check_space(n: int, field: FiniteField) -> None:
    """ValueError when |A| exceeds the space cap that orbit walks obey."""
    if not fits_space(n, field):
        raise ValueError(
            f"|A| = {field.order}^{len(positions(n))} exceeds the space cap"
        )


def orbit_states(
    n: int, field: FiniteField, start: tuple, dual: bool = False
) -> set[tuple[int, ...]]:
    """Dense states of the two-sided orbit of start: the superclass G a G,
    or with dual=True the contragredient orbit of the pairing matrix.

    The acting subgroups are the superdiagonal root subgroups
    X = {1 + alpha*e_{i,i+1} : alpha in F_q}, one per side and i.  They
    generate U_n(F_q): the commutator of 1 + alpha e_{i,j} and
    1 + beta e_{j,j+1} is 1 + alpha*beta e_{i,j+1}, so each diagonal above
    is reached from the one below, and the root subgroups generate U_n.
    An orbit is closed under any generating set of the acting group, so
    these orbits are the orbits under every elementary move.

    A compiled program reads sources disjoint from its destinations, so
    X.s = {s + beta*v(s) : beta in F_q}, v(s) the source entries at their
    destinations, whatever the program's sign, and every member of that
    coset has the same coset.  The walk therefore expands each coset once:
    one map holds, per state found, the bits of the subgroups whose coset
    through it is already generated, read when the state is expanded (and
    never after), and the expansion generates the q - 1 images of every
    other coset with a nonzero v by Zech addition, at most 2(n-1)|O| per orbit.
    """
    check_space(n, field)
    programs = _move_programs(n, dual)
    moves = [(1 << k, pairs) for k, (_, _, pairs, _) in enumerate(programs) if pairs]
    rows = _sum_rows(field)
    done = {start: 0}  # state -> bits of its cosets already generated
    stack = [start]
    while stack:
        state = stack.pop()
        bits = done[state]
        for bit, pairs in moves:
            if bits & bit:
                continue
            for t in _coset(state, pairs, field, rows):
                if t in done:
                    done[t] |= bit
                else:
                    done[t] = bit
                    stack.append(t)
    return set(done)


def superclass_orbit(a: NilMatrix) -> set[NilMatrix]:
    """The full two-sided orbit GaG."""
    states = orbit_states(a.n, a.field, a.dense())
    return {NilMatrix.from_dense(a.n, a.field, s) for s in states}


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


def _walked_axes(kind, n: int, field: FiniteField) -> list:
    """One orbit of kind (Superclass or DualOrbit) per label, canonical
    order, each walked with orbit_states and sized by its walk; the list
    is cover-checked."""
    out = []
    for label in enumerate_labels(n, field, dual=kind.dual):
        rep = build_e(label, field)
        states = orbit_states(n, field, rep.dense(), kind.dual)
        out.append(kind(label, rep, len(states), tuple(sorted(states))))
    check_cover(out, field.order ** len(positions(n)))
    return out


def enumerate_superclasses(n: int, field: FiniteField) -> list[Superclass]:
    """One superclass per coloured partition, canonical order, walked and
    cover-checked; each size is the walked state count."""
    return _walked_axes(Superclass, n, field)
