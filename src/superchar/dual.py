"""The dual group A° through the trace pairing, and its two-sided orbits.

A character of the additive group of A is zeta_p^lift(Tr(sum b_ij a_ij))
for a unique pairing matrix b.  In pairing coordinates the contragredient
action of (g, h) = (1 + c, 1 + d) transports b to the strictly upper part
of (g^{-1})^T b h^T, which dual_act computes from the bodies c and d.  For
a superdiagonal generator this is a single row or column move, so its
root subgroup moves a state along one coset
{b + beta*v(b) : beta in F_q}, which superchar.orbits.orbit_states
generates once per coset on packed states with dual=True.
enumerate_dual_orbits(validate=True) replays every compiled move at every
nonzero scalar against dual_act and the defining property, the independent
reference kept on NilMatrix, at every state of A°, before the walk.
dual_canonical walks no orbit: it eliminates on the dense state with the
contragredient moves from the one compiler, superchar.orbits._program,
each step adding c = -v/pivot times the pivot's row or column to zero the
target entry v, a move even where the program's sign is -1.
"""

from __future__ import annotations

from itertools import accumulate, product

from . import orbits
from .cyclotomic import Cyclotomic, cyclo_root
from .gf import FiniteField, trace_lift
from .nilpotent import NilMatrix, group_inv, position_rank, positions
from .orbits import (
    _clear,
    _Orbit,
    _program,
    _verge_label,
    _walked_axes,
    orbit_states,
    unpack,
)
from .partitions import ColouredPartition


def pairing_exponent(b: NilMatrix, a: NilMatrix) -> int:
    """lift(Tr(sum b_ij * a_ij)), the zeta exponent of the pairing character."""
    if b.n != a.n or b.field != a.field:
        raise ValueError("shape or field mismatch")
    t = 0
    be = b.entries
    for pos, va in a.entries.items():
        vb = be.get(pos)
        if vb is not None:
            t += trace_lift(vb * va)
    return t % b.field.p


def dual_eval(b: NilMatrix, a: NilMatrix) -> Cyclotomic:
    """The character value theta_b(a) = zeta_p^lift(Tr(sum b_ij a_ij))."""
    return cyclo_root(b.field.p, pairing_exponent(b, a))


def _mul_into(out: dict, x: dict, y: dict) -> None:
    """out += x @ y on entry dicts; zero entries may be left in out."""
    for (i, j), u in x.items():
        for (k, l), v in y.items():
            if k == j:
                out[i, l] = out[i, l] + u * v if (i, l) in out else u * v


def dual_act(c: NilMatrix, d: NilMatrix, b: NilMatrix) -> NilMatrix:
    """Transport of the pairing matrix by g = 1 + c and h = 1 + d: the
    strict upper part of (g^-1)^T b h^T."""
    if c.n != b.n or c.field != b.field:
        raise ValueError("shape or field mismatch")
    ct = {(j, i): v for (i, j), v in group_inv(c).entries.items()}
    dt = {(j, i): v for (i, j), v in d.entries.items()}
    left = dict(b.entries)
    _mul_into(left, ct, b.entries)  # (1 + C^T) b
    total = dict(left)
    _mul_into(total, left, dt)  # (1 + C^T) b (1 + D^T)
    upper = {(i, j): v for (i, j), v in total.items() if i < j}
    return NilMatrix(b.n, b.field, upper)


def _validate_moves(n: int, field: FiniteField, state: tuple) -> None:
    """Check one state of A°: for every compiled program and every nonzero
    scalar beta, the image the packed walk finds at beta must equal the
    transport of the state by 1 + sign*beta*e_{i,i+1}, and the transport
    itself must obey the defining property on a basis of A.  The walk on
    one program finds the state, then its images, step k adding g^k to beta."""
    b = NilMatrix.from_dense(n, field, state)
    zero = NilMatrix.zero(n, field)
    basis = [NilMatrix.single(n, field, i, j, field.one) for (i, j) in positions(n)]
    first = orbits.pack(field, state)
    seq = orbits._packing(field, len(state))[4]
    scalars = list(accumulate(field.element_by_index(field.exp[k]) for k in seq))
    for i, left, pairs, sign in orbits._move_programs(n, True):
        moves = orbits._walk_moves(n, field, ((i, left, pairs, sign),))
        images = list(orbits._walk(field, first, moves))[1:] or [first] * len(scalars)
        for beta, fast in zip(scalars, images):
            alpha = field.from_int(sign) * beta
            c = NilMatrix.single(n, field, i, i + 1, alpha)
            moved = dual_act(c, zero, b) if left else dual_act(zero, c, b)
            if fast != orbits.pack(field, moved.dense()):
                raise AssertionError(
                    f"compiled dual move ({i},{i + 1}) alpha={alpha} disagrees "
                    "with the transport action"
                )
            ci = group_inv(c)
            for e in basis:
                twisted = (
                    (ci @ e) + e if left else (e @ c) + e
                )  # (1 + c)^-1 e or e (1 + c), the identity summand dropped
                if dual_eval(moved, e) != dual_eval(b, twisted):
                    raise AssertionError(
                        f"dual move ({i},{i + 1}) alpha={alpha} violates the "
                        "defining property"
                    )


def dual_orbit(b: NilMatrix) -> set[NilMatrix]:
    """The orbit of theta_b under the contragredient two-sided action."""
    states = orbit_states(b.n, b.field, b.dense(), dual=True)
    return {NilMatrix.from_dense(b.n, b.field, unpack(b.n, b.field, s)) for s in states}


def dual_canonical(b: NilMatrix) -> ColouredPartition:
    """The unique (pi, tau) label of the orbit of theta_b.

    Top-down elimination on the dense state with the contragredient moves,
    so membership is structural and no orbit is walked.  For each row i,
    the rightmost entry (i, l) is the pivot.  The column below it is
    cleared by left moves 1 + alpha*e_ij for i < j < l (row j -= alpha row
    i), which reach only rows not yet processed.  Then the row left of the
    pivot is cleared by right moves 1 + alpha*e_kl for i < k < l (column k
    += alpha column l), which have no side effects because column l now
    holds only the pivot.  Nothing later writes into a pivot column, so
    each row's entries all lie in columns that hold no pivot yet.  The
    result is the orbit's verge member; a non-verge result raises
    AssertionError.
    """
    n, field = b.n, b.field
    state, rank = list(b.dense()), position_rank(n)
    for i in range(1, n):
        l = next((l for l in range(n, i, -1) if state[rank[i, l]]), None)
        if l is None:
            continue
        piv = rank[i, l]
        for j in range(i + 1, l):
            _clear(state, _program(n, True, i, j, True), rank[j, l], piv, field)
        for k in range(i + 1, l):
            _clear(state, _program(n, True, k, l, False), rank[i, k], piv, field)
    return _verge_label(n, field, state, dual=True)


class DualOrbit(_Orbit):
    __slots__ = ()
    dual = True


def enumerate_dual_orbits(
    n: int, field: FiniteField, validate: bool = False
) -> list[DualOrbit]:
    """One orbit per dual coloured partition, canonical order, walked and
    cover-checked; each size is the walked state count.  validate=True
    first replays every compiled move at every state of A°."""
    if validate:
        orbits.check_space(n, field)
        for state in product(range(field.order), repeat=len(positions(n))):
            _validate_moves(n, field, state)
    return _walked_axes(DualOrbit, n, field)
