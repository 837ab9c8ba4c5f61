"""Strictly upper-triangular nil algebras and the algebra group G = 1 + A.

Matrices are sparse maps (i, j) -> nonzero field element over the positions
1 <= i < j <= n.  The canonical hash encoding of a matrix is the dense tuple
of field enumeration indices over positions in row-major order, which makes
orbit bookkeeping bit-exact.  An element 1 + a of G is held by its body
a, so a NilMatrix is also the one group element type.
"""

from __future__ import annotations

from functools import lru_cache

from .gf import FieldElement, FiniteField, format_value, parse_value, space_cap


@lru_cache(maxsize=None)
def positions(n: int) -> tuple[tuple[int, int], ...]:
    """All (i, j) with 1 <= i < j <= n, row-major."""
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


def position_count(n: int) -> int:
    """N = len(positions(n)) = n(n-1)/2, without building the positions."""
    return n * (n - 1) // 2 if n > 0 else 0


def fits_space(n: int, field: FiniteField) -> bool:
    """Whether |A| = q^N is within space_cap(); q >= 2, so q^N is built
    only while N is below the cap's bit length."""
    cap, N = space_cap(), position_count(n)
    return N < cap.bit_length() and field.order**N <= cap


@lru_cache(maxsize=None)
def position_rank(n: int) -> dict[tuple[int, int], int]:
    return {pos: k for k, pos in enumerate(positions(n))}


class NilMatrix:
    """A strictly upper-triangular n x n matrix over a finite field."""

    __slots__ = ("n", "field", "entries", "_key")

    def __init__(self, n: int, field: FiniteField, entries: dict):
        self.n = n
        self.field = field
        self.entries = {pos: v for pos, v in entries.items() if v}
        for (i, j) in self.entries:
            if not 1 <= i < j <= n:
                raise ValueError(f"entry position {(i, j)} not strictly upper")
        self._key = None

    @classmethod
    def zero(cls, n: int, field: FiniteField) -> "NilMatrix":
        return cls(n, field, {})

    @classmethod
    def single(cls, n, field, i, j, alpha) -> "NilMatrix":
        return cls(n, field, {(i, j): alpha})

    @classmethod
    def from_dense(cls, n, field, indices) -> "NilMatrix":
        pos = positions(n)
        assert len(indices) == len(pos)
        entries = {
            pos[k]: field.element_by_index(v) for k, v in enumerate(indices) if v
        }
        return cls(n, field, entries)

    def dense(self) -> tuple[int, ...]:
        if self._key is None:
            e = self.entries
            self._key = tuple(
                e[pos].index if pos in e else 0 for pos in positions(self.n)
            )
        return self._key

    def entry(self, i: int, j: int) -> FieldElement:
        v = self.entries.get((i, j))
        return v if v is not None else self.field.zero

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, NilMatrix):
            return NotImplemented
        return (
            self.n == other.n
            and self.field == other.field
            and self.dense() == other.dense()
        )

    def __hash__(self):
        return hash((self.n, self.field.p, self.field.m, self.dense()))

    def _check_peer(self, other):
        if self.n != other.n or self.field != other.field:
            raise ValueError("size or field mismatch")

    def __add__(self, other):
        self._check_peer(other)
        out = dict(self.entries)
        for pos, v in other.entries.items():
            cur = out.get(pos)
            out[pos] = v if cur is None else cur + v
        return NilMatrix(self.n, self.field, out)

    def __neg__(self):
        return NilMatrix(self.n, self.field, {p: -v for p, v in self.entries.items()})

    def __sub__(self, other):
        return self + (-other)

    def __matmul__(self, other):
        """Algebra product; strictly upper shape is preserved automatically."""
        self._check_peer(other)
        out: dict = {}
        for (i, j), va in self.entries.items():
            for (k, l), vb in other.entries.items():
                if k == j:
                    term = va * vb
                    cur = out.get((i, l))
                    out[(i, l)] = term if cur is None else cur + term
        return NilMatrix(self.n, self.field, out)

    def __repr__(self):
        if not self.entries:
            return f"NilMatrix({self.n}, 0)"
        return f"NilMatrix({self.n}, {format_matrix(self)!r})"


# -- matrix text format ------------------------------------------------------


def format_matrix(a: NilMatrix) -> str:
    """Comma-separated assignments; bare integers over a prime field."""
    if a.n > 9:
        raise ValueError("text format uses single-digit indices (n <= 9)")
    return ",".join(
        f"a{i}{j}={format_value(v)}" for (i, j), v in sorted(a.entries.items())
    )


def _assignments(text: str) -> list[str]:
    """The top-level comma-separated parts of text, stripped, empty ones
    dropped; commas inside [...] separate coefficients.  A comma is top
    level where the brackets before it balance, so with brackets a part
    is a run of comma-split pieces whose bracket count returns to zero."""
    pieces = text.split(",")
    if "[" in text or "]" in text:
        parts, run, depth = [], [], 0
        for piece in pieces:
            run.append(piece)
            depth += piece.count("[") - piece.count("]")
            if not depth:
                parts.append(",".join(run))
                run = []
        pieces = parts + [",".join(run)] if run else parts
    return [p for p in map(str.strip, pieces) if p]


def parse_matrix(text: str, n: int, field: FiniteField) -> NilMatrix:
    """The matrix of comma-separated assignments aij=v, v an integer or a
    coefficient list [c0,c1,...], constant term first; the dense key is
    set as the entries are read."""
    if n > 9:
        raise ValueError("text format uses single-digit indices (n <= 9)")
    rank = position_rank(n)
    key = [0] * len(rank)
    entries: dict = {}
    for part in _assignments(text):
        lhs, _, rhs = part.partition("=")
        lhs = lhs.strip()
        rhs = rhs.strip()
        if not (len(lhs) == 3 and lhs[0] == "a" and lhs[1:].isdecimal() and rhs):
            raise ValueError(f"bad assignment {part!r}")
        pos = int(lhs[1]), int(lhs[2])
        if pos not in rank:
            raise ValueError(f"position ({pos[0]},{pos[1]}) out of range for n={n}")
        value = field.from_value(parse_value(rhs, part, "bad value in assignment"))
        if pos in entries:
            raise ValueError(f"duplicate entry ({pos[0]},{pos[1]})")
        entries[pos] = value
        key[rank[pos]] = value.index
    a = NilMatrix(n, field, entries)
    a._key = tuple(key)
    return a


# -- the algebra group -------------------------------------------------------


def group_inv(a: NilMatrix) -> NilMatrix:
    """The body of (1 + a)^-1: -a + a^2 - a^3 + ..., which ends since
    a^n = 0."""
    acc = -a
    power = a
    sign = 1
    while True:
        power = power @ a
        if power.is_zero():
            return acc
        acc = acc + power if sign > 0 else acc - power
        sign = -sign
