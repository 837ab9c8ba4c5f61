"""Coloured set partitions of [n] and the statistics behind the closed
supercharacter formula.

An arc of a partition is a pair of consecutive elements inside one block.
Attaching a nonzero field value to every arc gives the canonical label of a
superclass; the same shape with character colours labels a dual orbit.  The
canonical ordering of labels sorts the dense digit vector of the associated
verge matrix, wide arcs most significant.

The closed formula reads a partition through its arcs, its shadow S(pi)
and reach R(pi), its cover count r(pi) and the nest count between two
partitions, after Diaconis and Isaacs; partition_stats holds them once per
partition, as bit masks over position_rank(n), for every reader.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

from .gf import FiniteField, format_value, parse_value
from .nilpotent import NilMatrix, position_rank

_BELL_CAP = 12


class SetPartition:
    """Blocks sorted by minimum, elements ascending; immutable."""

    __slots__ = ("n", "blocks", "_arcs")

    def __init__(self, n: int, blocks):
        blocks = tuple(tuple(sorted(b)) for b in blocks)
        blocks = tuple(sorted((b for b in blocks if b), key=lambda b: b[0]))
        seen = [x for b in blocks for x in b]
        if sorted(seen) != list(range(1, n + 1)):
            raise ValueError(f"blocks do not partition [1..{n}]: {blocks}")
        self.n = n
        self.blocks = blocks
        self._arcs = None

    def arcs(self) -> frozenset:
        if self._arcs is None:
            self._arcs = frozenset(
                (b[k], b[k + 1]) for b in self.blocks for k in range(len(b) - 1)
            )
        return self._arcs

    def __eq__(self, other):
        if not isinstance(other, SetPartition):
            return NotImplemented
        return self.n == other.n and self.blocks == other.blocks

    def __hash__(self):
        return hash((self.n, self.blocks))

    def __repr__(self):
        return f"SetPartition({format_partition(self)!r})"

    def to_json(self) -> list:
        return [list(b) for b in self.blocks]


def format_partition(pi: SetPartition) -> str:
    return "/".join(",".join(str(x) for x in b) for b in pi.blocks)


def parse_partition(text: str, n: int) -> SetPartition:
    blocks = []
    for part in text.split("/"):
        part = part.strip()
        if not part:
            raise ValueError("empty block")
        try:
            blocks.append([int(t) for t in part.split(",")])
        except ValueError:
            raise ValueError(f"bad block {part!r}") from None
    return SetPartition(n, blocks)


def enumerate_partitions(n: int) -> list[SetPartition]:
    """All partitions of [n] in restricted-growth-string lexicographic order."""
    if n > _BELL_CAP:
        raise ValueError(f"n = {n} exceeds the partition enumeration cap {_BELL_CAP}")
    out = []

    def grow(k: int, rgs: list[int], top: int):
        if k > n:
            blocks: list[list[int]] = [[] for _ in range(top + 1)]
            for x, b in enumerate(rgs, start=1):
                blocks[b].append(x)
            out.append(SetPartition(n, blocks))
            return
        for b in range(top + 2):
            rgs.append(b)
            grow(k + 1, rgs, max(top, b))
            rgs.pop()

    grow(2, [0], 0)
    return out


def _chain_blocks(n: int, succ: dict, has_pred: set) -> tuple:
    """The chains of succ (i -> j, i < j), one from each element of [n]
    that has no predecessor, in order of their minima."""
    blocks = []
    for start in range(1, n + 1):
        if start not in has_pred:
            block = [start]
            while block[-1] in succ:
                block.append(succ[block[-1]])
            blocks.append(tuple(block))
    return tuple(blocks)


def chain_label(n, succ, has_pred, colours, dual=False) -> ColouredPartition:
    """The coloured partition of the chains of succ, built without the
    constructors' checks, which the caller has made: succ maps each i to
    one j > i, has_pred holds its values once each, and colours maps
    exactly its arcs, in row-major order, to nonzero values."""
    pi = object.__new__(SetPartition)
    pi.n, pi.blocks, pi._arcs = n, _chain_blocks(n, succ, has_pred), frozenset(colours)
    label = object.__new__(ColouredPartition)
    label.partition, label.colours, label.dual = pi, colours, dual
    return label


class PartitionStats(NamedTuple):
    """A partition's statistics, on masks whose bits are position_rank(n)."""

    arcs: int  # the arcs
    bits: tuple  # (bit, arc) per arc, sorted
    reach: int  # R(pi): the positions no arc shadows to its right or above
    inside: tuple  # per arc (i, j), the positions (k, l) with i < k < l < j
    shadow: int  # |S(pi)|, the number of shadowed positions
    r: int  # r(pi): the positions (i, k) and (k, j), i < k < j, of some arc

    def nest(self, other: PartitionStats) -> int:
        """The arcs of other strictly inside arcs of self, with multiplicity."""
        return sum((m & other.arcs).bit_count() for m in self.inside)

    def shape(self, other: PartitionStats):
        """None if an arc of self leaves other's reach, else (shared arcs, nest)."""
        if self.arcs & ~other.reach:
            return None
        return [a for b, a in self.bits if b & other.arcs], self.nest(other)


@lru_cache(maxsize=1 << 12)
def partition_stats(pi: SetPartition) -> PartitionStats:
    """pi's PartitionStats, cached per partition, so a table builds it once
    per partition, not once per cell; the bound exceeds Bell(7), the widest
    table the space cap admits at any q."""
    n, rank = pi.n, position_rank(pi.n)
    bits = tuple((1 << rank[a], a) for a in sorted(pi.arcs()))
    shadow = covered = 0
    for _, (i, j) in bits:  # per arc, each sum adds distinct bits
        shadow |= sum(1 << rank[i, l] for l in range(j + 1, n + 1))
        shadow |= sum(1 << rank[k, j] for k in range(1, i))
        covered |= sum(1 << rank[i, k] | 1 << rank[k, j] for k in range(i + 1, j))
    inside = tuple(sum(1 << rank[k, l] for k in range(i + 1, j) for l in range(k + 1, j))
                   for _, (i, j) in bits)
    everything = (1 << len(rank)) - 1
    return PartitionStats(sum(b for b, _ in bits), bits, everything & ~shadow, inside,
                          shadow.bit_count(), covered.bit_count())


def nest(pi: SetPartition, other: SetPartition) -> int:
    """Number of arcs of `other` strictly inside arcs of `pi`, with multiplicity."""
    if pi.n != other.n:
        raise ValueError("size mismatch")
    return partition_stats(pi).nest(partition_stats(other))


def _closed_shape(pi: SetPartition, pip: SetPartition):
    """What the closed formula reads of the two partitions, their
    PartitionStats.shape, once their sizes are found equal."""
    if pi.n != pip.n:
        raise ValueError("label sizes differ")
    return partition_stats(pi).shape(partition_stats(pip))


def count_labels(n: int, q: int) -> int:
    """Number of coloured set partitions of [n] over a q-element field."""
    return sum((q - 1) ** len(pi.arcs()) for pi in enumerate_partitions(n))


# -- coloured partitions ------------------------------------------------------


@lru_cache(maxsize=None)
def _digit_rank(n: int) -> dict:
    """Per position (i, j), its digit in sort_key: positions by width j - i,
    then by i, both descending."""
    ranked = sorted(((j - i, i, (i, j)) for i in range(1, n + 1)
                     for j in range(i + 1, n + 1)), reverse=True)
    return {pos: k for k, (_, _, pos) in enumerate(ranked)}


class ColouredPartition:
    """A set partition with a nonzero field value on every arc.

    The same type labels superclasses (values are matrix entries) and dual
    orbits (values are the beta of the character beta*tau); `dual` records
    which reading is meant so serialized labels stay unambiguous.
    """

    __slots__ = ("partition", "colours", "dual")

    def __init__(self, partition: SetPartition, colours: dict, dual: bool = False):
        expected = partition.arcs()
        if set(colours) != set(expected):
            raise ValueError(
                f"colour domain {sorted(colours)} != arc set {sorted(expected)}"
            )
        for a, v in colours.items():
            if not v:
                raise ValueError(f"zero colour on arc {a}")
        self.partition = partition
        self.colours = dict(sorted(colours.items()))
        self.dual = dual

    @property
    def n(self) -> int:
        return self.partition.n

    def arcs(self) -> frozenset:
        return self.partition.arcs()

    def sort_key(self) -> tuple[int, ...]:
        """Dense digit vector of the verge matrix, widest arcs first."""
        key, rank = [0] * (self.n * (self.n - 1) // 2), _digit_rank(self.n)
        for pos, v in self.colours.items():
            key[rank[pos]] = v.index
        return tuple(key)

    def __eq__(self, other):
        if not isinstance(other, ColouredPartition):
            return NotImplemented
        return (
            self.partition == other.partition
            and self.colours == other.colours
            and self.dual == other.dual
        )

    def __hash__(self):
        return hash(
            (self.partition, tuple(self.colours.items()), self.dual)
        )

    def __repr__(self):
        return f"ColouredPartition({format_coloured(self)!r})"

    def to_json(self) -> dict:
        obj: dict = {
            "blocks": self.partition.to_json(),
            "colours": {
                f"{i},{j}": list(v.coeffs) for (i, j), v in self.colours.items()
            },
        }
        if self.dual:
            obj["dual"] = True
        return obj

    @classmethod
    def from_json(cls, obj: dict, n: int, field: FiniteField) -> "ColouredPartition":
        pi = SetPartition(n, obj["blocks"])
        colours = {}
        for key, coeffs in obj["colours"].items():
            i, j = (int(t) for t in key.split(","))
            colours[(i, j)] = field.element(coeffs)
        return cls(pi, colours, dual=bool(obj.get("dual", False)))


def format_colours(colours: dict) -> str:
    return ";".join(
        f"{i},{j}={format_value(v)}" for (i, j), v in sorted(colours.items())
    )


def parse_colours(text: str, field: FiniteField) -> dict:
    colours: dict = {}
    text = text.strip()
    if not text:
        return colours
    for part in text.split(";"):
        lhs, _, rhs = part.partition("=")
        written = parse_value(rhs.strip(), part, "bad colour assignment")
        try:
            i, j = (int(t) for t in lhs.split(","))
        except ValueError:
            raise ValueError(f"bad colour assignment {part!r}") from None
        value = field.from_value(written)
        if (i, j) in colours:
            raise ValueError(f"duplicate colour for arc ({i},{j})")
        colours[(i, j)] = value
    return colours


def format_coloured(cp: ColouredPartition) -> str:
    base = format_partition(cp.partition)
    if not cp.colours:
        return base
    return f"{base} | {format_colours(cp.colours)}"


def parse_coloured(
    text: str, n: int, field: FiniteField, dual: bool = False
) -> ColouredPartition:
    left, _, right = text.partition("|")
    pi = parse_partition(left.strip(), n)
    colours = parse_colours(right, field)
    return ColouredPartition(pi, colours, dual=dual)


def closed_size(cp: ColouredPartition, q: int) -> int:
    """The orbit size of a label over F_q, with no walk: q^r(pi) for a dual
    orbit, q^|S(pi)| for a superclass."""
    stats = partition_stats(cp.partition)
    return q ** (stats.r if cp.dual else stats.shadow)


def torus_logs(cp: ColouredPartition, field: FiniteField) -> tuple:
    """(lambda0, t) with cp = t . lambda0: lambda0 the all-ones colouring of
    cp's partition, t the logs of a torus element (t_1, ..., t_n), 0 at each
    block's least element.

    The diagonal torus (F_q^x)^n acts on A by a_ij -> t_i a_ij t_j^-1 and on
    pairing matrices by the contragredient b_ij -> t_i^-1 b_ij t_j, so it
    scales the colour of arc (i, j) by t_i/t_j on a superclass label and by
    t_j/t_i on a dual one.  The arcs of a block form a path, so t is read
    along it, and the colourings of a partition form one torus orbit; its
    stabilizer is the t constant on each block.
    """
    log, mod, sign = field.log, field.order - 1, 1 if cp.dual else -1
    t = [0] * cp.n
    for (i, j), v in cp.colours.items():  # arcs ascending: t_i is read first
        t[j - 1] = (t[i - 1] + sign * log[v.index]) % mod
    return _all_ones(cp.partition, field, cp.dual), tuple(t)


@lru_cache(maxsize=1 << 12)
def _all_ones(pi: SetPartition, field: FiniteField, dual: bool) -> ColouredPartition:
    return ColouredPartition(pi, dict.fromkeys(pi.arcs(), field.one), dual)


def build_e(cp: ColouredPartition, field: FiniteField):
    """The verge matrix with colour values at arc positions."""
    for v in cp.colours.values():
        if v.field != field:
            raise ValueError("colour field mismatch")
    return NilMatrix(cp.n, field, dict(cp.colours))


@lru_cache(maxsize=None)
def _labels_cached(n: int, field: FiniteField, dual: bool):
    nonzero = field.nonzero()
    out = []
    for pi in enumerate_partitions(n):
        arc_list = sorted(pi.arcs())
        for combo in itertools.product(nonzero, repeat=len(arc_list)):
            out.append(ColouredPartition(pi, dict(zip(arc_list, combo)), dual=dual))
    out.sort(key=ColouredPartition.sort_key)
    return tuple(out)


def enumerate_labels(
    n: int, field: FiniteField, dual: bool = False
) -> list[ColouredPartition]:
    """All coloured partitions of [n] over the field, canonical order."""
    return list(_labels_cached(n, field, dual))
