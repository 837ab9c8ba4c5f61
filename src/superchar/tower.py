"""Field towers, compatible character sequences, and finite approximation.

A tower is a divisor chain of degrees over one prime.  A character of the
limit field is carried as the sequence of its restrictions: elements beta_m
with Tr(beta_{m+1}) = beta_m at every consecutive pair.  Zero betas form a
prefix (a trace of zero is zero), so each nontrivial sequence has a first
nonzero level m0, before which its supercharacters are undefined.  Level
values come from the closed formula; the limit is zero unless every row
arc survives with zero nesting, in which case the value freezes at the
first fully-defined level.

The growth scans, fsc_diagnostic and plancherel_profile, read orbit sizes
from the closed formulas q^|S(pi)| and q^r(pi) and walk no orbit; the
walks that check those formulas belong to superchar.orbits.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import Cyclotomic
from .gf import (
    FieldElement,
    FiniteField,
    embed_into,
    field_construct,
    field_embed,
    trace_indices,
    trace_lifts,
)
from .nilpotent import fits_space, position_count
from .partitions import (
    ColouredPartition,
    SetPartition,
    _closed_shape,
    closed_size,
    enumerate_labels,
    enumerate_partitions,
    format_coloured,
    nest,
    partition_stats,
)
from .table import _closed_value, _gram_entry


class FieldTower:
    """GF(p^c1) < GF(p^c2) < ... for a strictly increasing divisor chain."""

    def __init__(self, p: int, degrees):
        degrees = tuple(int(d) for d in degrees)
        if not degrees:
            raise ValueError("empty tower")
        if min(degrees) < 1:
            raise ValueError(f"degrees {degrees} must all be at least 1")
        for a, b in zip(degrees, degrees[1:]):
            if not (a < b and b % a == 0):
                raise ValueError(f"degrees {degrees} are not a divisor chain")
        self.p = p
        self.degrees = degrees
        self.fields = [field_construct(p, d) for d in degrees]

    def __len__(self):
        return len(self.degrees)

    def field(self, level: int) -> FiniteField:
        """Levels are 1-based."""
        if not 1 <= level <= len(self.degrees):
            raise ValueError(f"level {level} outside tower of height {len(self)}")
        return self.fields[level - 1]

    def embed(self, x: FieldElement, level: int) -> FieldElement:
        """Direct per-pair embedding of a lower-level element into a level."""
        target = self.field(level)
        if x.field not in self.fields:
            raise ValueError("element does not belong to a tower level")
        return embed_into(x, target)

    def __repr__(self):
        return f"FieldTower(p={self.p}, degrees={self.degrees})"


def char_extend(beta: FieldElement, sup: FiniteField) -> FieldElement:
    """The enumeration-smallest element of sup whose trace down is beta."""
    return sup.elements[trace_indices(beta.field, sup).index(beta.index)]


def _restricts(lo: FiniteField, hi: FiniteField, b_lo: int, b_hi: int) -> bool:
    """Whether the character x -> tau(b_hi x) of hi, tau the standard
    character zeta_p^lift(Tr(.)) of each field, agrees with x -> tau(b_lo x)
    at every element x of the embedded lo, on the exp, log and trace-lift
    tables (betas and x as enumeration indices)."""
    exp_lo, log_lo, trl_lo = lo.exp, lo.log, trace_lifts(lo)
    exp_hi, log_hi, trl_hi = hi.exp, hi.log, trace_lifts(hi)
    l_lo, l_hi = log_lo[b_lo], log_hi[b_hi]  # 2(q-1) for a zero beta
    emb = field_embed(lo, hi).images
    return all(
        trl_hi[exp_hi[l_hi + log_hi[emb[x]]]] == trl_lo[exp_lo[l_lo + log_lo[x]]]
        for x in range(1, lo.order)  # x = 0 gives 0 on both sides
    )


class TowerCharacter:
    """A compatible sequence of betas, one per tower level.

    Compatibility Tr(beta_{m+1}) = beta_m is what restriction of the
    character beta*tau to the subfield means; the constructor does not
    take that on faith but replays it as a character identity over every
    subfield element.
    """

    __slots__ = ("tower", "betas", "m0")

    def __init__(self, tower: FieldTower, betas):
        betas = list(betas)
        if len(betas) != len(tower):
            raise ValueError("one beta per tower level required")
        for m, (lo, hi) in enumerate(zip(tower.fields, tower.fields[1:])):
            if betas[m].field != lo or betas[m + 1].field != hi:
                raise ValueError(f"beta at level {m + 1} lives in the wrong field")
            b_lo, b_hi = betas[m].index, betas[m + 1].index
            if trace_indices(lo, hi)[b_hi] != b_lo:
                raise ValueError(
                    f"trace compatibility fails between levels {m + 1} and {m + 2}"
                )
            if not _restricts(lo, hi, b_lo, b_hi):
                raise AssertionError(
                    "trace-compatible betas do not restrict as characters"
                )
        self.tower = tower
        self.betas = betas
        self.m0 = next(
            (m + 1 for m, b in enumerate(betas) if b), None
        )  # None = the trivial sequence

    @classmethod
    def from_level1(cls, tower: FieldTower, beta1: FieldElement) -> "TowerCharacter":
        if beta1.field != tower.fields[0]:
            raise ValueError("beta1 must live in the bottom field")
        betas = [beta1]
        for hi in tower.fields[1:]:
            betas.append(char_extend(betas[-1], hi))
        return cls(tower, betas)

    def __repr__(self):
        return f"TowerCharacter({[b.index for b in self.betas]})"


def char_restrict(t: TowerCharacter, level: int) -> FieldElement:
    """beta at a level; the compatibility that makes this restriction was
    checked when t was built."""
    if not 1 <= level <= len(t.tower):
        raise ValueError(f"level {level} outside the tower")
    return t.betas[level - 1]


class TowerLabel:
    """A set partition with a tower character on every arc."""

    __slots__ = ("tower", "partition", "colours", "m0")

    def __init__(self, tower: FieldTower, partition: SetPartition, colours: dict):
        if set(colours) != set(partition.arcs()):
            raise ValueError("colour domain differs from the arc set")
        for arc, tc in colours.items():
            if (tc.tower.p, tc.tower.degrees) != (tower.p, tower.degrees):
                raise ValueError("colour tower mismatch")
            if tc.m0 is None:
                raise ValueError(f"arc {arc} carries the trivial character sequence")
        self.tower = tower
        self.partition = partition
        self.colours = dict(sorted(colours.items()))
        self.m0 = max((tc.m0 for tc in colours.values()), default=1)

    @classmethod
    def from_level1(
        cls, tower: FieldTower, level1: ColouredPartition
    ) -> "TowerLabel":
        colours = {
            arc: TowerCharacter.from_level1(tower, beta)
            for arc, beta in level1.colours.items()
        }
        return cls(tower, level1.partition, colours)

    def level_label(self, level: int) -> ColouredPartition:
        if level < self.m0:
            raise ValueError(
                f"level {level} is below m0 = {self.m0}; some colour is still trivial"
            )
        return ColouredPartition(
            self.partition,
            {arc: char_restrict(tc, level) for arc, tc in self.colours.items()},
            dual=True,
        )

    def __repr__(self):
        return f"TowerLabel({format_coloured(self.level_label(self.m0))!r}, m0={self.m0})"


def _column_level(tower: FieldTower, col: ColouredPartition) -> int:
    if not col.colours:
        return 1
    f = next(iter(col.colours.values())).field
    for m, tf in enumerate(tower.fields, start=1):
        if tf == f:
            return m
    raise ValueError("column colours do not live at any tower level")


def _level_value(
    label: TowerLabel, col: ColouredPartition, shape, level: int
) -> Cyclotomic:
    """The closed value at level of label against col, given at its own
    level and embedded up; shape is _closed_shape of the two partitions."""
    tower = label.tower
    if shape is None:
        return Cyclotomic.zero(tower.p)
    shared, d = shape
    pairs = [
        (label.colours[a].betas[level - 1], tower.embed(col.colours[a], level))
        for a in shared
    ]
    return _closed_value(pairs, d, tower.field(level))


def _abs2(v: Cyclotomic) -> Fraction:
    """|v|^2 = v conj(v): _gram_entry's cyclic convolution of v's p integers
    with their reversal, folded and read as a rational over den^2;
    AssertionError if it is not rational."""
    cell = tuple((e, c) for e, c in enumerate(v.num) if c)
    acc = _gram_entry([cell], [cell], [1], v.p)
    top = acc[-1]
    if acc[1:].count(top) != v.p - 1:
        raise AssertionError(f"|v|^2 is not rational at {v.basis_str()}")
    return Fraction(acc[0] - top, v.den * v.den)


def convergence_report(label: TowerLabel, col: ColouredPartition) -> dict:
    """Exact level values at every level of the tower against the
    predicted limit.

    The column is given at its own level and embedded upward.  Levels
    below m0 or below the column's level are reported as undefined; the
    first defined level is at most the tower height, so at least one level
    is defined.  The closed shape and the nesting depth of the two
    partitions are read once, from the masks of their partition_stats;
    every level reads them, and the limit is the first defined value when
    the shape exists with zero nesting, zero otherwise.
    """
    tower = label.tower
    first = max(label.m0, _column_level(tower, col))
    shape = _closed_shape(label.partition, col.partition)
    depth = nest(label.partition, col.partition)
    levels = []
    values = []
    for m in range(1, len(tower) + 1):
        q = tower.field(m).order
        if m < first:
            levels.append({"level": m, "q": q, "defined": False})
            continue
        v = _level_value(label, col, shape, m)
        values.append(v)
        levels.append({"level": m, "q": q, "defined": True, "value": v, "abs2": _abs2(v)})
    limit = values[0] if shape is not None and depth == 0 else Cyclotomic.zero(tower.p)
    if limit:
        stabilized = all(v == limit for v in values)
        verdict = (
            f"stabilized at level {first}" if stabilized else "not stabilized"
        )
    elif all(not v for v in values):
        # identically zero: the arc pattern dies at every level
        verdict = f"stabilized at level {first}"
        stabilized = True
    else:
        for entry in levels:
            if entry["defined"]:
                expected = Fraction(1, entry["q"] ** (2 * depth))
                assert entry["abs2"] == expected, "magnitude law broken"
        verdict = f"norm decays as q_m^-{depth}"
        stabilized = False
    return {
        "m0": label.m0,
        "first_defined_level": first,
        "nest": depth,
        "levels": levels,
        "limit": limit,
        "stabilized": stabilized,
        "verdict": verdict,
    }


# -- growth diagnostics --------------------------------------------------------


def _scan_levels(n: int, tower: FieldTower, levels, what: str) -> list[int]:
    """The levels a scan reads, every feasible one by default; ValueError
    unless they strictly increase, are feasible and number at least two."""
    if levels is None:
        levels = [m for m in range(1, len(tower) + 1) if fits_space(n, tower.field(m))]
    levels = list(levels)
    if any(a >= b for a, b in zip(levels, levels[1:])):
        raise ValueError(f"levels {levels} are not strictly increasing")
    for m in levels:
        if not fits_space(n, tower.field(m)):
            raise ValueError(f"level {m} exceeds the space cap for n = {n}")
    if len(levels) < 2:
        raise ValueError(f"{what} needs at least two feasible levels")
    return levels


def _size_scan(n: int, tower: FieldTower, levels, dual: bool) -> list[tuple]:
    """Closed orbit sizes per level for every level-1 canonical label; a
    size depends only on the partition, so no label is embedded."""
    qs = [tower.field(m).order for m in levels]
    return [
        (label, [closed_size(label, q) for q in qs])
        for label in enumerate_labels(n, tower.fields[0], dual=dual)
    ]


def fsc_diagnostic(n: int, tower: FieldTower, levels=None) -> dict:
    """Classify level-1 labels by orbit growth along the tower.

    A label is level-stable when its closed orbit size is the same at every
    scanned level.  For U_n the stable superclasses should be the trivial
    one and the full-span arc (1, n) alone, and the stable dual orbits the
    all-superdiagonal labels; the report records whether that held.
    """
    levels = _scan_levels(n, tower, levels, "growth")

    def classify(scan):
        rows = []
        for label, sizes in scan:
            rows.append(
                {
                    "label": format_coloured(label),
                    "arcs": sorted(label.arcs()),
                    "sizes": sizes,
                    "stable": len(set(sizes)) == 1,
                }
            )
        return rows

    superclasses = classify(_size_scan(n, tower, levels, dual=False))
    dual_orbits = classify(_size_scan(n, tower, levels, dual=True))
    expected_sc = {frozenset(), frozenset({(1, n)})} if n > 1 else {frozenset()}
    sc_match = all(
        r["stable"] == (frozenset(tuple(a) for a in r["arcs"]) in expected_sc)
        for r in superclasses
    )
    dual_match = all(
        r["stable"] == all(j == i + 1 for (i, j) in r["arcs"])
        for r in dual_orbits
    )
    return {
        "n": n,
        "p": tower.p,
        "degrees": list(tower.degrees),
        "levels": levels,
        "superclasses": superclasses,
        "dual_orbits": dual_orbits,
        "stable_superclasses_match_center": sc_match,
        "stable_dual_orbits_match_superdiagonal": dual_match,
    }


def plancherel_profile(n: int, tower: FieldTower, levels=None) -> dict:
    """Super-Plancherel weight carried by the dual orbits whose label arcs
    stay inside the arcs of the scan-stable superclasses, per level, summed
    per partition from the closed sizes.

    Membership is decided by arc containment, not by a vanishing scan: the
    trivial orbit concentrates on the stable classes without vanishing
    anywhere, and it must count toward the weight.
    """
    levels = _scan_levels(n, tower, levels, "a profile")

    scan = _size_scan(n, tower, levels, dual=False)
    fsc_arcs: set = set()
    for label, sizes in scan:
        if len(set(sizes)) == 1:
            fsc_arcs |= set(label.arcs())

    qualifying = [partition_stats(pi) for pi in enumerate_partitions(n)
                  if pi.arcs() <= fsc_arcs]
    profile = []
    for m in levels:
        q = tower.field(m).order
        total = q ** position_count(n)
        weight = Fraction(0)
        for stats in qualifying:
            # (q-1)^|arcs| colourings of pi, each an orbit of q^r(pi) characters
            weight += Fraction((q - 1) ** len(stats.bits) * q**stats.r, total)
        profile.append({"level": m, "q": q, "weight": weight})
    weights = [entry["weight"] for entry in profile]
    increasing = all(a < b for a, b in zip(weights, weights[1:]))
    return {
        "n": n,
        "p": tower.p,
        "degrees": list(tower.degrees),
        "levels": levels,
        "fsc_arcs": sorted(fsc_arcs),
        "profile": profile,
        "strictly_increasing": increasing,
    }
