"""Supercharacter tables by two independent routes, and their verification.

Route one averages the pairing character over a materialized dual orbit.
Route two is the closed formula on coloured-set-partition labels: zero
unless every arc of the row label survives the column label's shadow, and
otherwise a root of unity damped by q^-nesting.  The two routes share no
code beyond field arithmetic, which is the point: build_table computes by
the closed formula and cross-validates against the average.

The closed table is integers end to end.  _closed_cells gives every cell
as a sparse vector in Z[x]/(x^p - 1) over one denominator D = q^dmax,
zeta^t q^-d being D q^-d x^t, from each partition's partition_stats and
template rows, and the table holds only those cells: the cross-check,
verify_theory, plancherel and inner_product read them.  A
Cyclotomic is the same kind of value, p integers in Z[x]/(x^p - 1) over a
denominator, so a cell becomes one by a constructor call: for the `values`
view, built once, for a failing or sampled cell, and in sch_closed; a
table read back from JSON becomes cells by _integer_cells.

The averaging route for every a in A and every row at once is one additive
Fourier transform, as Diaconis and Isaacs build supercharacters: the
histogram over b in O of lift(Tr<b, a>) is the transform of the indicator
of O on A = F_p^(mN), N = n(n-1)/2.  _route_blocks takes it radix p
over the mN base-p digits of the dense state index (a field index's digits
are its F_p coordinates), read off each packed member through two tables,
one per half of its entries.  A value in Z[x]/(x^p - 1) is p packed Python
ints, one per exponent, each holding one count per row in a field of
bit_length(|A|) + 1 bits, so multiplying by x is a cyclic shift of the p
ints and every operation is a non-negative integer addition: about
rows * |A| * mN * p^2 bit-packed additions, in row blocks that bound the
memory.  The output is read at the trace-dual digits
c_k(a) = lift(Tr(x^k a)).  The transform reads only the BFS dual-orbit
members and the trace pairing, never a label formula.  _route_failure
compares it with the table block by block; its verdict, cached as
table._route, is read by build_table's full cross-check and verify_theory.

The diagonal torus permutes both axes and keeps the pairing, so the route
and the Gram run on one row per torus orbit, Bell(n) rows, once
_orbit_rows has checked that the table and the members are equivariant.
Both rank failures by row first, and a row fails just when its orbit's
first row does (_orbit_rows), so every verdict is the full scan's.

build_table and table_from_json build both axes from the labels alone:
each orbit carries its label, field and closed size (q^|S(pi)| for a
superclass, q^r(pi) for a dual orbit) and builds build_e(label) on read.
Its members, sorted packed states, are walked when a validator reads
them; a walk that does not find the closed size raises AssertionError.
The full cross-check and verify_theory read every member of both axes and
check that each axis covers A disjointly; the spot cross-check averages
each sampled cell over the smaller of its two orbits by closed size, so
it walks only those; plancherel and the closed table walk nothing.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from math import lcm
from operator import add, sub

from .cyclotomic import Cyclotomic
from .dual import DualOrbit
from .gf import FiniteField, trace_lifts
from .nilpotent import group_inv, position_count, positions
from .orbits import Superclass, _packing, canonical_form, check_cover, check_space, unpack
from .partitions import (
    ColouredPartition,
    _closed_shape,
    count_labels,
    enumerate_labels,
    format_coloured,
    partition_stats,
    torus_logs,
)

_FULL_VALIDATION_LIMIT = 1 << 12
_SPOT_CHECKS = 64
_ROUTE_BLOCK_BITS = 1 << 27  # packed count bits per row block of the transform


class RouteDisagreement(AssertionError):
    """The closed formula and the orbit average disagree on one table cell."""

    def __init__(self, row_label, col_label, closed, brute):
        self.row_label = row_label
        self.col_label = col_label
        self.closed = closed
        self.brute = brute
        super().__init__(
            f"routes disagree at row {format_coloured(row_label)!r}, "
            f"column {format_coloured(col_label)!r}: "
            f"closed {closed.basis_str()} vs average {brute.basis_str()}"
        )


def _pairing_hist(members, a: tuple, field: FiniteField) -> list[int]:
    """Histogram of zeta exponents of <b, a> over the packed members b, for
    a dense state a: <b, a> sums b's digits times a's trace-dual digits,
    which b times those digits packed in reverse holds in its top digit's
    field, one multiply per member; no field of the product carries."""
    p, m = field.p, field.m
    w = _packing(field, len(a))[0]
    dual, c = _trace_dual_index(field), 0
    for v in reversed(a):
        c = c << m * w | sum(dual[v] // p**d % p << (m - 1 - d) * w for d in range(m))
    shift, mask = max(m * len(a) - 1, 0) * w, (1 << w) - 1  # n = 1: no digits
    hist = [0] * p
    for b in members:
        hist[(b * c >> shift & mask) % p] += 1
    return hist


def sch_bruteforce(orbit: DualOrbit | Superclass, state: tuple) -> Cyclotomic:
    """The averaging formula, from either side of a cell, at a dense state.

    For a dual orbit O: the mean of theta_b(a) over b in O, the state
    read as a in A.  For a superclass K, the state read as a pairing
    matrix b: the mean of theta_b(a) over a in K.  The pairing
    lift(Tr sum b_ij a_ij) is symmetric, and double counting the sum over
    O x K of theta_b(a) makes both means the cell xi_O(K) when the state
    lies in the other orbit.
    """
    field = orbit.field
    return Cyclotomic(field.p, _pairing_hist(orbit.members, state, field), orbit.size)


def sch_closed(
    row: ColouredPartition, col: ColouredPartition, field: FiniteField
) -> Cyclotomic:
    """The closed formula on labels; never touches any orbit.  The
    Cyclotomic view of one cell of _closed_cells, zeta^t q^-d."""
    shape = _closed_shape(row.partition, col.partition)
    if shape is None:
        return Cyclotomic.zero(field.p)
    shared, d = shape
    return _closed_value(
        [(row.colours[a], col.colours[a]) for a in shared], d, field
    )


def _closed_value(pairs, d: int, field: FiniteField) -> Cyclotomic:
    """zeta^t q^-d, where t sums lift(Tr(a b)) over the (a, b) colour
    pairs of the shared arcs: the closed formula once _closed_shape has
    found the shared arcs and the nesting depth d."""
    p, log, exp, trl = field.p, field.log, field.exp, trace_lifts(field)
    t = sum(trl[exp[log[a.index] + log[b.index]]] for a, b in pairs)
    return Cyclotomic(p, _dense(((t % p, 1),), p), field.order**d)


def _closed_cells(rows, cols, field: FiniteField) -> tuple[int, list[list[tuple]]]:
    """The closed formula on every (row, column) pair of labels, as integer
    cells over one denominator D = q^dmax, in the shape of _integer_cells:
    a zero cell is (), and zeta^t q^-d is ((t, q^(dmax - d)),).

    _closed_shape depends only on the two partitions, so it runs once per
    partition pair, at most Bell(n)^2 of them, on the cached partition_stats
    of each.  A row copies its partition's template, the cells that read
    no colour, and fills the columns with shared arcs: t sums lift(Tr(a b))
    over the row's arcs, from terms built per arc and colour (an arc the
    column lacks reads log 0, whose term is 0).  Cells are interned.
    """
    p, q, log = field.p, field.order, field.log
    lift = list(map(trace_lifts(field).__getitem__, field.exp))  # at log a + log b: Tr(a b)

    def partitions_of(labels):  # distinct partitions, and each label's index
        index: dict = {}
        return index, [index.setdefault(lab.partition, len(index)) for lab in labels]

    row_parts, row_of = partitions_of(rows)
    col_parts, col_of = partitions_of(cols)
    col_stats = [partition_stats(pip) for pip in col_parts]
    shapes = [[r.shape(c) for c in col_stats] for r in map(partition_stats, row_parts)]
    dmax = max((s[1] for line in shapes for s in line if s), default=0)
    span = (p - 1) * (rows[0].n - 1) + 1  # t < span: at most n - 1 arcs
    cells = [((t % p, q ** (dmax - d)),) for d in range(dmax + 1) for t in range(span)]
    plans = []  # per row partition
    for pi, line in zip(row_parts, shapes):
        shape = [line[b] for b in col_of]
        reads = [j for j, s in enumerate(shape) if s and s[0]]
        arcs = sorted(pi.arcs())
        terms = []  # per arc, per row colour log x, each read column's term
        for arc in arcs:
            ys = [log[cols[j].colours[arc].index] if arc in cols[j].colours else log[0]
                  for j in reads]
            terms.append([[lift[x + y] for y in ys] for x in range(q - 1)])
        template = [() if s is None else cells[s[1] * span] for s in shape]
        plans.append((template, reads, [shape[j][1] * span for j in reads], arcs, terms))
    out = []
    for row, a in zip(rows, row_of):
        template, reads, t, arcs, terms = plans[a]
        for arc, by_log in zip(arcs, terms):
            t = map(add, t, by_log[log[row.colours[arc].index]])
        line = template[:]
        list(map(line.__setitem__, reads, map(cells.__getitem__, t)))
        out.append(line)
    return q**dmax, out


def _dense(cell: tuple, p: int) -> list[int]:
    """The p coordinates of a sparse integer cell."""
    vec = [0] * p
    for e, c in cell:
        vec[e] += c
    return vec


class SupercharTable:
    """Rows are dual orbits, columns are superclasses, both in canonical
    label order; each cell is a value xi_O(K) in Q(zeta_p), normalized to
    xi(1) = 1.

    The table holds one representation, cells = (D, rows): integer cells
    over one shared denominator D, each a sparse vector in Z[x]/(x^p - 1),
    a tuple of (exponent, coefficient) pairs.  build_table hands over the
    cells of _closed_cells, table_from_json those of _integer_cells.  Every
    check reads the cells.  `values`, the rows of Cyclotomics for export,
    is built on first read, one Cyclotomic per distinct cell, and is a
    tuple of tuples: a table is changed by building another.  Anything but
    rows x columns cells is refused with ValueError.
    """

    def __init__(self, n, field, dual_orbits, superclasses, cells):
        self._denom, self._cells = cells
        rows, cols = len(dual_orbits), len(superclasses)
        if len(self._cells) != rows or any(len(line) != cols for line in self._cells):
            raise ValueError(f"the table values are not {rows} rows x {cols} columns")
        self.n = n
        self.field = field
        self.dual_orbits = dual_orbits
        self.superclasses = superclasses
        self.order = field.order ** position_count(n)

    _rows = cached_property(lambda self: _orbit_rows(self))  # the rows the route and Gram check
    _route = cached_property(lambda self: _route_failure(self))  # its verdict, None included

    @cached_property
    def values(self) -> tuple[tuple[Cyclotomic, ...], ...]:
        p, denom = self.field.p, self._denom
        built = {
            c: Cyclotomic(p, _dense(c, p), denom)
            for c in dict.fromkeys(chain.from_iterable(self._cells))
        }
        return tuple(tuple(map(built.__getitem__, row)) for row in self._cells)

    def cell(self, i: int, j: int) -> Cyclotomic:
        """The Cyclotomic of one cell, built apart from `values`."""
        p = self.field.p
        return Cyclotomic(p, _dense(self._cells[i][j], p), self._denom)

    def integer_cells(self) -> tuple[int, list[list[tuple]]]:
        """(D, every row as integer cells over D), as held."""
        return self._denom, self._cells

    @property
    def size(self) -> int:
        return len(self.dual_orbits)

    def row_labels(self):
        return [o.label for o in self.dual_orbits]

    def col_labels(self):
        return [k.label for k in self.superclasses]

    def weight(self, i: int) -> Fraction:
        return Fraction(self.dual_orbits[i].size, self.order)

    def __eq__(self, other):
        if not isinstance(other, SupercharTable):
            return NotImplemented
        return (
            self.n == other.n
            and self.field == other.field
            and self.row_labels() == other.row_labels()
            and self.col_labels() == other.col_labels()
            and [o.size for o in self.dual_orbits]
            == [o.size for o in other.dual_orbits]
            and [k.size for k in self.superclasses]
            == [k.size for k in other.superclasses]
            and self.values == other.values
        )


def _spot_pairs(table: SupercharTable) -> list[tuple[int, int]]:
    """The seeded (row, column) cells of the spot cross-check."""
    rng = random.Random(20240 + table.n * 1000 + table.field.order)
    return [
        (rng.randrange(table.size), rng.randrange(len(table.superclasses)))
        for _ in range(_SPOT_CHECKS)
    ]


def build_table(n: int, field: FiniteField, full: bool = False) -> SupercharTable:
    """The full table by the closed formula, held as the integer cells of
    _closed_cells, cross-checked against the orbit average: with full, or
    when |A| <= 2^12, every cell at every member of its superclass, by
    _route_failure; else 64 seeded cells by sch_bruteforce.  A failing
    cell raises RouteDisagreement with the average there; only it, or a
    sampled cell, is built as a Cyclotomic, with its average.

    A sampled cell is averaged over the smaller of its dual orbit and its
    superclass by closed size, ties to the dual orbit, at the other's
    representative; sch_bruteforce says why the two means agree.

    The axes come from the labels with closed sizes; only the cross-check
    walks orbits: the full one every orbit of both kinds, the spot one the
    smaller orbit of each sampled cell.  |A| above the space cap raises
    ValueError before any of this.
    """
    check_space(n, field)
    row_labels = enumerate_labels(n, field, dual=True)
    col_labels = enumerate_labels(n, field)
    rows = [DualOrbit.from_label(label, field) for label in row_labels]
    cols = [Superclass.from_label(label, field) for label in col_labels]
    cells = _closed_cells(row_labels, col_labels, field)
    table = SupercharTable(n, field, rows, cols, cells)
    bad = _cross_check(table, full or table.order <= _FULL_VALIDATION_LIMIT)
    if bad is not None:
        i, j, brute = bad
        raise RouteDisagreement(row_labels[i], col_labels[j], table.cell(i, j), brute)
    return table


def _cross_check(table: SupercharTable, full: bool):
    """(row, column, average) at the first cell where the orbit average is
    not the closed cell, or None: every cell at every member by
    _route_failure when full, else the spot cells in seeded order."""
    if full:
        bad = table._route
        if bad is None:
            return None
        i, j, state = bad
        return i, j, sch_bruteforce(table.dual_orbits[i], state)
    for i, j in _spot_pairs(table):
        # the smaller orbit by closed size; sorted is stable: ties go to the row
        small, large = sorted((table.dual_orbits[i], table.superclasses[j]),
                              key=lambda orbit: orbit.size)
        brute = sch_bruteforce(small, large.rep.dense())
        if brute != table.cell(i, j):
            return i, j, brute
    return None


# -- the averaging route as one additive Fourier transform --------------------


@lru_cache(maxsize=None)
def _trace_dual_index(field: FiniteField) -> list[int]:
    """Per element index k, the index whose base-p digits are the
    trace-dual coordinates lift(Tr(x^d e_k)), d < m: the pairing
    lift(Tr(b e_k)) is the dot product of these with b's digits, mod p."""
    elts = field.elements
    trl = trace_lifts(field)
    basis = [elts[field.p**d] for d in range(field.m)]
    return [
        sum(trl[(x * e).index] * field.p**d for d, x in enumerate(basis))
        for e in elts
    ]


def _additive_fourier(vec: list[list[int]], p: int, digits: int) -> list[list[int]]:
    """F(c) = sum over b of vec(b) x^(b.c) on F_p^digits, in Z[x]/(x^p - 1),
    where vec(b) = sum_e vec[e][b] x^e and an index's base-p digits are
    its coordinates.

    Radix p, one digit per pass: a pass transforms the top digit and
    writes its frequency as the bottom digit, so once every digit has
    passed they are back in place.  Multiplying by x^t makes list
    (e - t) % p the coefficient of x^e; the rest is elementwise addition.
    """
    size = p**digits
    stride = size // p
    for _ in range(digits):
        parts = [[v[b * stride:(b + 1) * stride] for b in range(p)] for v in vec]
        vec = [[0] * size for _ in range(p)]
        for c in range(p):
            for e in range(p):
                acc = parts[e][0]
                for b in range(1, p):
                    acc = list(map(add, acc, parts[(e - b * c) % p][b]))
                vec[e][c::p] = acc
    return vec


def _route_blocks(table: SupercharTable, checked):
    """The averaging route on the rows checked, ascending, one block of
    them at a time.  Yields (rows, j, column, decode) per block and class:
    column[e] lists the packed counts of exponent e at each member of
    class j, one width-bit field per row, and decode turns a member's key
    (its count per exponent) into its histogram on each row.  A block
    takes at most _ROUTE_BLOCK_BITS bits, and only the consumer's last
    column outlives it."""
    field, p, q = table.field, table.field.p, table.field.order
    size = position_count(table.n)
    w, spread = _packing(field, size)[:2]
    low, mw = size // 2, field.m * w
    cut = (1 << low * mw) - 1

    def chunks(of):  # high and low entries' bits -> their part of the index
        out = []
        for first, last in ((0, size - low), (size - low, size)):
            part = {0: 0}
            for k in range(first, last):
                part = {r << mw | spread[v]: a + of[v] * q**k
                        for r, a in part.items() for v in range(q)}
            out.append(part)
        return out

    hi, lo = chunks(_trace_dual_index(field))  # the route's index at a
    cols = [[lo[x & cut] + hi[x >> low * mw] for x in k.members] for k in table.superclasses]
    hi, lo = chunks(range(q))  # a member's own index
    order = table.order
    width = order.bit_length() + 1
    mask = (1 << width) - 1
    rows = table.dual_orbits
    block = max(1, _ROUTE_BLOCK_BITS // (width * order * p))
    for first in range(0, len(checked), block):
        block_rows = checked[first:first + block]
        vec = [[0] * order for _ in range(p)]
        for k, i in enumerate(block_rows):
            bit = 1 << (k * width)
            for x in rows[i].members:
                vec[0][lo[x & cut] + hi[x >> low * mw]] = bit
        vec = _additive_fourier(vec, p, field.m * size)

        def decode(key, fields=len(block_rows)):
            return [[(v >> (k * width)) & mask for v in key] for k in range(fields)]

        for j, c in enumerate(cols):
            yield block_rows, j, [list(map(v.__getitem__, c)) for v in vec], decode


def _route_failure(table: SupercharTable):
    """The first (row, column, member) at which the averaging route is not
    the table cell, scanning rows, then classes, then members, or None,
    once each axis's members are checked to cover A disjointly.  The one
    scan runs on table._rows; a row fails just when its orbit's first row,
    a checked one, does (_orbit_rows), so the verdict is that of the scan
    over every row.
    """
    check_cover(table.dual_orbits, table.order)
    check_cover(table.superclasses, table.order)
    bad = _route_scan(table, table._rows)
    if bad is None:
        return None
    i, j, m = bad
    return i, j, unpack(table.n, table.field, table.superclasses[j].members[m])


def _route_scan(table: SupercharTable, checked):
    """The smallest (row, column, member) at which the route on the rows
    checked is not the table cell, or None, computed in the row-block
    loop, so each (row, class) pair of a valid table is decoded and
    compared once.

    Per block and class: if every member shares member 0's packed key,
    only it is decoded; else each distinct key is decoded once, at its
    first member.  Each row lies in one block, where classes and members
    ascend, so the first failure recorded for a row is its first.
    """
    denom, cells = table.integer_cells()
    sizes = [o.size for o in table.dual_orbits]
    first: dict = {}  # per failing row, its first failing (column, member)
    for block_rows, j, col, decode in _route_blocks(table, checked):
        key = tuple(c[0] for c in col)
        shared = all(c.count(t) == len(c) for c, t in zip(col, key))
        at: dict = {}  # per distinct key, its first member
        for m, got in enumerate([key] if shared else zip(*col)):
            at.setdefault(got, m)
        for got, m in at.items():
            for i, hist in zip(block_rows, decode(got)):
                if not _route_matches(hist, cells[i][j], denom, sizes[i]):
                    first.setdefault(i, (j, m))
    return min(((i, *jm) for i, jm in first.items()), default=None)


def _fold(acc: list[int]):
    """acc in Z[x]/(x^p - 1) read in Q(zeta_p), where 1 + x + ... + x^(p-1)
    is 0: the rational acc[0] - acc[-1] when acc[1:] are all equal, else
    None, for then acc is not rational."""
    top = acc[-1]
    return acc[0] - top if acc[1:].count(top) == len(acc) - 1 else None


def _route_matches(hist: list[int], cell: tuple, denom: int, size: int) -> bool:
    """Whether hist / size, read in Q(zeta_p), is the integer cell u / denom
    of the table: hist*denom - size*u folds to 0."""
    v = [h * denom for h in hist]
    for e, c in cell:
        v[e] -= size * c
    return _fold(v) == 0


# -- one row per torus orbit -----------------------------------------------------


def _orbit_rows(table: SupercharTable):
    """The rows the route and the Gram check: one per torus orbit, its
    all-ones colouring lambda0, when each lambda0 is its orbit's first row
    and the passes below hold, else every row.

    The torus T = (F_q^x)^n acts on A by automorphisms (torus_logs), so it
    permutes the superclasses and the dual orbits, and <t.b, t.a> = <b, a>.
    The equivariance pass checks cell(t.lambda0, K) = cell(lambda0, t^-1.K)
    on every cell, t the row's torus logs, and that each lambda0's row is
    fixed by its stabilizer.  The transport pass checks that each orbit on
    either axis is t.(its lambda0's orbit), with its size, and that the
    stabilizer of each lambda0 column fixes its members, so t.K is a
    column for every t in T.  Then, for a row t.lambda0 and a member a of
    K, avg(t.lambda0, a) = avg(lambda0, t^-1.a), which the route on lambda0
    compares with cell(lambda0, t^-1.K), and that is cell(t.lambda0, K).
    Class sizes are torus-invariant, so <xi_(t.lambda0), xi_s> =
    <xi_lambda0, xi_(t^-1.s)>, and lambda0's Gram row covers its orbit's.
    Both passes need every colouring of each partition once on each axis.
    At q = 2 the torus is trivial and every row is its own lambda0.

    So a row fails the route, or the Gram, just when its lambda0 does, and
    lambda0 is its orbit's first row: a scan ranked by row first gives on
    these rows the verdict it gives on every row.  Colour 1 has the
    smallest nonzero index, so only rows read back out of canonical order
    put a lambda0 after another row of its orbit; those check every row.
    """
    every = range(table.size)
    field = table.field
    if field.order == 2:
        return every
    rows = _torus_axis(table.dual_orbits, field)
    cols = _torus_axis(table.superclasses, field)
    if (rows is None or cols is None or any(r > k for k, r in enumerate(rows[0]))
            or not _equivariant(table, rows, cols)
            or not _transported(table.dual_orbits, *rows, field, False)
            or not _transported(table.superclasses, *cols, field, True)):
        return every
    return sorted(set(rows[0]))


def _torus_axis(axis, field: FiniteField):
    """(per orbit, the index of its lambda0; per orbit, its torus logs), or
    None unless the labels are every colouring of each partition once, of
    the orbits' kind."""
    index = {o.label: k for k, o in enumerate(axis) if o.label.dual == o.dual}
    lambda0s, logs = zip(*(torus_logs(o.label, field) for o in axis))
    reps = list(map(index.get, lambda0s))
    counts = Counter(reps)
    if len(index) < len(axis) or None in counts or any(
            c != (field.order - 1) ** len(axis[k].label.arcs()) for k, c in counts.items()):
        return None
    return reps, logs


def _block_logs(label):
    """Torus logs 1 on one block and 0 elsewhere, per block but the first:
    they generate the stabilizer of label modulo the constants."""
    return [[int(v in block) for v in range(1, label.n + 1)]
            for block in label.partition.blocks[1:]]


def _equivariant(table: SupercharTable, rows, cols) -> bool:
    """Whether cell(t.lambda0, K) = cell(lambda0, t^-1.K) on every cell,
    and cell(lambda0, z.K) = cell(lambda0, K) for z in its stabilizer.

    A column of partition pi is coded by its arc colour logs, digits base
    q - 1; t^-1 adds t_j - t_i to the log on arc (i, j), digit by digit
    with no carry, so the columns t^-1.K of one t are an index permutation
    built once per t from the codes, with no label per cell."""
    field, cells = table.field, table.integer_cells()[1]
    log, base = field.log, field.order - 1
    groups: dict = {}  # per lambda0 column: its arcs, and the column of each code
    for k, (r, cls) in enumerate(zip(cols[0], table.superclasses)):
        arcs, pos = groups.setdefault(r, (sorted(cls.label.arcs()), {}))
        pos[sum(log[v.index] * base**a for a, v in enumerate(cls.label.colours.values()))] = k
    order = [k for _, pos in groups.values() for _, k in sorted(pos.items())]
    where = sorted(range(len(order)), key=order.__getitem__)  # column k's place in order
    perms: dict = {}

    def permuted(line, t):  # line at t^-1.K, per column K
        t = tuple(t)
        if t not in perms:
            out = []
            for arcs, pos in groups.values():
                codes = [0]
                for a, (i, j) in enumerate(arcs):
                    d = t[j - 1] - t[i - 1]
                    codes = [c + (x + d) % base * base**a for x in range(base) for c in codes]
                out.extend(map(pos.__getitem__, codes))
            perms[t] = list(map(out.__getitem__, where))
        return list(map(line.__getitem__, perms[t]))

    return all(
        cells[i] == permuted(cells[r], t) if i != r
        else all(cells[i] == permuted(cells[i], z) for z in _block_logs(row.label))
        for i, (row, r, t) in enumerate(zip(table.dual_orbits, *rows))
    )


def _transported(axis, reps, logs, field: FiniteField, fixed: bool) -> bool:
    """Whether each orbit's members are t.(its lambda0's members), t its
    torus logs, at lambda0's size, and, if fixed, whether each lambda0's
    members are fixed by its stabilizer.

    t.x of a packed state x scales each entry by a power of g, so t.x is
    read in chunks of c entries, q^c <= 32, one lookup each, in a table
    built once per chunk and scaling; a chunk t does not move is kept."""
    n, q = axis[0].label.n, field.order
    size = position_count(n)
    w, spread = _packing(field, size)[:2]
    mw, exp, log = field.m * w, field.exp, field.log
    c = 1
    while q ** (c + 1) <= 32:
        c += 1
    chunks = [range(k, min(k + c, size)) for k in range(0, size, c)]
    sign = 1 if axis[0].dual else -1  # the log shift at (i, j) is sign (t_j - t_i)
    tables: dict = {}  # per chunk scaling: packed chunk -> its image
    plans: dict = {}  # per t: the bits it keeps, and (offset, mask, table) per chunk it moves

    def plan(t):
        d = [sign * (t[j - 1] - t[i - 1]) % (q - 1) for i, j in positions(n)]
        keep, out = 0, []
        for ranks in chunks:
            ds = tuple(d[k] for k in ranks)
            off, mask = (size - ranks[-1] - 1) * mw, (1 << len(ranks) * mw) - 1
            if not any(ds):
                keep |= mask << off
                continue
            if ds not in tables:
                tab = {0: 0}
                for e in ds:
                    tab = {b << mw | spread[x]: a << mw | spread[exp[log[x] + e]]
                           for b, a in tab.items() for x in range(q)}
                tables[ds] = tab
            out.append((off, mask, tables[ds]))
        return keep, out

    def moved(members, t):
        t = tuple(t)
        if t not in plans:
            plans[t] = plan(t)
        keep, chunk_plan = plans[t]
        out = [x & keep for x in members]
        for off, mask, tab in chunk_plan:
            out = [y | tab[x >> off & mask] << off for x, y in zip(members, out)]
        out.sort()
        return tuple(out)

    for k, (o, r, t) in enumerate(zip(axis, reps, logs)):
        first = axis[r]
        if k != r and (o.size != first.size or moved(first.members, t) != o.members):
            return False
        if k == r and fixed and any(moved(o.members, z) != o.members
                                    for z in _block_logs(o.label)):
            return False
    return True


def _integer_cells(rows, p: int) -> tuple[int, list[list[tuple]]]:
    """Every Cyclotomic of rows as a sparse integer cell over one shared
    denominator D, the lcm of their denominators.

    A cell is a tuple of (exponent, coefficient) pairs.  The normal form
    leaves x^(p-1) at 0; subtracting the commonest coordinate, a multiple
    of 1 + x + ... + x^(p-1) and so 0 in Q(zeta_p), keeps the support
    small: zeta^(p-1), stored as (-1, ..., -1, 0), becomes x^(p-1).  A
    value outside Q(zeta_p) raises ValueError.
    """
    if any(v.p != p for row in rows for v in row):
        raise ValueError(f"a table value lies outside Q(zeta_{p})")
    denom = lcm(*{v.den for row in rows for v in row})
    out = []
    for row in rows:
        cells = []
        for v in row:
            vec = [c * (denom // v.den) for c in v.num]
            shift = max(vec, key=vec.count)
            cells.append(
                tuple((e, c - shift) for e, c in enumerate(vec) if c != shift)
            )
        out.append(cells)
    return denom, out


def _gram_entry(row_i, row_j, sizes, p: int) -> list[int]:
    """sum over k of sizes[k] * u_ik(x) * u_jk(x^-1) in Z[x]/(x^p - 1), for
    integer rows over D: |A| D^2 <xi_i, xi_j> before folding."""
    acc = [0] * p
    for u, v, w in zip(row_i, row_j, sizes):
        if u and v:
            for e, c in u:
                c *= w
                for f, d in v:
                    acc[(e - f) % p] += c * d
    return acc


def _equals_rational(acc: list[int], denom: int, r) -> bool:
    """Whether acc / denom, read in Q(zeta_p) by _fold, is the rational r;
    integer cross-multiplication only."""
    a = _fold(acc)
    return a is not None and a * r.denominator == r.numerator * denom


def inner_product(table: SupercharTable, i: int, j: int) -> Cyclotomic:
    """<xi_i, xi_j> = (1/|G|) sum over classes of |K| xi_i(K) conj(xi_j(K)).

    Exact: rows i and j are read as integer cells over one denominator
    and the sum is an integer cyclic convolution weighted by |K|; only the
    result is built as a Cyclotomic.
    """
    p = table.field.p
    denom, rows = table.integer_cells()
    acc = _gram_entry(rows[i], rows[j], [k.size for k in table.superclasses], p)
    return Cyclotomic(p, acc, denom * denom * table.order)


def _plancherel_failures(table: SupercharTable, denom: int, rows) -> list[str]:
    """Labels of the classes where sum over rows of |O_i| xi_i(K) is not
    |A| delta_{K,1}, for the table's integer cells over D; each column sum
    is compared with D |A| delta by cross-multiplication."""
    p = table.field.p
    sums = [[0] * p for _ in table.superclasses]
    for o, row in zip(table.dual_orbits, rows):
        w = o.size
        for acc, u in zip(sums, row):
            if u:
                for e, c in u:
                    acc[e] += w * c
    return [
        format_coloured(cls.label)
        for cls, acc in zip(table.superclasses, sums)
        # the identity class is the partition with no arcs
        if not _equals_rational(acc, denom * table.order, int(not cls.label.arcs()))
    ]


def plancherel(table: SupercharTable) -> dict:
    """The regular-character decomposition: weights |O|/|A| against each
    supercharacter must reproduce the delta at the identity, exactly, on
    the table's integer cells."""
    failures = _plancherel_failures(table, *table.integer_cells())
    return {
        "weights": [
            (format_coloured(o.label), table.weight(i))
            for i, o in enumerate(table.dual_orbits)
        ],
        "identity_holds": not failures,
        "failures": failures,
    }


def _is_conjugate(cell: tuple, other: tuple, p: int) -> bool:
    """Whether the integer cell is the complex conjugate of other, both
    over one denominator: conjugation sends x^e to x^-e, and
    cell(x) - other(x^-1) must fold to 0."""
    v = _dense(cell, p)
    for e, c in other:
        v[-e % p] -= c
    return _fold(v) == 0


def _inverse_columns(table: SupercharTable) -> list[int]:
    """Per column, the index of the superclass holding the group inverses
    of its representative, found by canonical_form of the inverse."""
    index = {cls.label: k for k, cls in enumerate(table.superclasses)}
    out = []
    for cls in table.superclasses:
        k = index.get(canonical_form(group_inv(cls.rep)))
        if k is None:
            raise AssertionError("inverse superclass missing from the table")
        out.append(k)
    return out


def _kronecker_width(cmax: int, p: int, total: int, scale: int) -> int:
    """The field width w, with 2^(w-1) > 2 cmax^2 p total + scale for the
    diagonal target scale = D^2 |A|: no field the packed checks compare
    reaches it, so none can alias."""
    return (2 * cmax * cmax * p * total + scale).bit_length() + 1


def _packed_columns(rows, ncols: int, p: int, width: int) -> list[list[int]]:
    """Kronecker substitution: col[k][t] = sum of c_ik[t] << (i * width)."""
    cols = [[0] * p for _ in range(ncols)]
    for i, row in enumerate(rows):
        shift = i * width
        for col, cell in zip(cols, row):
            for e, c in cell:
                col[e] += c << shift
    return cols


def _first_bad_gram_row(rows, cols, sizes, osizes, p: int, width: int, scale: int, checked):
    """The first row i of checked with <xi_i, xi_j> != delta_ij / |O_i| for
    some j, or None.  Field j of acc[r] is the x^r coordinate of
    |A| D^2 <xi_i, xi_j>."""
    for i in checked:
        row, osize = rows[i], osizes[i]
        acc = [0] * p
        for cell, col, size in zip(row, cols, sizes):
            for e, c in cell:
                c *= size
                for r in range(p):
                    acc[r] += c * col[(e - r) % p]
        target, rem = divmod(scale, osize)
        if rem or _fold(acc) != target << (i * width):
            return i
    return None


def verify_theory(table: SupercharTable) -> list[tuple]:
    """The axiom and identity suite; returns (name, passed, detail) triples.

    Superclass constancy reads table._route, the first (row, column,
    member) at which the averaging route is not the cell, one scan shared
    with build_table's full cross-check.  Reading the members walks every
    orbit not walked yet, which checks its closed size, and the transform
    first checks that each axis covers A disjointly; a table read back by
    table_from_json is checked alike.

    Identity normalization, orthogonality, Plancherel and conjugate
    symmetry read only the table's integer cells over D and the orbit and
    class sizes.  Orthogonality checks whole Gram rows on the columns
    packed by Kronecker substitution, once, on table._rows; its first
    failing row is the full scan's, by the argument of _orbit_rows that
    the route rests on too.  Swapping i and j sends x^k to x^-k, which
    keeps the verdict, so the first failing row is that of the i <= j
    scan; only it is rescanned, for j >= i, for the detail.
    Conjugation is x^k -> x^-k, checked on the same packed columns; only a
    failing column is rescanned for its row.  Inverse columns come from
    canonical_form of each representative's group inverse, not the label.
    """
    checks: list[tuple] = []
    n, field = table.n, table.field
    expected = count_labels(n, field.order)

    ok = table.size == len(table.superclasses) == expected
    checks.append(
        ("label-count", ok, f"|E| = {table.size}, |K| = {len(table.superclasses)}, "
         f"coloured partitions = {expected}")
    )

    total = sum(k.size for k in table.superclasses)
    checks.append(
        ("class-sizes-sum", total == table.order, f"{total} vs |A| = {table.order}")
    )
    total = sum(o.size for o in table.dual_orbits)
    checks.append(
        ("dual-sizes-sum", total == table.order, f"{total} vs |A°| = {table.order}")
    )

    denom, rows = table.integer_cells()
    id_ok = (
        not table.superclasses[0].label.arcs()
        and table.superclasses[0].size == 1
        and all(_equals_rational(_dense(row[0], field.p), denom, 1) for row in rows)
    )
    checks.append(("identity-normalization", id_ok, "xi(1) = 1 on every row"))

    bad = table._route
    tested = sum(len(k.members) for k in table.superclasses) * table.size
    checks.append(
        ("superclass-constancy", bad is None,
         f"{tested} member evaluations" if bad is None
         else f"row {bad[0]}, column {bad[1]}, member {bad[2]}")
    )

    p, sizes = field.p, [k.size for k in table.superclasses]
    scale = denom * denom * table.order
    cmax = max((abs(c) for cell in set(chain.from_iterable(rows)) for _, c in cell),
               default=0)
    width = _kronecker_width(cmax, p, sum(sizes), scale)
    cols = _packed_columns(rows, len(sizes), p, width)
    osizes = [o.size for o in table.dual_orbits]
    i = _first_bad_gram_row(rows, cols, sizes, osizes, p, width, scale, table._rows)
    bad_pair = None
    if i is not None:  # the detail: row i's first failing (i, j), j >= i
        bad_pair = next(
            (i, j) for j in range(i, table.size)
            if not _equals_rational(_gram_entry(rows[i], rows[j], sizes, p), scale,
                                    Fraction(int(i == j), osizes[i]))
        )
    checks.append(
        ("orthogonality", bad_pair is None,
         "<xi_i, xi_j> = delta_ij / |O_i|" if bad_pair is None
         else f"fails at rows {bad_pair}")
    )

    failures = _plancherel_failures(table, denom, rows)
    checks.append(
        ("plancherel-identity", not failures,
         "sum of |O|/|A| xi(g) = delta_{g,1}" if not failures
         else f"fails on classes {failures}")
    )

    bad_conj = None
    for j, jinv in enumerate(_inverse_columns(table)):
        conj = cols[j][:1] + cols[j][:0:-1]  # the x^-e coefficients
        if _fold(list(map(sub, cols[jinv], conj))) != 0:
            i = next(i for i, row in enumerate(rows)
                     if not _is_conjugate(row[jinv], row[j], p))
            bad_conj = (i, j)
            break
    checks.append(
        ("conjugate-symmetry", bad_conj is None,
         "xi(g^-1) = conj(xi(g))" if bad_conj is None
         else f"fails at row {bad_conj[0]}, column {bad_conj[1]}")
    )
    return checks


# -- serialization ------------------------------------------------------------


def _group_json(n: int, field: FiniteField) -> dict:
    """The n, p, m, q and modulus keys of a report's group object."""
    return {
        "n": n,
        "p": field.p,
        "m": field.m,
        "q": field.order,
        "modulus": list(field.modulus),
    }


def table_to_json(table: SupercharTable) -> dict:
    return {
        "group": {**_group_json(table.n, table.field), "order": table.order},
        "rows": [
            {
                "label": o.label.to_json(),
                "label_text": format_coloured(o.label),
                "size": o.size,
                "weight": f"{table.weight(i).numerator}/{table.weight(i).denominator}",
            }
            for i, o in enumerate(table.dual_orbits)
        ],
        "cols": [
            {
                "label": k.label.to_json(),
                "label_text": format_coloured(k.label),
                "size": k.size,
            }
            for k in table.superclasses
        ],
        "values": [[v.to_json() for v in row] for row in table.values],
    }


def _axis_from_json(kind, obj: dict, n: int, field: FiniteField):
    """A stored row or column as build_table builds it, by from_label;
    ValueError if the stored size is not the closed size."""
    orbit = kind.from_label(ColouredPartition.from_json(obj["label"], n, field), field)
    if int(obj["size"]) != orbit.size:
        label = format_coloured(orbit.label)
        raise ValueError(f"stored size {obj['size']} of {label!r} is not its closed size")
    return orbit


def table_from_json(obj: dict) -> SupercharTable:
    """The table that table_to_json wrote, on the axes of build_table; the
    values are taken as stored, as integer cells, for verify_theory to
    check."""
    n = int(obj["group"]["n"])
    field = FiniteField.from_json(obj["group"])
    rows = [_axis_from_json(DualOrbit, r, n, field) for r in obj["rows"]]
    cols = [_axis_from_json(Superclass, c, n, field) for c in obj["cols"]]
    values = [[Cyclotomic.from_json(v) for v in row] for row in obj["values"]]
    return SupercharTable(n, field, rows, cols, _integer_cells(values, field.p))


def table_to_csv(table: SupercharTable) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["label", "size", "weight"]
        + [format_coloured(k.label) for k in table.superclasses]
    )
    writer.writerow(
        ["class-size", "", ""] + [str(k.size) for k in table.superclasses]
    )
    for i, o in enumerate(table.dual_orbits):
        w = table.weight(i)
        writer.writerow(
            [format_coloured(o.label), str(o.size), f"{w.numerator}/{w.denominator}"]
            + [v.basis_str() for v in table.values[i]]
        )
    return buf.getvalue()
