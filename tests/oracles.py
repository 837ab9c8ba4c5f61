"""Slow reference implementations, kept so tests can compare exactly.

The set-builder partition statistics that the bit masks of
superchar.partitions.partition_stats replaced come first: the shadow
S(pi) and reach R(pi), the cover count r(pi) and the nest count.
superchar.cyclotomic holds a value as p integers in Z[x]/(x^p - 1) over
one denominator, with no arithmetic; the Fraction-coordinate class it
replaced comes next, then the integer arithmetic on such values that the
loops below and the tests use, plain functions with no coercion, then the
closed formula cell by cell in the Fraction class, which the integer
kernel of superchar.table replaced, and a table view whose values are
such cells, for comparing exports; then the set-based closed shape and
the cell-by-cell integer table that the bit masks and row templates of
_closed_cells replaced.  superchar.table checks orthogonality,
super-Plancherel and conjugate symmetry on integer vectors; the direct
Cyclotomic loops those kernels replaced come next, with the entry-by-entry
i <= j Gram scan and the label scan for inverse columns that the packed
columns and the label index of verify_theory replaced, then the
member-by-member superclass-constancy scan that the additive Fourier
transform replaced, with the pairing histogram on dense states that the
one-multiply packed pairing replaced, the character value theta_b(a),
whose equalities superchar.dual compares as pairing exponents, and the
diagonal torus acting on labels and dense states, which the torus passes
of superchar.table read through colour-log codes and packed chunk
tables.  The sparse dict BFS that
superchar.orbits.orbit_states replaced follows, with the basis-scalar
walk that its coset walk replaced and the coset walk on dense tuples
that its packed walk replaced, then the orbit scan that canonical_form and dual_canonical replaced, the
per-label position ranking that the cached digit order of sort_key
replaced, the arc-set label that their checked-chain label replaced, and the entry-dict
eliminations that their dense-state eliminations replaced, then the
tower's per-element relative traces and Horner embeddings, the
convergence report that reads every level, and the growth scans that walk
every orbit whose closed size the tower reads, the character-loop matrix
parser that the one-pass parse replaced, the json.dumps call that the
CLI's own JSON writer replaced, then the per-operation polynomial
arithmetic that the log, antilog and Zech tables of superchar.gf replaced,
and last the elementary generators of U_n.

complex_value, partition_from_arcs, tower_supercharacter and group_mul
are references the tests read, not replaced code; superchar does not
hold them because no command runs them.
"""

import cmath
import json
from fractions import Fraction
from math import lcm
from types import SimpleNamespace

from superchar.cli import _json_default
from superchar.cyclotomic import Cyclotomic
from superchar.dual import pairing_exponent
from superchar.gf import field_trace, is_prime, trace_lift, trace_lifts
from superchar.nilpotent import NilMatrix, fits_space, group_inv, positions
from superchar.orbits import _move_programs, canonical_form, orbit_states, unpack
from superchar.partitions import (
    ColouredPartition,
    SetPartition,
    build_e,
    enumerate_labels,
    format_coloured,
)
from superchar.table import SupercharTable, _equals_rational, _gram_entry, _integer_cells
from superchar.table import sch_closed as closed_cyclotomic


# -- partition statistics on sets ----------------------------------------------


def compute_SR(pi):
    """S = pairs shadowed to the right/above by some arc; R = the rest."""
    n = pi.n
    shadow = set()
    for (i, j) in pi.arcs():
        for l in range(j + 1, n + 1):
            shadow.add((i, l))
        for k in range(1, i):
            shadow.add((k, j))
    everything = {(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    return frozenset(shadow), frozenset(everything - shadow)


def r_of(pi):
    """The positions (i, k) and (k, j), i < k < j, of some arc (i, j)."""
    covered = set()
    for (i, j) in pi.arcs():
        for k in range(i + 1, j):
            covered.add((i, k))
            covered.add((k, j))
    return len(covered)


def nest(pi, other):
    """Number of arcs of `other` strictly inside arcs of `pi`, with multiplicity."""
    if pi.n != other.n:
        raise ValueError("size mismatch")
    return sum(1 for (i, j) in pi.arcs() for (k, l) in other.arcs() if i < k and l < j)


# -- Fraction-coordinate cyclotomics --------------------------------------------
#
# Elements on the power basis 1, z, ..., z^(p-2) with p - 1 Fraction
# coordinates, using z^(p-1) = -(1 + z + ... + z^(p-2)).  Sums and products
# take two elements of one field; a rational enters by from_rational.


class FractionCyclotomic:
    __slots__ = ("p", "coeffs")

    def __init__(self, p, coeffs):
        # exactly p-1 Fractions
        self.p = p
        self.coeffs = coeffs

    @classmethod
    def zero(cls, p):
        return cls(p, (Fraction(0),) * (p - 1))

    @classmethod
    def from_rational(cls, p, r):
        r = Fraction(r)
        return cls(p, (r,) + (Fraction(0),) * (p - 2))

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, FractionCyclotomic):
            return self.p == other.p and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == FractionCyclotomic.from_rational(self.p, other)
        return NotImplemented

    def __add__(self, other):
        return FractionCyclotomic(
            self.p, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __mul__(self, other):
        p = self.p
        # accumulate exponents mod p, then fold z^(p-1) back onto the basis
        acc = [Fraction(0)] * p
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                acc[(i + j) % p] += a * b
        top = acc[p - 1]
        return FractionCyclotomic(p, tuple(c - top for c in acc[: p - 1]))

    def scale(self, r):
        r = Fraction(r)
        return FractionCyclotomic(self.p, tuple(r * c for c in self.coeffs))

    def conjugate(self):
        """Complex conjugation, z -> z^(p-1)."""
        p = self.p
        acc = [Fraction(0)] * p
        for k, c in enumerate(self.coeffs):
            acc[(p - k) % p] += c
        top = acc[p - 1]
        return FractionCyclotomic(p, tuple(c - top for c in acc[: p - 1]))

    def rational_part(self):
        if any(self.coeffs[1:]):
            raise ValueError(f"not rational: {self.basis_str()}")
        return self.coeffs[0]

    def basis_str(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*z")
            else:
                terms.append(f"{c}*z^{k}")
        return " + ".join(terms)

    def to_json(self):
        return {
            "p": self.p,
            "coeffs": [[str(c.numerator), str(c.denominator)] for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, obj):
        p = int(obj["p"])
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        coeffs = tuple(Fraction(int(n), int(d)) for n, d in obj["coeffs"])
        if len(coeffs) != p - 1:
            raise ValueError("wrong coordinate count")
        return cls(p, coeffs)


# -- integer arithmetic on Cyclotomic values -----------------------------------
#
# Cyclotomic defines no arithmetic.  These functions, with no coercion,
# combine values of one p on their integers, and scale by an int or Fraction.


def rational(p, r):
    """The int or Fraction r in Q(zeta_p)."""
    return Cyclotomic(p, (r.numerator,) + (0,) * (p - 1), r.denominator)


def root(p, k=1):
    """zeta_p^k."""
    return Cyclotomic(p, [int(e == k % p) for e in range(p)])


def add(u, v):
    """u + v."""
    return Cyclotomic(
        u.p, [a * v.den + b * u.den for a, b in zip(u.num, v.num)], u.den * v.den
    )


def mul(u, v):
    """u v, a cyclic convolution: exponents add mod p."""
    p, acc = u.p, [0] * u.p
    for i, a in enumerate(u.num):
        if a:
            for j, b in enumerate(v.num):
                if b:
                    acc[(i + j) % p] += a * b
    return Cyclotomic(p, acc, u.den * v.den)


def scale(u, r):
    """u times the int or Fraction r."""
    k = r.numerator
    return Cyclotomic(u.p, [k * c for c in u.num], u.den * r.denominator)


def conj(u):
    """Complex conjugation, x^k -> x^-k."""
    return Cyclotomic(u.p, [u.num[-k] for k in range(u.p)], u.den)


def rational_part(u):
    """u as a Fraction; ValueError if a z-coordinate is nonzero."""
    if any(u.num[1:]):
        raise ValueError(f"not rational: {u.basis_str()}")
    return Fraction(u.num[0], u.den)


def fraction_root(p, k=1):
    """zeta_p^k as a FractionCyclotomic."""
    k %= p
    if k < p - 1:
        return FractionCyclotomic(
            p, tuple(Fraction(int(i == k)) for i in range(p - 1))
        )
    return FractionCyclotomic(p, (Fraction(-1),) * (p - 1))


def cyclotomic(p, coeffs):
    """The Cyclotomic with the given p - 1 power-basis coordinates."""
    den = lcm(*(Fraction(c).denominator for c in coeffs))
    return Cyclotomic(p, [int(c * den) for c in coeffs] + [0], den)


def complex_value(x):
    """A Cyclotomic as a complex float, its power-basis coordinates times
    exp(2 pi i k / p): the float proxy of tests that compare with floats."""
    return sum(
        (float(c) * cmath.exp(2j * cmath.pi * k / x.p) for k, c in enumerate(x.coeffs)),
        0j,
    )


def sch_closed(row, col, field):
    """The closed formula on labels, one FractionCyclotomic per cell."""
    p = field.p
    pi, pip = row.partition, col.partition
    if pi.n != pip.n:
        raise ValueError("label sizes differ")
    _, reach = compute_SR(pip)
    if not (pi.arcs() <= reach):
        return FractionCyclotomic.zero(p)
    t = 0
    for arc in pi.arcs() & pip.arcs():
        t += trace_lift(row.colours[arc] * col.colours[arc])
    value = fraction_root(p, t % p)
    depth = nest(pi, pip)
    if depth:
        value = value.scale(Fraction(1, field.order**depth))
    return value


def closed_view(table):
    """The table's axes and weights with values from the sch_closed oracle,
    for table_to_json and table_to_csv."""
    field = table.field
    return SimpleNamespace(
        n=table.n,
        field=field,
        order=table.order,
        dual_orbits=table.dual_orbits,
        superclasses=table.superclasses,
        weight=table.weight,
        values=[
            [sch_closed(o.label, k.label, field) for k in table.superclasses]
            for o in table.dual_orbits
        ],
    )


def with_values(table, values):
    """A table on the axes of table holding the rows of Cyclotomic values,
    converted to integer cells as table_from_json converts them."""
    cells = _integer_cells(values, table.field.p)
    return SupercharTable(
        table.n, table.field, table.dual_orbits, table.superclasses, cells
    )


def closed_shape(pi, pip):
    """_closed_shape on arc sets: None when an arc of pi leaves the reach
    R(pip), else the shared arcs, sorted, and nest(pi, pip)."""
    if pi.n != pip.n:
        raise ValueError("label sizes differ")
    _, reach = compute_SR(pip)
    if not (pi.arcs() <= reach):
        return None
    return sorted(pi.arcs() & pip.arcs()), nest(pi, pip)


def closed_cells(rows, cols, field):
    """_closed_cells cell by cell: closed_shape once per partition pair,
    then t summed over the shared arcs of every cell."""
    p, q = field.p, field.order
    exp, log, trl = field.exp, field.log, trace_lifts(field)
    shapes = {}
    for row in rows:
        for col in cols:
            key = (row.partition, col.partition)
            if key not in shapes:
                shapes[key] = closed_shape(*key)
    dmax = max((s[1] for s in shapes.values() if s), default=0)
    out = []
    for row in rows:
        line = []
        for col in cols:
            shape = shapes[row.partition, col.partition]
            if shape is None:
                line.append(())
                continue
            shared, d = shape
            t = sum(trl[exp[log[row.colours[a].index] + log[col.colours[a].index]]]
                    for a in shared)
            line.append(((t % p, q ** (dmax - d)),))
        out.append(line)
    return q**dmax, out


# -- direct loops on Cyclotomic values -------------------------------------------


def inner_product(table, i, j):
    """<xi_i, xi_j> = (1/|G|) sum over classes of |K| xi_i(K) conj(xi_j(K))."""
    p = table.field.p
    acc = Cyclotomic.zero(p)
    for k, cls in enumerate(table.superclasses):
        term = mul(table.values[i][k], conj(table.values[j][k]))
        acc = add(acc, scale(term, cls.size))
    return scale(acc, Fraction(1, table.order))


def plancherel(table):
    """The plancherel() report, summed as Cyclotomics."""
    p = table.field.p
    weights = [table.weight(i) for i in range(table.size)]
    failures = []
    for j, cls in enumerate(table.superclasses):
        acc = Cyclotomic.zero(p)
        for i in range(table.size):
            acc = add(acc, scale(table.values[i][j], weights[i]))
        if acc != rational(p, int(not cls.label.arcs())):
            failures.append(format_coloured(cls.label))
    return {
        "weights": [
            (format_coloured(o.label), weights[i])
            for i, o in enumerate(table.dual_orbits)
        ],
        "identity_holds": not failures,
        "failures": failures,
    }


def orthogonality_check(table):
    """The orthogonality triple of verify_theory, by the loop above."""
    p = table.field.p
    bad_pair = None
    for i in range(table.size):
        for j in range(table.size):
            expected = Fraction(int(i == j), table.dual_orbits[i].size)
            if inner_product(table, i, j) != rational(p, expected):
                bad_pair = (i, j)
                break
        if bad_pair:
            break
    return (
        "orthogonality", bad_pair is None,
        "<xi_i, xi_j> = delta_ij / |O_i|" if bad_pair is None
        else f"fails at rows {bad_pair}",
    )


def half_gram_check(table):
    """The orthogonality triple of verify_theory, by one integer
    convolution per entry with i <= j: the mirror (j, i) of a failing
    (i, j) fails too, and comes later in row-major order."""
    denom, rows = table.integer_cells()
    sizes = [k.size for k in table.superclasses]
    scale = denom * denom * table.order
    bad_pair = None
    for i in range(table.size):
        for j in range(i, table.size):
            expected = Fraction(1, table.dual_orbits[i].size) if i == j else Fraction(0)
            if not _equals_rational(
                _gram_entry(rows[i], rows[j], sizes, table.field.p), scale, expected
            ):
                bad_pair = (i, j)
                break
        if bad_pair:
            break
    return (
        "orthogonality", bad_pair is None,
        "<xi_i, xi_j> = delta_ij / |O_i|" if bad_pair is None
        else f"fails at rows {bad_pair}",
    )


def plancherel_check(table):
    """The plancherel-identity triple of verify_theory, by the loop above."""
    pl = plancherel(table)
    return (
        "plancherel-identity", pl["identity_holds"],
        "sum of |O|/|A| xi(g) = delta_{g,1}" if pl["identity_holds"]
        else f"fails on classes {pl['failures']}",
    )


def inverse_column(table, j):
    """Index of the superclass holding the group inverses of column j, by
    a scan of the column labels."""
    label = canonical_form(group_inv(table.superclasses[j].rep))
    for k, cls in enumerate(table.superclasses):
        if cls.label == label:
            return k
    raise AssertionError("inverse superclass missing from the table")


def conjugate_symmetry_check(table):
    """The conjugate-symmetry triple of verify_theory, by Cyclotomic
    conjugation and equality, cell by cell."""
    bad = None
    for j in range(table.size):
        jinv = inverse_column(table, j)
        for i in range(table.size):
            if table.values[i][jinv] != conj(table.values[i][j]):
                bad = (i, j)
                break
        if bad:
            break
    return (
        "conjugate-symmetry", bad is None,
        "xi(g^-1) = conj(xi(g))" if bad is None
        else f"fails at row {bad[0]}, column {bad[1]}",
    )


def pairing_hist(members, a, field):
    """_pairing_hist on dense member states: lift(Tr(b_k a_k)) summed over
    the entries through the log and antilog tables.  A zero entry of b has
    log 2(q-1), which exp sends to index 0."""
    exp, log, trl = field.exp, field.log, trace_lifts(field)
    compiled = [(k, log[v]) for k, v in enumerate(a) if v]
    hist = [0] * field.p
    for state in members:
        hist[sum(trl[exp[log[state[k]] + la]] for k, la in compiled) % field.p] += 1
    return hist


def dual_eval(b, a):
    """The character value theta_b(a) = zeta_p^lift(Tr(sum b_ij a_ij))."""
    return root(b.field.p, pairing_exponent(b, a))


def dense_members(orbit):
    """An orbit's members as dense states, in member order."""
    return [unpack(orbit.label.n, orbit.field, x) for x in orbit.members]


def constancy_check(table):
    """The superclass-constancy triple of verify_theory, by the averaging
    route evaluated member by member on dense states: classes in order,
    members in order, rows in order, stopping at the first value that is
    not the table's."""
    field = table.field
    rows = [dense_members(o) for o in table.dual_orbits]
    bad = None
    tested = 0
    for j, cls in enumerate(table.superclasses):
        for state in dense_members(cls):
            for i, orbit in enumerate(table.dual_orbits):
                hist = pairing_hist(rows[i], state, field)
                got = Cyclotomic(field.p, hist, orbit.size)
                tested += 1
                if got != table.values[i][j]:
                    bad = (i, j, state)
                    break
            if bad:
                break
        if bad:
            break
    return (
        "superclass-constancy", bad is None,
        f"{tested} member evaluations" if bad is None
        else f"row {bad[0]}, column {bad[1]}, member {bad[2]}",
    )


# -- the diagonal torus on labels and states -------------------------------------


def torus_label(label, t, field):
    """t . label for torus logs t: the colour of arc (i, j) times
    g^(t_i - t_j) on a superclass label, g^(t_j - t_i) on a dual one."""
    g = field.element_by_index(field.exp[1])
    sign = 1 if label.dual else -1
    return ColouredPartition(
        label.partition,
        {(i, j): v * g ** (sign * (t[j - 1] - t[i - 1]) % (field.order - 1))
         for (i, j), v in label.colours.items()},
        label.dual,
    )


def torus_state(n, field, state, t, dual=False):
    """t . a on a dense state: entry (i, j) times g^(t_i - t_j), or on a
    pairing matrix g^(t_j - t_i), through the log and antilog tables."""
    sign = 1 if dual else -1
    return tuple(
        field.exp[field.log[v] + sign * (t[j - 1] - t[i - 1]) % (field.order - 1)] if v else 0
        for v, (i, j) in zip(state, positions(n))
    )


# -- dict-based orbit BFS ------------------------------------------------------
#
# superchar.orbits.orbit_states walks dense index tuples with compiled move
# programs for the superdiagonal generators only.  The loops below are the
# sparse entry-dict BFS it replaced: every elementary move 1 + alpha*e_ij
# with every nonzero alpha, in FieldElement arithmetic.


def _add_into(b, key, term):
    """b[key] += term, deleting the key when the sum is zero."""
    cur = b.get(key)
    if cur is None:
        b[key] = term
        return
    s = cur + term
    if s:
        b[key] = s
    else:
        del b[key]


def to_state(n, entries):
    """The dense state of an entry dict."""
    return tuple(entries[p].index if p in entries else 0 for p in positions(n))


def _expand(n, field, a):
    """All images of the entry dict a under one elementary move, either side."""
    rows, cols = {}, {}
    for (r, s), v in a.items():
        rows.setdefault(r, []).append((s, v))
        cols.setdefault(s, []).append((r, v))
    out = []
    nonzero = field.nonzero()
    for (i, j) in positions(n):
        row_j = rows.get(j)
        if row_j:
            for alpha in nonzero:
                b = dict(a)
                for s, v in row_j:
                    _add_into(b, (i, s), alpha * v)
                out.append(b)
        col_i = cols.get(i)
        if col_i:
            for alpha in nonzero:
                b = dict(a)
                for r, v in col_i:
                    _add_into(b, (r, j), alpha * v)
                out.append(b)
    return out


def _dual_expand(n, field, b):
    """Images of the pairing dict under one elementary move on either side.

    Left by 1+alpha*e_ij: row j gains -alpha times row i, kept right of j.
    Right by 1+alpha*e_ij: column i gains alpha times column j, kept above i.
    """
    rows, cols = {}, {}
    for (r, s), v in b.items():
        rows.setdefault(r, []).append((s, v))
        cols.setdefault(s, []).append((r, v))
    out = []
    nonzero = field.nonzero()
    for (i, j) in positions(n):
        row_i = rows.get(i)
        if row_i and any(s > j for s, _ in row_i):
            for alpha in nonzero:
                c = dict(b)
                for s, v in row_i:
                    if s > j:
                        _add_into(c, (j, s), -(alpha * v))
                out.append(c)
        col_j = cols.get(j)
        if col_j and any(r < i for r, _ in col_j):
            for alpha in nonzero:
                c = dict(b)
                for r, v in col_j:
                    if r < i:
                        _add_into(c, (r, i), alpha * v)
                out.append(c)
    return out


def dict_orbit_states(n, field, start, dual=False):
    """Dense states of the orbit of the entry dict start, by the dict BFS."""
    expand = _dual_expand if dual else _expand
    visited = {to_state(n, start)}
    frontier = [start]
    while frontier:
        new = []
        for a in frontier:
            for b in expand(n, field, a):
                key = to_state(n, b)
                if key not in visited:
                    visited.add(key)
                    new.append(b)
        frontier = new
    return visited


# -- basis-scalar BFS -----------------------------------------------------------
#
# superchar.orbits.orbit_states generates each root-subgroup coset once, all
# q - 1 of its other members at a time.  The walk below is the one it
# replaced: every state applies each compiled program with alpha over the
# F_p-basis 1, x, ..., x^(m-1) only, 2(n-1)m moves per state, one Zech
# addition per entry.


def _basis_rows(field):
    """Per sign, the rows v -> log(sign*alpha*v) over enumeration indices
    v, for alpha over the F_p-basis."""
    exp, log = field.exp, field.log
    basis = [field.element_by_index(field.p**k) for k in range(field.m)]
    scalars = {1: basis, -1: [-alpha for alpha in basis]}
    return {
        sign: [[log[exp[lv + log[c.index]]] for lv in log] for c in cs]
        for sign, cs in scalars.items()
    }


def _basis_images(state, moves, field):
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


def basis_orbit_states(n, field, start, dual=False):
    """Dense states of the orbit of the dense state start, by the
    basis-scalar BFS over the compiled programs."""
    rows = _basis_rows(field)
    moves = [
        (pairs, rows[sign])
        for _, _, pairs, sign in _move_programs(n, dual)
        if pairs
    ]
    visited = {start}
    frontier = [start]
    while frontier:
        new = []
        for state in frontier:
            for t in _basis_images(state, moves, field):
                if t not in visited:
                    visited.add(t)
                    new.append(t)
        frontier = new
    return visited


# -- coset walk on dense tuples -------------------------------------------------
#
# superchar.orbits.orbit_states walks packed ints, one packed add per image.
# The walk below is the one it replaced: the same cosets, generated on
# dense index tuples, each image's entries read off rows of Zech sums.


def _sum_row(rows, a, field):
    """rows[a][u], the index of a + g^u for 0 <= u < 2(q-1): a + g^u =
    g^la (1 + g^(u - la)), one rotation of the Zech table read through exp."""
    if rows[a] is None:
        exp, zech, la, n = field.exp, field.zech, field.log[a], field.order - 1
        row = [exp[la + z] for z in zech[n - la:] + zech[:n - la]] if a else exp[:2 * n]
        rows[a] = row + row if a else row
    return rows[a]


def _coset(state, pairs, field, rows):
    """The q - 1 images state + beta*v for beta = g^0, ..., g^(q-2), where
    v holds the program's source entries at their destinations, or []
    when every source entry is zero."""
    log, n = field.log, field.order - 1
    cols = []
    for d, r in pairs:
        v = state[r]
        if v:
            lv = log[v]
            cols.append((d, _sum_row(rows, state[d], field)[lv:lv + n]))
    out = []
    if not cols:
        return out
    img = list(state)
    for values in zip(*[col for _, col in cols]):
        for (d, _), c in zip(cols, values):
            img[d] = c
        out.append(tuple(img))
    return out


def coset_orbit_states(n, field, start, dual=False):
    """Dense states of the orbit of the dense state start, by the coset
    walk on tuples: each state expands every superdiagonal coset not yet
    generated through it."""
    moves = [(1 << k, pairs) for k, (_, _, pairs, _) in enumerate(_move_programs(n, dual))
             if pairs]
    rows = [None] * field.order
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


def dense_orbit(n, field, start, dual=False):
    """orbit_states read back as dense states."""
    return {unpack(n, field, x) for x in orbit_states(n, field, start, dual)}


# -- verge scan ----------------------------------------------------------------
#
# canonical_form and dual_canonical reach the verge member by elimination.
# The scan below finds it by testing every member of the whole orbit.


def _verge_arcs(nonzero_positions):
    """Arc set of a verge matrix from its nonzero positions, or None if a
    row or column repeats."""
    arcs = frozenset(nonzero_positions)
    if len({i for i, _ in arcs}) == len({j for _, j in arcs}) == len(arcs):
        return arcs
    return None


def verge_state(n, states):
    """The unique member of an orbit whose nonzero entries hit each row and
    each column at most once, tested on the dense states."""
    pos = positions(n)
    found = None
    for state in states:
        if _verge_arcs(pos[k] for k, v in enumerate(state) if v) is not None:
            assert found is None, "orbit holds two verge matrices"
            found = state
    assert found is not None, "orbit holds no verge matrix"
    return found


# -- entry-dict eliminations ---------------------------------------------------
#
# canonical_form and dual_canonical eliminate on dense states, one _clear
# step per entry through the compiled root-subgroup programs.  The loops
# below are the eliminations they replaced: the same pivots and steps on
# entry dicts, in FieldElement arithmetic, with each move written out.


def sort_key_by_ranking(label):
    """ColouredPartition.sort_key with the positions ranked per label:
    the dense digit vector of the verge matrix, widest arcs first."""
    n = label.n
    ranked = sorted(
        ((j - i, i, (i, j)) for i in range(1, n + 1) for j in range(i + 1, n + 1)),
        reverse=True,
    )
    return tuple(
        label.colours[pos].index if pos in label.colours else 0 for (_, _, pos) in ranked
    )


def partition_from_arcs(n, arc_set):
    """The unique partition whose arc set is the given chain system: one
    block per chain, followed from each element that no arc enters."""
    arc_set = set(arc_set)
    succ, has_pred = {}, set()
    for (i, j) in arc_set:
        if not 1 <= i < j <= n:
            raise ValueError(f"bad arc {(i, j)}")
        if i in succ or j in has_pred:
            raise ValueError("arcs do not form disjoint chains")
        succ[i] = j
        has_pred.add(j)
    blocks = []
    for start in range(1, n + 1):
        if start not in has_pred:
            block = [start]
            while block[-1] in succ:
                block.append(succ[block[-1]])
            blocks.append(block)
    pi = SetPartition(n, blocks)
    assert pi.arcs() == arc_set, "chain reconstruction changed the arc set"
    return pi


def _dict_label(n, w, dual):
    arcs = _verge_arcs(w)
    if arcs is None:
        raise AssertionError("elimination left a matrix that is not a verge")
    return ColouredPartition(partition_from_arcs(n, arcs), w, dual=dual)


def verge_label_by_arcs(n, field, state, dual=False):
    """The label of an eliminated dense state as superchar.orbits read it
    before it built the label from its checked chains: the arc set, then
    partition_from_arcs and the checking constructors."""
    pos = positions(n)
    return _dict_label(n, {pos[k]: field.elements[v] for k, v in enumerate(state) if v}, dual)


def dict_canonical_form(a):
    """canonical_form by bottom-up elimination on the entry dict."""
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
    return _dict_label(n, w, False)


def _left(w, i, j, alpha):
    """L(i, j, alpha), the left move by 1 + alpha*e_ij: row j -= alpha*row i
    at the columns right of j."""
    for (_, s), u in [it for it in w.items() if it[0][0] == i and it[0][1] > j]:
        _add_into(w, (j, s), -(alpha * u))


def _right(w, i, j, alpha):
    """R(i, j, alpha), the right move by 1 + alpha*e_ij: column i +=
    alpha*column j at the rows above i."""
    for (r, _), u in [it for it in w.items() if it[0][1] == j and it[0][0] < i]:
        _add_into(w, (r, i), alpha * u)


def dict_dual_canonical(b):
    """dual_canonical by top-down elimination on the entry dict."""
    n = b.n
    w = dict(b.entries)
    for i in range(1, n):
        row = sorted(s for (r, s) in w if r == i)
        if not row:
            continue
        l = row[-1]
        pivot = w[i, l]
        for j in range(i + 1, l):
            v = w.get((j, l))
            if v is not None:
                _left(w, i, j, v / pivot)
        for k in row[:-1]:
            _right(w, k, l, -w[i, k] / pivot)
    return _dict_label(n, w, True)


# -- tower reports, level by level ------------------------------------------------
#
# superchar.gf holds one relative-trace index list and one embedding index
# list per field pair, and convergence_report evaluates the closed formula
# on the shape of the two partitions found once.  Below, char_extend scans
# the superfield with one field_trace per element, each element of the
# subfield is embedded by its own Horner evaluation at the smallest root,
# and the report builds each level's label and embedded column and calls
# sch_closed on them at every level.


def char_extend_scan(beta, sup):
    """The enumeration-smallest element of sup whose trace down is beta."""
    for x in sup.elements:
        if field_trace(x, beta.field.m) == beta:
            return x
    raise AssertionError("trace is surjective; no preimage found")


def horner_embed(x, sup):
    """x evaluated, as a polynomial in the generator, at the
    enumeration-smallest root in sup of x's field modulus."""

    def at(coeffs, r):
        acc = sup.zero
        for c in reversed(coeffs):
            acc = acc * r + sup.from_int(c)
        return acc

    root = next(r for r in sup.elements if not at(x.field.modulus, r))
    return at(x.coeffs, root)


def _embedded_column(tower, col, level):
    return ColouredPartition(
        col.partition,
        {arc: tower.embed(v, level) for arc, v in col.colours.items()},
        dual=col.dual,
    )


def _column_level(tower, col):
    if not col.colours:
        return 1
    f = next(iter(col.colours.values())).field
    return tower.fields.index(f) + 1


def tower_supercharacter(label, level, col):
    """The level supercharacter value by superchar.table.sch_closed on the
    level's label; the column label must already be coloured in the
    level's field."""
    field = label.tower.field(level)
    for v in col.colours.values():
        if v.field != field:
            raise ValueError(f"column colours must live at level {level}")
    return closed_cyclotomic(label.level_label(level), col, field)


def convergence_report_by_levels(label, col):
    """convergence_report with each level's label and column rebuilt and
    every value, the limit included, read from sch_closed."""
    tower = label.tower
    first = max(label.m0, _column_level(tower, col))
    depth = nest(label.partition, col.partition)
    _, reach = compute_SR(col.partition)
    if not label.partition.arcs() <= reach or depth > 0:
        limit = Cyclotomic.zero(tower.p)
    else:
        limit = tower_supercharacter(label, first, _embedded_column(tower, col, first))
    levels = []
    values = []
    for m in range(1, len(tower) + 1):
        q = tower.field(m).order
        if m < first:
            levels.append({"level": m, "q": q, "defined": False})
            continue
        v = tower_supercharacter(label, m, _embedded_column(tower, col, m))
        values.append(v)
        abs2 = rational_part(mul(v, conj(v)))
        levels.append({"level": m, "q": q, "defined": True, "value": v, "abs2": abs2})
    if limit:
        stabilized = all(v == limit for v in values)
        verdict = f"stabilized at level {first}" if stabilized else "not stabilized"
    elif all(not v for v in values):
        verdict = f"stabilized at level {first}"
        stabilized = True
    else:
        for entry in levels:
            if entry["defined"]:
                assert entry["abs2"] == Fraction(1, entry["q"] ** (2 * depth))
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


def size_scan_walked(n, tower, levels, dual):
    """tower._size_scan by walking: each level-1 label is embedded at every
    scanned level and its orbit walked there, with no closed size read."""
    out = []
    for label in enumerate_labels(n, tower.fields[0], dual=dual):
        sizes = []
        for m in levels:
            field = tower.field(m)
            colours = {arc: tower.embed(v, m) for arc, v in label.colours.items()}
            rep = build_e(ColouredPartition(label.partition, colours, dual=dual), field)
            sizes.append(len(orbit_states(n, field, rep.dense(), dual)))
        out.append((label, sizes))
    return out


def plancherel_profile_walk_all(n, tower, levels=None):
    """plancherel_profile by walking: the stable arcs from size_scan_walked,
    and every dual orbit at every level walked, the sizes the weights do
    not read included."""
    if levels is None:
        levels = [m for m in range(1, len(tower) + 1) if fits_space(n, tower.field(m))]
    for m in levels:
        if not fits_space(n, tower.field(m)):
            raise ValueError(f"level {m} exceeds the space cap for n = {n}")
    if len(levels) < 2:
        raise ValueError("a profile needs at least two feasible levels")

    scan = size_scan_walked(n, tower, levels, dual=False)
    fsc_arcs = set()
    for label, sizes in scan:
        if len(set(sizes)) == 1:
            fsc_arcs |= set(label.arcs())

    profile = []
    for m in levels:
        field = tower.field(m)
        total = field.order ** len(positions(n))
        qualifying = Fraction(0)
        for label in enumerate_labels(n, field, dual=True):
            size = len(orbit_states(n, field, build_e(label, field).dense(), dual=True))
            if set(label.arcs()) <= fsc_arcs:
                qualifying += Fraction(size, total)
        profile.append({"level": m, "q": field.order, "weight": qualifying})
    weights = [entry["weight"] for entry in profile]
    return {
        "n": n,
        "p": tower.p,
        "degrees": list(tower.degrees),
        "levels": list(levels),
        "fsc_arcs": sorted(fsc_arcs),
        "profile": profile,
        "strictly_increasing": all(a < b for a, b in zip(weights, weights[1:])),
    }


# -- matrix text, character by character -----------------------------------------
#
# superchar.nilpotent.parse_matrix splits with str.split (rejoining pieces
# inside brackets) and sets the dense key as it reads each entry.  The
# parser below is the one it replaced: a bracket-depth character loop, then
# the NilMatrix constructor and dense(), which derives the key.


def split_assignments_by_chars(text):
    # top-level commas only; commas inside [...] separate coefficients
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def parse_matrix_by_chars(text, n, field):
    if n > 9:
        raise ValueError("text format uses single-digit indices (n <= 9)")
    entries = {}
    for part in split_assignments_by_chars(text):
        lhs, _, rhs = part.partition("=")
        lhs = lhs.strip()
        rhs = rhs.strip()
        if not (len(lhs) == 3 and lhs[0] == "a" and lhs[1:].isdecimal() and rhs):
            raise ValueError(f"bad assignment {part!r}")
        i, j = int(lhs[1]), int(lhs[2])
        if not 1 <= i < j <= n:
            raise ValueError(f"position ({i},{j}) out of range for n={n}")
        if rhs.startswith("[") and not rhs.endswith("]"):
            raise ValueError(f"unterminated coefficient list in {part!r}")
        try:
            ints = [int(t) for t in rhs[1:-1].split(",")] if rhs.startswith("[") else int(rhs)
        except ValueError:
            raise ValueError(f"bad value in assignment {part!r}") from None
        if rhs.startswith("["):
            value = field.element([c % field.p for c in ints])
        else:
            value = field.from_int(ints)
        if (i, j) in entries:
            raise ValueError(f"duplicate entry ({i},{j})")
        entries[(i, j)] = value
    return NilMatrix(n, field, entries)


# -- the CLI's JSON text -------------------------------------------------------
#
# superchar.cli writes indent-2 JSON with its own recursive writer; below,
# the json.dumps call it replaced, which indent sends through the
# pure-Python encoder.


def json_dumps_text(obj):
    return json.dumps(obj, indent=2, default=_json_default)


# -- polynomial field arithmetic ------------------------------------------------
#
# superchar.gf computes on enumeration indices through exp, log and Zech
# tables.  The functions below compute one operation at a time on
# coefficient vectors (constant term first), reducing products modulo the
# field's monic modulus.


def field_add(field, a, b):
    return tuple((x + y) % field.p for x, y in zip(a, b))


def field_neg(field, a):
    return tuple(-x % field.p for x in a)


def field_mul(field, a, b):
    p, m, modulus = field.p, field.m, field.modulus
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    for top in range(2 * m - 2, m - 1, -1):
        c = prod[top] % p
        if c:
            for k, f in enumerate(modulus):
                prod[top - m + k] -= c * f
    return tuple(c % p for c in prod[:m])


def field_inv(field, a):
    """a^(q-2), by square and multiply."""
    result = (1,) + (0,) * (field.m - 1)
    e = field.order - 2
    while e:
        if e & 1:
            result = field_mul(field, result, a)
        a = field_mul(field, a, a)
        e >>= 1
    return result


# -- the group law on bodies ---------------------------------------------------
#
# superchar holds an element 1 + a of U_n by its body a and multiplies
# nowhere; group_inv is its only group operation.  The tests multiply by
# the law below.


def group_mul(a, b):
    """The body of (1 + a)(1 + b), a + b + ab."""
    return a + b + (a @ b)


def elementary_generators(n, field):
    """The body alpha*e_ij of every generator 1 + alpha*e_ij, in (i, j,
    enumeration index of alpha) order."""
    return [
        NilMatrix.single(n, field, i, j, alpha)
        for (i, j) in positions(n)
        for alpha in field.nonzero()
    ]
