"""Fraction-coordinate reference loops for the exact table identities.

superchar.table checks orthogonality and super-Plancherel on integer
vectors.  These are the direct Cyclotomic loops those kernels replaced,
kept here so that tests can compare the two exactly.
"""

from fractions import Fraction

from superchar import Cyclotomic, format_coloured


def inner_product(table, i, j):
    """<xi_i, xi_j> = (1/|G|) sum over classes of |K| xi_i(K) conj(xi_j(K))."""
    p = table.field.p
    acc = Cyclotomic.zero(p)
    for k, cls in enumerate(table.superclasses):
        term = table.values[i][k] * table.values[j][k].conjugate()
        acc = acc + term.scale(cls.size)
    return acc.scale(Fraction(1, table.order))


def plancherel(table):
    """The plancherel() report, summed as Cyclotomics."""
    p = table.field.p
    weights = [table.weight(i) for i in range(table.size)]
    failures = []
    for j, cls in enumerate(table.superclasses):
        acc = Cyclotomic.zero(p)
        for i in range(table.size):
            acc = acc + table.values[i][j].scale(weights[i])
        expected = (
            Cyclotomic.one(p) if cls.rep.is_zero() else Cyclotomic.zero(p)
        )
        if acc != expected:
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
            expected = (
                Cyclotomic.from_rational(p, Fraction(1, table.dual_orbits[i].size))
                if i == j
                else Cyclotomic.zero(p)
            )
            if inner_product(table, i, j) != expected:
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
