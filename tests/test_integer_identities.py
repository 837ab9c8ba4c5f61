"""The integer identity kernels of superchar.table against Fraction loops.

Oracle: tests/oracles.py, the direct Cyclotomic loops for <xi_i, xi_j>,
super-Plancherel and conjugate symmetry.  Tables come from the closed formula alone
(validate="off"); route agreement is tested elsewhere.
"""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import superchar.table as table_mod
from superchar import (
    Cyclotomic,
    SupercharTable,
    build_table,
    cyclo_root,
    field_construct,
    inner_product,
    plancherel,
    verify_theory,
)
from superchar.table import _gram_entry, _inverse_column

# the table configs the other tests build, plus U_3(F_7)
CONFIGS = [
    (1, 2, 1), (1, 3, 1), (2, 2, 1), (2, 3, 1), (3, 2, 1), (3, 3, 1), (2, 5, 1),
    (3, 2, 2), (4, 2, 1), (4, 3, 1), (5, 2, 1), (3, 7, 1),
]


@lru_cache(maxsize=None)
def _table(n, p, m):
    return build_table(n, field_construct(p, m), validate="off")


@pytest.mark.parametrize("n,p,m", CONFIGS)
def test_gram_matrix_equals_fraction_oracle(n, p, m):
    t = _table(n, p, m)
    pairs = [(i, j) for i in range(t.size) for j in range(t.size)]
    assert [inner_product(t, i, j) for i, j in pairs] == [
        oracles.inner_product(t, i, j) for i, j in pairs
    ]


@pytest.mark.parametrize("n,p,m", CONFIGS)
def test_plancherel_equals_fraction_oracle(n, p, m):
    t = _table(n, p, m)
    assert plancherel(t) == oracles.plancherel(t)


def _non_monomial(p):
    half_plus_zeta = Cyclotomic.from_rational(p, Fraction(1, 2)) + cyclo_root(p)
    coords = st.fractions(min_value=-2, max_value=2, max_denominator=4)
    return st.one_of(
        st.just(cyclo_root(p, p - 1)),  # (-1, ..., -1) on the power basis
        st.just(half_plus_zeta),
        st.lists(coords, min_size=p - 1, max_size=p - 1).map(
            lambda cs: oracles.cyclotomic(p, cs)
        ),
    )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(3, 3, 1), (2, 7, 1), (3, 2, 2), (2, 5, 1)]), st.data())
def test_corrupted_tables_get_oracle_verdicts(config, data):
    base = _table(*config)
    p = base.field.p
    values = [list(row) for row in base.values]
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, base.size - 1))
        j = data.draw(st.integers(0, base.size - 1))
        values[i][j] = data.draw(_non_monomial(p))
    t = SupercharTable(base.n, base.field, base.dual_orbits, base.superclasses, values)
    report = {c[0]: c for c in verify_theory(t)}
    assert report["orthogonality"] == oracles.orthogonality_check(t)
    assert report["plancherel-identity"] == oracles.plancherel_check(t)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(3, 3, 1), (2, 7, 1), (3, 2, 2), (3, 5, 1), (4, 2, 1)]),
       st.data())
def test_conjugate_symmetry_equals_cyclotomic_oracle(config, data):
    # some corruptions write the conjugate into the inverse column too,
    # so that a corrupted table can still pass this one check
    base = _table(*config)
    values = [list(row) for row in base.values]
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, base.size - 1))
        j = data.draw(st.integers(0, base.size - 1))
        v = data.draw(_non_monomial(base.field.p))
        values[i][j] = v
        if data.draw(st.booleans()):
            values[i][_inverse_column(base, j)] = v.conjugate()
    t = SupercharTable(base.n, base.field, base.dual_orbits, base.superclasses, values)
    report = {c[0]: c for c in verify_theory(t)}
    assert report["conjugate-symmetry"] == oracles.conjugate_symmetry_check(t)


def _count_cyclotomics(monkeypatch):
    """A list whose one entry counts the Cyclotomics built from now on."""
    built = [0]
    init = Cyclotomic.__init__

    def counting_init(self, *args):
        built[0] += 1
        init(self, *args)

    monkeypatch.setattr(Cyclotomic, "__init__", counting_init)
    return built


def test_verify_theory_builds_few_cyclotomics(monkeypatch):
    # a count, not a timing: the Fraction loops built ~700k values here,
    # and the closed table as Cyclotomics 3,025 more, one per cell
    built = _count_cyclotomics(monkeypatch)
    t = build_table(3, field_construct(7, 1))  # |A| = 343: full cross-check
    report = verify_theory(t)
    assert all(ok for _, ok, _ in report)
    assert built[0] == 0


def test_plancherel_builds_only_the_spot_cyclotomics(monkeypatch):
    # 64 averages from sch_bruteforce and 64 sampled closed cells; the
    # other 65,985 cells of U_5(F_3) stay integers
    built = _count_cyclotomics(monkeypatch)
    report = plancherel(build_table(5, field_construct(3, 1), validate="spot"))
    assert report["identity_holds"]
    assert built[0] <= 128


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.data())
def test_gram_entry_is_hermitian(p, data):
    # swapping the rows sends x^k to x^-k: the mirror entry is never computed
    cell = st.lists(st.tuples(st.integers(0, p - 1), st.integers(-9, 9)),
                    max_size=3).map(tuple)
    k = data.draw(st.integers(1, 5))
    rows = [data.draw(st.lists(cell, min_size=k, max_size=k)) for _ in range(2)]
    sizes = data.draw(st.lists(st.integers(1, 50), min_size=k, max_size=k))
    forward = _gram_entry(rows[0], rows[1], sizes, p)
    backward = _gram_entry(rows[1], rows[0], sizes, p)
    assert backward == [forward[-e % p] for e in range(p)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(3, 3, 1), (3, 2, 2), (2, 5, 1), (4, 2, 1)]), st.data())
def test_half_gram_finds_the_full_scan_failure(config, data):
    # corrupt cells below the diagonal too, where the full scan would meet
    # a failing (i, j) with i > j only after its mirror (j, i)
    base = _table(*config)
    values = [list(row) for row in base.values]
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(1, base.size - 1))
        j = data.draw(st.integers(0, i))
        values[i][j] = data.draw(_non_monomial(base.field.p))
    t = SupercharTable(base.n, base.field, base.dual_orbits, base.superclasses, values)
    report = {c[0]: c for c in verify_theory(t)}
    assert report["orthogonality"] == oracles.orthogonality_check(t)


def test_verify_theory_converts_the_table_once(monkeypatch):
    calls = 0
    convert = table_mod._integer_cells

    def counting(rows, p):
        nonlocal calls
        calls += 1
        return convert(rows, p)

    monkeypatch.setattr(table_mod, "_integer_cells", counting)
    f = field_construct(7, 1)
    t = build_table(3, f, validate="off")  # holds its integer cells
    assert all(ok for _, ok, _ in verify_theory(t))
    assert calls == 0
    given = SupercharTable(t.n, f, t.dual_orbits, t.superclasses, t.values)
    report = {c[0]: c for c in verify_theory(given)}
    assert calls == 1
    assert report["plancherel-identity"] == oracles.plancherel_check(given)
