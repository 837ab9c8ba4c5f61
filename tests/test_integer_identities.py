"""The integer identity kernels of superchar.table against Fraction loops.

Oracle: tests/oracles.py, the direct Cyclotomic loops for <xi_i, xi_j>
and super-Plancherel.  Tables come from the closed formula alone
(validate="off"); route agreement is tested elsewhere.
"""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import oracles
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
            lambda cs: Cyclotomic(p, tuple(cs))
        ),
    )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(3, 3, 1), (2, 7, 1), (3, 2, 2), (2, 5, 1)]), st.data())
def test_corrupted_tables_get_oracle_verdicts(config, data):
    base = _table(*config)
    p = base.field.p
    values = [row[:] for row in base.values]
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, base.size - 1))
        j = data.draw(st.integers(0, base.size - 1))
        values[i][j] = data.draw(_non_monomial(p))
    t = SupercharTable(base.n, base.field, base.dual_orbits, base.superclasses, values)
    report = {c[0]: c for c in verify_theory(t)}
    assert report["orthogonality"] == oracles.orthogonality_check(t)
    assert report["plancherel-identity"] == oracles.plancherel_check(t)


def test_verify_theory_builds_few_cyclotomics(monkeypatch):
    # a count, not a timing: the Fraction loops built ~700k values here
    t = _table(3, 7, 1)
    built = 0
    init = Cyclotomic.__init__

    def counting_init(self, *args):
        nonlocal built
        built += 1
        init(self, *args)

    monkeypatch.setattr(Cyclotomic, "__init__", counting_init)
    report = verify_theory(t)
    assert all(ok for _, ok, _ in report)
    assert built < 50_000
