"""Exact cyclotomic values in Q(zeta_p): the normal form, equality, hashing
and the text and JSON forms of superchar.cyclotomic, with the integer
arithmetic of tests/oracles.py on such values, against the
Fraction-coordinate class there where the two are compared."""

import cmath
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import add, conj, mul, rational, root, scale
from superchar import cyclotomic
from superchar.cyclotomic import Cyclotomic


def test_root_of_unity_relations():
    for p in (2, 3, 5, 7):
        z = root(p)
        acc = rational(p, 1)
        powers = []
        for _ in range(p):
            powers.append(acc)
            acc = mul(acc, z)
        assert acc == 1  # z^p = 1
        total = Cyclotomic.zero(p)
        for w in powers:
            total = add(total, w)
        assert total == Cyclotomic.zero(p)  # 1 + z + ... + z^(p-1) = 0
        assert len(set(tuple(w.coeffs) for w in powers)) == p


def test_p2_root_is_minus_one():
    z = root(2)
    assert z.coeffs == (Fraction(-1),)
    assert mul(z, z) == 1
    assert z == -1 and oracles.rational_part(z) == Fraction(-1)


def test_p3_reduction_of_top_power():
    z = root(3)
    assert z.coeffs == (Fraction(0), Fraction(1))
    assert mul(z, z).coeffs == (Fraction(-1), Fraction(-1))


def test_cyclo_root_exponent():
    # the constructor's x^k, k read mod p, is the k-th power of x
    for p in (3, 5):
        z = root(p)
        for k in range(2 * p):
            acc = rational(p, 1)
            for _ in range(k):
                acc = mul(acc, z)
            assert Cyclotomic(p, [int(e == k % p) for e in range(p)]) == acc


def test_conjugation_properties():
    for p in (2, 3, 5, 7):
        z = root(p)
        assert conj(z) == root(p, p - 1)
        x = add(add(scale(z, 3), scale(root(p, 2), Fraction(1, 2))), rational(p, -4))
        y = add(z, scale(root(p, p - 1), -2))
        assert conj(conj(x)) == x
        assert conj(mul(x, y)) == mul(conj(x), conj(y))
        assert conj(add(x, y)) == add(conj(x), conj(y))


def test_norm_squared_lands_in_real_subfield():
    z = root(5)
    x = add(add(scale(z, 2), scale(root(5, 3), -1)), rational(5, Fraction(1, 3)))
    n = mul(x, conj(x))
    assert conj(n) == n  # fixed by complex conjugation
    val = oracles.complex_value(n)
    assert abs(val.imag) < 1e-12 and val.real >= 0
    # |z^k|^2 = 1 for every k, and that one is rational
    for k in range(5):
        z = root(5, k)
        assert oracles.rational_part(mul(z, conj(z))) == 1
    zero = Cyclotomic.zero(5)
    assert oracles.rational_part(mul(zero, conj(zero))) == 0


def test_approx_matches_trig_goldens():
    # 2*cos(2*pi/5) = (sqrt(5) - 1) / 2, an identity independent of the
    # basis-evaluation code under test
    z = root(5)
    val = oracles.complex_value(add(z, conj(z)))
    golden = (5 ** 0.5 - 1) / 2
    assert abs(val.imag) < 1e-12
    assert abs(val.real - golden) < 1e-12
    v2 = oracles.complex_value(root(3))
    assert abs(v2 - cmath.exp(2j * cmath.pi / 3)) < 1e-12


def test_approx_norm_agrees_with_exact_norm():
    x = add(add(scale(root(7), 2), scale(root(7, 4), -1)), rational(7, Fraction(5, 3)))
    val = oracles.complex_value(x)
    nval = oracles.complex_value(mul(x, conj(x)))
    assert abs(abs(val) ** 2 - nval.real) < 1e-9
    assert abs(nval.imag) < 1e-12


def test_basis_str_shape():
    z = root(3)
    assert z.basis_str() == "0 + 1*z"
    assert mul(z, z).basis_str() == "-1 + -1*z"
    assert rational(5, Fraction(1, 2)).basis_str() == "1/2 + 0*z + 0*z^2 + 0*z^3"
    assert root(2).basis_str() == "-1"


def test_json_round_trip():
    x = add(add(scale(root(5, 2), Fraction(22, 7)), scale(root(5), -3)),
            rational(5, Fraction(1, 6)))
    blob = x.to_json()
    assert Cyclotomic.from_json(blob) == x
    blob["coeffs"] = blob["coeffs"][:-1]
    with pytest.raises(ValueError):
        Cyclotomic.from_json(blob)


_RATIONALS = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=12)


def _cyclo(p, data):
    return oracles.cyclotomic(p, [data.draw(_RATIONALS) for _ in range(p - 1)])


def test_hash_agrees_with_equality_on_rationals():
    one = Cyclotomic(3, [1, 0, 0])
    assert one == 1 and hash(one) == hash(1)
    assert len({one, 1}) == 1
    half = Cyclotomic(5, [1, 0, 0, 0, 0], 2)
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    assert len({half, Fraction(1, 2), Cyclotomic(5, [3, 1, 1, 1, 1], 4)}) == 1
    z = Cyclotomic(5, [0, 1, 0, 0, 0])
    assert len({z, Cyclotomic(5, [1, 2, 1, 1, 1]), Cyclotomic(5, [0, -3, 0, 0, 0], -3)}) == 1


_MODULUS = sys.hash_info.modulus


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    num=st.integers(-(1 << 70), 1 << 70)
    | st.sampled_from([-1, -2, 0, _MODULUS - 1, 1 - _MODULUS, _MODULUS, -_MODULUS]),
    den=st.integers(1, 1 << 70) | st.integers(1, 5).map(lambda k: k * _MODULUS),
)
def test_rational_hash_is_the_numeric_hash(p, num, den):
    # the interpreter's rule, not a Fraction built per call: equal numbers
    # hash equal across int, Fraction and Cyclotomic
    r = Fraction(num, den)
    assert hash(rational(p, r)) == hash(r)
    assert hash(Cyclotomic(p, [num] + [0] * (p - 1))) == hash(num)
    assert hash(Cyclotomic(p, [num] + [0] * (p - 1), den)) == hash(r)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.data())
def test_to_json_reads_the_integer_normal_form(p, data):
    # each coordinate reduced by its own gcd with den equals the Fraction
    # coordinate, zeros and negatives included
    coord = st.integers(-(1 << 40), 1 << 40) | st.sampled_from([0, -1, 1, -6, 6])
    num = data.draw(st.lists(coord, min_size=p, max_size=p))
    den = data.draw(st.integers(1, 1 << 40) | st.sampled_from([1, 2, 6, 12]))
    sign = data.draw(st.sampled_from([1, -1]))
    x = Cyclotomic(p, num, sign * den)
    assert x.to_json() == {
        "p": p,
        "coeffs": [[str(c.numerator), str(c.denominator)] for c in x.coeffs],
    }
    assert Cyclotomic.from_json(x.to_json()) == x


def test_from_json_refuses_a_p_that_is_not_prime(monkeypatch):
    blob = {"p": 4, "coeffs": [["1", "1"], ["0", "1"], ["0", "1"]]}
    with pytest.raises(ValueError, match="p = 4 is not prime"):
        Cyclotomic.from_json(blob)
    with pytest.raises(ValueError, match="zero denominator"):
        Cyclotomic.from_json({"p": 3, "coeffs": [["1", "0"], ["0", "1"]]})
    # p = 2^61 - 1 with three coordinates: the count refuses it before the
    # trial division, which would take minutes
    monkeypatch.setattr(cyclotomic, "is_prime", None)
    with pytest.raises(ValueError, match="wrong coordinate count"):
        Cyclotomic.from_json({"p": 2**61 - 1, "coeffs": [["0", "1"]] * 3})


def test_normal_form_folds_the_top_coordinate():
    # 1 + x + ... + x^(p-1) is 0, so raising every coordinate keeps the value
    # and the gcd comes out, leaving a positive denominator
    z = Cyclotomic(5, [3, 1, 1, 1, 1], 4)
    assert (z.num, z.den) == ((1, 0, 0, 0, 0), 2)
    assert z == Fraction(1, 2) and z == Cyclotomic(5, [1, 0, 0, 0, 0], 2)
    w = Cyclotomic(3, [0, 0, -6], -4)  # 3/2 z^2
    assert (w.num, w.den) == ((-3, -3, 0), 2)
    assert w == Cyclotomic(3, [0, 0, 3], 2)


def _pair(p, data):
    """One value drawn twice: as a Cyclotomic and as the Fraction oracle."""
    coeffs = tuple(data.draw(_RATIONALS) for _ in range(p - 1))
    return oracles.cyclotomic(p, coeffs), oracles.FractionCyclotomic(p, coeffs)


def _agree(value, oracle):
    assert value.coeffs == oracle.coeffs
    assert value.to_json() == oracle.to_json()
    assert value.basis_str() == oracle.basis_str()
    assert bool(value) == bool(oracle)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.data())
def test_integer_cyclotomic_equals_the_fraction_oracle(p, data):
    # the integer helper of tests/oracles.py against the Fraction class
    (a, fa), (b, fb) = _pair(p, data), _pair(p, data)
    r = data.draw(_RATIONALS)
    k = data.draw(st.integers(-9, 9))
    _agree(a, fa)
    _agree(add(a, b), fa + fb)
    _agree(add(a, scale(b, -1)), fa + fb.scale(-1))
    _agree(mul(a, b), fa * fb)
    _agree(rational(p, r), oracles.FractionCyclotomic.from_rational(p, r))
    _agree(conj(a), fa.conjugate())
    _agree(scale(a, r), fa.scale(r))
    _agree(mul(a, root(p, k)), fa * oracles.fraction_root(p, k))
    back = Cyclotomic.from_json(fa.to_json())
    _agree(back, oracles.FractionCyclotomic.from_json(a.to_json()))
    assert back == a and hash(back) == hash(a)
    assert (a == b) == (fa == fb)
    for x in (r, k, a.coeffs[0]):
        assert (a == x) == (fa == x)
        assert rational(p, x) == x and hash(rational(p, x)) == hash(x)
    if a == b:
        assert hash(a) == hash(b)
    try:
        expected = fa.rational_part()
    except ValueError:
        with pytest.raises(ValueError, match="not rational"):
            oracles.rational_part(a)
    else:
        assert oracles.rational_part(a) == expected and a == expected
        assert hash(a) == hash(expected)
