"""Exact cyclotomic arithmetic in Q(zeta_p), against the Fraction-coordinate
class of tests/oracles.py where the two are compared."""

import cmath
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from superchar.cyclotomic import Cyclotomic, cyclo_root


def test_root_of_unity_relations():
    for p in (2, 3, 5, 7):
        z = cyclo_root(p)
        acc = Cyclotomic.one(p)
        powers = []
        for _ in range(p):
            powers.append(acc)
            acc = acc * z
        assert acc == Cyclotomic.one(p)  # z^p = 1
        total = Cyclotomic.zero(p)
        for w in powers:
            total = total + w
        assert total == Cyclotomic.zero(p)  # 1 + z + ... + z^(p-1) = 0
        assert len(set(tuple(w.coeffs) for w in powers)) == p


def test_p2_root_is_minus_one():
    z = cyclo_root(2)
    assert z.coeffs == (Fraction(-1),)
    assert z * z == Cyclotomic.one(2)
    assert z.rational_part() == Fraction(-1)


def test_p3_reduction_of_top_power():
    z = cyclo_root(3)
    assert z.coeffs == (Fraction(0), Fraction(1))
    assert (z * z).coeffs == (Fraction(-1), Fraction(-1))


def test_cyclo_root_exponent():
    for p in (3, 5):
        z = cyclo_root(p)
        for k in range(2 * p):
            acc = Cyclotomic.one(p)
            for _ in range(k):
                acc = acc * z
            assert cyclo_root(p, k) == acc


def test_integer_and_fraction_coercion():
    z = cyclo_root(5)
    assert 1 + z == Cyclotomic.one(5) + z
    assert z - 1 == z + (-Cyclotomic.one(5))
    assert 2 * z == z + z
    assert z * Fraction(1, 2) + z * Fraction(1, 2) == z
    assert z.scale(Fraction(3, 7)) == Fraction(3, 7) * z


def test_mixed_conductors_rejected():
    with pytest.raises(ValueError):
        cyclo_root(3) + cyclo_root(5)
    with pytest.raises(ValueError):
        cyclo_root(3) * cyclo_root(5)


def test_rational_part_guards_irrational_values():
    z = cyclo_root(7)
    assert (z * Fraction(0) + 5).rational_part() == 5
    with pytest.raises(ValueError):
        z.rational_part()


def test_conjugation_properties():
    for p in (2, 3, 5, 7):
        z = cyclo_root(p)
        assert z.conjugate() == cyclo_root(p, p - 1)
        x = 3 * z + Fraction(1, 2) * cyclo_root(p, min(2, p - 1)) - 4
        y = z - 2 * cyclo_root(p, p - 1)
        assert x.conjugate().conjugate() == x
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()


def test_norm_squared_lands_in_real_subfield():
    z = cyclo_root(5)
    x = 2 * z - cyclo_root(5, 3) + Fraction(1, 3)
    n = x * x.conjugate()
    assert n.conjugate() == n  # fixed by complex conjugation
    val = oracles.complex_value(n)
    assert abs(val.imag) < 1e-12 and val.real >= 0
    # |z^k|^2 = 1 for every k, and that one is rational
    for k in range(5):
        z = cyclo_root(5, k)
        assert (z * z.conjugate()).rational_part() == 1
    zero = Cyclotomic.zero(5)
    assert (zero * zero.conjugate()).rational_part() == 0


def test_approx_matches_trig_goldens():
    # 2*cos(2*pi/5) = (sqrt(5) - 1) / 2, an identity independent of the
    # basis-evaluation code under test
    z = cyclo_root(5)
    val = oracles.complex_value(z + z.conjugate())
    golden = (5 ** 0.5 - 1) / 2
    assert abs(val.imag) < 1e-12
    assert abs(val.real - golden) < 1e-12
    v2 = oracles.complex_value(cyclo_root(3))
    assert abs(v2 - cmath.exp(2j * cmath.pi / 3)) < 1e-12


def test_approx_norm_agrees_with_exact_norm():
    x = 2 * cyclo_root(7) - cyclo_root(7, 4) + Fraction(5, 3)
    val = oracles.complex_value(x)
    nval = oracles.complex_value(x * x.conjugate())
    assert abs(abs(val) ** 2 - nval.real) < 1e-9
    assert abs(nval.imag) < 1e-12


def test_basis_str_shape():
    z = cyclo_root(3)
    assert z.basis_str() == "0 + 1*z"
    assert (z * z).basis_str() == "-1 + -1*z"
    assert (Fraction(1, 2) * Cyclotomic.one(5)).basis_str() == "1/2 + 0*z + 0*z^2 + 0*z^3"
    assert cyclo_root(2).basis_str() == "-1"


def test_json_round_trip():
    x = Fraction(22, 7) * cyclo_root(5, 2) - 3 * cyclo_root(5) + Fraction(1, 6)
    blob = x.to_json()
    assert Cyclotomic.from_json(blob) == x
    blob["coeffs"] = blob["coeffs"][:-1]
    with pytest.raises(ValueError):
        Cyclotomic.from_json(blob)


_RATIONALS = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=12)


def _cyclo(p, data):
    return oracles.cyclotomic(p, [data.draw(_RATIONALS) for _ in range(p - 1)])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_ring_axioms(p, data):
    a = _cyclo(p, data)
    b = _cyclo(p, data)
    c = _cyclo(p, data)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Cyclotomic.zero(p) == a
    assert a * Cyclotomic.one(p) == a
    assert a - a == Cyclotomic.zero(p)
    assert a.conjugate().conjugate() == a
    n = oracles.complex_value(a * a.conjugate())
    assert abs(n.imag) < 1e-9 and n.real > -1e-9



def test_hash_agrees_with_equality_on_rationals():
    one = Cyclotomic.one(3)
    assert one == 1 and hash(one) == hash(1)
    assert len({one, 1}) == 1
    half = Cyclotomic.from_rational(5, Fraction(1, 2))
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    assert len({half, Fraction(1, 2), Fraction(1, 2) * Cyclotomic.one(5)}) == 1
    z = cyclo_root(5)
    assert len({z, z + 0, z.conjugate().conjugate()}) == 1


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
    assert hash(Cyclotomic.from_rational(p, r)) == hash(r)
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


def test_from_json_refuses_a_p_that_is_not_prime():
    blob = {"p": 4, "coeffs": [["1", "1"], ["0", "1"], ["0", "1"]]}
    with pytest.raises(ValueError, match="p = 4 is not prime"):
        Cyclotomic.from_json(blob)
    with pytest.raises(ValueError, match="zero denominator"):
        Cyclotomic.from_json({"p": 3, "coeffs": [["1", "0"], ["0", "1"]]})


def test_normal_form_folds_the_top_coordinate():
    # 1 + x + ... + x^(p-1) is 0, so raising every coordinate keeps the value
    # and the gcd comes out, leaving a positive denominator
    z = Cyclotomic(5, [3, 1, 1, 1, 1], 4)
    assert (z.num, z.den) == ((1, 0, 0, 0, 0), 2)
    assert z == Fraction(1, 2) and z == Cyclotomic(5, [1, 0, 0, 0, 0], 2)
    w = Cyclotomic(3, [0, 0, -6], -4)  # 3/2 z^2
    assert (w.num, w.den) == ((-3, -3, 0), 2)
    assert w == Fraction(3, 2) * cyclo_root(3, 2)


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
    (a, fa), (b, fb) = _pair(p, data), _pair(p, data)
    r = data.draw(_RATIONALS)
    k = data.draw(st.integers(-9, 9))
    _agree(a, fa)
    _agree(a + b, fa + fb)
    _agree(a - b, fa - fb)
    _agree(a * b, fa * fb)
    _agree(a + k, fa + k)
    _agree(r - a, r - fa)
    _agree(a * r, fa * r)
    _agree(-a, -fa)
    _agree(a.conjugate(), fa.conjugate())
    _agree(a.scale(r), fa.scale(r))
    _agree(a * cyclo_root(p, k), fa * oracles.fraction_root(p, k))
    back = Cyclotomic.from_json(fa.to_json())
    _agree(back, oracles.FractionCyclotomic.from_json(a.to_json()))
    assert back == a and hash(back) == hash(a)
    assert (a == b) == (fa == fb)
    for x in (r, k, a.coeffs[0]):
        assert (a == x) == (fa == x)
        assert (a.scale(0) + x == x) and hash(a.scale(0) + x) == hash(x)
    if a == b:
        assert hash(a) == hash(b)
    try:
        expected = fa.rational_part()
    except ValueError:
        with pytest.raises(ValueError, match="not rational"):
            a.rational_part()
    else:
        assert a.rational_part() == expected and a == expected
        assert hash(a) == hash(expected)
