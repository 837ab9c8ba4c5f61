"""Exact arithmetic in the cyclotomic field Q(zeta_p), p prime.

Elements are stored on the power basis 1, z, ..., z^(p-2) with Fraction
coordinates, using z^(p-1) = -(1 + z + ... + z^(p-2)).  This basis makes
equality a coordinate comparison, so all identities in the library are
checked exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .gf import is_prime


class Cyclotomic:
    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: tuple[Fraction, ...]):
        # callers must pass exactly p-1 Fractions; use the constructors below
        self.p = p
        self.coeffs = coeffs

    # constructors

    @classmethod
    def zero(cls, p: int) -> "Cyclotomic":
        return cls(p, (Fraction(0),) * (p - 1))

    @classmethod
    def one(cls, p: int) -> "Cyclotomic":
        return cls.from_rational(p, Fraction(1))

    @classmethod
    def from_rational(cls, p: int, r) -> "Cyclotomic":
        r = Fraction(r)
        return cls(p, (r,) + (Fraction(0),) * (p - 2))

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Cyclotomic):
            return self.p == other.p and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Cyclotomic.from_rational(self.p, other)
        return NotImplemented

    def __hash__(self):
        # a rational value equals the int or Fraction it holds, so it must
        # hash like it
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash((self.p, self.coeffs))

    # arithmetic

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Cyclotomic(
            self.p, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.p, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.p
        # accumulate exponents mod p, then fold z^(p-1) back onto the basis
        acc = [Fraction(0)] * p
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        acc[(i + j) % p] += a * b
        top = acc[p - 1]
        if top:
            return Cyclotomic(p, tuple(c - top for c in acc[: p - 1]))
        return Cyclotomic(p, tuple(acc[: p - 1]))

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            if other.p != self.p:
                raise ValueError("mixed cyclotomic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(self.p, other)
        return NotImplemented

    def scale(self, r) -> "Cyclotomic":
        r = Fraction(r)
        return Cyclotomic(self.p, tuple(r * c for c in self.coeffs))

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation, z -> z^(p-1)."""
        p = self.p
        acc = [Fraction(0)] * p
        for k, c in enumerate(self.coeffs):
            acc[(p - k) % p] += c
        top = acc[p - 1]
        if top:
            return Cyclotomic(p, tuple(c - top for c in acc[: p - 1]))
        return Cyclotomic(p, tuple(acc[: p - 1]))

    def norm_squared(self) -> "Cyclotomic":
        return self * self.conjugate()

    def rational_part(self) -> Fraction:
        """The value as a rational, failing if any z-coordinate is nonzero."""
        if any(self.coeffs[1:]):
            raise ValueError(f"not rational: {self}")
        return self.coeffs[0]

    # presentation

    def __repr__(self):
        return f"Cyclotomic({self.p}, {self.basis_str()!r})"

    def basis_str(self) -> str:
        """Full-shape power-basis string, one term per basis vector."""
        terms = []
        for k, c in enumerate(self.coeffs):
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*z")
            else:
                terms.append(f"{c}*z^{k}")
        return " + ".join(terms)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "coeffs": [[str(c.numerator), str(c.denominator)] for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Cyclotomic":
        p = int(obj["p"])
        coeffs = tuple(Fraction(int(n), int(d)) for n, d in obj["coeffs"])
        if len(coeffs) != p - 1:
            raise ValueError("wrong coordinate count")
        return cls(p, coeffs)


def cyclo_root(p: int, k: int = 1) -> Cyclotomic:
    """zeta_p^k as an exact element of Q(zeta_p)."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    k %= p
    if k < p - 1:
        coeffs = tuple(
            Fraction(1) if i == k else Fraction(0) for i in range(p - 1)
        )
        return Cyclotomic(p, coeffs)
    return Cyclotomic(p, (Fraction(-1),) * (p - 1))


def cyclo_approx(x: Cyclotomic) -> tuple[complex, float]:
    """Float approximation with a crude forward error bound.

    Each coordinate-to-float conversion is exact to one ulp, so the bound
    (p-1) * max|coeff| * 2^-50 dominates the rounding of the basis sum.
    """
    import cmath

    p = x.p
    value = 0j
    maxabs = 0.0
    for k, c in enumerate(x.coeffs):
        fc = float(c)
        maxabs = max(maxabs, abs(fc))
        value += fc * cmath.exp(2j * cmath.pi * k / p)
    bound = (p - 1) * maxabs * 2.0**-50
    return value, bound
