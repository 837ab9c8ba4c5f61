"""Exact values in the cyclotomic field Q(zeta_p), p prime.

A value is p integers num over a positive integer den, the element
(num_0 + num_1 x + ... + num_(p-1) x^(p-1)) / den of Z[x]/(x^p - 1) read at
x = zeta_p: the form of zeta^t q^-d and of an orbit's histogram of zeta
exponents over |O|.  Since 1 + x + ... + x^(p-1) reads as 0, __init__
keeps one normal form: it subtracts num_(p-1) from every coordinate,
leaving the power-basis coordinates of 1, z, ..., z^(p-2), then divides
out the gcd.  Equality compares (p, num, den).  coeffs is the read-only
Fraction view that basis_str prints.

A Cyclotomic is a value and defines no arithmetic: superchar.table
computes on integer cells in Z[x]/(x^p - 1) over one denominator, and
builds a Cyclotomic only to report, print or export a result.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm

from .gf import is_prime

_HASH_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf


class Cyclotomic:
    __slots__ = ("p", "num", "den")

    def __init__(self, p: int, num, den: int = 1):
        """num / den: p integers, the coefficients of x^0, ..., x^(p-1),
        over a nonzero integer den."""
        if len(num) != p:
            raise ValueError(f"{len(num)} coordinates for p = {p}")
        if not den:
            raise ZeroDivisionError("cyclotomic value over 0")
        top = num[-1]
        vec = [c - top for c in num]
        g = gcd(den, *vec)
        if den < 0:
            g = -g
        self.p = p
        self.num = tuple(c // g for c in vec)
        self.den = den // g

    @classmethod
    def zero(cls, p: int) -> "Cyclotomic":
        return cls(p, (0,) * p)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The p - 1 power-basis coordinates."""
        return tuple(Fraction(c, self.den) for c in self.num[:-1])

    def _is_rational(self) -> bool:
        return not any(self.num[1:])

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if isinstance(other, Cyclotomic):
            return (self.p, self.num, self.den) == (other.p, other.num, other.den)
        if isinstance(other, (int, Fraction)):
            # both sides are in lowest terms with a positive denominator
            return (
                self._is_rational()
                and self.num[0] == other.numerator
                and self.den == other.denominator
            )
        return NotImplemented

    def __hash__(self):
        """A rational value equals the int or Fraction it holds, so it
        hashes by the interpreter's numeric rule: |num| / den modulo the
        prime sys.hash_info.modulus, hash_info.inf when den has no inverse
        there, the sign of num, and -1 read as -2."""
        if not self._is_rational():
            return hash((self.p, self.num, self.den))
        num, den = self.num[0], self.den
        if den % _HASH_MODULUS:
            h = abs(num) % _HASH_MODULUS * pow(den, -1, _HASH_MODULUS) % _HASH_MODULUS
        else:
            h = _HASH_INF
        if num < 0:
            h = -h
        return -2 if h == -1 else h

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
        """The p - 1 power-basis coordinates as [numerator, denominator]
        strings in lowest terms, read off the integer normal form."""
        den = self.den
        coeffs = []
        for c in self.num[:-1]:
            g = gcd(c, den)
            coeffs.append([str(c // g), str(den // g)])
        return {"p": self.p, "coeffs": coeffs}

    @classmethod
    def from_json(cls, obj: dict) -> "Cyclotomic":
        """The value to_json wrote; the coordinate count is checked before
        primality, so trial division never runs past the stored p - 1."""
        p = int(obj["p"])
        pairs = [(int(n), int(d)) for n, d in obj["coeffs"]]
        if len(pairs) != p - 1:
            raise ValueError("wrong coordinate count")
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if not all(d for _, d in pairs):
            raise ValueError("zero denominator")
        den = lcm(*(d for _, d in pairs))
        return cls(p, [n * (den // d) for n, d in pairs] + [0], den)

