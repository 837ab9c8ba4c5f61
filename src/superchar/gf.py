"""Exact arithmetic in GF(p^m).

Every field is built deterministically: the modulus is the lexicographically
smallest monic irreducible polynomial of degree m over GF(p), coefficients
compared from the constant term up.  Elements are coefficient vectors over
GF(p) in the power basis of the residue class of x; the element with
enumeration index k has the base-p digits of k as coefficients, constant
term first.  Subfield embeddings send the generator to the
enumeration-smallest root of the subfield modulus and are fixed once per
(subfield, superfield) pair, never composed through intermediate fields.
Each such pair has one embedding index list (Embedding.images) and one
relative-trace index list (trace_indices), built once and cached.

All arithmetic runs on enumeration indices through three O(q) tables over
a primitive element g, the enumeration-smallest generator of the
multiplicative group, chosen apart from the modulus: x need not be
primitive (it is not modulo x^2 + 1 over GF(3), nor modulo
x^8 + x^7 + x^5 + x^4 + 1, the GF(256) modulus).  With n = q - 1:

- exp[k] is the index of g^(k mod n) for 0 <= k < 2n, and 0 for
  2n <= k < 3n;
- log[i] is the k < n with g^k = element i, and log[0] = 2n, so a sum of
  logs with one log of zero lands on 0 through exp;
- zech[k] = log(1 + g^k) for 0 <= k < n (2n where 1 + g^k = 0), read at
  negative k as Python does, at k + n.

So a*b is exp[log a + log b], and a + b for nonzero a, b is
exp[log a + zech[log b - log a]] (Zech logarithms; Lidl and Niederreiter,
Finite Fields, ch. 2 and sec. 9).  No structure is O(q^2); polynomial
products serve only the irreducibility and primitivity tests and the m
products x^i g from which the walk that builds the tables is tabulated.
"""

from __future__ import annotations

import itertools
import os
from functools import lru_cache

_FIELD_CAP = 1 << 16
_SPACE_CAP = 1 << 20


def _cap(floor: int) -> int:
    """floor, or SUPERCHAR_CAP when that is set and larger."""
    raw = os.environ.get("SUPERCHAR_CAP")
    if raw is None:
        return floor
    try:
        return max(floor, int(raw))
    except ValueError:
        raise ValueError(f"SUPERCHAR_CAP must be an integer, got {raw!r}") from None


def field_cap() -> int:
    """Largest admissible field order.  SUPERCHAR_CAP can only raise it."""
    return _cap(_FIELD_CAP)


def _check_field_cap(p: int, m: int) -> int:
    """The order p^m, p >= 2 and m >= 1, built one factor at a time;
    ValueError once it passes field_cap(), which takes at most the cap's
    bit length of factors, naming an order not reached as p^m."""
    cap, order = field_cap(), 1
    for k in range(1, m + 1):
        order *= p
        if order > cap:
            text = order if k == m else f"{p}^{m}"
            raise ValueError(
                f"field order {text} exceeds the enumeration cap {cap}"
                " (raise SUPERCHAR_CAP to allow it)"
            )
    return order


def space_cap() -> int:
    """Largest space (algebra, orbit union) that may be enumerated exhaustively."""
    return _cap(_SPACE_CAP)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# -- polynomials over GF(p), as tuples of ints, constant term first --------


def _poly_trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for k, bj in enumerate(b, i):
                out[k] += ai * bj
    return _poly_trim([c % p for c in out])


def _poly_mod(a, b, p):
    # b must be nonzero; leading coefficient inverted mod p
    a = list(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p)
    for top in range(len(a) - 1, db - 1, -1):
        factor = (a[top] * inv_lead) % p
        if factor:
            shift = top - db
            for i, bi in enumerate(b):
                a[shift + i] = (a[shift + i] - factor * bi) % p
    return _poly_trim(a[:db])


def _is_irreducible(poly, p):
    """Ben-Or's test: poly of degree m is irreducible iff it is coprime to
    x^(p^i) - x for every i <= m/2, whose irreducible factors are those of
    degree dividing i (Lidl and Niederreiter, Finite Fields, Thm 3.20)."""
    xp = (0, 1)
    for _ in range((len(poly) - 1) // 2):
        xp = _poly_pow(xp, p, poly, p)  # x^(p^i) mod poly
        diff = list(xp) + [0] * (2 - len(xp))
        diff[1] = (diff[1] - 1) % p
        a, b = poly, _poly_trim(diff)
        while b:  # Euclid: a ends as gcd(poly, x^(p^i) - x) up to a unit
            a, b = b, _poly_mod(a, b, p)
        if len(a) > 1:
            return False
    return True


def _smallest_irreducible(p, m):
    # above degree 1 a zero constant term leaves the factor x
    constants = range(p) if m == 1 else range(1, p)
    for tail in itertools.product(constants, *[range(p)] * (m - 1)):
        poly = tail + (1,)
        if _is_irreducible(poly, p):
            return poly
    raise AssertionError(f"no irreducible of degree {m} over GF({p})")


# -- log, antilog and Zech tables ---------------------------------------------


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _poly_pow(a, e: int, modulus, p):
    result = (1,)
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul(result, a, p), modulus, p)
        a = _poly_mod(_poly_mul(a, a, p), modulus, p)
        e >>= 1
    return result


def _primitive_element(p: int, m: int, modulus) -> tuple[int, ...]:
    """The enumeration-smallest generator of the multiplicative group: g
    is primitive iff g^((q-1)/r) != 1 for every prime r dividing q - 1."""
    n = p**m - 1
    primes = _prime_factors(n)
    for k in range(1, n + 1):
        g = _poly_trim([k // p**i % p for i in range(m)])
        if all(_poly_pow(g, n // r, modulus, p) != (1,) for r in primes):
            return g
    raise AssertionError(f"GF({p}^{m}) has no primitive element")


def _log_tables(p: int, m: int, modulus) -> tuple[list, list, list]:
    """exp, log and zech over enumeration indices; see the module docstring.

    One walk of the powers of g.  Multiplication by g is F_p-linear, so
    the walk needs only the m products x^i g: a power is packed with its
    base-p digits in b-bit fields, and two lookup tables, one per half of
    the digits, give each half's image under g and its part of the index.
    The two images are added in one integer addition, which leaves digits
    below 2p - 1; adding 2^(b-1) - p to every field sets the top bit of
    exactly the digits >= p, which then lose p.  Adding 1 to an index steps
    only its constant base-p digit, so zech is read off the walk with no
    addition table.
    """
    n = p**m - 1
    g = _primitive_element(p, m, modulus)
    b = (p - 1).bit_length() + 1  # 2^(b-1) >= p
    ones = sum(1 << (b * i) for i in range(m))
    high, bias = ones << (b - 1), ones * ((1 << (b - 1)) - p)

    def reduce(s):  # digits below 2p - 1 -> digits mod p
        return s - (((s + bias) & high) >> (b - 1)) * p

    images = []  # x^i g, packed
    for i in range(m):
        image = _poly_mod(_poly_mul((0,) * i + (1,), g, p), modulus, p)
        images.append(sum(c << (b * k) for k, c in enumerate(image)))

    def half(lo, hi):
        """{packed digits lo..hi-1, shifted down: (image under g, index part)}"""
        table = {0: (0, 0)}
        for i in range(lo, hi):
            step, image = [], 0
            for c in range(1, p):
                image = reduce(image + images[i])
                step.append((c << (b * (i - lo)), image, c * p**i))
            table.update({
                key + k: (reduce(im + v), idx + w)
                for key, (im, idx) in list(table.items())
                for k, v, w in step
            })
        return table

    h = (m + 1) // 2
    low, top = half(0, h), half(h, m)
    mask, shift = (1 << (b * h)) - 1, b * h
    powers = []
    s = 1
    for _ in range(n):
        im, idx = low[s & mask]
        im2, idx2 = top[s >> shift]
        powers.append(idx + idx2)
        s = reduce(im + im2)
    log = [2 * n] * (n + 1)
    for k, x in enumerate(powers):
        log[x] = k
    zech = [log[x + 1 if x % p != p - 1 else x + 1 - p] for x in powers]
    return powers + powers + [0] * n, log, zech


# -- field and element types ------------------------------------------------


class FieldElement:
    """An element of GF(p^m): an immutable coefficient vector plus its index."""

    __slots__ = ("field", "coeffs", "index")

    def __init__(self, field: "FiniteField", coeffs: tuple[int, ...], index: int):
        self.field = field
        self.coeffs = coeffs
        self.index = index

    def __bool__(self):
        return self.index != 0

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return (
            self.index == other.index
            and self.field.p == other.field.p
            and self.field.m == other.field.m
        )

    def __hash__(self):
        return hash((self.field.p, self.field.m, self.index))

    def __repr__(self):
        return f"GF({self.field.order})[{self.index}]"

    def __add__(self, other):
        f = self.field
        if other.field is not f and other.field != f:
            raise ValueError("mixed fields")
        a, b = self.index, other.index
        if not (a and b):
            return f._elts[a or b]
        la = f.log[a]
        return f._elts[f.exp[la + f.zech[f.log[b] - la]]]

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        f = self.field  # index p - 1 is the constant -1
        return f._elts[f.exp[f.log[self.index] + f.log[f.p - 1]]]

    def __mul__(self, other):
        f = self.field
        if other.field is not f and other.field != f:
            raise ValueError("mixed fields")
        if not (self.index and other.index):
            return f._elts[0]
        return f._elts[f.exp[f.log[self.index] + f.log[other.index]]]

    def __truediv__(self, other):
        return self * other.inverse()

    def inverse(self) -> "FieldElement":
        if self.index == 0:
            raise ZeroDivisionError("inverse of zero")
        f = self.field
        return f._elts[f.exp[f.order - 1 - f.log[self.index]]]

    def __pow__(self, e: int) -> "FieldElement":
        f = self.field
        if self.index == 0:
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return f.one if e == 0 else self
        return f._elts[f.exp[f.log[self.index] * e % (f.order - 1)]]

    def lift(self) -> int:
        """Integer lift, defined for prime-field elements only."""
        if self.field.m != 1:
            raise ValueError("lift applies to prime-field elements")
        return self.coeffs[0]

    def to_json(self) -> list[int]:
        return list(self.coeffs)


class FiniteField:
    """GF(p^m) with the deterministic modulus; compare fields by (p, m)."""

    def __init__(self, p: int, m: int):
        """The degree, then the cap, then primality, so that neither p^m
        nor trial division runs past the cap."""
        if m < 1:
            raise ValueError("degree must be >= 1")
        order = _check_field_cap(p, m) if p > 1 else 0
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        self.p = p
        self.m = m
        self.order = order
        self.modulus = _smallest_irreducible(p, m)
        self._elts = [
            FieldElement(self, digits[::-1], k)
            for k, digits in enumerate(itertools.product(range(p), repeat=m))
        ]
        self.exp, self.log, self.zech = _log_tables(p, m, self.modulus)
        self._trace_lifts: list[int] | None = None

    # elements

    def _element(self, coeffs: tuple[int, ...]) -> FieldElement:
        index = 0
        for c in reversed(coeffs):
            index = index * self.p + c
        return self._elts[index]

    def element(self, coeffs) -> FieldElement:
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) > self.m:
            raise ValueError(f"too many coefficients for degree {self.m}")
        if any(not 0 <= c < self.p for c in coeffs):
            raise ValueError(f"coefficients must lie in [0, {self.p})")
        return self._element(coeffs + (0,) * (self.m - len(coeffs)))

    def element_by_index(self, k: int) -> FieldElement:
        if not 0 <= k < self.order:
            raise ValueError(f"index {k} out of range for GF({self.order})")
        return self._elts[k]

    def from_int(self, c: int) -> FieldElement:
        return self._elts[c % self.p]

    def from_value(self, value) -> FieldElement:
        """from_int of an integer; element of a coefficient list, reduced mod p."""
        if isinstance(value, int):
            return self.from_int(value)
        return self.element([c % self.p for c in value])

    @property
    def zero(self) -> FieldElement:
        return self._elts[0]

    @property
    def one(self) -> FieldElement:
        return self._elts[1]

    @property
    def gen(self) -> FieldElement:
        """The residue class of x (zero when m == 1, where the modulus is x)."""
        return self._elts[self.p % self.order]

    @property
    def elements(self) -> list[FieldElement]:
        return self._elts

    def nonzero(self) -> list[FieldElement]:
        return self._elts[1:]

    # serialization

    def to_json(self) -> dict:
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}

    @classmethod
    def from_json(cls, obj: dict) -> "FiniteField":
        f = field_construct(int(obj["p"]), int(obj["m"]))
        if "modulus" in obj and tuple(obj["modulus"]) != f.modulus:
            raise ValueError("modulus does not match the deterministic construction")
        return f

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and self.p == other.p
            and self.m == other.m
        )

    def __hash__(self):
        return hash((self.p, self.m))

    def __repr__(self):
        return f"GF({self.order})"


@lru_cache(maxsize=None)
def _built_field(p: int, m: int) -> FiniteField:
    return FiniteField(p, m)


def field_construct(p: int, m: int) -> FiniteField:
    """GF(p^m), built once; the cap is checked on every call."""
    field = _built_field(p, m)
    _check_field_cap(p, m)
    return field


def format_value(v: FieldElement) -> str:
    """The value text of an assignment, as parse_value reads it: the
    integer lift over a prime field, else the list [c0,c1,...]."""
    if v.field.m == 1:
        return str(v.lift())
    return f"[{','.join(str(c) for c in v.coeffs)}]"


def parse_value(text: str, part: str, bad: str):
    """The integer, or list [c0,c1,...] of integers, that the value text of
    an assignment part writes.  ValueError for a list that does not close,
    then "bad part" for text that is not integers."""
    bracketed = text.startswith("[")
    if bracketed and not text.endswith("]"):
        raise ValueError(f"unterminated coefficient list in {part!r}")
    try:
        return [int(t) for t in text[1:-1].split(",")] if bracketed else int(text)
    except ValueError:
        raise ValueError(f"{bad} {part!r}") from None


# -- embeddings and traces ---------------------------------------------------


def _horner(coeffs, r: FieldElement) -> FieldElement:
    """The polynomial with coefficients coeffs over GF(p), constant term
    first, evaluated at r."""
    field = r.field
    acc = field.zero
    for c in reversed(coeffs):
        acc = acc * r + field.from_int(c)
    return acc


class Embedding:
    """The fixed embedding GF(p^m) -> GF(p^M) for m | M: x maps to
    x(root), root the enumeration-smallest root of the subfield modulus.
    images[k] is the index in sup of the image of element k of sub.
    """

    __slots__ = ("sub", "sup", "root", "images")

    def __init__(self, sub: FiniteField, sup: FiniteField):
        self.sub = sub
        self.sup = sup
        root = next((r for r in sup.elements if not _horner(sub.modulus, r)), None)
        if root is None:
            raise AssertionError("subfield modulus has no root in the superfield")
        self.root = root
        self.images = [_horner(x.coeffs, root).index for x in sub.elements]

    def __call__(self, x: FieldElement) -> FieldElement:
        if x.field is not self.sub and x.field != self.sub:
            raise ValueError(f"element is not in GF({self.sub.order})")
        return self.sup._elts[self.images[x.index]]

    def preimage(self, y: FieldElement) -> FieldElement:
        if y.field is not self.sup and y.field != self.sup:
            raise ValueError(f"element is not in GF({self.sup.order})")
        try:
            return self.sub._elts[self.images.index(y.index)]
        except ValueError:
            raise ValueError("element lies outside the embedded subfield") from None


@lru_cache(maxsize=None)
def field_embed(sub: FiniteField, sup: FiniteField) -> Embedding:
    """The fixed (cached) embedding map GF(p^m) -> GF(p^M), m | M."""
    if sub.p != sup.p:
        raise ValueError("characteristics differ")
    if sup.m % sub.m != 0:
        raise ValueError(f"GF({sub.order}) does not embed in GF({sup.order})")
    return Embedding(sub, sup)


def embed_into(x: FieldElement, target: FiniteField) -> FieldElement:
    """Image of x under the fixed embedding into target."""
    if x.field == target:
        return x
    return field_embed(x.field, target)(x)


def field_trace(x: FieldElement, target_degree: int = 1) -> FieldElement:
    """Relative trace down to GF(p^target_degree), in subfield coordinates."""
    field = x.field
    if field.m % target_degree != 0:
        raise ValueError(f"{target_degree} does not divide {field.m}")
    sub = field_construct(field.p, target_degree)
    if target_degree == field.m:
        return x
    q = field.p**target_degree
    acc = x
    y = x
    for _ in range(field.m // target_degree - 1):
        y = y**q
        acc = acc + y
    if target_degree == 1:
        # absolute trace lands in the prime subfield: a constant vector
        assert not any(acc.coeffs[1:]), "trace left the prime subfield"
        return sub.element_by_index(acc.coeffs[0])
    return field_embed(sub, field).preimage(acc)


@lru_cache(maxsize=None)
def trace_indices(sub: FiniteField, sup: FiniteField) -> list[int]:
    """The index in sub of the relative trace from sup down to sub, for
    every element of sup in index order.

    The trace is F_p-linear, so the list is read off field_trace on the
    basis 1, x, ..., x^(M-1) of sup: index c_0 + c_1 p + ... takes
    sum c_d Tr(x^d).
    """
    if sub.p != sup.p or sup.m % sub.m != 0:
        raise ValueError("not a subfield pair")
    traces = [sub.zero]
    for d in range(sup.m):
        t = field_trace(sup._elts[sup.p**d], sub.m)
        multiples = [sub.zero]
        for _ in range(sup.p - 1):
            multiples.append(multiples[-1] + t)
        traces = [s + c for c in multiples for s in traces]
    return [t.index for t in traces]


def trace_lifts(field: FiniteField) -> list[int]:
    """lift(Tr(x)) for every element in index order: trace_indices down to
    GF(p), where an element's index is its lift, held on the field."""
    if field._trace_lifts is None:
        field._trace_lifts = trace_indices(field_construct(field.p, 1), field)
    return field._trace_lifts


def trace_lift(x: FieldElement) -> int:
    """Integer lift of the absolute trace, read from trace_lifts."""
    return trace_lifts(x.field)[x.index]
