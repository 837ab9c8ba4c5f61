"""Field construction, enumeration order, arithmetic, trace, embeddings.

Oracles: the canonical modulus is recomputed here by brute force, with
irreducibility decided by exhaustive factor products rather than the
library's trial division; the arithmetic on exp, log and Zech tables is
compared with per-operation polynomial arithmetic in tests/oracles.py.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from superchar import gf
from superchar.nilpotent import NilMatrix, format_matrix, parse_matrix, positions
from superchar.partitions import format_colours, parse_colours
from superchar.gf import (
    FieldElement,
    FiniteField,
    embed_into,
    field_cap,
    field_construct,
    field_embed,
    field_trace,
    space_cap,
    trace_lift,
)


# ---------------------------------------------------------------- oracles

def _mul_polys(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def _monics(p, deg):
    for tail in itertools.product(range(p), repeat=deg):
        yield tail + (1,)


def _reducible_products(p, m):
    # every monic of degree m that splits as a product of two monic
    # factors of lower degree
    out = set()
    for da in range(1, m):
        db = m - da
        if db < da:
            break
        for fa in _monics(p, da):
            for fb in _monics(p, db):
                out.add(_mul_polys(fa, fb, p))
    return out

def _smallest_irreducible_oracle(p, m):
    if m == 1:
        return (0, 1)
    bad = _reducible_products(p, m)
    for cand in _monics(p, m):
        if cand not in bad:
            return cand
    raise AssertionError("no irreducible found")


FROZEN_MODULI = {
    (2, 1): (0, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 0, 1, 1),
    (2, 4): (1, 0, 0, 1, 1),
    (3, 1): (0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 0, 2, 1),
    (5, 1): (0, 1),
    (5, 2): (1, 1, 1),
}


def test_frozen_moduli_match_oracle():
    for (p, m), frozen in FROZEN_MODULI.items():
        assert _smallest_irreducible_oracle(p, m) == frozen
        assert field_construct(p, m).modulus == frozen


def test_modulus_is_minimal_in_low_degree_first_order():
    # any monic earlier in the constant-term-first order must be reducible
    for p, m in [(2, 2), (2, 3), (3, 2), (5, 2)]:
        f = field_construct(p, m)
        bad = _reducible_products(p, m)
        for cand in _monics(p, m):
            if cand == f.modulus:
                break
            assert cand in bad


# ----------------------------------------------------------- construction

def test_prime_field_arithmetic_is_mod_p():
    f = field_construct(7, 1)
    a = f.from_int(5)
    b = f.from_int(4)
    assert (a + b).lift() == 2
    assert (a * b).lift() == 6
    assert (a - b).lift() == 1
    assert (a / b).lift() == 3  # 3*4 = 12 = 5 mod 7


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        field_construct(4, 1)
    with pytest.raises(ValueError):
        field_construct(2, 0)
    with pytest.raises(ValueError):
        field_construct(1, 3)


def test_field_cap_blocks_large_fields(monkeypatch):
    monkeypatch.delenv("SUPERCHAR_CAP", raising=False)
    assert field_cap() == 1 << 16
    assert space_cap() == 1 << 20
    with pytest.raises(ValueError):
        field_construct(2, 17)
    monkeypatch.setenv("SUPERCHAR_CAP", str(1 << 22))
    assert field_cap() == 1 << 22
    assert space_cap() == 1 << 22
    monkeypatch.setenv("SUPERCHAR_CAP", "16")
    # the env value only ever raises the cap
    assert field_cap() == 1 << 16
    for raw in ("", "abc", "1e6"):
        monkeypatch.setenv("SUPERCHAR_CAP", raw)
        for cap in (field_cap, space_cap):
            with pytest.raises(ValueError, match=f"^SUPERCHAR_CAP must be an integer, got {raw!r}$"):
                cap()


def test_cached_fields_are_checked_against_the_cap(monkeypatch):
    # GF(16) built under a raised cap is refused once the cap is lowered,
    # and a cached field once SUPERCHAR_CAP is unreadable
    monkeypatch.setattr(gf, "_FIELD_CAP", 8)
    monkeypatch.setenv("SUPERCHAR_CAP", "16")
    f16 = field_construct(2, 4)
    assert field_construct(2, 4) is f16
    monkeypatch.delenv("SUPERCHAR_CAP")
    with pytest.raises(ValueError, match="^field order 16 exceeds the enumeration cap 8 "):
        field_construct(2, 4)
    assert field_construct(2, 3).order == 8
    monkeypatch.setenv("SUPERCHAR_CAP", "")
    with pytest.raises(ValueError, match="^SUPERCHAR_CAP must be an integer"):
        field_construct(2, 3)


def test_enumeration_is_base_p_low_digit_first():
    f4 = field_construct(2, 2)
    assert [e.coeffs for e in f4.elements] == [(0, 0), (1, 0), (0, 1), (1, 1)]
    f9 = field_construct(3, 2)
    assert [e.coeffs for e in f9.elements][:4] == [
        (0, 0), (1, 0), (2, 0), (0, 1)]
    for f in (f4, f9):
        for i, e in enumerate(f.elements):
            assert e.index == i
            assert f.element_by_index(i) is e


def test_generator_and_zero_one():
    f8 = field_construct(2, 3)
    assert f8.zero.index == 0
    assert f8.one.index == 1
    assert f8.gen.coeffs == (0, 1, 0)
    f2 = field_construct(2, 1)
    assert f2.gen == f2.zero  # index p mod order wraps for prime fields


def test_multiplicative_group_order():
    for p, m in [(2, 2), (2, 3), (3, 2), (5, 1)]:
        f = field_construct(p, m)
        for x in f.nonzero():
            assert x ** (f.order - 1) == f.one
        # some element attains the full order (the group is cyclic)
        full = False
        for x in f.nonzero():
            k = 1
            y = x
            while y != f.one:
                y = y * x
                k += 1
            full = full or k == f.order - 1
        assert full


def test_division_and_pow_edge_cases():
    f9 = field_construct(3, 2)
    g = f9.gen
    assert g ** 0 == f9.one
    assert g ** -1 == f9.one / g
    assert g ** (f9.order - 1) == f9.one
    with pytest.raises(ZeroDivisionError):
        f9.one / f9.zero
    with pytest.raises(ZeroDivisionError):
        f9.zero ** -1
    assert f9.zero ** 0 == f9.one


def test_lift_only_on_prime_fields():
    f3 = field_construct(3, 1)
    assert [x.lift() for x in f3.elements] == [0, 1, 2]
    f4 = field_construct(2, 2)
    with pytest.raises(ValueError):
        f4.gen.lift()


def test_cross_field_operations_rejected():
    f2 = field_construct(2, 1)
    f3 = field_construct(3, 1)
    with pytest.raises(ValueError):
        f2.one + f3.one


# ------------------------------------------------- tables against oracle

# every non-prime field of order <= 256, and the prime fields up to 31
EXHAUSTIVE_FIELDS = (
    [(2, m) for m in range(2, 9)] + [(3, m) for m in range(2, 6)]
    + [(5, 2), (5, 3), (7, 2), (11, 2), (13, 2)]
    + [(p, 1) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)]
)


@pytest.mark.parametrize("p,m", EXHAUSTIVE_FIELDS)
def test_arithmetic_matches_polynomial_oracle(p, m):
    f = field_construct(p, m)
    elts = f.elements
    index = {x.coeffs: x.index for x in elts}
    # the oracle product table; x / y is checked through (x / y) * y = x
    prod = [[index[oracles.field_mul(f, x.coeffs, y.coeffs)] for y in elts]
            for x in elts]
    for x in elts:
        assert (-x).coeffs == oracles.field_neg(f, x.coeffs)
        if x:
            assert x.inverse().coeffs == oracles.field_inv(f, x.coeffs)
        for y in elts:
            assert (x + y).coeffs == oracles.field_add(f, x.coeffs, y.coeffs)
            assert (x - y).coeffs == oracles.field_add(
                f, x.coeffs, oracles.field_neg(f, y.coeffs))
            assert (x * y).index == prod[x.index][y.index]
            if y:
                assert prod[(x / y).index][y.index] == x.index


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(257, 1), (3, 10), (2, 16)]), st.data())
def test_large_field_arithmetic_matches_polynomial_oracle(config, data):
    f = field_construct(*config)
    idx = st.integers(min_value=0, max_value=f.order - 1)
    x = f.element_by_index(data.draw(idx))
    y = f.element_by_index(data.draw(idx))
    assert (x + y).coeffs == oracles.field_add(f, x.coeffs, y.coeffs)
    assert (-x).coeffs == oracles.field_neg(f, x.coeffs)
    assert (x - y).coeffs == oracles.field_add(
        f, x.coeffs, oracles.field_neg(f, y.coeffs))
    assert (x * y).coeffs == oracles.field_mul(f, x.coeffs, y.coeffs)
    if y:
        inv = oracles.field_inv(f, y.coeffs)
        assert y.inverse().coeffs == inv
        assert (x / y).coeffs == oracles.field_mul(f, x.coeffs, inv)


def test_primitive_element_is_chosen_apart_from_the_modulus():
    # x is not primitive modulo x^2 + 1 over GF(3), nor modulo the GF(256)
    # modulus x^8 + x^7 + x^5 + x^4 + 1; the tables use a generator g
    for p, m in [(3, 2), (2, 8)]:
        f = field_construct(p, m)
        g = f.element_by_index(f.exp[1])
        assert g != f.gen
        assert len({(g ** k).index for k in range(f.order - 1)}) == f.order - 1
        assert len({(f.gen ** k).index for k in range(f.order - 1)}) < f.order - 1
    assert field_construct(3, 2).modulus == (1, 0, 1)
    assert field_construct(2, 8).modulus == (1, 0, 0, 0, 1, 1, 0, 1, 1)


def test_construction_makes_linearly_many_polynomial_products(monkeypatch):
    # a count, not a timing: full operation tables take one product per
    # pair of elements, and a walk by polynomial products one per power of
    # g; the walk by lookup tables takes m, the rest go to choosing g
    calls = 0
    product = gf._poly_mul

    def counting(*args):
        nonlocal calls
        calls += 1
        return product(*args)

    monkeypatch.setattr(gf, "_poly_mul", counting)
    f = FiniteField(2, 8)
    assert calls < 4 * f.order
    assert max(len(f.exp), len(f.log), len(f.zech)) <= 3 * f.order
    calls = 0
    FiniteField(2, 16)
    assert calls <= 2_000


# ------------------------------------------------------------------ trace

def test_trace_frozen_values_gf4():
    f4 = field_construct(2, 2)
    w = f4.gen
    expected = {f4.zero: 0, f4.one: 0, w: 1, w + f4.one: 1}
    for x, t in expected.items():
        assert trace_lift(x) == t


def test_trace_is_additive_and_frobenius_invariant():
    for p, m in [(2, 3), (3, 2), (2, 4)]:
        f = field_construct(p, m)
        for x in f.elements:
            assert trace_lift(x ** p) == trace_lift(x)
            for y in f.elements:
                assert (trace_lift(x + y) - trace_lift(x) - trace_lift(y)) % p == 0


def test_trace_is_surjective_with_balanced_fibres():
    for p, m in [(2, 2), (2, 3), (3, 2), (5, 2)]:
        f = field_construct(p, m)
        fibres = {}
        for x in f.elements:
            fibres.setdefault(trace_lift(x), 0)
            fibres[trace_lift(x)] += 1
        assert sorted(fibres) == list(range(p))
        assert set(fibres.values()) == {p ** (m - 1)}


def test_trace_lift_is_the_absolute_trace():
    for p, m in [(2, 1), (2, 4), (3, 3), (5, 2), (2, 8)]:
        f = field_construct(p, m)
        assert [trace_lift(x) for x in f.elements] == [
            field_trace(x, 1).lift() for x in f.elements]


def test_trace_of_one_is_degree_mod_p():
    for p, m in [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)]:
        f = field_construct(p, m)
        assert trace_lift(f.one) == m % p


def test_intermediate_trace_lands_in_subfield():
    f16 = field_construct(2, 4)
    f4 = field_construct(2, 2)
    emb = field_embed(f4, f16)
    for x in f16.elements:
        t = field_trace(x, target_degree=2)
        assert t.field is f4
        # transitivity: abs trace factors through the relative trace
        assert trace_lift(t) == trace_lift(x)
    # relative trace restricted to the subfield is the trace of GF(4)/GF(2)
    # composed with... no: Tr_{16/4} on embedded x is x + x^4 = 2x = 0? char 2:
    # x in GF(4): x^4 = x, so Tr(x) = x + x^4 = 2x = 0.
    for y in f4.elements:
        assert field_trace(emb(y), target_degree=2) == f4.zero


# -------------------------------------------------------------- embeddings

def test_embedding_is_a_ring_morphism():
    f4 = field_construct(2, 2)
    f16 = field_construct(2, 4)
    emb = field_embed(f4, f16)
    imgs = [emb(x) for x in f4.elements]
    assert len(set(imgs)) == 4
    assert emb(f4.zero) == f16.zero
    assert emb(f4.one) == f16.one
    for x in f4.elements:
        for y in f4.elements:
            assert emb(x + y) == emb(x) + emb(y)
            assert emb(x * y) == emb(x) * emb(y)


def test_embedding_root_is_enumeration_smallest():
    f4 = field_construct(2, 2)
    f16 = field_construct(2, 4)
    emb = field_embed(f4, f16)
    c0, c1, c2 = f4.modulus
    roots = [z for z in f16.elements
             if z * z + f16.from_int(c1) * z + f16.from_int(c0) == f16.zero]
    assert roots
    assert emb.root == min(roots, key=lambda z: z.index)


def test_embedding_preimage_inverts():
    f3 = field_construct(3, 1)
    f27 = field_construct(3, 3)
    emb = field_embed(f3, f27)
    for x in f3.elements:
        assert emb.preimage(emb(x)) == x
    outside = next(z for z in f27.elements
                   if z not in {emb(x) for x in f3.elements})
    with pytest.raises(ValueError):
        emb.preimage(outside)


def test_embedding_refuses_an_element_of_another_field():
    f4, f8, f16 = (field_construct(2, m) for m in (2, 3, 4))
    emb = field_embed(f4, f16)
    with pytest.raises(ValueError, match=r"not in GF\(4\)"):
        emb(f8.gen)
    with pytest.raises(ValueError, match=r"not in GF\(16\)"):
        emb.preimage(f8.elements[1])
    with pytest.raises(ValueError, match=r"not in GF\(16\)"):
        emb.preimage(f4.gen)  # the subfield's own element, not its image


def test_self_embedding_is_identity():
    f8 = field_construct(2, 3)
    emb = field_embed(f8, f8)
    for x in f8.elements:
        assert emb(x) is x or emb(x) == x


def test_embedding_requires_subfield_relation():
    f4 = field_construct(2, 2)
    f8 = field_construct(2, 3)
    with pytest.raises(ValueError):
        field_embed(f4, f8)  # 2 does not divide 3
    with pytest.raises(ValueError):
        field_embed(f4, field_construct(3, 2))


def test_embed_into_fixes_prime_subfield():
    f2 = field_construct(2, 1)
    f16 = field_construct(2, 4)
    assert embed_into(f2.one, f16) == f16.one
    assert embed_into(f2.zero, f16) == f16.zero


def test_tower_embeddings_commute_on_gf64():
    # GF(2) -> GF(4) -> GF(64) agrees with GF(2) -> GF(64); likewise any
    # element of GF(4) reaches GF(64) the same way via GF(4) directly.
    f4 = field_construct(2, 2)
    f64 = field_construct(2, 6)
    e46 = field_embed(f4, f64)
    for x in f4.elements:
        y = e46(x)
        assert y ** 4 == y  # image sits in the unique GF(4) inside GF(64)


# ---------------------------------------------------------- serialization

def test_field_json_round_trip():
    for p, m in [(2, 1), (2, 2), (3, 2), (5, 1)]:
        f = field_construct(p, m)
        blob = f.to_json()
        g = FiniteField.from_json(blob)
        assert g == f and g.modulus == f.modulus


def test_field_json_rejects_foreign_modulus():
    f9 = field_construct(3, 2)
    blob = f9.to_json()
    blob["modulus"] = [2, 0, 1]  # irreducible but not the canonical choice
    with pytest.raises(ValueError):
        FiniteField.from_json(blob)


def test_element_json_round_trip():
    f4 = field_construct(2, 2)
    for x in f4.elements:
        blob = x.to_json()
        assert f4.element(tuple(blob)) == x


# ------------------------------------------------------ axiom sweep

_CONFIGS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_CONFIGS), st.data())
def test_field_axioms(config, data):
    f = field_construct(*config)
    idx = st.integers(min_value=0, max_value=f.order - 1)
    a = f.element_by_index(data.draw(idx))
    b = f.element_by_index(data.draw(idx))
    c = f.element_by_index(data.draw(idx))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + f.zero == a
    assert a * f.one == a
    assert a + (-a) == f.zero
    if b != f.zero:
        assert (a / b) * b == a


# ------------------------------------------------------ value text


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_format_value_round_trips_every_element(p, m):
    f = field_construct(p, m)
    for v in f.elements:
        text = gf.format_value(v)
        assert f.from_value(gf.parse_value(text, text, "bad")) == v
        assert text.startswith("[") == (m > 1)


@pytest.mark.parametrize("p,m", [(3, 1), (2, 2), (3, 2)])
def test_matrix_and_colour_writers_round_trip(p, m):
    # both writers spell each value with format_value, and each parser
    # reads it back
    f = field_construct(p, m)
    rng = random.Random(p * 10 + m)
    for n in (2, 3, 4):
        for _ in range(5):
            entries = {ij: rng.choice(f.elements[1:]) for ij in positions(n)
                       if rng.random() < 0.6}
            a = NilMatrix(n, f, entries)
            assert parse_matrix(format_matrix(a), n, f) == a
            assert parse_colours(format_colours(entries), f) == entries


_VALUE_TEXTS = ["0", "1", "2", "7", "-1", " 2 ", "[0]", "[1]", "[0,1]", "[1,1]",
                "[2,3]", "[-1, 4]", "[1", "x", "[]", "[1,,2]", "[x]", "1]",
                "[1,1,1]", "[0,1"]


@pytest.mark.parametrize("p,m", [(3, 1), (2, 2)])
def test_matrix_and_colour_parsers_read_a_value_alike(p, m):
    # one reader of the value grammar: the same element, or the same error
    # but for each parser's own words and part
    f = field_construct(p, m)

    def outcome(parse, part, bad):
        try:
            return parse(part)
        except ValueError as exc:
            return str(exc).replace(repr(part), "PART").replace(bad, "BAD")

    for text in _VALUE_TEXTS:
        entry = outcome(lambda t: parse_matrix(t, 3, f).entries.get((1, 2), f.zero),
                        f"a12={text}", "bad value in assignment")
        colour = outcome(lambda t: parse_colours(t, f)[1, 2],
                         f"1,2={text}", "bad colour assignment")
        assert entry == colour, text
        if isinstance(entry, FieldElement):
            value = text.strip()
            if value.startswith("["):
                ints = [int(c) for c in value[1:-1].split(",")]
                assert entry == f.element([c % p for c in ints]), text
            else:
                assert entry == f.from_int(int(value)), text
    # the colour parser's own order: an open list, then a bad arc, then
    # the element's errors
    for part, message in [("1,x=[1", "unterminated coefficient list in PART"),
                          ("1,x=[1,1,1]", "BAD PART")]:
        assert outcome(lambda t: parse_colours(t, f), part,
                       "bad colour assignment") == message
