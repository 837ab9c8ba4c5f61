"""Strictly upper-triangular matrices and the group 1 + A.

An element 1 + a is held by its body a.  Oracle: dense (n x n)
list-of-list arithmetic over the field, with the unit diagonal written out
explicitly, so the group law on bodies (oracles.group_mul) and group_inv
are checked against plain matrix multiplication rather than the
body-level shortcut.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import elementary_generators, group_mul
from superchar.gf import field_construct
from superchar.nilpotent import (
    NilMatrix,
    format_matrix,
    group_inv,
    parse_matrix,
    position_rank,
    positions,
)


# ---------------------------------------------------------------- oracles

def _to_dense(body: NilMatrix):
    """The matrix 1 + body, unit diagonal written out."""
    n, f = body.n, body.field
    rows = [[f.one if r == c else f.zero for c in range(n)] for r in range(n)]
    for (i, j), v in body.entries.items():
        rows[i - 1][j - 1] = v
    return rows


def _dense_mul(a, b, f):
    n = len(a)
    out = [[f.zero] * n for _ in range(n)]
    for r in range(n):
        for c in range(n):
            acc = f.zero
            for k in range(n):
                acc = acc + a[r][k] * b[k][c]
            out[r][c] = acc
    return out


def _from_dense(rows, f):
    n = len(rows)
    entries = {}
    for r in range(n):
        assert rows[r][r] == f.one
        for c in range(r):
            assert rows[r][c] == f.zero
        for c in range(r + 1, n):
            if rows[r][c] != f.zero:
                entries[(r + 1, c + 1)] = rows[r][c]
    return NilMatrix(n, f, entries)


def _random_element(n, f, rng):
    entries = {}
    for pos in positions(n):
        v = f.element_by_index(rng.randrange(f.order))
        if v != f.zero:
            entries[pos] = v
    return NilMatrix(n, f, entries)


# ----------------------------------------------------------------- basics

def test_positions_row_major():
    assert positions(3) == ((1, 2), (1, 3), (2, 3))
    assert positions(4) == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    assert position_rank(3) == {(1, 2): 0, (1, 3): 1, (2, 3): 2}
    assert positions(1) == ()


def test_nilmatrix_drops_zero_entries_and_validates():
    f = field_construct(3, 1)
    a = NilMatrix(3, f, {(1, 2): f.zero, (1, 3): f.one})
    assert (1, 2) not in a.entries and a.entry(1, 2) == f.zero
    assert a.entry(1, 3) == f.one
    with pytest.raises(ValueError):
        NilMatrix(3, f, {(2, 2): f.one})
    with pytest.raises(ValueError):
        NilMatrix(3, f, {(3, 1): f.one})


def test_algebra_product_shifts_support():
    f = field_construct(2, 1)
    e12 = NilMatrix.single(3, f, 1, 2, f.one)
    e23 = NilMatrix.single(3, f, 2, 3, f.one)
    e13 = NilMatrix.single(3, f, 1, 3, f.one)
    assert e12 @ e23 == e13
    assert e23 @ e12 == NilMatrix.zero(3, f)
    assert e12 @ e12 == NilMatrix.zero(3, f)


def test_nilpotency_degree():
    rng = random.Random(5)
    for n, q in [(3, 2), (4, 3), (5, 2)]:
        f = field_construct(q, 1)
        for _ in range(20):
            a = _random_element(n, f, rng)
            power = a
            for _ in range(n - 1):
                power = power @ a
            assert power.is_zero()


# -------------------------------------------------------------- group law

def test_group_mul_worked_examples():
    f = field_construct(2, 1)
    one = f.one
    x = NilMatrix.single(3, f, 1, 2, one)
    y = NilMatrix.single(3, f, 2, 3, one)
    xy = group_mul(x, y)
    assert xy.entries == {(1, 2): one, (2, 3): one, (1, 3): one}
    yx = group_mul(y, x)
    assert yx.entries == {(1, 2): one, (2, 3): one}
    assert group_mul(x, x) == NilMatrix.zero(3, f)  # char 2 involution


def test_group_inverse_series():
    f = field_construct(3, 1)
    one = f.one
    g = NilMatrix(3, f, {(1, 2): one, (2, 3): one})
    # body of the inverse is -g + g^2 here: g^2 = e13, g^3 = 0
    expected = {(1, 2): -one, (2, 3): -one, (1, 3): one}
    assert group_inv(g).entries == expected
    assert group_mul(g, group_inv(g)) == NilMatrix.zero(3, f)
    assert group_mul(group_inv(g), g) == NilMatrix.zero(3, f)


def test_group_mul_matches_dense_oracle():
    rng = random.Random(11)
    for n, p, m in [(3, 2, 1), (4, 3, 1), (4, 2, 2), (5, 2, 1)]:
        f = field_construct(p, m)
        for _ in range(40):
            x = _random_element(n, f, rng)
            y = _random_element(n, f, rng)
            direct = group_mul(x, y)
            dense = _from_dense(_dense_mul(_to_dense(x), _to_dense(y), f), f)
            assert direct == dense
            assert group_mul(group_inv(x), x) == NilMatrix.zero(n, f)


def test_group_associativity_random():
    rng = random.Random(23)
    f = field_construct(2, 2)
    for _ in range(60):
        x, y, z = (_random_element(4, f, rng) for _ in range(3))
        assert group_mul(group_mul(x, y), z) == group_mul(x, group_mul(y, z))


def test_generators_generate_whole_group():
    for n, q in [(2, 2), (3, 2), (3, 3), (4, 2)]:
        f = field_construct(q, 1)
        gens = elementary_generators(n, f)
        assert len(gens) == len(positions(n)) * (q - 1)
        seen = {NilMatrix.zero(n, f)}
        frontier = [NilMatrix.zero(n, f)]
        while frontier:
            nxt = []
            for g in frontier:
                for s in gens:
                    h = group_mul(g, s)
                    if h not in seen:
                        seen.add(h)
                        nxt.append(h)
            frontier = nxt
        assert len(seen) == q ** len(positions(n))


def test_generator_order():
    f = field_construct(3, 1)
    gens = elementary_generators(3, f)
    tags = [(next(iter(g.entries)), next(iter(g.entries.values())).index)
            for g in gens]
    assert tags == [((1, 2), 1), ((1, 2), 2), ((1, 3), 1), ((1, 3), 2),
                    ((2, 3), 1), ((2, 3), 2)]


# ------------------------------------------------------------------ text io

def test_format_parse_round_trip_prime_field():
    f = field_construct(5, 1)
    a = NilMatrix(4, f, {(1, 2): f.from_int(3), (2, 4): f.from_int(1)})
    text = format_matrix(a)
    assert text == "a12=3,a24=1"
    assert parse_matrix(text, 4, f) == a
    assert format_matrix(NilMatrix.zero(3, f)) == ""
    assert parse_matrix("", 3, f) == NilMatrix.zero(3, f)


def test_format_parse_round_trip_extension_field():
    f4 = field_construct(2, 2)
    w = f4.gen
    a = NilMatrix(3, f4, {(1, 3): w, (2, 3): w + f4.one})
    text = format_matrix(a)
    assert text == "a13=[0,1],a23=[1,1]"
    assert parse_matrix(text, 3, f4) == a


def test_parse_matrix_rejects_bad_input():
    f = field_construct(2, 1)
    with pytest.raises(ValueError):
        parse_matrix("a21=1", 3, f)  # lower triangle
    with pytest.raises(ValueError):
        parse_matrix("a12=1,a12=1", 3, f)  # duplicate
    with pytest.raises(ValueError):
        parse_matrix("a14=1", 3, f)  # out of range
    with pytest.raises(ValueError):
        parse_matrix("a12", 3, f)  # no value


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(3, 2, 1), (3, 3, 1), (4, 2, 1), (3, 2, 2)]), st.data())
def test_body_identities(config, data):
    n, p, m = config
    f = field_construct(p, m)
    idx = st.integers(min_value=0, max_value=f.order ** len(positions(n)) - 1)

    def draw_matrix():
        k = data.draw(idx)
        digits = []
        for _ in positions(n):
            digits.append(k % f.order)
            k //= f.order
        return NilMatrix.from_dense(n, f, digits)

    a, b, c = draw_matrix(), draw_matrix(), draw_matrix()
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a - a == NilMatrix.zero(n, f)
    assert (a @ b) @ c == a @ (b @ c)
    assert a @ (b + c) == a @ b + a @ c
    # the inverse of 1 + a has body group_inv(a), on either side
    assert group_mul(a, group_inv(a)) == NilMatrix.zero(n, f)
    assert group_mul(group_inv(a), a) == NilMatrix.zero(n, f)
