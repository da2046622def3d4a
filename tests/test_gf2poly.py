"""Polynomial arithmetic over F2[x] and the quotient rings."""

import random

import pytest

from gbx.gf2poly import (NEG_INF, RingPoly, f2_degree, f2_gcd, f2_mod,
                         f2_mul, f2_weight, format_poly, parse_poly,
                         parse_ring_poly, ring_reduce, x_pow_minus_one)
from oracles import geometric_sum


def poly_to_coeff_dict(mask):
    return {i for i in range(mask.bit_length()) if (mask >> i) & 1}


def schoolbook_mul(u, v):
    """Independent convolution oracle for the carry-less product."""
    out = 0
    for i in poly_to_coeff_dict(u):
        for j in poly_to_coeff_dict(v):
            out ^= 1 << (i + j)
    return out


def quotient(u, v):
    """Exact quotient of u by a divisor v, by long division."""
    q = 0
    while u:
        shift = u.bit_length() - v.bit_length()
        q ^= 1 << shift
        u ^= v << shift
    return q


def test_degree_and_weight():
    assert f2_degree(0) == NEG_INF
    assert f2_degree(1) == 0
    assert f2_degree(0b10001) == 4
    assert f2_weight(0) == 0
    assert f2_weight(0b10011) == 3


def test_mul_matches_schoolbook():
    rng = random.Random(11)
    for _ in range(300):
        u = rng.getrandbits(12)
        v = rng.getrandbits(12)
        assert f2_mul(u, v) == schoolbook_mul(u, v)


def test_divmod_roundtrip():
    # u = q v + r with deg r < deg v leaves the remainder r
    rng = random.Random(12)
    for _ in range(300):
        v = rng.getrandbits(9) | 1
        q = rng.getrandbits(8)
        r = rng.getrandbits(f2_degree(v))
        u = f2_mul(q, v) ^ r
        assert f2_mod(u, v) == r
        assert f2_degree(r) < f2_degree(v)
        assert quotient(u ^ r, v) == q


def test_divmod_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        f2_mod(0b101, 0)


def test_gcd_properties():
    rng = random.Random(13)
    for _ in range(200):
        u = rng.getrandbits(12)
        v = rng.getrandbits(12)
        if u == 0 and v == 0:
            continue
        g = f2_gcd(u, v)
        if u:
            assert f2_mod(u, g) == 0
        if v:
            assert f2_mod(v, g) == 0
        # g is the largest: gcd(u/g, v/g) == 1
        if u and v:
            uq = quotient(u, g)
            vq = quotient(v, g)
            assert f2_gcd(uq, vq) == 1


def test_gcd_specific_values():
    # 1 + x and 1 + x^5 share the root x = 1: gcd is 1 + x
    assert f2_gcd(0b11, 0b100001) == 0b11
    # x^2 + x + 1 is irreducible and does not divide x^3 + x
    assert f2_gcd(0b111, 0b1010) == 1


def test_gcd_all_zero_raises():
    with pytest.raises(ValueError):
        f2_gcd(0, 0)


def test_modulus_and_geometric_sum():
    assert x_pow_minus_one(5) == 0b100001
    assert geometric_sum(5, 1) == 1
    assert geometric_sum(2, 3) == 0b10101
    # (x^l - 1) * sum x^{il} == x^{kl} - 1
    assert f2_mul(x_pow_minus_one(3), geometric_sum(3, 4)) == x_pow_minus_one(12)


def test_ring_reduce_folds_exponents():
    # x^7 mod (x^5 - 1) = x^2
    assert ring_reduce(1 << 7, 5) == 1 << 2
    assert ring_reduce(0b100001, 5) == 0  # x^5 + 1 == 0 in the ring
    rng = random.Random(14)
    for _ in range(200):
        mask = rng.getrandbits(20)
        ell = rng.randrange(1, 9)
        assert ring_reduce(mask, ell) == f2_mod(mask, x_pow_minus_one(ell))


def test_ring_reduce_rejects_empty_ring():
    # folding by x^0 - 1 would shift by zero and never empty the mask
    for ell in (0, -1):
        with pytest.raises(ValueError, match="ring dimension must be positive"):
            ring_reduce(0b101, ell)
        with pytest.raises(ValueError, match="ring dimension must be positive"):
            parse_ring_poly("1", ell)


def test_parse_ring_poly_folds_exponents_while_parsing():
    # exponents fold as they are read: no 10^7-bit mask is built
    e = 10 ** 7
    for ell in (1, 5, 7, 1000):
        assert parse_ring_poly(f"x^{e}", ell) == parse_ring_poly(
            f"x^{e % ell}", ell)
        assert parse_ring_poly(f"1+x^{e}+x^{e + ell}", ell) == RingPoly(1, ell)
    assert parse_ring_poly("10001", 3) == RingPoly(0b11, 3)
    assert parse_ring_poly("x+x^4", 3) == RingPoly(0, 3)


def test_ringpoly_construction_and_views():
    p = RingPoly.from_mask(0b10011, 5)
    assert [(p.mask >> i) & 1 for i in range(5)] == [1, 1, 0, 0, 1]
    assert p.mask == 0b10011
    assert f2_degree(p.mask) == 4
    assert f2_weight(p.mask) == 3
    assert str(p) == "1+x+x^4"
    assert RingPoly(0, 4).mask == 0
    assert RingPoly(1, 4).mask == 1


def test_ringpoly_validation():
    with pytest.raises(ValueError):
        RingPoly.from_mask(0b100000, 5)  # does not fit
    with pytest.raises(ValueError):
        RingPoly(-1, 2)
    with pytest.raises(ValueError):
        RingPoly(0b100, 2)
    with pytest.raises(ValueError):
        RingPoly(0, 0)


def test_parse_poly_monomial_and_bitstring():
    assert parse_poly("1+x^4") == 0b10001
    assert parse_poly("1 + x + x^2") == 0b111
    assert parse_poly("x") == 0b10
    assert parse_poly("0") == 0
    assert parse_poly("10001") == 0b10001
    assert parse_poly("11001") == 0b10011
    with pytest.raises(ValueError):
        parse_poly("x^-1")
    with pytest.raises(ValueError):
        parse_poly("y+1")
    with pytest.raises(ValueError):
        parse_poly("")


def test_format_poly_roundtrip():
    rng = random.Random(15)
    assert format_poly(0) == "0"
    assert format_poly(0b10011) == "1+x+x^4"
    for _ in range(200):
        mask = rng.getrandbits(14)
        assert parse_poly(format_poly(mask)) == mask
