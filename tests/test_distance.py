"""Brute-force minimum distance."""

from itertools import combinations

import numpy as np
import pytest

from gbx.code import build_gb, dimension_gcd
from gbx.distance import BudgetExceeded, _sector_min, min_distance
from gbx.gf2mat import rank_gf2, row_reduce
from gbx.gf2poly import RingPoly, parse_ring_poly
from gbx.scalable import TripleBlockPlan, build_triple_family
from gbx.search import catalog


def distance_oracle(code):
    """Independent check: enumerate error weights upward and test for a
    kernel vector outside the stabilizer rowspace in either sector."""
    n = code.n

    def sector_min(kernel_checks, stab_rows):
        R, piv = row_reduce(stab_rows)
        R = R[: len(piv)]
        for w in range(1, n + 1):
            for support in combinations(range(n), w):
                v = np.zeros(n, dtype=np.uint8)
                v[list(support)] = 1
                if ((kernel_checks @ v) % 2).any():
                    continue
                u = v.copy()
                for i, c in enumerate(piv):
                    if u[c]:
                        u ^= R[i]
                if u.any():
                    return w
        return None

    dx = sector_min(code.hz, code.hx)
    dz = sector_min(code.hx, code.hz)
    return min(d for d in (dx, dz) if d is not None)


def test_known_distance():
    code = build_gb(parse_ring_poly("1+x^4", 5),
                    parse_ring_poly("1+x+x^2+x^4", 5))
    res = min_distance(code)
    assert res.d == 3
    assert res.exact
    # witness is a genuine X-type logical operator of the claimed weight
    assert int(res.witness.sum()) == 3
    assert not ((code.hz @ res.witness) % 2).any()
    assert rank_gf2(np.vstack([code.hx, res.witness[None, :]])) \
        == rank_gf2(code.hx) + 1


def reflect_swap(w, ell):
    """pi(u, v) = (P v, P u), P the ring reflection i -> -i."""
    P = -np.arange(ell) % ell
    return np.concatenate([w[ell:][P], w[:ell][P]])


def test_z_sector_mirrors_x_sector():
    # every pair with k > 0 in rings up to l = 6: the Z walk that
    # min_distance skips gives the same d and kernel dimension, and pi
    # maps the X-type witness to a Z-type logical of the same weight
    pairs = 0
    for ell in range(1, 7):
        for am in range(1, 1 << ell):
            for bm in range(1, 1 << ell):
                a, b = RingPoly(am, ell), RingPoly(bm, ell)
                if dimension_gcd(a, b) == 0:
                    continue
                pairs += 1
                code = build_gb(a, b, with_logicals=False)
                res = min_distance(code)
                dz, _, dim_z, _ = _sector_min(code.hx, code.hz, None)
                assert (res.d, res.exhausted_dim) == (dz, dim_z), (ell, am, bm)
                z = reflect_swap(res.witness, ell)
                assert int(z.sum()) == res.d
                assert not ((code.hx @ z) % 2).any()
                assert rank_gf2(np.vstack([code.hz, z])) \
                    == rank_gf2(code.hz) + 1
    assert pairs == 1423


def test_matches_oracle_on_random_small_codes():
    rng = np.random.default_rng(61)
    found = 0
    while found < 12:
        ell = int(rng.integers(2, 6))
        a = RingPoly.from_mask(int(rng.integers(1, 1 << ell)), ell)
        b = RingPoly.from_mask(int(rng.integers(1, 1 << ell)), ell)
        code = build_gb(a, b, with_logicals=False)
        if code.k == 0:
            continue
        found += 1
        assert min_distance(code).d == distance_oracle(code), (str(a), str(b))


def test_zero_k_raises():
    code = build_gb(parse_ring_poly("1", 3), parse_ring_poly("x", 3),
                    with_logicals=False)
    assert code.k == 0
    with pytest.raises(ValueError):
        min_distance(code)


def test_cap_gives_early_upper_bound():
    code = build_gb(parse_ring_poly("1+x^4", 5),
                    parse_ring_poly("1+x+x^2+x^4", 5))
    res = min_distance(code, cap=5)
    assert res.d <= 5 and not res.exact
    # a cap below the true distance cannot trigger the early exit
    res = min_distance(code, cap=3)
    assert res.d == 3 and res.exact


def test_budget_guard():
    base = build_gb(parse_ring_poly("1+x^4", 5),
                    parse_ring_poly("1+x+x^2+x^4", 5))
    code = build_triple_family(TripleBlockPlan(base, 3))[2]
    assert (code.n, code.n - rank_gf2(code.hz)) == (90, 60)  # kernel dim 60
    with pytest.raises(BudgetExceeded):
        min_distance(code)


def test_catalog_distances_are_exact():
    codes = catalog()
    assert [c.d for c in codes] == [3, 3, 3, 3, 3, 4]
    for code in codes:
        res = min_distance(code)
        assert res.exact and res.d == code.d, code.label
