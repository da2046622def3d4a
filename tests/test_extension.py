"""Extended families, the closed-form dimension, and sparsity profiles."""

from fractions import Fraction

import numpy as np
import pytest

from gbx.code import build_gb
from gbx.extension import (ExtensionPlan, extend_family, identity_plan,
                           plan_from_dict, plan_to_dict, sparsity_profile)
from gbx.gf2mat import rank_gf2
from gbx.gf2poly import RingPoly, f2_gcd, parse_ring_poly
from oracles import (dim_exact_coprime, dimension_rank, shor_check_matrices,
                     shor_density)

import json


def base_pair():
    return (parse_ring_poly("1+x^4", 5), parse_ring_poly("1+x+x^2+x^4", 5))


def test_plan_validation():
    a, b = base_pair()
    with pytest.raises(ValueError):  # kappa_1 != 1
        ExtensionPlan(a, b, (2, 3), (1, 1))
    with pytest.raises(ValueError):  # p^(1) != 1
        ExtensionPlan(a, b, (1, 2), (0b11, 1))
    with pytest.raises(ValueError):  # not strictly increasing
        ExtensionPlan(a, b, (1, 1), (1, 1))
    with pytest.raises(ValueError):  # degree bound: deg p^(2) <= (2-1)*5
        ExtensionPlan(a, b, (1, 2), (1, 1 << 6))
    with pytest.raises(ValueError):  # zero multiplier
        ExtensionPlan(a, b, (1, 2), (1, 0))
    with pytest.raises(ValueError, match="different rings"):
        ExtensionPlan(a, RingPoly(b.mask, 6), (1, 2), (1, 1))
    with pytest.raises(ValueError, match="equal nonzero length"):
        ExtensionPlan(a, b, (1, 2), (1,))
    with pytest.raises(ValueError, match="positive integers"):
        ExtensionPlan(a, b, (1, 2.5), (1, 1))
    # degree exactly at the bound is allowed
    ExtensionPlan(a, b, (1, 2), (1, 1 << 5))


def test_member_one_is_base():
    a, b = base_pair()
    fam = extend_family(identity_plan(a, b, 3))
    base = build_gb(a, b)
    assert np.array_equal(fam[0].hx, base.hx)
    assert np.array_equal(fam[0].hz, base.hz)
    assert [c.n for c in fam] == [10, 20, 30]


def test_dimension_lower_bound_randomized():
    # random plans over small rings never drop below the base dimension
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 60:
        ell = int(rng.integers(2, 8))
        a = RingPoly.from_mask(int(rng.integers(1, 1 << ell)), ell)
        b = RingPoly.from_mask(int(rng.integers(1, 1 << ell)), ell)
        M = int(rng.integers(2, 5))
        kappa = [1]
        while len(kappa) < M:
            kappa.append(kappa[-1] + int(rng.integers(1, 3)))
        p_seq = [1]
        for m in range(1, M):
            bound = (kappa[m] - 1) * ell
            p_seq.append(int(rng.integers(1, 1 << (bound + 1))) if bound else 1)
        plan = ExtensionPlan(a, b, tuple(kappa), tuple(p_seq))
        fam = extend_family(plan, with_logicals=False)
        witness = next((c for c in fam if c.k < fam[0].k), None)
        assert witness is None, (str(a), str(b), kappa, p_seq, witness.label)
        checked += 1


def test_closed_form_dimension_odd_kappa():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 40:
        ell = int(rng.integers(2, 7))
        a = RingPoly.from_mask(int(rng.integers(1, 1 << ell)), ell)
        b = RingPoly.from_mask(int(rng.integers(1, 1 << ell)), ell)
        kappa = 2 * int(rng.integers(1, 4)) + 1  # odd
        bound = (kappa - 1) * ell
        p = int(rng.integers(1, 1 << (bound + 1)))
        if f2_gcd(p, f2_gcd(a.mask, b.mask)) != 1:
            continue
        plan = ExtensionPlan(a, b, (1, kappa), (1, p))
        k = dim_exact_coprime(plan, 2)
        member = extend_family(plan, with_logicals=False)[1]
        assert k == member.k == dimension_rank(member)
        checked += 1


def test_sparsity_identity_plan_is_constant_weight():
    a, b = base_pair()
    fam = extend_family(identity_plan(a, b, 4), with_logicals=False)
    prof = sparsity_profile(fam)
    assert prof.classification == "t-qldpc"
    assert prof.t == 6
    assert prof.q_r == [Fraction(6, 10 * m) for m in range(1, 5)]


def test_sparsity_exp_decay_detection():
    # doubling weights against tripling sizes gives a constant 2/3 ratio
    from gbx.scalable import TripleBlockPlan, build_triple_family
    a, b = base_pair()
    base = build_gb(a, b)
    fam = build_triple_family(TripleBlockPlan(base, 3))
    prof = sparsity_profile(fam)
    assert prof.classification == "exp-decay"
    assert prof.alpha == Fraction(2, 3)


def test_sparsity_other_and_zero_generator():
    # p^(2) = 1 + x raises the weights of member 2 only: neither constant
    # weights nor a constant density ratio
    a, b = base_pair()
    fam = extend_family(ExtensionPlan(a, b, (1, 2, 3), (1, 0b11, 1)),
                        with_logicals=False)
    prof = sparsity_profile(fam)
    assert (prof.classification, prof.t, prof.alpha) == ("other", None, None)
    assert prof.q_r == [Fraction(6, 10), Fraction(8, 20), Fraction(6, 30)]
    # a zero generator leaves all-zero columns in H_X
    zero = build_gb(RingPoly(0, 5), b, with_logicals=False)
    with pytest.raises(ValueError, match="^parity-check matrix has an "
                       "all-zero row or column$"):
        sparsity_profile([zero])


def test_shor_sparsity_values():
    assert shor_density(3) == (Fraction(2, 3), Fraction(4, 9))
    for d in (3, 5, 7, 9):
        qr, qc = shor_density(d)
        assert qr == Fraction(2, d)
        assert qc == Fraction(4, d * d)


def test_shor_matrices_realize_the_density():
    for d in (3, 5, 7):
        hx, hz = shor_check_matrices(d)
        n = d * d
        assert hx.shape == (d - 1, n)
        assert hz.shape == (d * (d - 1), n)
        # stabilizers commute
        assert not ((hx @ hz.T) % 2).any()
        # k = 1
        assert n - rank_gf2(hx) - rank_gf2(hz) == 1
        # max row weight 2d and max per-qubit participation 4 match the
        # quoted densities (2d/d^2, 4/d^2)
        qr, qc = shor_density(d)
        assert qr == Fraction(2, d)
        assert qc * d == Fraction(4, d)
        assert qc * n == 4


def test_plan_json_roundtrip():
    a, b = base_pair()
    plan = ExtensionPlan(a, b, (1, 3, 5), (1, 0b11, 0b1001))
    doc = plan_to_dict(plan)
    assert doc["M"] == 3
    back = plan_from_dict(json.loads(json.dumps(doc)))
    assert back.kappa == plan.kappa
    assert back.p_seq == plan.p_seq
    assert back.base_a == a and back.base_b == b
