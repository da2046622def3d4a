"""Acceptance suite: one test per published guarantee, one verdict line each.

Each test prints "[PASS/FAIL] criterion N: ..." so the verdicts survive in
captured output; the assert carries the same message.
"""

import math

import numpy as np
import pytest

import gbx
from gbx.gf2poly import RingPoly
from oracles import (dim_exact_coprime, dimension_rank, max_row_weight,
                     shor_density)


def verdict(num: int, ok: bool, text: str):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}"
    print(line)
    assert ok, line


def build_10_2_3():
    return gbx.build_gb(gbx.parse_ring_poly("1+x^4", 5),
                        gbx.parse_ring_poly("1+x+x^2+x^4", 5),
                        label="[[10,2,3]]")


def test_criterion_01_dimension_oracle_equivalence():
    mismatches = 0
    pairs = 0
    for ell in range(2, 8):
        for am in range(1, 1 << ell):
            for bm in range(1, 1 << ell):
                a = RingPoly.from_mask(am, ell)
                b = RingPoly.from_mask(bm, ell)
                code = gbx.build_gb(a, b, with_logicals=False)
                pairs += 1
                if gbx.dimension_gcd(a, b) != dimension_rank(code):
                    mismatches += 1
    verdict(1, mismatches == 0,
            f"gcd-degree dimension == rank dimension on all {pairs} "
            f"nonzero pairs, ring sizes 2..7 ({mismatches} mismatches)")


def test_criterion_02_10_2_3_reproduction():
    code = build_10_2_3()
    d = gbx.min_distance(code).d
    w_r = max_row_weight(code)
    ok = code.n == 10 and code.k == 2 and d == 3 and w_r == 6
    verdict(2, ok, f"a=1+x^4, b=1+x+x^2+x^4 at l=5 gives "
                   f"n={code.n}, k={code.k}, d={d}, w_r={w_r} "
                   "(expected 10, 2, 3, 6)")


def test_criterion_03_ring_size_counterexample():
    k7 = gbx.dimension_gcd(gbx.parse_ring_poly("1+x+x^3", 7),
                           gbx.parse_ring_poly("1+x^2+x^3+x^4", 7))
    k8 = gbx.dimension_gcd(gbx.parse_ring_poly("1+x+x^3", 8),
                           gbx.parse_ring_poly("1+x^2+x^3+x^4", 8))
    verdict(3, k7 == 6 and k8 == 0,
            f"(1+x+x^3, 1+x^2+x^3+x^4) gives k={k7} at l=7 and k={k8} "
            "at l=8 (expected 6 and 0)")


def test_criterion_04_catalog():
    codes = gbx.catalog()
    ks = [c.k for c in codes]
    d5 = gbx.min_distance(codes[0]).d
    d6 = gbx.min_distance(codes[1]).d
    ok = len(codes) == 6 and ks == [2] * 6 and d5 == 3 and d6 == 3
    verdict(4, ok, f"six catalog codes have k={ks} (expected all 2); "
                   f"l=5/l=6 distances {d5}/{d6} (expected 3/3)")


def test_criterion_05_dimension_lower_bound_200_plans():
    rng = np.random.default_rng(2025)
    violations = 0
    checked = 0
    while checked < 200:
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
        plan = gbx.ExtensionPlan(a, b, tuple(kappa), tuple(p_seq))
        fam = gbx.extend_family(plan, with_logicals=False)
        violations += any(c.k < fam[0].k for c in fam)
        checked += 1
    verdict(5, violations == 0,
            f"200 randomized extension plans (l <= 7, M <= 4): "
            f"{violations} violations of k_m >= k_1 (expected 0)")


def test_criterion_06_closed_form_dimension_100_plans():
    # the closed formula's factorization requires x^l - 1 coprime to
    # sum x^{il}, which over F2 restricts to odd kappa_m; plans are sampled
    # accordingly (see the decisions ledger on the even-kappa defect)
    rng = np.random.default_rng(2026)
    mismatches = 0
    checked = 0
    while checked < 100:
        ell = int(rng.integers(2, 8))
        a = RingPoly.from_mask(int(rng.integers(1, 1 << ell)), ell)
        b = RingPoly.from_mask(int(rng.integers(1, 1 << ell)), ell)
        kappa = 2 * int(rng.integers(1, 4)) + 1
        bound = (kappa - 1) * ell
        p = int(rng.integers(1, 1 << (bound + 1)))
        if gbx.f2_gcd(p, gbx.f2_gcd(a.mask, b.mask)) != 1:
            continue
        plan = gbx.ExtensionPlan(a, b, (1, kappa), (1, p))
        k = dim_exact_coprime(plan, 2)
        member = gbx.extend_family(plan, with_logicals=False)[1]
        if not k == member.k == dimension_rank(member):
            mismatches += 1
        checked += 1
    verdict(6, mismatches == 0,
            f"100 randomized coprime plans: closed-form k_m vs gcd and rank "
            f"k_m, {mismatches} mismatches (expected 0)")


def test_criterion_07_triple_block_suite():
    base = build_10_2_3()
    fam = gbx.build_triple_family(gbx.TripleBlockPlan(base, 3))
    ns = [c.n for c in fam]
    ws = [max_row_weight(c) for c in fam]
    prof = gbx.sparsity_profile(fam)
    from fractions import Fraction
    q = [max(r, c) for r, c in zip(prof.q_r, prof.q_c)]
    ratios = [b / a for a, b in zip(q, q[1:])]
    embeds = [gbx.verify_embedding(s, l)[0] for s, l in zip(fam, fam[1:])]
    ks = [c.k for c in fam]
    ok = (ns == [10, 30, 90] and ws == [6, 12, 24]
          and all(r == Fraction(2, 3) for r in ratios)
          and all(embeds)
          and all(k2 >= k1 for k1, k2 in zip(ks, ks[1:])))
    verdict(7, ok, f"triple-block family: n={ns} (exp 10/30/90), "
                   f"w_r={ws} (exp 6/12/24), density ratios={ratios} "
                   f"(exp 2/3), embeddings={embeds}, k={ks} non-decreasing")


def test_criterion_08_zero_insertion_suite():
    base = build_10_2_3()
    fam = gbx.build_insertion_family(gbx.ZeroInsertPlan(base, 3, j=2, r=5))
    ns = [c.n for c in fam]
    ws = [max_row_weight(c) for c in fam]
    ks = [c.k for c in fam]
    ok = (ns == [10, 20, 30] and ws == [6, 6, 6]
          and all(k2 >= k1 for k1, k2 in zip(ks, ks[1:])))
    verdict(8, ok, f"zero-insertion family (j=2, r=5): n={ns} "
                   f"(exp 10/20/30), w_r={ws} (exp all 6), k={ks} "
                   "non-decreasing")


def test_criterion_09_shor_sparsity():
    from fractions import Fraction
    vals_ok = all(shor_density(d) == (Fraction(2, d), Fraction(4, d * d))
                  for d in (3, 5, 7, 9))
    w_r, w_c = (q * 9 for q in shor_density(3))
    explicit_ok = (w_r, w_c) == (6, 4)
    verdict(9, vals_ok and explicit_ok,
            f"explicit Shor checks have densities (2/d, 4/d^2) for d in "
            f"3,5,7,9: {vals_ok}; d=3 construction gives ({w_r}/9, "
            f"{w_c}/9): {explicit_ok}")


def test_criterion_10_decoder_soundness_weight_le_1():
    code = build_10_2_3()
    cfg = gbx.DecoderConfig()
    n = code.n
    cases = [(np.zeros(n, np.uint8), np.zeros(n, np.uint8))]
    for i in range(n):
        for kind in ("X", "Y", "Z"):
            ex = np.zeros(n, np.uint8)
            ez = np.zeros(n, np.uint8)
            if kind in ("X", "Y"):
                ex[i] = 1
            if kind in ("Y", "Z"):
                ez[i] = 1
            cases.append((ex, ez))
    failures = 0
    unsatisfied = 0
    for ex, ez in cases:
        s_z = (code.hz @ ex) % 2
        s_x = (code.hx @ ez) % 2
        (ex_hat,), (ez_hat,) = gbx.decode(code, s_x[None], s_z[None], 0.01,
                                          cfg)
        if (not np.array_equal((code.hz @ ex_hat) % 2, s_z)
                or not np.array_equal((code.hx @ ez_hat) % 2, s_x)):
            unsatisfied += 1
        if gbx.classify_failure(code, ex ^ ex_hat, ez ^ ez_hat):
            failures += 1
    verdict(10, failures == 0 and unsatisfied == 0,
            f"all {len(cases)} weight <= 1 errors on [[10,2,3]]: "
            f"{failures} logical failures, {unsatisfied} unsatisfied "
            "syndromes (expected 0 / 0)")


@pytest.mark.slow
def test_criterion_11_error_rate_separation():
    cfg = gbx.DecoderConfig()
    noise = gbx.NoiseModel(0.010)
    good = gbx.estimate_ler(build_10_2_3(), noise, cfg, trials=50_000,
                            precision=0.0, seed=11)
    good_ok = good.ler < 0.020

    # all k > 0 pairs at l = 4; sample 10 with distance < 3
    cands = []
    for am in range(1, 16):
        for bm in range(1, 16):
            code = gbx.build_gb(RingPoly.from_mask(am, 4),
                                RingPoly.from_mask(bm, 4))
            if code.k > 0 and gbx.min_distance(code).d < 3:
                cands.append((am, bm))
    rng = np.random.default_rng(2027)
    sample = [cands[i] for i in
              rng.choice(len(cands), size=10, replace=False)]
    bad_ok = True
    worst = None
    for am, bm in sample:
        code = gbx.build_gb(RingPoly.from_mask(am, 4),
                            RingPoly.from_mask(bm, 4))
        rep = gbx.estimate_ler(code, noise, cfg, trials=50_000,
                               precision=0.0, seed=11)
        sigma = math.sqrt(rep.ler * (1 - rep.ler) / rep.trials)
        margin = rep.ler - 3 * sigma
        if worst is None or margin < worst:
            worst = margin
        bad_ok &= margin > 0.020
    verdict(11, good_ok and bad_ok,
            f"[[10,2,3]] LER at p=0.010 is {good.ler:.4f} (< 0.020: "
            f"{good_ok}); 10 sampled distance<3 l=4 codes all exceed "
            f"0.020 at 3 sigma (worst lower bound {worst:.4f}): {bad_ok}")


@pytest.mark.slow
def test_criterion_12_family_crossing_and_ordering():
    a = gbx.parse_ring_poly("1+x^4", 5)
    b = gbx.parse_ring_poly("1+x+x^2+x^4", 5)
    fam = gbx.extend_family(gbx.identity_plan(a, b, 3))
    grid = [round(0.10 + 0.01 * i, 2) for i in range(9)]  # 0.10 .. 0.18
    cfg = gbx.DecoderConfig()
    reports = gbx.sweep(fam, grid, cfg, trials=10_000, precision=0.0,
                        seed=12)
    labels = [c.label for c in fam]
    try:
        p_star, _ = gbx.threshold_estimate(reports, labels[0], labels[1])
        cross_ok = 0.10 <= p_star <= 0.19
    except ValueError:
        p_star, cross_ok = None, False

    by = {(r.code_label, r.p): r for r in reports}
    lo = grid[0]  # the only grid point with p <= 0.10
    r1, r2, r3 = (by[(labels[m], lo)] for m in range(3))

    def sigma(r):
        return math.sqrt(max(r.ler * (1 - r.ler), 1e-12) / r.trials)

    order_ok = (r3.ler <= r2.ler + 3 * (sigma(r3) + sigma(r2))
                and r2.ler <= r1.ler + 3 * (sigma(r2) + sigma(r1)))
    verdict(12, cross_ok and order_ok,
            f"m=1 vs m=2 LER crossing at p*={p_star} (expected in "
            f"[0.10, 0.19]): {cross_ok}; ordering at p={lo}: "
            f"LER={r3.ler:.4f} <= {r2.ler:.4f} <= {r1.ler:.4f} within "
            f"3 sigma: {order_ok}")


def test_criterion_13_reproducible_sweep():
    code = build_10_2_3()
    cfg = gbx.DecoderConfig()
    grid = [0.05, 0.10, 0.15]
    csv1 = gbx.reports_to_csv(gbx.sweep([code], grid, cfg, trials=2_000,
                                        precision=0.0, seed=13))
    csv2 = gbx.reports_to_csv(gbx.sweep([code], grid, cfg, trials=2_000,
                                        precision=0.0, seed=13))
    verdict(13, csv1 == csv2,
            "sweep re-run with identical seed/config is byte-identical: "
            f"{csv1 == csv2}")
