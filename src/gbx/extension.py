"""Extended GB code families: multiply the base generators by a polynomial
sequence and enlarge the ring, keeping the dimension lower-bounded by the
base code's. Also houses sparsity classification and the generalized-Shor
sparsity reference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .code import CssCode, build_gb, weight_profile
from .gf2poly import (RingPoly, f2_degree, f2_gcd, f2_mul, format_poly,
                      geometric_sum, parse_poly, parse_ring_poly, ring_reduce,
                      x_pow_minus_one)


@dataclass
class ExtensionPlan:
    """Inputs of the family construction.

    ``kappa`` is a strictly increasing integer sequence starting at 1;
    ``p_seq`` holds plain-polynomial masks with p_seq[0] == 1 and
    deg p_seq[m] <= (kappa[m] - 1) * ell for the later members.
    """

    base_a: RingPoly
    base_b: RingPoly
    M: int
    kappa: tuple
    p_seq: tuple  # plain polynomial masks

    def __post_init__(self):
        ell = self.base_a.ring_dim
        if self.base_b.ring_dim != ell:
            raise ValueError("base generators live in different rings")
        if self.M < 1 or len(self.kappa) != self.M or len(self.p_seq) != self.M:
            raise ValueError("kappa and p_seq must both have M entries")
        if self.kappa[0] != 1:
            raise ValueError("kappa_1 must be 1")
        if self.p_seq[0] != 1:
            raise ValueError("p^(1) must be the constant 1")
        if any(k2 <= k1 for k1, k2 in zip(self.kappa, self.kappa[1:])):
            raise ValueError("kappa must be strictly increasing")
        if any(int(k) != k or k < 1 for k in self.kappa):
            raise ValueError("kappa entries must be positive integers")
        for m in range(1, self.M):
            deg = f2_degree(self.p_seq[m])
            if self.p_seq[m] == 0:
                raise ValueError("p^(m) must be nonzero")
            if deg > (self.kappa[m] - 1) * ell:
                raise ValueError(
                    f"p^({m + 1}) exceeds the degree bound (kappa_m - 1) * ell")

    @property
    def ell(self) -> int:
        return self.base_a.ring_dim

    def member_ring(self, m: int) -> int:
        """Ring dimension of member m (1-based)."""
        return self.kappa[m - 1] * self.ell


def extend_family(plan: ExtensionPlan, with_logicals: bool = True) -> list:
    """Construct all M member codes; member 1 equals the base code."""
    out = []
    for m in range(1, plan.M + 1):
        ell_m = plan.member_ring(m)
        p = plan.p_seq[m - 1]
        a_m = RingPoly.from_mask(
            ring_reduce(f2_mul(p, plan.base_a.mask), ell_m), ell_m)
        b_m = RingPoly.from_mask(
            ring_reduce(f2_mul(p, plan.base_b.mask), ell_m), ell_m)
        out.append(build_gb(a_m, b_m, label=f"m={m},l={ell_m}",
                            with_logicals=with_logicals))
    return out


def check_dim_lower_bound(family: list) -> tuple[bool, CssCode | None]:
    """True iff every member has k >= k of the first member; otherwise the
    first violating member is returned as witness."""
    k1 = family[0].k
    for code in family[1:]:
        if code.k < k1:
            return False, code
    return True, None


def dim_exact_coprime(plan: ExtensionPlan, m: int) -> int:
    """Closed-form dimension of member m when p^(m) and gcd(a, b) are coprime.

    Evaluates the four gcd-degree terms
        k_m = 2 [ deg gcd(p, x^l - 1) + deg gcd(phi, x^l - 1)
                + deg gcd(p, S) + deg gcd(phi, S) ],
    phi = gcd(a, b), S = sum_{i<kappa_m} x^{il}. The factorization behind the
    formula additionally needs x^l - 1 and S coprime (equivalently kappa_m
    odd); we refuse otherwise. The result is always cross-checked against the
    member's gcd dimension and a mismatch is a hard error.
    """
    if not 1 <= m <= plan.M:
        raise ValueError("member index out of range")
    ell = plan.ell
    kappa = plan.kappa[m - 1]
    p = plan.p_seq[m - 1]
    phi = f2_gcd(plan.base_a.mask, plan.base_b.mask)
    if f2_gcd(p, phi) != 1:
        raise ValueError("p^(m) and gcd(a, b) are not coprime")
    modulus = x_pow_minus_one(ell)
    sigma = geometric_sum(ell, kappa)
    if f2_gcd(modulus, sigma) != 1:
        raise ValueError(
            "x^l - 1 and sum x^{il} share a factor (kappa_m even); the "
            "closed formula does not apply")
    k = 2 * (f2_degree(f2_gcd(p, modulus)) + f2_degree(f2_gcd(phi, modulus))
             + f2_degree(f2_gcd(p, sigma)) + f2_degree(f2_gcd(phi, sigma)))
    member = extend_family(plan, with_logicals=False)[m - 1]
    if k != member.k:
        raise AssertionError(
            f"closed-form dimension {k} disagrees with gcd dimension "
            f"{member.k} for member {m}")
    return k


# ---------------------------------------------------------------------------
# sparsity

@dataclass
class SparsityProfile:
    q_r: list  # Fraction per member: w_r(m) / n_m
    q_c: list  # Fraction per member: w_c(m) / ell_m
    classification: str  # "t-qldpc" | "exp-decay" | "other"
    t: int | None = None
    alpha: Fraction | None = None


def sparsity_profile(family: list) -> SparsityProfile:
    """Per-member check-matrix densities and a family classification.

    Constant row and column weights classify as t-qLDPC with
    t = max row weight; a constant density ratio alpha < 1 across
    consecutive members classifies as exponentially decaying.
    All arithmetic is exact rational.
    """
    if not family:
        raise ValueError("empty family")
    q_r, q_c, w_rs, w_cs = [], [], [], []
    for code in family:
        wp = weight_profile(code)
        if 0 in wp.per_row or 0 in wp.per_col:
            raise ValueError("parity-check matrix has an all-zero row or column")
        q_r.append(Fraction(wp.w_r, code.n))
        q_c.append(Fraction(wp.w_c, code.ell))
        w_rs.append(wp.w_r)
        w_cs.append(wp.w_c)
    if len(set(w_rs)) == 1 and len(set(w_cs)) == 1:
        return SparsityProfile(q_r, q_c, "t-qldpc", t=max(w_rs))
    q = [max(r, c) for r, c in zip(q_r, q_c)]
    ratios = {b / a for a, b in zip(q, q[1:])}
    if len(ratios) == 1:
        alpha = ratios.pop()
        if alpha < 1:
            return SparsityProfile(q_r, q_c, "exp-decay", alpha=alpha)
    return SparsityProfile(q_r, q_c, "other")


def shor_sparsity(d: int) -> tuple[Fraction, Fraction]:
    """Row/column density (2/d, 4/d^2) of the [[d^2, 1, d]] generalized Shor
    code, the O(1/m)-sparse reference family."""
    if d < 3 or d % 2 == 0:
        raise ValueError("d must be an odd integer >= 3")
    return Fraction(2, d), Fraction(4, d * d)


def shor_check_matrices(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Explicit stabilizer generators of the generalized Shor code:
    weight-2 Z checks within each block of d qubits, weight-2d X checks
    across adjacent blocks."""
    if d < 3 or d % 2 == 0:
        raise ValueError("d must be an odd integer >= 3")
    n = d * d
    hz = np.zeros((d * (d - 1), n), dtype=np.uint8)
    r = 0
    for i in range(d):
        for t in range(d - 1):
            hz[r, d * i + t] = 1
            hz[r, d * i + t + 1] = 1
            r += 1
    hx = np.zeros((d - 1, n), dtype=np.uint8)
    for j in range(d - 1):
        hx[j, d * j: d * j + 2 * d] = 1
    return hx, hz


# ---------------------------------------------------------------------------
# plan serialization and presets

def plan_to_dict(plan: ExtensionPlan) -> dict:
    return {
        "base": {"a": format_poly(plan.base_a.mask),
                 "b": format_poly(plan.base_b.mask),
                 "ell": plan.ell},
        "M": plan.M,
        "kappa": list(plan.kappa),
        "p_seq": [format_poly(p) for p in plan.p_seq],
    }


def plan_from_dict(doc: dict) -> ExtensionPlan:
    ell = int(doc["base"]["ell"])
    a = parse_ring_poly(doc["base"]["a"], ell)
    b = parse_ring_poly(doc["base"]["b"], ell)
    return ExtensionPlan(
        base_a=a, base_b=b, M=int(doc["M"]),
        kappa=tuple(int(k) for k in doc["kappa"]),
        p_seq=tuple(parse_poly(p) for p in doc["p_seq"]))


def plan_from_json(text: str) -> ExtensionPlan:
    return plan_from_dict(json.loads(text))


def identity_plan(a: RingPoly, b: RingPoly, M: int) -> ExtensionPlan:
    """kappa_m = m, p^(m) = 1: the constant-weight qLDPC family."""
    return ExtensionPlan(base_a=a, base_b=b, M=M,
                         kappa=tuple(range(1, M + 1)),
                         p_seq=(1,) * M)
