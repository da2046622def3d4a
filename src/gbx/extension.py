"""Extended GB code families: multiply the base generators by a polynomial
sequence and enlarge the ring, keeping the dimension lower-bounded by the
base code's. Also houses sparsity classification.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .code import build_gb, int_field
from .gf2poly import (RingPoly, f2_degree, f2_mul, f2_weight, format_poly,
                      parse_poly, parse_ring_poly, ring_reduce)


@dataclass
class ExtensionPlan:
    """Inputs of the family construction.

    ``kappa`` is a strictly increasing integer sequence starting at 1;
    ``p_seq`` holds plain-polynomial masks with p_seq[0] == 1 and
    deg p_seq[m] <= (kappa[m] - 1) * ell for the later members.
    """

    base_a: RingPoly
    base_b: RingPoly
    kappa: tuple
    p_seq: tuple  # plain polynomial masks

    def __post_init__(self):
        ell = self.base_a.ring_dim
        if self.base_b.ring_dim != ell:
            raise ValueError("base generators live in different rings")
        if not self.kappa or len(self.p_seq) != len(self.kappa):
            raise ValueError("kappa and p_seq must have equal nonzero length")
        if self.kappa[0] != 1:
            raise ValueError("kappa_1 must be 1")
        if self.p_seq[0] != 1:
            raise ValueError("p^(1) must be the constant 1")
        if any(k2 <= k1 for k1, k2 in zip(self.kappa, self.kappa[1:])):
            raise ValueError("kappa must be strictly increasing")
        if any(int(k) != k or k < 1 for k in self.kappa):
            raise ValueError("kappa entries must be positive integers")
        for m, (kappa, p) in enumerate(zip(self.kappa, self.p_seq), start=1):
            if p == 0:
                raise ValueError("p^(m) must be nonzero")
            if f2_degree(p) > (kappa - 1) * ell:
                raise ValueError(
                    f"p^({m}) exceeds the degree bound (kappa_m - 1) * ell")

    @property
    def ell(self) -> int:
        return self.base_a.ring_dim


def extend_family(plan: ExtensionPlan, with_logicals: bool = True) -> list:
    """Construct one member code per kappa entry; member 1 equals the base
    code."""
    out = []
    for m, (kappa, p) in enumerate(zip(plan.kappa, plan.p_seq), start=1):
        ell_m = kappa * plan.ell
        a_m = RingPoly.from_mask(
            ring_reduce(f2_mul(p, plan.base_a.mask), ell_m), ell_m)
        b_m = RingPoly.from_mask(
            ring_reduce(f2_mul(p, plan.base_b.mask), ell_m), ell_m)
        out.append(build_gb(a_m, b_m, label=f"m={m},l={ell_m}",
                            with_logicals=with_logicals))
    return out


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

    A GB member's checks (A|B) and (B^T|A^T) have row weight
    wt(a) + wt(b) and column weight max(wt(a), wt(b)), read here from the
    generators. Constant row and column weights classify as t-qLDPC with
    t = max row weight; a constant density ratio alpha < 1 across
    consecutive members classifies as exponentially decaying.
    All arithmetic is exact rational.
    """
    if not family:
        raise ValueError("empty family")
    w_rs, w_cs = [], []
    for code in family:
        wa, wb = f2_weight(code.a.mask), f2_weight(code.b.mask)
        if not (wa and wb):
            raise ValueError("parity-check matrix has an all-zero row or column")
        w_rs.append(wa + wb)
        w_cs.append(max(wa, wb))
    q_r = [Fraction(w, code.n) for w, code in zip(w_rs, family)]
    q_c = [Fraction(w, code.ell) for w, code in zip(w_cs, family)]
    if len(set(w_rs)) == 1 and len(set(w_cs)) == 1:
        return SparsityProfile(q_r, q_c, "t-qldpc", t=max(w_rs))
    q = [max(r, c) for r, c in zip(q_r, q_c)]
    ratios = {b / a for a, b in zip(q, q[1:])}
    if len(ratios) == 1:
        alpha = ratios.pop()
        if alpha < 1:
            return SparsityProfile(q_r, q_c, "exp-decay", alpha=alpha)
    return SparsityProfile(q_r, q_c, "other")


# ---------------------------------------------------------------------------
# plan serialization and presets

def plan_to_dict(plan: ExtensionPlan) -> dict:
    return {
        "base": {"a": format_poly(plan.base_a.mask),
                 "b": format_poly(plan.base_b.mask),
                 "ell": plan.ell},
        "M": len(plan.kappa),
        "kappa": list(plan.kappa),
        "p_seq": [format_poly(p) for p in plan.p_seq],
    }


def plan_from_dict(doc: dict) -> ExtensionPlan:
    ell = int_field(doc["base"]["ell"], "ell")
    a = parse_ring_poly(doc["base"]["a"], ell)
    b = parse_ring_poly(doc["base"]["b"], ell)
    M = int_field(doc["M"], "M")
    kappa = tuple(int_field(k, "kappa") for k in doc["kappa"])
    p_seq = tuple(parse_poly(p) for p in doc["p_seq"])
    if M < 1 or len(kappa) != M or len(p_seq) != M:
        raise ValueError("kappa and p_seq must both have M entries")
    return ExtensionPlan(base_a=a, base_b=b, kappa=kappa, p_seq=p_seq)


def identity_plan(a: RingPoly, b: RingPoly, M: int) -> ExtensionPlan:
    """kappa_m = m, p^(m) = 1: the constant-weight qLDPC family."""
    return ExtensionPlan(base_a=a, base_b=b,
                         kappa=tuple(range(1, M + 1)),
                         p_seq=(1,) * M)
