"""Scalable GB families.

Two constructions on the generator polynomials of a base code:

* the triple-block map F(C) = [[L,U,C],[C,L,U],[U,C,L]] on a circulant C ~ c(x)
  of size l is the circulant of (1 + x^l) c(x) in the 3l ring, so the family
  is the extension with kappa_m = 3^(m-1); it triples the code length, keeps
  the smaller check matrix embedded up to qubit relabelling, and yields
  exponentially decaying density with ratio 2/3;
* the zero-insertion map which widens the circulant generator by r zero
  coefficients at a fixed split index j, preserving all check weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .code import CssCode, build_gb
from .extension import ExtensionPlan, extend_family
from .gf2poly import RingPoly, f2_mul

# Constructive block-column relabellings (1-based, old position -> new
# position) that exhibit the embedding of H in F-expanded H'.
HX_BLOCK_PERM = {1: 3, 2: 5, 3: 1, 4: 4, 5: 6, 6: 2}
HZ_BLOCK_PERM = {1: 3, 2: 1, 3: 5, 4: 4, 5: 2, 6: 6}


@dataclass
class TripleBlockPlan:
    base: CssCode
    M: int

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("need at least one level")


@dataclass
class ZeroInsertPlan:
    base: CssCode
    M: int
    j: int  # split index, 0 < j < ell - 1
    r: int  # insertion width per level

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("need at least one level")
        if not 0 < self.j < self.base.ell - 1:
            raise ValueError("split index j out of range")
        if self.r < 1:
            raise ValueError("insertion width r must be positive")


def build_triple_family(plan: TripleBlockPlan) -> list:
    """The extension family of :func:`triple_extension_plan`; member 1 is
    the plan's base code itself."""
    family = extend_family(triple_extension_plan(plan.base, plan.M))
    for m, code in enumerate(family[1:], start=2):
        code.label = f"scale3 m={m},l={code.ell}"
    return [plan.base] + family[1:]


def triple_extension_plan(base: CssCode, M: int) -> ExtensionPlan:
    """The equivalent family inputs: kappa_m = 3^(m-1) and
    p^(m) = prod_{k<m} (1 + x^{l_k})."""
    ell = base.ell
    kappa, p_seq = [], []
    for m in range(1, M + 1):
        kappa.append(3 ** (m - 1))
        p = 1
        for k in range(1, m):
            p_k = (1 << (3 ** (k - 1) * ell)) | 1  # 1 + x^{l_k}
            p = f2_mul(p, p_k)  # degree stays below (kappa_m - 1) * ell + 1
        p_seq.append(p)
    return ExtensionPlan(base_a=base.a, base_b=base.b, kappa=tuple(kappa),
                         p_seq=tuple(p_seq))


def _permute_block_columns(M: np.ndarray, block: int, perm: dict) -> np.ndarray:
    out = np.zeros_like(M)
    for old, new in perm.items():
        out[:, (new - 1) * block:new * block] = M[:, (old - 1) * block:old * block]
    return out


def _covered(small: np.ndarray, region: np.ndarray):
    """First coordinate where small has a 1 but region does not, else None."""
    missing = (small == 1) & (region == 0)
    if missing.any():
        i, j = np.argwhere(missing)[0]
        return int(i), int(j)
    return None


def verify_embedding(small: CssCode, large: CssCode) -> tuple[bool, dict]:
    """Check scalability condition 1: after the constructive block
    relabellings every 1-entry of the small code's check matrices appears at
    the same position in the large code's."""
    if large.ell != 3 * small.ell:
        return False, {"reason": "large ring is not three times the small one"}
    blk = small.ell
    hx_p = _permute_block_columns(large.hx, blk, HX_BLOCK_PERM)
    hz_p = _permute_block_columns(large.hz, blk, HZ_BLOCK_PERM)
    # block-row swap (rows 2 <-> 3) completing the constructive relabelling
    hz_p = np.vstack([hz_p[:blk], hz_p[2 * blk:3 * blk], hz_p[blk:2 * blk]])
    witness = {"hx_block_columns": HX_BLOCK_PERM,
               "hz_block_columns": HZ_BLOCK_PERM,
               "hz_block_row_swap": (2, 3)}
    wx = _covered(small.hx, hx_p[: small.hx.shape[0], : small.hx.shape[1]])
    if wx is not None:
        witness["mismatch"] = ("hx",) + wx
        return False, witness
    wz = _covered(small.hz, hz_p[: small.hz.shape[0], : small.hz.shape[1]])
    if wz is not None:
        witness["mismatch"] = ("hz",) + wz
        return False, witness
    return True, witness


def _widen(poly: RingPoly, j: int, r: int) -> RingPoly:
    """Split the generator as f + g (f below x^j, g at or above) and return
    f + x^r g in the (l + r)-dimensional ring. Weight is preserved."""
    f = poly.mask & ((1 << j) - 1)
    g = poly.mask >> j
    return RingPoly.from_mask(f | (g << (j + r)), poly.ring_dim + r)


def build_insertion_family(plan: ZeroInsertPlan) -> list:
    """Zero-insertion family: member m lives in the (l + r(m-1)) ring with
    generators f + x^{r(m-1)} g split at the base index j."""
    family = [plan.base]
    for m in range(2, plan.M + 1):
        width = plan.r * (m - 1)
        a = _widen(plan.base.a, plan.j, width)
        b = _widen(plan.base.b, plan.j, width)
        family.append(build_gb(a, b, label=f"scale4 m={m},l={a.ring_dim}"))
    return family
