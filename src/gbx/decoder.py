"""Syndrome decoding: normalized min-sum belief propagation with
ordered-statistics post-processing.

Min-sum runs flooding (parallel) message updates on the Tanner graph with a
check-message scaling factor, iterating until the hard decision satisfies
the syndrome or the iteration budget runs out. When BP fails, OSD solves the
syndrome equation exactly on the most reliable information set, so every
returned estimate satisfies H e = s.

LLR convention: positive means "bit is 0 more likely"; the prior is
log((1-p)/p) and the hard decision sets e_i = 1 when the marginal LLR <= 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .gf2mat import row_reduce

LLR_CAP = 1e9  # stands in for +inf on degree-1 checks


@dataclass
class DecoderConfig:
    max_iter: int = 40
    ms_scale: float = 0.625
    osd_order: int | None = None  # None -> resolved to the code's ring size
    osd_mode: str = "sweep"  # off | order0 | sweep | always

    def __post_init__(self):
        if not 0 < self.ms_scale <= 1:
            raise ValueError("ms_scale must be in (0, 1]")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.osd_order is not None and self.osd_order < 0:
            raise ValueError("osd_order must be non-negative")
        if self.osd_mode not in ("off", "order0", "sweep", "always"):
            raise ValueError(f"unknown osd_mode {self.osd_mode!r}")

    def for_ring(self, ell: int) -> "DecoderConfig":
        """This config with ``osd_order=None`` resolved to the ring size."""
        if self.osd_order is not None:
            return self
        return replace(self, osd_order=ell)


@dataclass
class DecodeOutcome:
    estimate: np.ndarray
    soft: np.ndarray  # marginal LLR per bit
    bp_converged: bool
    osd_used: bool
    iterations: int


def _prior_llr(prior, n: int) -> np.ndarray:
    p = np.asarray(prior, dtype=np.float64)
    if p.ndim == 0:
        p = np.full(n, float(p))
    if p.shape != (n,):
        raise ValueError("prior shape mismatch")
    if np.any(p <= 0) or np.any(p > 0.5):
        raise ValueError("prior error probabilities must lie in (0, 0.5]")
    return np.log((1.0 - p) / p)


def bp_minsum_batch(H: np.ndarray, syndromes: np.ndarray, prior,
                    cfg: DecoderConfig):
    """Vectorized min-sum over a batch of syndromes.

    Returns (hard, marginals, converged, iterations) with leading batch axis.
    Converged rows are frozen at their first satisfying iteration, so results
    do not depend on how trials are batched.
    """
    H = np.asarray(H, dtype=np.uint8) & 1
    m, n = H.shape
    S = np.asarray(syndromes, dtype=np.uint8) & 1
    if S.ndim != 2 or S.shape[1] != m:
        raise ValueError("syndrome length must equal the number of checks")
    B = S.shape[0]
    llr0 = _prior_llr(prior, n)

    mask = H.astype(bool)[None, :, :]  # (1, m, n)
    syn_sign = 1.0 - 2.0 * S.astype(np.float64)  # (B, m)
    M = np.where(mask, llr0[None, None, :], 0.0) * np.ones((B, 1, 1))

    hard_out = np.zeros((B, n), dtype=np.uint8)
    marg_out = np.tile(llr0, (B, 1))
    iters = np.zeros(B, dtype=np.int64)
    done = np.zeros(B, dtype=bool)

    Ht = H.T.astype(np.uint8)
    for it in range(1, cfg.max_iter + 1):
        # check update: per row, scaled min of the other magnitudes with the
        # extrinsic sign product and the syndrome sign
        absM = np.where(mask, np.abs(M), np.inf)
        sgn = np.where(mask & (M < 0), -1.0, 1.0)
        rowsign = sgn.prod(axis=2)  # (B, m)
        amin = absM.argmin(axis=2)
        min1 = np.take_along_axis(absM, amin[..., None], axis=2)[..., 0]
        tmp = absM.copy()
        np.put_along_axis(tmp, amin[..., None], np.inf, axis=2)
        min2 = tmp.min(axis=2)
        ext_min = np.where(np.arange(n)[None, None, :] == amin[..., None],
                           min2[..., None], min1[..., None])
        ext_min = np.minimum(ext_min, LLR_CAP)
        E = cfg.ms_scale * (syn_sign * rowsign)[..., None] * sgn * ext_min
        E = np.where(mask, E, 0.0)
        # variable update and marginals
        colsum = E.sum(axis=1)  # (B, n)
        marg = llr0[None, :] + colsum
        M = np.where(mask, marg[:, None, :] - E, 0.0)
        hard = (marg <= 0.0).astype(np.uint8)
        sat = (((hard @ Ht) & 1) == S).all(axis=1)
        newly = sat & ~done
        if newly.any():
            hard_out[newly] = hard[newly]
            marg_out[newly] = marg[newly]
            iters[newly] = it
            done |= newly
        if done.all():
            break
        # keep the latest state for rows that never converge
        hard_out[~done] = hard[~done]
        marg_out[~done] = marg[~done]
        iters[~done] = it
    return hard_out, marg_out, done, iters


def osd_postprocess(H, syndrome, soft, cfg: DecoderConfig) -> DecodeOutcome:
    """Ordered-statistics solve of H e = s.

    Columns are ranked by decreasing error probability (ascending marginal
    LLR, ties to the lower index). The first rank(H) independent columns
    form the information set; order-0 solves the restricted system exactly,
    sweep mode additionally tries all weight-1 and weight-2 flips within the
    first ``osd_order`` secondary columns (all of them when it is None; a
    code's decode resolves None to the ring size first, see
    :meth:`DecoderConfig.for_ring`) and keeps the soft-cost minimum.
    """
    H = np.asarray(H, dtype=np.uint8) & 1
    m, n = H.shape
    s = np.asarray(syndrome, dtype=np.uint8) & 1
    llr = np.asarray(soft, dtype=np.float64)
    if llr.shape != (n,):
        raise ValueError("soft reliabilities required for every bit")

    order = np.argsort(llr, kind="stable")  # most error-prone first
    R, piv_cols = row_reduce(np.hstack([H[:, order], s[:, None]]))
    if piv_cols and piv_cols[-1] == n:
        raise ValueError("syndrome is not in the column space of H")
    A, b = R[:, :n], R[:, n]
    rank = len(piv_cols)

    piv_set = set(piv_cols)
    nonpiv = [c for c in range(n) if c not in piv_set]
    w = len(nonpiv) if cfg.osd_order is None else min(cfg.osd_order, len(nonpiv))

    def assemble(t_cols: tuple) -> np.ndarray:
        e = np.zeros(n, dtype=np.uint8)
        rhs = b[:rank].copy()
        for c in t_cols:
            rhs ^= A[:rank, c]
            e[c] = 1
        for i, c in enumerate(piv_cols):
            e[c] = rhs[i]
        return e

    candidates = [()]
    if cfg.osd_mode == "sweep" and w > 0:
        candidates += [(c,) for c in nonpiv[:w]]
        candidates += list(combinations(nonpiv[:w], 2))

    best_e = None
    best_cost = None
    for t in candidates:
        e_perm = assemble(t)
        cost = float(llr[order[e_perm == 1]].sum())
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_e = e_perm
    estimate = np.zeros(n, dtype=np.uint8)
    estimate[order] = best_e
    if (((H @ estimate) & 1) != s).any():
        raise AssertionError("OSD produced a non-satisfying estimate")
    return DecodeOutcome(estimate=estimate, soft=llr, bp_converged=False,
                         osd_used=True, iterations=0)


def decode_batch(H, S, prior, cfg: DecoderConfig) -> np.ndarray:
    """Decode one sector for a batch of syndromes (one per row of S).

    BP runs on every row; OSD replaces the estimate of each row whose BP
    hard decision misses its syndrome (every row in ``always`` mode, none
    in ``off`` mode). Returns the (B, n) estimates.
    """
    S = np.asarray(S, dtype=np.uint8) & 1
    hard, marg, conv, _ = bp_minsum_batch(H, S, prior, cfg)
    if cfg.osd_mode == "off":
        return hard
    todo = np.ones_like(conv) if cfg.osd_mode == "always" else ~conv
    for i in np.flatnonzero(todo):
        hard[i] = osd_postprocess(H, S[i], marg[i], cfg).estimate
    return hard


def decode(code, syndrome_x, syndrome_z, p, cfg: DecoderConfig | None = None):
    """Two-sector CSS decode of one syndrome pair: a batch of one.

    X errors are detected by H_Z (syndrome_z) and Z errors by H_X
    (syndrome_x); the sectors are decoded independently. Returns (ex, ez).
    """
    cfg = (cfg or DecoderConfig()).for_ring(code.ell)
    ex = decode_batch(code.hz, np.asarray(syndrome_z)[None, :], p, cfg)[0]
    ez = decode_batch(code.hx, np.asarray(syndrome_x)[None, :], p, cfg)[0]
    return ex, ez
