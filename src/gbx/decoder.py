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
    """Vectorized min-sum over a batch of syndromes, on the Tanner-graph edges.

    Messages live on the edges only. Row i of a padded (m, w) table lists
    the neighbours of check i in ascending column order, w being the largest
    check degree, so a batch holds (B, m, w) messages: memory scales with the
    edges, not with m * n. Each variable sums its check messages through an
    (n, d) slot table, d the largest variable degree, adding them one at a
    time in ascending check order over a zero pad slot, which is the
    arithmetic of a dense column sum. Rows that satisfy their syndrome leave
    the active set after every iteration, frozen at that iteration's state,
    so each row's result is the same in any batch.

    Returns (hard, marginals, converged, iterations) with leading batch axis.
    """
    H = np.asarray(H, dtype=np.uint8) & 1
    m, n = H.shape
    S = np.asarray(syndromes, dtype=np.uint8) & 1
    if S.ndim != 2 or S.shape[1] != m:
        raise ValueError("syndrome length must equal the number of checks")
    B = S.shape[0]
    llr0 = _prior_llr(prior, n)

    # check-major neighbour table; pad slots hold column 0 and are masked
    rows, cols = np.nonzero(H)  # row-major: ascending column within a check
    deg = np.bincount(rows, minlength=m)
    w = max(int(deg.max(initial=0)), 1)
    slot = np.arange(rows.size) - np.repeat(np.cumsum(deg) - deg, deg)
    nbr = np.zeros((m, w), dtype=np.intp)
    nbr[rows, slot] = cols
    pos = np.arange(w)
    edge = pos < deg[:, None]
    # variable-major slot table into the flat messages; pad -> zero slot m*w
    by_var = np.argsort(cols, kind="stable")  # keeps ascending checks
    vdeg = np.bincount(cols, minlength=n)
    vslot = np.arange(cols.size) - np.repeat(np.cumsum(vdeg) - vdeg, vdeg)
    gather = np.full((n, int(vdeg.max(initial=0))), m * w, dtype=np.intp)
    gather[cols[by_var], vslot] = (rows * w + slot)[by_var]

    hard_out = np.zeros((B, n), dtype=np.uint8)
    marg_out = np.tile(llr0, (B, 1))
    iters = np.zeros(B, dtype=np.int64)
    done = np.zeros(B, dtype=bool)

    active = np.arange(B)
    syn = S
    syn_sign = 1.0 - 2.0 * S.astype(np.float64)  # (B, m)
    M = np.broadcast_to(llr0[nbr], (B, m, w))  # pad slots are masked
    E = np.zeros((B, m * w + 1))  # flat check messages plus the zero slot
    for it in range(1, cfg.max_iter + 1):
        if active.size == 0:
            break
        # check update: per check, scaled min of the other magnitudes with
        # the extrinsic sign product and the syndrome sign
        absM = np.where(edge, np.abs(M), np.inf)
        sgn = np.where(edge & (M < 0), -1.0, 1.0)
        rowsign = sgn.prod(axis=2)  # (Ba, m)
        amin = absM.argmin(axis=2)[..., None]
        min1 = np.take_along_axis(absM, amin, axis=2)
        np.put_along_axis(absM, amin, np.inf, axis=2)
        min2 = absM.min(axis=2, keepdims=True)
        ext_min = np.minimum(np.where(pos == amin, min2, min1), LLR_CAP)
        Ec = cfg.ms_scale * (syn_sign * rowsign)[..., None] * sgn * ext_min
        E[:, :-1] = Ec.reshape(len(active), m * w)
        # variable update and marginals
        colsum = np.zeros((len(active), n))
        for k in range(gather.shape[1]):
            colsum += E[:, gather[:, k]]
        marg = llr0[None, :] + colsum
        M = marg[:, nbr] - Ec
        hard = (marg <= 0.0).astype(np.uint8)
        sat = (((hard[:, nbr] & edge).sum(axis=2) & 1) == syn).all(axis=1)
        hard_out[active] = hard
        marg_out[active] = marg
        iters[active] = it
        done[active] = sat
        keep = ~sat
        active, syn, syn_sign = active[keep], syn[keep], syn_sign[keep]
        M, E = M[keep], E[keep]
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

    Each distinct syndrome is decoded once and its estimate copied to every
    row that carries it, so a batch's zero syndromes cost one BP row and a
    repeated failing syndrome one OSD call. BP runs on every distinct
    syndrome; OSD replaces the estimate of each one whose BP hard decision
    misses it (every one in ``always`` mode, none in ``off`` mode). Returns
    the (B, n) estimates.
    """
    S = np.asarray(S, dtype=np.uint8) & 1
    U, inverse = np.unique(S, axis=0, return_inverse=True)
    hard, marg, conv, _ = bp_minsum_batch(H, U, prior, cfg)
    if cfg.osd_mode != "off":
        todo = np.ones_like(conv) if cfg.osd_mode == "always" else ~conv
        for i in np.flatnonzero(todo):
            hard[i] = osd_postprocess(H, U[i], marg[i], cfg).estimate
    return hard[inverse.reshape(-1)]


def decode(code, syndrome_x, syndrome_z, p, cfg: DecoderConfig | None = None):
    """Two-sector CSS decode of one syndrome pair: a batch of one.

    X errors are detected by H_Z (syndrome_z) and Z errors by H_X
    (syndrome_x); the sectors are decoded independently. Returns (ex, ez).
    """
    cfg = (cfg or DecoderConfig()).for_ring(code.ell)
    ex = decode_batch(code.hz, np.asarray(syndrome_z)[None, :], p, cfg)[0]
    ez = decode_batch(code.hx, np.asarray(syndrome_x)[None, :], p, cfg)[0]
    return ex, ez
