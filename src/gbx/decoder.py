"""Syndrome decoding: normalized min-sum belief propagation with
ordered-statistics post-processing.

Min-sum runs flooding (parallel) message updates on the Tanner graph with a
check-message scaling factor, iterating until the hard decision satisfies
the syndrome or the iteration budget runs out. When BP fails, OSD solves the
syndrome equation exactly on the most reliable information set, so every
returned estimate satisfies H e = s unless OSD is off.

LLR convention: positive means "bit is 0 more likely"; the prior is
log((1-p)/p) and the hard decision sets e_i = 1 when the marginal LLR <= 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .gf2mat import row_reduce

LLR_CAP = 1e9  # stands in for +inf on degree-1 checks
OSD_MODES = ("off", "sweep", "always")


@dataclass
class DecoderConfig:
    """Min-sum and OSD settings.

    ``osd_mode`` selects the syndromes OSD post-processes:

    * ``off``: none; BP's hard decision is the estimate;
    * ``sweep``: every syndrome BP does not satisfy, with the weight-1 and
      weight-2 flips within the first ``osd_order`` secondary columns
      (OSD-CS; ``osd_order=0`` is order-0 OSD);
    * ``always``: order-0 OSD on every distinct syndrome, converged ones
      included.
    """

    max_iter: int = 40
    ms_scale: float = 0.625
    osd_order: int | None = None  # None -> the number of checks, ring size l
    osd_mode: str = "sweep"

    def __post_init__(self):
        if not 0 < self.ms_scale <= 1:
            raise ValueError("ms_scale must be in (0, 1]")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.osd_order is not None and self.osd_order < 0:
            raise ValueError("osd_order must be non-negative")
        if self.osd_mode not in OSD_MODES:
            raise ValueError(f"unknown osd_mode {self.osd_mode!r}")


@dataclass
class DecodeOutcome:
    estimate: np.ndarray


def _prior_llr(prior, n: int) -> np.ndarray:
    p = np.asarray(prior, dtype=np.float64)
    if p.ndim == 0:
        p = np.full(n, float(p))
    if p.shape != (n,):
        raise ValueError("prior shape mismatch")
    if not np.all((p > 0) & (p <= 0.5)):  # NaN fails both comparisons
        raise ValueError("prior error probabilities must lie in (0, 0.5]")
    return np.log((1.0 - p) / p)


def bp_minsum_batch(H: np.ndarray, syndromes: np.ndarray, prior,
                    cfg: DecoderConfig):
    """Vectorized min-sum over a batch of syndromes, on the Tanner-graph edges.

    Messages live on the edges only, slot by slot with the batch last: slot
    s of check i holds its s-th neighbour in ascending column order, so a
    batch holds (w, m, rows) messages, w the largest check degree (at least
    2), and every per-check reduction runs over the leading axis. Pad slots
    read an extra marginal row n of +inf: pad messages are +inf and change
    no other slot's sign or capped minimum. Variables sum their check
    messages one at a time in ascending check order over a zero pad slot,
    the arithmetic of a dense column sum. Rows that satisfy their syndrome
    leave the active set, frozen at that iteration's state, so each row's
    result is the same in any batch.

    Returns (hard, marginals, converged, iterations) with leading batch axis.
    """
    H = np.asarray(H, dtype=np.uint8) & 1
    m, n = H.shape
    S = np.asarray(syndromes, dtype=np.uint8) & 1
    if S.ndim != 2 or S.shape[1] != m:
        raise ValueError("syndrome length must equal the number of checks")
    B = S.shape[0]
    llr0 = np.append(_prior_llr(prior, n), np.inf)  # row n: the pad row

    # slot-major neighbour table; pad slots hold the +inf marginal row n
    rows, cols = np.nonzero(H)  # row-major: ascending column within a check
    deg = np.bincount(rows, minlength=m)
    w = max(int(deg.max(initial=0)), 2)
    slot = np.arange(rows.size) - np.repeat(np.cumsum(deg) - deg, deg)
    nbr = np.full((w, m), n, dtype=np.intp)
    nbr[slot, rows] = cols
    # variable-major slot table into the flat messages; pad -> zero row w*m
    by_var = np.argsort(cols, kind="stable")  # keeps ascending checks
    vdeg = np.bincount(cols, minlength=n)
    vslot = np.arange(cols.size) - np.repeat(np.cumsum(vdeg) - vdeg, vdeg)
    gather = np.full((n + 1, int(vdeg.max(initial=0))), w * m, dtype=np.intp)
    gather[cols[by_var], vslot] = (slot * m + rows)[by_var]

    hard_out, marg_out = np.empty((B, n), dtype=np.uint8), np.empty((B, n))
    iters, done = np.empty(B, dtype=np.int64), np.empty(B, dtype=bool)
    active = np.arange(B)
    syn = S.T.astype(np.uint64) << 63  # (m, Ba) syndrome bits as sign bits
    M = llr0[nbr][..., None].repeat(B, axis=2)
    for it in range(1, cfg.max_iter + 1):
        if active.size == 0:
            break
        # check update: each slot gets the min of the other capped, scaled
        # magnitudes (min commutes exactly with that monotone map), its sign
        # bit the parity of the other sign bits and the syndrome bit. No
        # message is -0.0, so a sign bit is set iff the message is < 0.
        sign = M.view(np.uint64) & (1 << 63)
        sign ^= np.bitwise_xor.reduce(sign, axis=0) ^ syn
        np.minimum(np.abs(M, out=M), LLR_CAP, out=M)
        M *= cfg.ms_scale
        E = np.zeros((w * m + 1, active.size))  # check messages, zero row
        Ec = E[:-1].reshape(w, m, active.size)
        Ec[-1] = M[-1]  # suffix mins, then min(prefix, suffix) around a slot
        for s in range(w - 2, 0, -1):
            np.minimum(M[s], Ec[s + 1], out=Ec[s])
        Ec[0] = Ec[1]
        for s in range(1, w - 1):
            np.minimum(M[s - 1], Ec[s + 1], out=Ec[s])
            np.minimum(M[s - 1], M[s], out=M[s])
        Ec[-1] = M[-2]
        Ec.view(np.uint64)[...] |= sign
        # variable update and marginals, over the +inf pad row n
        colsum = np.zeros((n + 1, active.size))
        for k in range(gather.shape[1]):
            colsum += E[gather[:, k]]
        marg = llr0[:, None] + colsum
        M = marg[nbr] - Ec
        hard = marg <= 0.0
        sat = (np.bitwise_xor.reduce(hard[nbr], 0) == (syn != 0)).all(0)
        if sat.any() or it == cfg.max_iter:
            leave = sat | (it == cfg.max_iter)
            out, keep = active[leave], np.flatnonzero(~leave)
            hard_out[out], marg_out[out] = hard[:n, leave].T, marg[:n, leave].T
            iters[out], done[out] = it, sat[leave]
            active, syn, M = active[keep], syn[:, keep], M.take(keep, axis=2)
    return hard_out, marg_out, done, iters


def osd_postprocess(H, syndrome, soft, cfg: DecoderConfig) -> DecodeOutcome:
    """Ordered-statistics solve of H e = s for a stack of syndromes.

    Takes (K, m) syndromes with (K, n) soft values and returns (K, n)
    estimates; a 1-D syndrome with a 1-D soft vector is a batch of one and
    gets 1-D arrays back. Each row is solved on its own: columns are ranked
    by decreasing error probability (ascending marginal LLR, ties to the
    lower index), and the first rank(H) independent columns form the
    information set. Order 0 solves the restricted system exactly; OSD-CS
    additionally tries all weight-1 and weight-2 flips within the first
    ``osd_order`` secondary columns (m of them when it is None, m the number
    of checks: the ring size of a GB code) and keeps the soft-cost minimum,
    the first one in candidate order on a tie: (), then weight 1 in
    secondary column order, then weight 2 in ``itertools.combinations``
    order. ``osd_mode`` is not read here.

    The rows go in blocks of at most 2^22 system bits, and the systems
    [H[:, order_i] | s_i] of a block are eliminated together by
    :func:`row_reduce`: rank(H) is the number of pivots left of the
    syndrome column, and a pivot in that column raises ValueError. With
    sigma = 1 - 2 bit, a candidate flipping secondary columns j1 and j2 sets
    pivot bits of sign sigma_b sigma_j1 sigma_j2, so it costs
    (sum lp_piv - G[j1, j2]) / 2 + lp_j1 + lp_j2 with
    G = sigma_T^T diag(lp_piv sigma_b) sigma_T; a column of +1 stands for
    "no flip", so one GEMM per row (on groups of rows of at most 2^18
    products) gives every candidate's cost. Its two rank-term sums and
    three more roundings put a cost within (rank + 2) eps/2 sum|lp| of the
    real one, and an exact re-score, a sum of at most n terms, within
    n eps/2 sum|lp|. So only candidates within (n + rank + 2) eps sum|lp|
    of the approximate minimum can hold the exact one: those within
    tol = 2 (n + rank + 4) eps sum|lp| are re-scored exactly (a factor 2
    for higher-order terms), and every candidate when a cost is not finite.
    """
    H = np.asarray(H, dtype=np.uint8) & 1
    m, n = H.shape
    S = np.asarray(syndrome, dtype=np.uint8) & 1
    llr = np.asarray(soft, dtype=np.float64)
    single = S.ndim == 1
    S, llr = np.atleast_2d(S), np.atleast_2d(llr)
    K = S.shape[0]
    if S.ndim != 2 or S.shape[1] != m:
        raise ValueError("syndrome length must equal the number of checks")
    if llr.shape != (K, n):
        raise ValueError("soft reliabilities required for every bit")

    order = np.argsort(llr, axis=1, kind="stable")  # most error-prone first
    lp = np.zeros((K, n + 1))  # entry n of each row: no flip, zero cost
    lp[:, :n] = np.take_along_axis(llr, order, axis=1)
    estimate = np.zeros((K, n), dtype=np.uint8)
    step = max(1, (1 << 22) // max(1, m * (n + 1)))  # systems per block
    for lo in range(0, K, step):
        rows = np.arange(lo, min(lo + step, K))
        R, pivots = row_reduce(np.concatenate(
            [H.T[order[rows]].transpose(0, 2, 1), S[rows, :, None]], axis=2))
        if any(p[-1:] == [n] for p in pivots):
            raise ValueError("syndrome is not in the column space of H")
        piv, kb = np.array(pivots, np.intp), np.arange(len(rows))[:, None]
        rank, b = piv.shape[1], R[:, :piv.shape[1], n]
        w = min(m if cfg.osd_order is None else cfg.osd_order, n - rank)
        free = np.ones((len(rows), n + 1), dtype=bool)
        free[kb, piv] = False
        # the first w secondary columns, then column n standing for no flip
        T = np.nonzero(free)[1].reshape(len(rows), -1)[:, np.r_[:w, -1]]
        A = R[kb[..., None], np.arange(rank)[:, None], T[:, None]]
        A[..., w] = 0  # (rows, rank, w + 1): bits of T in the pivot rows
        lpT, lp_piv = (np.take_along_axis(lp[rows], c, 1) for c in (T, piv))
        # candidate k flips T[F1[k]] and T[F2[k]]: (), singles, then pairs
        # j1 < j2 in row-major order, which is combinations order
        j1, j2 = np.nonzero(np.arange(w)[:, None] < np.arange(w))
        F1, F2 = np.r_[w, :w, j1], np.r_[w, np.full(w, w), j2]

        def flips(k, c):  # permuted estimates of candidates c of rows k
            return _candidate_flips(n, piv[k], T[k, F1[c]], T[k, F2[c]],
                                    b[k] ^ A[k, :, F1[c]] ^ A[k, :, F2[c]])

        group = max(1, (1 << 18) // (w + 1) ** 2)  # rows per GEMM stack
        for g in range(0, len(rows), group):
            k = np.arange(g, min(g + group, len(rows)))
            sig = 1 - 2.0 * A[k]
            v = lp_piv[k] * (1 - 2.0 * b[k])
            G = (sig * v[..., None]).transpose(0, 2, 1) @ sig
            approx = ((lp_piv[k].sum(axis=1)[:, None] - G[:, F1, F2]) / 2
                      + lpT[k][:, F1] + lpT[k][:, F2])
            tol = (2 * (n + rank + 4) * np.finfo(np.float64).eps
                   * np.abs(lp[rows[k]]).sum(axis=1))
            rescore_all = ~(np.isfinite(tol) & np.isfinite(approx).all(axis=1))
            near = ((approx <= approx.min(axis=1)[:, None] + tol[:, None])
                    | rescore_all[:, None])
            pick = near.argmax(axis=1)  # the only near candidate, unless ...
            for i in np.flatnonzero(near.sum(axis=1) > 1):  # ... exact costs
                cand = np.flatnonzero(near[i])
                costs = [float(lp[rows[k[i]], :n][e == 1].sum())
                         for e in flips(k[i], cand)]
                # min keeps the first of equal costs
                pick[i] = cand[min(range(len(cand)), key=costs.__getitem__)]
            estimate[rows[k, None], order[rows[k]]] = flips(k, pick)
    if (((estimate @ H.T) & 1) != S).any():
        raise AssertionError("OSD produced a non-satisfying estimate")
    return DecodeOutcome(estimate=estimate[0] if single else estimate)


def _candidate_flips(n, piv, f1, f2, bits) -> np.ndarray:
    """Permuted estimates of candidates that flip f1 and f2 (column n: no
    flip) and set the pivot columns piv to bits; one row per candidate."""
    row = np.arange(len(f1))
    E = np.zeros((len(f1), n + 1), dtype=np.uint8)
    E[row, f1] = 1
    E[row, f2] = 1
    E[row[:, None], piv] = bits
    return E[:, :n]


def decode_batch(H, S, prior, cfg: DecoderConfig) -> np.ndarray:
    """Decode one sector for a batch of syndromes (one per row of S).

    Each distinct syndrome is decoded once and its estimate copied to every
    row that carries it, so a batch's zero syndromes cost one BP row and a
    repeated failing syndrome one OSD row. BP runs on every distinct
    syndrome; one OSD call on the stack of those whose BP hard decision
    misses the syndrome (none in ``off`` mode; every one, at order 0, in
    ``always`` mode) replaces their estimates. Returns the (B, n) estimates.
    """
    S = np.asarray(S, dtype=np.uint8) & 1
    # one packed byte key per row: np.unique on these keys costs a small
    # fraction of np.unique(S, axis=0), and a row's estimate does not
    # depend on where its syndrome lands among the distinct rows
    packed = np.packbits(S, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True,
                                  return_inverse=True)
    U = S[first]
    hard, marg, conv, _ = bp_minsum_batch(H, U, prior, cfg)
    if cfg.osd_mode == "sweep":
        todo = np.flatnonzero(~conv)
        hard[todo] = osd_postprocess(H, U[todo], marg[todo], cfg).estimate
    elif cfg.osd_mode == "always":
        hard = osd_postprocess(H, U, marg, replace(cfg, osd_order=0)).estimate
    return hard[inverse]


def decode(code, SX, SZ, p, cfg: DecoderConfig):
    """Two-sector CSS decode of (B, l) syndrome stacks; a single pair is a
    stack of one.

    X errors are detected by H_Z (SZ) and Z errors by H_X (SX); the sectors
    are decoded independently. Returns the (B, n) stacks (EX, EZ).
    """
    return decode_batch(code.hz, SZ, p, cfg), decode_batch(code.hx, SX, p, cfg)
