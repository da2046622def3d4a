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
    if np.any(p <= 0) or np.any(p > 0.5):
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

    Ranking, candidate tables and approximate costs are computed for the
    whole stack at once, the costs in blocks of at most 2^18 pivot bits;
    each row's system is eliminated with :func:`row_reduce`. In a row,
    candidates whose approximate cost lies within a rounding-error bound of
    the minimum are re-scored exactly, so the choice does not depend on the
    product's summation order. Raises ValueError when a syndrome is not in
    the column space of H.
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
    if K == 0:
        return DecodeOutcome(estimate=np.zeros((0, n), dtype=np.uint8))

    col = np.arange(K)[:, None]  # row index, broadcast along columns
    order = np.argsort(llr, axis=1, kind="stable")  # most error-prone first
    lp = np.zeros((K, n + 1))  # entry n of each row: no flip, zero cost
    lp[:, :n] = llr[col, order]
    # row i holds [H[:, order[i]] | s_i] transposed: one line per column
    columns = np.concatenate([H.T[order], S[:, None, :]], axis=1)
    for i, A in enumerate(columns):
        R, p = row_reduce(A.T)
        if p and p[-1] == n:
            raise ValueError("syndrome is not in the column space of H")
        if i == 0:  # every row has rank(H) pivots
            rank = len(p)
            piv = np.empty((K, rank), dtype=np.intp)
            b = np.empty((K, rank), dtype=np.uint8)
            # AT[i, c]: column c of row i's eliminated system in its pivot
            # rows; the syndrome column n becomes "no flip"
            AT = np.zeros((K, n + 1, rank), dtype=np.uint8)
        piv[i], b[i], AT[i, :n] = p, R[:rank, n], R[:rank, :n].T
    del columns
    is_piv = np.zeros((K, n), dtype=bool)
    is_piv[col, piv] = True
    nonpiv = np.nonzero(~is_piv)[1].reshape(K, n - rank)
    w = min(m if cfg.osd_order is None else cfg.osd_order, n - rank)
    T = nonpiv[:, :w]

    # candidate k of row i flips columns f1[i, k] and f2[i, k]; column n
    # stands for no flip
    f1 = f2 = np.full((K, 1), n)
    if w > 0:
        # pairs j1 < j2 in row-major order, which is combinations order
        j1, j2 = np.nonzero(np.arange(w)[:, None] < np.arange(w))
        f1 = np.hstack([f1, T, T[:, j1]])
        f2 = np.hstack([f2, np.full((K, w), n), T[:, j2]])
    C = f1.shape[1]
    lp_piv = lp[col, piv]

    def pivot_bits(rows, k):
        return b[rows] ^ AT[rows, f1[rows, k]] ^ AT[rows, f2[rows, k]]

    # approximate costs over (row, candidate) pairs, pair index i * C + k
    approx = np.empty(K * C)
    step = max(1, (1 << 18) // max(rank, 1))  # bounds the temporaries
    for lo in range(0, K * C, step):
        rows, k = np.divmod(np.arange(lo, min(lo + step, K * C)), C)
        approx[lo:lo + len(rows)] = (
            np.einsum("pr,pr->p", pivot_bits(rows, k), lp_piv[rows])
            + lp[rows, f1[rows, k]] + lp[rows, f2[rows, k]])
    approx = approx.reshape(K, C)

    # A cost sums at most n + 2 terms of total magnitude <= sum|lp|, so two
    # summation orders differ by at most g = (n + 2) eps sum|lp|: a candidate
    # more than 2g above the approximate minimum costs more, exactly, than
    # the candidate there. tol = 4g leaves a factor 2 for higher-order terms.
    tol = 4 * (n + 2) * np.finfo(np.float64).eps * np.abs(lp).sum(axis=1)
    rescore_all = ~(np.isfinite(tol) & np.isfinite(approx).all(axis=1))
    near = ((approx <= approx.min(axis=1)[:, None]
             + tol[:, None]) | rescore_all[:, None])
    pick = near.argmax(axis=1)  # the only near candidate, unless ...
    for i in np.flatnonzero(near.sum(axis=1) > 1):  # ... exact costs decide
        cand = np.flatnonzero(near[i])
        E = _candidate_flips(n, piv[i], f1[i, cand], f2[i, cand],
                             pivot_bits(i, cand))
        costs = [float(lp[i, :n][e == 1].sum()) for e in E]
        # min keeps the first of equal costs
        pick[i] = cand[min(range(len(cand)), key=costs.__getitem__)]

    rows = col[:, 0]
    E = _candidate_flips(n, piv, f1[rows, pick], f2[rows, pick],
                         pivot_bits(rows, pick))
    estimate = np.zeros((K, n), dtype=np.uint8)
    estimate[col, order] = E
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


def decode(code, syndrome_x, syndrome_z, p, cfg: DecoderConfig | None = None):
    """Two-sector CSS decode of one syndrome pair: a batch of one.

    X errors are detected by H_Z (syndrome_z) and Z errors by H_X
    (syndrome_x); the sectors are decoded independently. Returns (ex, ez).
    """
    cfg = cfg or DecoderConfig()
    ex = decode_batch(code.hz, np.asarray(syndrome_z)[None, :], p, cfg)[0]
    ez = decode_batch(code.hx, np.asarray(syndrome_x)[None, :], p, cfg)[0]
    return ex, ez
