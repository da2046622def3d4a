"""Dense GF(2) matrix primitives and the polynomial/circulant isomorphism.

Matrices are numpy uint8 arrays containing only 0/1. All code sizes in
scope (n up to a few thousand) are comfortably dense.
"""

from __future__ import annotations

import numpy as np

from .gf2poly import RingPoly


def as_gf2(M) -> np.ndarray:
    A = np.asarray(M, dtype=np.uint8)
    if A.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    return A & 1


def row_masks(M) -> list:
    """The rows of a GF(2) matrix as int masks, bit j standing for column j."""
    A = as_gf2(M)
    w = (A.shape[1] + 7) // 8
    buf = np.packbits(A, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(buf[i * w:i * w + w], "little")
            for i in range(A.shape[0])]


def mask_rows(masks, cols: int) -> np.ndarray:
    """Inverse of :func:`row_masks`: a (len(masks), cols) uint8 matrix."""
    width = (cols + 7) // 8
    buf = b"".join(x.to_bytes(width, "little") for x in masks)
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(len(masks), width)
    return np.unpackbits(packed, axis=1, count=cols, bitorder="little")


def circulant_from_poly(p: RingPoly) -> np.ndarray:
    """l x l circulant with first column (p_0, ..., p_{l-1}); each later
    column is the previous one shifted cyclically down one step, so
    M[i, j] = p_{(i - j) mod l}."""
    ell = p.ring_dim
    c = mask_rows([p.mask], ell)[0]
    idx = (np.arange(ell)[:, None] - np.arange(ell)[None, :]) % ell
    return c[idx]


def row_reduce(M) -> tuple[np.ndarray, list]:
    """Reduced row-echelon form over GF(2); returns (rref, pivot columns).

    The RREF is unique: the nonzero rows come first, in pivot order,
    followed by zero rows. A matrix's rows are int masks (bit j is column j)
    inserted one at a time into a fully reduced basis keyed by pivot bit: a
    row is cleared at the existing pivots, and what is left, if anything,
    takes its lowest set bit as a new pivot and is XORed into every basis
    row holding that bit.

    A (K, m, n) stack is eliminated in lockstep, one column step of a few
    numpy operations across the stack at a time, on rows packed into uint64
    words; it returns the (K, m, n) RREFs and a list of K pivot lists.
    """
    if np.ndim(M) == 3:
        return _row_reduce_stack(np.asarray(M, dtype=np.uint8) & 1)
    A = as_gf2(M)
    rows, cols = A.shape
    basis = {}  # pivot bit index -> reduced row
    pivmask = 0
    for x in row_masks(A):
        y = x & pivmask
        while y:
            low = y & -y
            x ^= basis[low.bit_length() - 1]
            y ^= low
        if not x:
            continue
        low = x & -x
        for b, r in basis.items():
            if r & low:
                basis[b] = r ^ x
        basis[low.bit_length() - 1] = x
        pivmask |= low
    pivots = sorted(basis)
    R = mask_rows([basis[b] for b in pivots] + [0] * (rows - len(pivots)),
                  cols)
    return R, pivots


def _row_reduce_stack(A):
    K, rows, cols = A.shape
    words = np.zeros((K, rows, -(-cols // 64) * 8), dtype=np.uint8)
    words[..., :(cols + 7) // 8] = np.packbits(A, axis=2, bitorder="little")
    P = words.view("<u8").transpose(2, 0, 1).copy()  # (word, system, row)
    ks, at = np.arange(K), np.zeros(K, dtype=np.intp)  # at: next pivot row
    is_piv = np.zeros((K, cols), dtype=bool)
    for c in range(cols if rows else 0):
        # rows from `at` on are zero left of column c, and so in words < wd
        wd = c // 64
        bit = (P[wd] >> np.uint64(c % 64)) & np.uint64(1)
        hit = (bit != 0) & (np.arange(rows) >= at[:, None])
        has = hit.any(axis=1)
        if not has.any():
            continue
        top = np.minimum(at, rows - 1)  # no pivot: top swaps with itself
        src = np.where(has, hit.argmax(axis=1), top)
        P[wd:, ks, top], P[wd:, ks, src] = P[wd:, ks, src], P[wd:, ks, top]
        bit[ks, src] = 0  # the pivot row, now at top; top had no bit
        bit *= has[:, None]
        P[wd:] ^= P[wd:, ks, top][..., None] & -bit
        is_piv[:, c], at = has, at + has
    R = np.unpackbits(P.transpose(1, 2, 0).copy().view(np.uint8), axis=2,
                      count=cols, bitorder="little")
    cut = np.cumsum(is_piv.sum(axis=1)).tolist()
    flat = np.nonzero(is_piv)[1].tolist()
    return R, [flat[a:b] for a, b in zip([0] + cut, cut)]


def rank_gf2(M) -> int:
    """Rank over GF(2); the input is left unmodified."""
    return len(row_reduce(M)[1])


def nullspace(M) -> np.ndarray:
    """Basis of the right nullspace over GF(2), one vector per row."""
    R, pivots = row_reduce(M)
    free = np.delete(np.arange(R.shape[1]), pivots)
    basis = np.zeros((len(free), R.shape[1]), dtype=np.uint8)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = R[:len(pivots)][:, free].T
    return basis
