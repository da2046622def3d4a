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


def circulant_from_poly(p: RingPoly) -> np.ndarray:
    """l x l circulant with first column (p_0, ..., p_{l-1}); each later
    column is the previous one shifted cyclically down one step, so
    M[i, j] = p_{(i - j) mod l}."""
    ell = p.ring_dim
    c = np.unpackbits(np.frombuffer(p.mask.to_bytes((ell + 7) // 8, "little"),
                                    dtype=np.uint8),
                      count=ell, bitorder="little")
    idx = (np.arange(ell)[:, None] - np.arange(ell)[None, :]) % ell
    return c[idx]


def is_circulant(M: np.ndarray) -> bool:
    A = as_gf2(M)
    n, m = A.shape
    if n != m:
        return False
    first = A[:, 0]
    for j in range(1, m):
        if not np.array_equal(A[:, j], np.roll(first, j)):
            return False
    return True


def poly_from_circulant(M) -> RingPoly:
    """Inverse of :func:`circulant_from_poly`; rejects non-circulant input."""
    A = as_gf2(M)
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix is not square")
    if not is_circulant(A):
        raise ValueError("matrix is not circulant")
    mask = int.from_bytes(np.packbits(A[:, 0], bitorder="little").tobytes(),
                          "little")
    return RingPoly(mask, A.shape[0])


def row_reduce(M) -> tuple[np.ndarray, list]:
    """Reduced row-echelon form over GF(2); returns (rref, pivot columns)."""
    A = as_gf2(M).copy()
    rows, cols = A.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hits = np.nonzero(A[r:, c])[0]
        if hits.size == 0:
            continue
        piv = r + hits[0]
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        elim = np.nonzero(A[:, c])[0]
        A[elim[elim != r]] ^= A[r]
        pivots.append(c)
        r += 1
    return A, pivots


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
