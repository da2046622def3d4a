"""GF(2) matrix primitives and the circulant/polynomial correspondence."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbx.gf2mat import (as_gf2, circulant_from_poly, nullspace, rank_gf2,
                        row_reduce)
from gbx.gf2poly import RingPoly, f2_mul, ring_reduce


def rank_oracle(M):
    """Independent elimination rank over GF(2) (no shared helpers)."""
    A = [int("".join(map(str, row)), 2) for row in np.asarray(M) & 1]
    rank = 0
    for col in range(np.asarray(M).shape[1]):
        bit = 1 << (np.asarray(M).shape[1] - 1 - col)
        piv = next((i for i in range(rank, len(A)) if A[i] & bit), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        for i in range(len(A)):
            if i != rank and A[i] & bit:
                A[i] ^= A[rank]
        rank += 1
    return rank


def rref_reference(M):
    """Column-by-column elimination, the loop the int-mask row insertion of
    `row_reduce` replaced: (rref, pivot columns)."""
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


def test_as_gf2_masks_to_bits():
    A = as_gf2([[2, 3], [4, 5]])
    assert A.dtype == np.uint8
    assert np.array_equal(A, [[0, 1], [0, 1]])
    with pytest.raises(ValueError):
        as_gf2([1, 0, 1])


def test_circulant_structure():
    p = RingPoly.from_mask(0b10011, 5)  # 1 + x + x^4
    C = circulant_from_poly(p)
    assert C.shape == (5, 5)
    # first column holds the coefficients, M[i, j] = p_{(i-j) mod l}
    assert np.array_equal(C[:, 0], [1, 1, 0, 0, 1])
    for i in range(5):
        for j in range(5):
            assert C[i, j] == (p.mask >> ((i - j) % 5)) & 1


@st.composite
def ring_pairs(draw):
    """A ring size l in 1..16 and two masks of that ring."""
    ell = draw(st.integers(1, 16))
    mask = st.integers(0, (1 << ell) - 1)
    return ell, draw(mask), draw(mask)


@given(ring_pairs())
@settings(max_examples=200, deadline=None)
def test_circulant_product_matches_ring_product(pair):
    ell, u, v = pair
    CU = circulant_from_poly(RingPoly(u, ell))
    CV = circulant_from_poly(RingPoly(v, ell))
    prod = (CU @ CV) % 2
    # the ring product is the plain product with exponents folded mod l
    ring = RingPoly(ring_reduce(f2_mul(u, v), ell), ell)
    assert np.array_equal(prod, circulant_from_poly(ring))
    # circulants commute
    assert np.array_equal(prod, (CV @ CU) % 2)


def test_row_reduce_properties():
    rng = np.random.default_rng(22)
    for _ in range(50):
        m, n = rng.integers(1, 9, size=2)
        A = rng.integers(0, 2, size=(m, n)).astype(np.uint8)
        R, pivots = row_reduce(A)
        assert len(pivots) == rank_oracle(A)
        # pivot columns are unit vectors in the rref
        for i, c in enumerate(pivots):
            col = np.zeros(m, dtype=np.uint8)
            col[i] = 1
            assert np.array_equal(R[:, c], col)
        # row space is preserved: every rref row reduces to zero against A's
        # rows and vice versa (rank check captures both inclusions)
        assert rank_oracle(np.vstack([A, R])) == len(pivots)


def test_rank_matches_oracle():
    rng = np.random.default_rng(23)
    for _ in range(100):
        m, n = rng.integers(1, 10, size=2)
        A = rng.integers(0, 2, size=(m, n)).astype(np.uint8)
        assert rank_gf2(A) == rank_oracle(A)


def test_nullspace_is_a_kernel_basis():
    rng = np.random.default_rng(24)
    for _ in range(50):
        m, n = rng.integers(1, 9, size=2)
        A = rng.integers(0, 2, size=(m, n)).astype(np.uint8)
        N = nullspace(A)
        assert N.shape[0] == n - rank_gf2(A)
        if N.size:
            assert not ((A @ N.T) % 2).any()
            assert rank_gf2(N) == N.shape[0]


def test_in_rowspace():
    # v lies in the row space iff appending it leaves the rank unchanged
    A = np.array([[1, 0, 1, 0], [0, 1, 1, 0]], dtype=np.uint8)

    def in_rowspace(v):
        return rank_gf2(np.vstack([A, v])) == rank_gf2(A)

    assert in_rowspace([1, 1, 0, 0])
    assert not in_rowspace([0, 0, 0, 1])


def test_row_basis_spans_input():
    A = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=np.uint8)
    R, pivots = row_reduce(A)
    B = R[:len(pivots)]
    assert B.shape == (2, 3)
    assert rank_gf2(np.vstack([A, B])) == 2


@st.composite
def gf2_matrices(draw):
    """Up to 20 x 140 (more than two 64-bit words a row), empty shapes,
    all-zero and all-one inputs, sparse and dense, with repeated rows."""
    m, n = draw(st.integers(0, 20)), draw(st.integers(0, 140))
    density = draw(st.sampled_from([0.0, 0.05, 0.3, 0.5, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = (rng.random((m, n)) < density).astype(np.uint8)
    if m > 1 and draw(st.booleans()):
        A[rng.integers(0, m)] = A[rng.integers(0, m)]  # a dependent row
    return A


@settings(max_examples=300, deadline=None)
@given(A=gf2_matrices())
@example(A=np.zeros((0, 5), dtype=np.uint8))
@example(A=np.zeros((4, 0), dtype=np.uint8))
@example(A=np.zeros((0, 0), dtype=np.uint8))
@example(A=np.zeros((6, 70), dtype=np.uint8))
@example(A=np.ones((20, 140), dtype=np.uint8))
def test_row_reduce_equals_column_reference(A):
    R, pivots = row_reduce(A)
    want, want_pivots = rref_reference(A)
    assert pivots == want_pivots
    assert R.dtype == want.dtype and R.shape == want.shape
    assert np.array_equal(R, want)


@st.composite
def gf2_stacks(draw):
    """(K, m, n) stacks up to 6 x 12 x 150 (rows wider than two 64-bit
    words), each system of its own density, so ranks differ within a stack;
    empty shapes, all-zero and all-one systems included."""
    K, m, n = (draw(st.integers(0, 6)), draw(st.integers(0, 12)),
               draw(st.integers(0, 150)))
    density = draw(st.lists(st.sampled_from([0.0, 0.05, 0.3, 0.5, 0.9, 1.0]),
                            min_size=K, max_size=K))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (rng.random((K, m, n))
            < np.array(density)[:, None, None]).astype(np.uint8)


@settings(max_examples=300, deadline=None)
@given(A=gf2_stacks())
@example(A=np.zeros((0, 3, 5), dtype=np.uint8))
@example(A=np.zeros((3, 0, 5), dtype=np.uint8))
@example(A=np.zeros((3, 4, 0), dtype=np.uint8))
@example(A=np.stack([np.zeros((8, 140)), np.ones((8, 140)),
                     np.eye(8, 140, 67)]).astype(np.uint8))  # ranks 0, 1, 8
def test_row_reduce_stack_equals_column_reference(A):
    R, pivots = row_reduce(A)
    assert R.dtype == np.uint8 and R.shape == A.shape
    assert len(pivots) == len(A)
    for k in range(len(A)):
        want, want_pivots = rref_reference(A[k])
        assert pivots[k] == want_pivots
        assert np.array_equal(R[k], want)
