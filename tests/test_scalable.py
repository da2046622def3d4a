"""Triple-block and zero-insertion scalable families.

The triple-block map is built from polynomials in the package; the matrix
form F(C) = [[L,U,C],[C,L,U],[U,C,L]] lives here as the reference it is
checked against.
"""

import dataclasses

import numpy as np
import pytest

from gbx.code import build_gb
from gbx.extension import extend_family
from gbx.gf2mat import as_gf2, circulant_from_poly
from gbx.gf2poly import RingPoly, f2_mul, parse_ring_poly, ring_reduce
from gbx.scalable import (ZeroInsertPlan, TripleBlockPlan, build_triple_family,
                          build_insertion_family, triple_extension_plan,
                          verify_embedding)
from oracles import max_row_weight


def base_code():
    return build_gb(parse_ring_poly("1+x^4", 5),
                    parse_ring_poly("1+x+x^2+x^4", 5), label="[[10,2,3]]")


# ---------------------------------------------------------------------------
# matrix reference for the triple-block map

def triangular_split(C) -> tuple[np.ndarray, np.ndarray]:
    """Split a square matrix into L (entries with j <= i) and U (j > i);
    L XOR U reconstructs the input."""
    A = as_gf2(C)
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix is not square")
    return np.tril(A), np.triu(A, k=1)


def block_compose(grid) -> np.ndarray:
    """Concatenate a 2-D arrangement of blocks; dimensions must be consistent
    per grid row and per grid column."""
    if not grid or not all(row for row in grid):
        raise ValueError("empty block grid")
    blocks = [[as_gf2(b) for b in row] for row in grid]
    ncols = len(blocks[0])
    for row in blocks:
        if len(row) != ncols:
            raise ValueError("ragged block grid")
    for row in blocks:
        if len({b.shape[0] for b in row}) != 1:
            raise ValueError("inconsistent block heights within a grid row")
    for j in range(ncols):
        if len({row[j].shape[1] for row in blocks}) != 1:
            raise ValueError("inconsistent block widths within a grid column")
    return np.block([[b for b in row] for row in blocks]).astype(np.uint8)


def f_triple(C) -> np.ndarray:
    """Triple-block expansion of a square matrix."""
    A = as_gf2(C)
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix is not square")
    L, U = triangular_split(A)
    return block_compose([[L, U, A], [A, L, U], [U, A, L]])


def triple_blocks_by_matrices(base, M):
    """Apply f_triple to both circulant blocks level by level: the (A, B)
    circulants of members 1..M."""
    blocks = [(circulant_from_poly(base.a), circulant_from_poly(base.b))]
    for _ in range(2, M + 1):
        blocks.append(tuple(f_triple(C) for C in blocks[-1]))
    return blocks


def test_triangular_split_reconstructs():
    rng = np.random.default_rng(25)
    A = rng.integers(0, 2, size=(6, 6)).astype(np.uint8)
    L, U = triangular_split(A)
    assert np.array_equal(L ^ U, A)
    assert not np.triu(L, k=1).any()
    assert not np.tril(U).any()
    with pytest.raises(ValueError):
        triangular_split(np.zeros((2, 3), dtype=np.uint8))


def test_block_compose():
    I = np.eye(2, dtype=np.uint8)
    Z = np.zeros((2, 2), dtype=np.uint8)
    M = block_compose([[I, Z], [Z, I]])
    assert np.array_equal(M, np.eye(4, dtype=np.uint8))
    with pytest.raises(ValueError):
        block_compose([[I, Z], [Z]])
    with pytest.raises(ValueError):
        block_compose([[I, np.zeros((3, 2), np.uint8)]])
    with pytest.raises(ValueError):
        block_compose([])


def test_f_triple_is_multiplication_by_one_plus_xl():
    rng = np.random.default_rng(51)
    for _ in range(30):
        ell = int(rng.integers(2, 8))
        c = RingPoly.from_mask(int(rng.integers(1, 1 << ell)), ell)
        big = f_triple(circulant_from_poly(c))
        assert big.shape == (3 * ell, 3 * ell)
        expect = ring_reduce(f2_mul(c.mask, (1 << ell) | 1), 3 * ell)
        assert np.array_equal(big,
                              circulant_from_poly(RingPoly(expect, 3 * ell)))
    with pytest.raises(ValueError):
        f_triple(np.zeros((2, 3), dtype=np.uint8))


def test_triple_family_shapes_and_weights():
    fam = build_triple_family(TripleBlockPlan(base_code(), 3))
    assert [c.n for c in fam] == [10, 30, 90]
    ws = [max_row_weight(c) for c in fam]
    assert ws == [6, 12, 24]  # weights double at every level
    ks = [c.k for c in fam]
    assert all(k2 >= k1 for k1, k2 in zip(ks, ks[1:]))


def test_triple_embeddings_hold():
    fam = build_triple_family(TripleBlockPlan(base_code(), 3))
    for small, large in zip(fam, fam[1:]):
        ok, witness = verify_embedding(small, large)
        assert ok, witness
        assert "hx_block_columns" in witness


def test_triple_matches_its_extension_plan():
    base = base_code()
    plan = triple_extension_plan(base, 3)
    assert plan.kappa == (1, 3, 9)
    direct = build_triple_family(TripleBlockPlan(base, 3))
    via_plan = extend_family(plan, with_logicals=False)
    for x, y in zip(direct, via_plan):
        assert np.array_equal(x.hx, y.hx)
        assert np.array_equal(x.hz, y.hz)


def test_triple_family_matches_matrix_map():
    rng = np.random.default_rng(53)
    bases = [base_code()] + [
        build_gb(RingPoly.from_mask(int(rng.integers(1, 1 << ell)), ell),
                 RingPoly.from_mask(int(rng.integers(1, 1 << ell)), ell))
        for ell in rng.integers(2, 7, size=6)]
    for base in bases:
        fam = build_triple_family(TripleBlockPlan(base, 4))
        ref = triple_blocks_by_matrices(base, 4)
        assert fam[0] is base
        assert len(fam) == len(ref)
        for m, (x, (A, B)) in enumerate(zip(fam, ref), start=1):
            assert m == 1 or x.label == f"scale3 m={m},l={x.ell}"
            assert np.array_equal(circulant_from_poly(x.a), A)
            assert np.array_equal(circulant_from_poly(x.b), B)


def test_embedding_identity_and_failure_cases():
    base = base_code()
    # equal rings: only consecutive triple members (ratio 3) are compared
    ok, witness = verify_embedding(base, base)
    assert not ok and "reason" in witness
    # wrong size ratio
    mid = build_gb(parse_ring_poly("1+x", 10), parse_ring_poly("1+x^2", 10))
    ok, witness = verify_embedding(base, mid)
    assert not ok and "reason" in witness
    # 3x size but unrelated generators: must be rejected, not rubber-stamped
    fake = build_gb(parse_ring_poly("1", 15), parse_ring_poly("x", 15))
    ok, witness = verify_embedding(base, fake)
    assert not ok and "mismatch" in witness
    # H_X embeds but H_Z does not: the witness names the first missing
    # H_Z entry
    large = build_triple_family(TripleBlockPlan(base, 2))[1]
    large = dataclasses.replace(large, hz=np.zeros_like(large.hz))
    ok, witness = verify_embedding(base, large)
    i, j = np.argwhere(base.hz)[0]
    assert not ok and witness["mismatch"] == ("hz", i, j)


def test_insertion_family_generator_examples():
    # 1 + x split at j=1 with r=1 becomes 1 + x^2 in the 4-ring
    base = build_gb(parse_ring_poly("1+x", 3), parse_ring_poly("1", 3))
    fam = build_insertion_family(ZeroInsertPlan(base, 2, j=1, r=1))
    assert fam[1].a == parse_ring_poly("1+x^2", 4)
    assert fam[1].b == parse_ring_poly("1", 4)
    # 1 + x + x^3 split at j=2 with r=2 becomes 1 + x + x^5, and with
    # r = 2 * 2 at member 3 becomes 1 + x + x^7
    base = build_gb(parse_ring_poly("1+x+x^3", 5), parse_ring_poly("x^2", 5))
    fam = build_insertion_family(ZeroInsertPlan(base, 3, j=2, r=2))
    assert fam[1].a == parse_ring_poly("1+x+x^5", 7)
    assert fam[2].a == parse_ring_poly("1+x+x^7", 9)
    assert fam[2].b == parse_ring_poly("x^6", 9)


def test_insertion_family_preserves_weights():
    fam = build_insertion_family(ZeroInsertPlan(base_code(), 3, j=2, r=5))
    assert [c.n for c in fam] == [10, 20, 30]
    assert [max_row_weight(c) for c in fam] == [6, 6, 6]
    ks = [c.k for c in fam]
    assert all(k2 >= k1 for k1, k2 in zip(ks, ks[1:]))


def test_insertion_random_weight_preservation():
    rng = np.random.default_rng(52)
    for _ in range(20):
        ell = int(rng.integers(4, 9))
        a = RingPoly.from_mask(int(rng.integers(1, 1 << ell)), ell)
        b = RingPoly.from_mask(int(rng.integers(1, 1 << ell)), ell)
        base = build_gb(a, b, with_logicals=False)
        j = int(rng.integers(1, ell - 1))
        r = int(rng.integers(1, 4))
        fam = build_insertion_family(ZeroInsertPlan(base, 3, j, r))
        w0 = max_row_weight(fam[0])
        for m, code in enumerate(fam, start=1):
            assert code.ell == ell + r * (m - 1)
            assert max_row_weight(code) == w0


def test_plan_validation():
    base = base_code()
    with pytest.raises(ValueError):
        TripleBlockPlan(base, 0)
    with pytest.raises(ValueError):
        ZeroInsertPlan(base, 2, j=0, r=1)
    with pytest.raises(ValueError):
        ZeroInsertPlan(base, 2, j=4, r=1)  # j must stay below ell - 1
    with pytest.raises(ValueError):
        ZeroInsertPlan(base, 2, j=2, r=0)
