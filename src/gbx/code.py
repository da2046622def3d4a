"""Generalized-bicycle CSS codes: construction, dimension, logical operators.

A GB code over F2[x]/(x^l - 1) with generators a(x), b(x) has parity-check
blocks H_X = (A|B) and H_Z = (B^T|A^T) built from the circulant matrices
A ~ a(x), B ~ b(x). Commutativity H_X H_Z^T = 0 holds by construction since
circulants commute.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf2mat import (circulant_from_poly, nullspace, rank_gf2, row_masks,
                     row_reduce)
from .gf2poly import (RingPoly, f2_degree, f2_gcd, format_poly,
                      parse_ring_poly, x_pow_minus_one)


@dataclass
class CssCode:
    ell: int
    a: RingPoly
    b: RingPoly
    hx: np.ndarray  # l x 2l
    hz: np.ndarray  # l x 2l
    n: int
    k: int
    d: int | None = None
    lx: np.ndarray | None = None  # k x n
    lz: np.ndarray | None = None
    label: str = ""


def dimension_gcd(a: RingPoly, b: RingPoly) -> int:
    """k = 2 deg gcd(a, b, x^l - 1), computed over plain F2[x]."""
    if a.ring_dim != b.ring_dim:
        raise ValueError("ring dimension mismatch")
    if a.mask == 0 and b.mask == 0:
        raise ValueError("generators must not both be zero")
    return 2 * f2_degree(f2_gcd(a.mask, b.mask, x_pow_minus_one(a.ring_dim)))


def build_gb(a: RingPoly, b: RingPoly, label: str = "",
             with_logicals: bool = True) -> CssCode:
    """Construct the GB code for a generator pair in the same ring; k is
    the gcd dimension of :func:`dimension_gcd`."""
    k = dimension_gcd(a, b)
    ell = a.ring_dim
    A = circulant_from_poly(a)
    B = circulant_from_poly(b)
    hx = np.hstack([A, B])
    hz = np.hstack([B.T, A.T])
    if any(map(any, _gf2_products(hx, hz))):
        raise AssertionError("commutativity violated; internal bug")
    code = CssCode(ell=ell, a=a, b=b, hx=hx, hz=hz, n=2 * ell,
                   k=k, label=label or f"GB(l={ell},a={a},b={b})")
    if with_logicals and k > 0:
        code.lx, code.lz = logical_basis(code)
    return code


def _gf2_products(X: np.ndarray, Y: np.ndarray) -> list:
    """X Y^T over GF(2) from int-mask rows (numpy's uint8 product: no BLAS)."""
    yrows = row_masks(Y)
    return [[(x & y).bit_count() & 1 for y in yrows] for x in row_masks(X)]


def _quotient_basis(kernel_of: np.ndarray, mod_rows_of: np.ndarray,
                    k: int) -> np.ndarray:
    """k kernel vectors of `kernel_of` independent modulo
    rowspace(mod_rows_of), picked greedily in nullspace order.

    One elimination of [mod_rows_of; kernel]^T does the greedy scan: a
    column is a pivot iff it is independent of every column before it.
    """
    ker = nullspace(kernel_of)
    m = mod_rows_of.shape[0]
    _, pivots = row_reduce(np.vstack([mod_rows_of, ker]).T)
    picked = [c - m for c in pivots if c >= m]
    if len(picked) != k:
        raise AssertionError("failed to extract a full logical basis")
    return ker[picked]


def logical_basis(code: CssCode) -> tuple[np.ndarray, np.ndarray]:
    """k X-logical and k Z-logical representatives.

    X-logicals live in ker(H_Z) outside rowspace(H_X); Z-logicals in
    ker(H_X) outside rowspace(H_Z). The pairing matrix lx @ lz^T is
    invertible over GF(2) because the symplectic pairing on the quotient
    is non-degenerate.
    """
    if code.k < 1:
        raise ValueError("code has no logical qubits")
    lx = _quotient_basis(code.hz, code.hx, code.k)
    lz = _quotient_basis(code.hx, code.hz, code.k)
    if rank_gf2(_gf2_products(lx, lz)) != code.k:
        raise AssertionError("logical pairing matrix is singular")
    return lx, lz


# ---------------------------------------------------------------------------
# serialization

def _rows_to_bitstrings(M: np.ndarray) -> list:
    return ["".join(str(int(b)) for b in row) for row in M]


def _rows_from_bitstrings(rows: list) -> np.ndarray:
    return np.array([[int(ch) for ch in r] for r in rows], dtype=np.uint8)


def int_field(value, name: str) -> int:
    """An integer field of an artifact; a non-integral number is refused
    rather than truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return int(value)


def code_to_dict(code: CssCode, embed_matrices: bool = False) -> dict:
    doc = {
        "ell": code.ell,
        "a": format_poly(code.a.mask),
        "b": format_poly(code.b.mask),
        "n": code.n,
        "k": code.k,
        "label": code.label,
    }
    if code.d is not None:
        doc["d"] = code.d
    if embed_matrices:
        doc["hx"] = _rows_to_bitstrings(code.hx)
        doc["hz"] = _rows_to_bitstrings(code.hz)
    return doc


def code_from_dict(doc: dict) -> CssCode:
    missing = [key for key in ("ell", "a", "b")
               if not isinstance(doc, dict) or key not in doc]
    if missing:
        raise KeyError(", ".join(missing))
    ell = int_field(doc["ell"], "ell")
    a = parse_ring_poly(doc["a"], ell)
    b = parse_ring_poly(doc["b"], ell)
    code = build_gb(a, b, label=doc.get("label", ""))
    if "hx" in doc:
        hx = _rows_from_bitstrings(doc["hx"])
        if not np.array_equal(hx, code.hx):
            raise ValueError("embedded hx disagrees with the generators")
    if "hz" in doc:
        hz = _rows_from_bitstrings(doc["hz"])
        if not np.array_equal(hz, code.hz):
            raise ValueError("embedded hz disagrees with the generators")
    if "d" in doc:
        code.d = int_field(doc["d"], "d")
    if "n" in doc and int_field(doc["n"], "n") != code.n:
        raise ValueError("inconsistent code length in document")
    if "k" in doc and int_field(doc["k"], "k") != code.k:
        raise ValueError("inconsistent code dimension in document")
    return code


def to_alist(M: np.ndarray) -> str:
    """Plain-text alist export of a binary matrix (MacKay convention,
    1-based column/row indices)."""
    A = np.asarray(M, dtype=np.uint8)
    rows, cols = A.shape
    col_deg = A.sum(axis=0).astype(int)
    row_deg = A.sum(axis=1).astype(int)
    lines = [f"{cols} {rows}",
             f"{int(col_deg.max(initial=0))} {int(row_deg.max(initial=0))}",
             " ".join(str(int(d)) for d in col_deg),
             " ".join(str(int(d)) for d in row_deg)]
    for j in range(cols):
        lines.append(" ".join(str(i + 1) for i in np.nonzero(A[:, j])[0]))
    for i in range(rows):
        lines.append(" ".join(str(j + 1) for j in np.nonzero(A[i, :])[0]))
    return "\n".join(lines) + "\n"
