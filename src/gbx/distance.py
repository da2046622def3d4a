"""Exact brute-force CSS minimum distance for small codes.

The X-distance is the minimum weight over ker(H_Z) \\ rowspace(H_X), the
Z-distance over ker(H_X) \\ rowspace(H_Z). For a GB code the two are equal:
with P the ring reflection i -> -i (so P A P = A^T), the qubit map
pi(u, v) = (P v, P u) takes ker(H_Z) onto ker(H_X) and rowspace(H_X) onto
rowspace(H_Z), keeping weights. So only the X sector is walked: its kernel
is enumerated in full (Gray-code walk over the span), guarded by a vector
budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .code import CssCode
from .gf2mat import mask_rows, nullspace, row_masks, row_reduce

BUDGET = 1 << 26  # vectors the kernel walk may cover


class BudgetExceeded(RuntimeError):
    """Enumeration space larger than the vector budget."""


@dataclass
class DistanceResult:
    d: int
    witness: np.ndarray  # n-bit support of a minimal X-type logical
    exhausted_dim: int  # dimension of the walked kernel, ker(H_Z)
    exact: bool = True  # False when a cap stopped enumeration early


def _sector_min(kernel_checks: np.ndarray, stabilizer_rows: np.ndarray,
                cap):
    """Minimal-weight kernel vector outside the stabilizer rowspace.

    Returns (weight, witness, dim, exact). ``exact`` is False when the cap
    triggered an early exit (a logical of weight < cap suffices).
    """
    n = kernel_checks.shape[1]
    basis = row_masks(nullspace(kernel_checks))  # int masks, bit j = qubit j
    dim = len(basis)
    if 1 << dim > BUDGET:
        raise BudgetExceeded(f"kernel dimension {dim} exceeds the budget")
    # stabilizer RREF rows keyed by their pivot bit; being fully reduced,
    # a vector's residue is its XOR with the rows whose pivot bits it holds
    rref, pivots = row_reduce(stabilizer_rows)
    reducer = {1 << c: r for c, r in zip(pivots, row_masks(rref))}
    pivmask = sum(reducer)

    best = None
    witness = None
    v = 0
    for g in range(1, 1 << dim):
        # Gray-code walk: flip the basis vector indexed by the lowest set bit
        v ^= basis[(g & -g).bit_length() - 1]
        w = v.bit_count()
        if best is not None and w >= best:
            continue
        # reduce against the stabilizer rowspace; nonzero residue == logical
        u, y = v, v & pivmask
        while y:
            low = y & -y
            u ^= reducer[low]
            y ^= low
        if u:
            best = w
            witness = mask_rows([v], n)[0]
            if cap is not None and best < cap:
                return best, witness, dim, False
    return best, witness, dim, True


def min_distance(code: CssCode, cap=None) -> DistanceResult:
    """Exact minimum distance by enumerating the X sector's kernel; the
    witness is an X-type logical (see the module docstring for why the Z
    sector has the same distance).

    With ``cap`` set, enumeration stops as soon as a logical operator of
    weight below the cap is found (enough to reject a candidate code); the
    returned ``d`` is then an upper bound and ``exact`` is False.
    """
    if code.k < 1:
        raise ValueError("code has no logical operators (k = 0)")
    return DistanceResult(*_sector_min(code.hz, code.hx, cap))
