"""Slow reference computations that fast library paths are checked against,
and the paper's closed forms that the acceptance suite checks the library
against."""

from fractions import Fraction

import numpy as np

from gbx.gf2mat import rank_gf2
from gbx.gf2poly import f2_degree, f2_gcd, x_pow_minus_one


def dimension_rank(code) -> int:
    """k = n - rank(H_X) - rank(H_Z) (rank-nullity for CSS codes)."""
    return code.n - rank_gf2(code.hx) - rank_gf2(code.hz)


def geometric_sum(ell: int, kappa: int) -> int:
    """sum_{i=0}^{kappa-1} x^{i*l} as a plain polynomial."""
    return sum(1 << (i * ell) for i in range(kappa))


def dim_exact_coprime(plan, m: int) -> int:
    """Closed-form dimension of member m (1-based) of an extension plan:
        k_m = 2 [ deg gcd(p, x^l - 1) + deg gcd(phi, x^l - 1)
                + deg gcd(p, S) + deg gcd(phi, S) ],
    phi = gcd(a, b), S = sum_{i<kappa_m} x^{il}, p = p^(m). It holds when p
    and phi are coprime and kappa_m is odd (x^l - 1 and S coprime)."""
    p = plan.p_seq[m - 1]
    phi = f2_gcd(plan.base_a.mask, plan.base_b.mask)
    modulus = x_pow_minus_one(plan.ell)
    sigma = geometric_sum(plan.ell, plan.kappa[m - 1])
    return 2 * sum(f2_degree(f2_gcd(u, v)) for u in (p, phi)
                   for v in (modulus, sigma))


def max_row_weight(code) -> int:
    """Largest row weight of H_X and H_Z, read from the matrices."""
    return int(max(code.hx.sum(axis=1).max(), code.hz.sum(axis=1).max()))


def shor_check_matrices(d: int) -> tuple:
    """(H_X, H_Z) of the [[d^2, 1, d]] generalized Shor code, the
    O(1/m)-sparse reference family of row and column densities
    (2/d, 4/d^2): weight-2 Z checks within each block of d qubits,
    weight-2d X checks across adjacent blocks."""
    n = d * d
    hz = np.zeros((d * (d - 1), n), dtype=np.uint8)
    for i in range(d):
        for t in range(d - 1):
            hz[i * (d - 1) + t, d * i + t: d * i + t + 2] = 1
    hx = np.zeros((d - 1, n), dtype=np.uint8)
    for j in range(d - 1):
        hx[j, d * j: d * j + 2 * d] = 1
    return hx, hz


def shor_density(d: int) -> tuple:
    """(max row weight, max qubit participation) / n of the Shor checks."""
    hx, hz = shor_check_matrices(d)
    w_r = max(int(hx.sum(axis=1).max()), int(hz.sum(axis=1).max()))
    w_c = int((hx.sum(axis=0) + hz.sum(axis=0)).max())
    return Fraction(w_r, d * d), Fraction(w_c, d * d)
