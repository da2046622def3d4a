"""Slow reference computations that fast library paths are checked against."""

from gbx.gf2mat import rank_gf2


def dimension_rank(code) -> int:
    """k = n - rank(H_X) - rank(H_Z) (rank-nullity for CSS codes)."""
    return code.n - rank_gf2(code.hx) - rank_gf2(code.hz)
