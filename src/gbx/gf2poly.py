"""Polynomial arithmetic over F2[x] and the quotient rings F2[x]/(x^l - 1).

Two representations are used throughout:

* plain polynomials over F2[x] are python ints, bit i holding the
  coefficient of x^i (so ``0b10001`` is ``1 + x^4``);
* ring elements carry their ring dimension explicitly via :class:`RingPoly`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

NEG_INF = float("-inf")  # degree of the zero polynomial


# ---------------------------------------------------------------------------
# plain F2[x] arithmetic on int bit-masks

def f2_degree(p: int):
    """Degree of a plain polynomial; -inf for the zero polynomial."""
    if p == 0:
        return NEG_INF
    return p.bit_length() - 1


def f2_weight(p: int) -> int:
    return bin(p).count("1")


def f2_mul(u: int, v: int) -> int:
    """Carry-less (XOR) product in F2[x]."""
    out = 0
    while v:
        low = v & -v
        out ^= u << (low.bit_length() - 1)
        v ^= low
    return out


def f2_mod(u: int, v: int) -> int:
    """Remainder of u by v in F2[x]."""
    if v == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    dv = v.bit_length()
    while u.bit_length() >= dv:
        u ^= v << (u.bit_length() - dv)
    return u


def f2_gcd(*polys: int) -> int:
    """Greatest common divisor of plain polynomials (Euclid, n-ary by folding).

    Over F2 every nonzero polynomial is already monic, so no normalization
    step is needed. Raises if all arguments are zero.
    """
    g = 0
    for p in polys:
        a, b = g, p
        while b:
            a, b = b, f2_mod(a, b)
        g = a
    if g == 0:
        raise ValueError("gcd of all-zero polynomials is undefined")
    return g


def x_pow_minus_one(ell: int) -> int:
    """The modulus x^l + 1 (== x^l - 1 over F2) as a plain polynomial."""
    return (1 << ell) | 1


# ---------------------------------------------------------------------------
# quotient-ring elements

@dataclass(frozen=True)
class RingPoly:
    """Element of F2[x]/(x^l - 1); bit i of ``mask`` is the coefficient of
    x^i."""

    mask: int
    ring_dim: int

    def __post_init__(self):
        # plain ints, so that numpy integers never reach the unbounded
        # shifts of the polynomial arithmetic
        object.__setattr__(self, "mask", operator.index(self.mask))
        object.__setattr__(self, "ring_dim", operator.index(self.ring_dim))
        if self.ring_dim < 1:
            raise ValueError("ring dimension must be positive")
        if self.mask < 0 or self.mask >> self.ring_dim:
            raise ValueError("polynomial does not fit in the ring")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_mask(cls, mask: int, ring_dim: int) -> "RingPoly":
        return cls(mask, ring_dim)

    def __str__(self) -> str:
        return format_poly(self.mask)


def ring_reduce(mask: int, ring_dim: int) -> int:
    """Reduce a plain polynomial modulo x^ring_dim - 1 (fold exponents)."""
    if ring_dim < 1:
        raise ValueError("ring dimension must be positive")
    out = mask & ((1 << ring_dim) - 1)
    mask >>= ring_dim
    while mask:
        out ^= mask & ((1 << ring_dim) - 1)
        mask >>= ring_dim
    return out


# ---------------------------------------------------------------------------
# text format: "1+x+x^4" monomial sums, or bit strings "11001"

def _exponents(text: str) -> list:
    """Exponents of the terms of a polynomial in monomial or bit-string form,
    one entry per term."""
    s = text.strip().lower().replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    if len(s) > 1 and set(s) <= {"0", "1"}:
        # bit string, index i = coefficient of x^i
        return [i for i, ch in enumerate(s) if ch == "1"]
    if s == "0":
        return []
    out = []
    for term in s.split("+"):
        if term == "1":
            out.append(0)
        elif term == "x":
            out.append(1)
        elif term.startswith("x^"):
            e = int(term[2:])
            if e < 0:
                raise ValueError(f"negative exponent in {text!r}")
            out.append(e)
        else:
            raise ValueError(f"cannot parse polynomial term {term!r}")
    return out


def parse_poly(text: str) -> int:
    """Parse a plain polynomial from monomial or bit-string form."""
    mask = 0
    for e in _exponents(text):
        mask ^= 1 << e
    return mask


def parse_ring_poly(text: str, ring_dim: int) -> RingPoly:
    """Parse a ring element, folding each exponent mod ring_dim as it is
    read, so that no mask wider than the ring is built."""
    ring_dim = RingPoly(0, ring_dim).ring_dim  # a plain int, checked positive
    mask = 0
    for e in _exponents(text):
        mask ^= 1 << (e % ring_dim)
    return RingPoly.from_mask(mask, ring_dim)


def format_poly(mask: int) -> str:
    """Emit monomial form, e.g. 0b10011 -> '1+x+x^4'."""
    if mask == 0:
        return "0"
    terms = []
    i = 0
    while mask >> i:
        if (mask >> i) & 1:
            terms.append("1" if i == 0 else ("x" if i == 1 else f"x^{i}"))
        i += 1
    return "+".join(terms)
