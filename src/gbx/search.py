"""Base-code search, the bundled small-code catalog, and report merging."""

from __future__ import annotations

from dataclasses import dataclass

from .code import build_gb
from .decoder import DecoderConfig
from .distance import min_distance
from .gf2poly import (RingPoly, f2_degree, f2_gcd, f2_weight, format_poly,
                      parse_ring_poly, x_pow_minus_one)
from .simulator import NoiseModel, estimate_ler, threshold_estimate

SEARCH_ELL_LIMIT = 12


@dataclass
class SearchFilter:
    ell: int
    max_weight: int = 8
    require_distance: int | None = None
    ler_screen: tuple | None = None  # (p, max_ler)
    screen_trials: int = 10_000

    def __post_init__(self):
        if self.max_weight < 2:
            raise ValueError("max_weight must be at least 2")
        if self.ell < 1:
            raise ValueError("ring size must be positive")


@dataclass
class SearchHit:
    a: str
    b: str
    n: int
    k: int
    w_r: int
    d: int | None = None
    ler: float | None = None


def search_base_codes(flt: SearchFilter, seed: int = 0
                      ) -> tuple[list, int]:
    """Exhaustive scan over ordered pairs of nonzero generators.

    Screens run cheapest first: dimension (pairs with k = 0 encode no
    qubit and are skipped), weight, distance, LER. Returns the ranked hits
    plus the count of pairs passing the k > 0 screen alone (the counting
    convention: ordered pairs, both generators nonzero, no deduplication by
    code equivalence).
    """
    ell = flt.ell
    if ell > SEARCH_ELL_LIMIT:
        raise ValueError(f"search limited to ring sizes <= {SEARCH_ELL_LIMIT}")
    hits = []
    k_positive = 0
    modulus = x_pow_minus_one(ell)
    for am in range(1, 1 << ell):
        ga = f2_gcd(am, modulus)
        for bm in range(1, 1 << ell):
            k = 2 * f2_degree(f2_gcd(ga, bm))  # 2 deg gcd(a, b, x^l - 1)
            if k == 0:
                continue
            k_positive += 1
            w_r = f2_weight(am) + f2_weight(bm)
            if w_r > flt.max_weight:
                continue
            if flt.require_distance is not None or flt.ler_screen is not None:
                a = RingPoly.from_mask(am, ell)
                b = RingPoly.from_mask(bm, ell)
            d = None
            if flt.require_distance is not None:
                # the distance needs no logical basis; the LER screen does.
                # The cap ends the walk early only below it: a kept d is exact
                d = min_distance(build_gb(a, b, with_logicals=False),
                                 cap=flt.require_distance).d
                if d < flt.require_distance:
                    continue
            ler = None
            if flt.ler_screen is not None:
                p, max_ler = flt.ler_screen
                rep = estimate_ler(build_gb(a, b), NoiseModel(p),
                                   DecoderConfig(),
                                   trials=flt.screen_trials, seed=seed)
                ler = rep.ler
                if ler >= max_ler:
                    continue
            hits.append(SearchHit(a=format_poly(am), b=format_poly(bm),
                                  n=2 * ell, k=k, w_r=w_r, d=d, ler=ler))
    hits.sort(key=lambda h: (-(h.d if h.d is not None else -1),
                             h.ler if h.ler is not None else float("inf"),
                             h.w_r, h.a, h.b))
    return hits, k_positive


# ---------------------------------------------------------------------------
# bundled catalog of small base codes (all have g(x) = 1 + x, k = 2); d is
# the exact distance found by min_distance

CATALOG_SPEC = [
    ("[[10,2,3]]", 5, "1+x^4", "1+x+x^2+x^4", 3),
    ("[[12,2,3]]", 6, "1+x+x^2+x^5", "1+x+x^3+x^5", 3),
    ("[[14,2]]", 7, "1+x^3", "1+x+x^3+x^6", 3),
    ("[[16,2]]", 8, "x+x^3", "1+x^5", 3),
    ("[[18,2]]", 9, "1+x^2", "1+x^5", 3),
    ("[[20,2]]", 10, "1+x", "1+x^6", 4),
]


def catalog() -> list:
    """The six bundled base codes, ring sizes 5 through 10."""
    codes = []
    for label, ell, a, b, d in CATALOG_SPEC:
        code = build_gb(parse_ring_poly(a, ell), parse_ring_poly(b, ell),
                        label=label)
        code.d = d
        codes.append(code)
    return codes


# ---------------------------------------------------------------------------
# report assembly

def breakeven_point(reports: list):
    """Smallest PER at which the LER dips below the PER, interpolated
    between adjacent grid points; None when the curve never dips."""
    pts = sorted(reports, key=lambda r: r.p)
    prev = None
    for r in pts:
        margin = r.ler - r.p
        if margin < 0:
            if prev is None:
                return r.p
            m0 = prev.ler - prev.p
            frac = m0 / (m0 - margin)
            return prev.p + frac * (r.p - prev.p)
        prev = r
    return None


def assemble_report(reports: list) -> dict:
    """Merge sweep rows (idempotent on duplicates), annotate breakeven
    points per code and threshold crossings for consecutive label pairs."""
    seen = set()
    merged = []
    for r in reports:
        key = tuple(r.row())
        if key not in seen:
            seen.add(key)
            merged.append(r)
    labels = []
    for r in merged:
        if r.code_label not in labels:
            labels.append(r.code_label)
    breakevens = {}
    for label in labels:
        breakevens[label] = breakeven_point(
            [r for r in merged if r.code_label == label])
    thresholds = {}
    for la, lb in zip(labels, labels[1:]):
        try:
            p_star, err = threshold_estimate(merged, la, lb)
            thresholds[f"{la} vs {lb}"] = (p_star, err)
        except ValueError:
            pass
    return {"reports": merged, "labels": labels,
            "breakevens": breakevens, "thresholds": thresholds}
