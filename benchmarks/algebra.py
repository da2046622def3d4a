"""Algebra workload: code construction, families, distance and search.

No decoder runs here. The time goes to GF(2) elimination (the logical basis
of the n=810 triple member), to the Gray-code walk of `min_distance` and to
the polynomial gcd inside search. Every task's output is checked against
pinned invariants.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from harness import (Outcome, mean, median, paired_overhead, repeat,
                     sum_over_ops)
from ler import BASE
from spans import NullTracer, Tracer, instrumented

# (n, k) of the triple-block family of [[10,2,3]], members 1..5
TRIPLE_NK = [(10, 2), (30, 10), (90, 30), (270, 90), (810, 270)]
# exact distances: the six catalog codes, then identity members n=20, n=30
DISTANCES = [3, 3, 3, 3, 3, 4, 5, 5]
SEARCH_L8 = (16129, 11172)  # (pairs with k > 0, hits), default filter
SEARCH_L6_D3 = (1137, 504)  # the same with require_distance=3
BUILD_ELL = 400

# functions whose calls the traced pass wraps in spans
TRACED = ["code.build_gb", "code.dimension_gcd", "code.logical_basis",
          "gf2mat.row_reduce", "gf2mat.nullspace",
          "scalable.build_triple_family",
          "extension.extend_family", "distance.min_distance",
          "search.search_base_codes", "gf2poly.f2_gcd"]

# per-layer metric -> span whose self time it reports
SELF_TIME = {"code.build_gb_s": "code.build_gb",
             "code.logical_basis_s": "code.logical_basis",
             "gf2mat.row_reduce_s": "gf2mat.row_reduce",
             "gf2mat.nullspace_s": "gf2mat.nullspace",
             "scalable.build_triple_family_s": "scalable.build_triple_family",
             "extension.extend_family_s": "extension.extend_family",
             "distance.min_distance_s": "distance.min_distance"}


def build_codes(gbx) -> dict:
    """Set-up: the base code, the catalog and the identity family whose
    distances the workload computes."""
    a = gbx.parse_ring_poly(BASE[0], BASE[2])
    b = gbx.parse_ring_poly(BASE[1], BASE[2])
    return {"base": gbx.build_gb(a, b, label="[[10,2,3]]"),
            "distance": gbx.catalog()
            + gbx.extend_family(gbx.identity_plan(a, b, 3))[1:]}


def check_codes(codes: dict) -> list:
    return [] if codes["base"].k == 2 else ["base code has k != 2"]


def build_generators(seed: int):
    """Two weight-4 generator masks in the l=400 ring, drawn from the seed.
    Even weight makes 1 + x a common factor, so k >= 2 and the logical
    basis is built."""
    rng = np.random.default_rng([seed, BUILD_ELL])
    return [sum(1 << int(e) for e in rng.choice(BUILD_ELL, 4, replace=False))
            for _ in range(2)]


def layer_selftimes(tracer, lo, hi) -> dict:
    st = tracer.self_times(lo, hi)
    return {metric: st.get(name, (0.0, 0))[0]
            for metric, name in SELF_TIME.items()}


def _tasks(gbx, codes, seed):
    """(name, run, check) per task; check(result, results of this
    repetition so far) returns a list of problems."""
    base = codes["base"]
    am, bm = build_generators(seed)
    a = gbx.RingPoly.from_mask(am, BUILD_ELL)
    b = gbx.RingPoly.from_mask(bm, BUILD_ELL)

    def check_build(code, _):
        bad = []
        k = gbx.dimension_gcd(a, b)
        if code.k != k or k < 2:
            bad.append(f"rank dimension {code.k}, gcd dimension {k}")
        elif (code.lx.shape != (k, code.n) or code.lz.shape != (k, code.n)
              or ((code.hz @ code.lx.T) & 1).any()
              or ((code.hx @ code.lz.T) & 1).any()
              or gbx.gf2mat.rank_gf2((code.lx @ code.lz.T) & 1) != k):
            bad.append("logical basis is not a valid basis")
        return bad

    def check_triple(fam, _):
        nk = [(c.n, c.k) for c in fam]
        bad = [] if nk == TRIPLE_NK else [f"(n, k) {nk}"]
        if any(c.lx is None or c.lx.shape != (c.k, c.n) for c in fam):
            bad.append("missing logical basis")
        return bad

    def check_extension(fam, done):
        nk = [(c.n, c.k) for c in fam]
        bad = [] if nk == TRIPLE_NK else [f"(n, k) {nk}"]
        triple = done.get("build_triple_family M=5")
        if triple is not None and not all(
                np.array_equal(t.hx, e.hx) and np.array_equal(t.hz, e.hz)
                for t, e in zip(triple, fam)):
            bad.append("differs from build_triple_family")
        return bad

    def check_search(expected):
        def check(res, _):
            hits, k_pos = res
            got = (k_pos, len(hits))
            return [] if got == expected else [
                f"(k>0 pairs, hits) {got}, expected {expected}"]
        return check

    return [
        ("build_gb l=400", lambda: gbx.build_gb(a, b), check_build),
        ("build_triple_family M=5",
         lambda: gbx.build_triple_family(gbx.TripleBlockPlan(base, 5)),
         check_triple),
        ("extend_family triple plan M=5",
         lambda: gbx.extend_family(gbx.triple_extension_plan(base, 5),
                                   with_logicals=False),
         check_extension),
        ("min_distance",
         lambda: [gbx.min_distance(c) for c in codes["distance"]],
         lambda rs, _: [] if [r.d for r in rs] == DISTANCES else [
             f"distances {[r.d for r in rs]}"]),
        ("search l=8",
         lambda: gbx.search_base_codes(gbx.SearchFilter(ell=8)),
         check_search(SEARCH_L8)),
        ("search l=6 d>=3",
         lambda: gbx.search_base_codes(
             gbx.SearchFilter(ell=6, require_distance=3)),
         check_search(SEARCH_L6_D3)),
    ]


def measure(gbx, codes, seed, seconds, trace, ledger,
            between_reps) -> Outcome:
    tasks = _tasks(gbx, codes, seed)

    # distance results of the first repetition; no other result is kept
    # across repetitions, so peak memory does not grow with their number
    distances = []

    def one_rep(rep, tracer=NullTracer()):
        times, done = {}, {}
        for name, run, check in tasks:
            def op():
                tracer.point = name
                with tracer.span("task"):
                    t0 = perf_counter()
                    res = run()
                    dt = perf_counter() - t0
                return (dt, res), check(res, done)
            out = ledger.run(f"rep {rep} {name}", op)
            if out is not None:
                times[name], done[name] = out
        if not distances:
            distances.extend(done.get("min_distance", []))
        return times

    tracer = Tracer()
    marks = []  # span index range of each traced repetition

    def traced_rep(rep):
        lo = len(tracer.spans)
        with instrumented(tracer, TRACED):
            times = one_rep(rep, tracer)
        marks.append((lo, len(tracer.spans)))
        return times

    if trace:
        # untraced and traced repetitions alternate, so that both see the
        # same stretches of machine time
        untraced, traced = [], []

        def both(rep):
            untraced.append(one_rep(rep))
            traced.append(traced_rep(rep))
        repeat(seconds, both)
    else:
        untraced = repeat(seconds, one_rep, between_reps)
    out = Outcome(e2e={"wall_s": sum_over_ops(untraced)})
    task_s = {name: mean(r[name] for r in untraced if name in r)
              for name, _, _ in tasks}
    out.details = {"task_mean_s": task_s,
                   "repetition_s": [sum(r.values()) for r in untraced],
                   "wall_s_median": sum_over_ops(untraced, median),
                   "build_gb_generators": [hex(m) for m in
                                           build_generators(seed)]}
    if not trace:
        return out
    # An exact min_distance call walks all 2^dim - 1 nonzero vectors of
    # each sector's kernel; exhausted_dim is the sum of the two sectors'
    # dimensions, which are equal for a GB code (equal ranks of H_X, H_Z).
    vectors = sum(2 * (2 ** (r.exhausted_dim // 2) - 1)
                  for r in distances)
    # search calls dimension_gcd once per generator pair
    lo, hi = marks[0]
    pairs = sum(1 for s in tracer.spans[lo:hi]
                if s[0] == "code.dimension_gcd" and s[4] == "search l=8")
    per_rep = [layer_selftimes(tracer, lo, hi) for lo, hi in marks]
    gcd = [tracer.self_times(lo, hi).get("gf2poly.f2_gcd", (0.0, 0))
           for lo, hi in marks]
    out.layers = {m: median(r[m] for r in per_rep) for m in SELF_TIME}
    out.layers.update({
        "distance.vectors_enumerated": vectors,
        "search.pairs": pairs,
        "search.pairs_per_s": pairs / task_s["search l=8"],
        "search.distance_filtered_s": task_s["search l=6 d>=3"],
        "gf2poly.f2_gcd_us": 1e6 * median(s / max(c, 1) for s, c in gcd),
        "gf2poly.f2_gcd_calls": gcd[0][1],
        "trace.spans": marks[0][1] - marks[0][0],
        "trace.overhead_frac": paired_overhead(untraced, traced),
    })
    out.details["traced_repetitions"] = len(traced)
    out.tracer = tracer
    return out
