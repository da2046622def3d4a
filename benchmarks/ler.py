"""LER workloads: Monte Carlo logical-error-rate estimation.

The untraced pass times `estimate_ler` per point. The correctness pass of
an untraced run, and both sides of each pair in a traced run, rebuild the
same batch pipeline from public calls -- trial_rng, sample_error,
bp_minsum_batch, osd_postprocess, classify_failure -- so every layer gets
its own span and counters, and its failure counts must equal
estimate_ler's.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from harness import (Outcome, mean, median, paired_overhead, repeat,
                     sum_over_ops)
from spans import NullTracer, Tracer

BASE = ("1+x^4", "1+x+x^2+x^4", 5)  # the [[10,2,3]] base code

# (code, p, trials per repetition). Every point decodes whole batches of
# BATCH trials, as a sweep does, so the dense (B, m, n) tensors and the
# rows each batch keeps iterating have their production size.
POINTS = {
    # Below threshold: most syndromes are zero or easy, so BP time is mostly
    # spent on rows that converged long ago; OSD runs on few syndromes.
    "ler-lowp": [("identity n=20", 0.01, 4096),
                 ("triple n=90", 0.01, 1024)],
    # The crossing region of the identity family: OSD carries the load.
    "ler-highp": [("identity n=20", 0.10, 1024),
                  ("identity n=20", 0.15, 1024),
                  ("identity n=30", 0.10, 1024),
                  ("identity n=30", 0.15, 1024)],
}

# (n, k) of every code a workload decodes
CODE_NK = {"identity n=20": (20, 2), "identity n=30": (30, 2),
           "triple n=90": (90, 30)}

BATCH = 1024  # estimate_ler's default batch size


def build_codes(gbx, workload: str) -> dict:
    """The set-up work of a workload: build the base code and the family
    members it decodes."""
    a = gbx.parse_ring_poly(BASE[0], BASE[2])
    b = gbx.parse_ring_poly(BASE[1], BASE[2])
    if workload == "ler-lowp":
        ident = gbx.extend_family(gbx.identity_plan(a, b, 2))
        base = gbx.build_gb(a, b, label="[[10,2,3]]")
        triple = gbx.build_triple_family(gbx.TripleBlockPlan(base, 3))
        return {"identity n=20": ident[1], "triple n=90": triple[2]}
    ident = gbx.extend_family(gbx.identity_plan(a, b, 3))
    return {"identity n=20": ident[1], "identity n=30": ident[2]}


def check_codes(codes: dict) -> list:
    return [f"{label}: (n, k) = {(c.n, c.k)}, expected {CODE_NK[label]}"
            for label, c in codes.items() if (c.n, c.k) != CODE_NK[label]]


def decoder_prior(p: float) -> float:
    """estimate_ler's decoder prior: p clamped into (0, 0.5]."""
    return min(max(p, 1e-9), 0.5)


def osd_candidates(code) -> int:
    """Candidates one sweep-mode OSD call evaluates: 1 + w + w(w-1)/2 with
    w = min(osd_order, non-pivot columns); osd_order resolves to the ring
    size and a GB check matrix has n - (n - k)/2 = (n + k)/2 non-pivots."""
    w = min(code.ell, (code.n + code.k) // 2)
    return 1 + w + w * (w - 1) // 2


def _decode_sector(gbx, tracer, H, S, prior, cfg, counts):
    with tracer.span("decoder.bp_minsum_batch"):
        hard, marg, conv, iters = gbx.bp_minsum_batch(H, S, prior, cfg)
    est = hard.copy()
    for i in np.nonzero(~conv)[0]:
        with tracer.span("decoder.osd_postprocess"):
            est[i] = gbx.osd_postprocess(H, S[i], marg[i], cfg).estimate
    nonzero = S.any(axis=1)
    counts["syndromes"] += len(S)
    counts["zero_syndromes"] += int((~nonzero).sum())
    counts["bp_converged"] += int(conv.sum())
    counts["bp_iters"] += int(iters.sum())
    # the dense min-sum updates every row until the last one converges
    counts["bp_row_iters_executed"] += len(S) * int(iters.max())
    counts["bp_row_iters_needed"] += int(iters[nonzero].sum())
    counts["osd_calls"] += int((~conv).sum())
    counts["unsatisfied"] += int((((est @ H.T) & 1) != S).any(axis=1).sum())
    return est


def run_pipeline(gbx, code, p, trials, seed, tracer) -> dict:
    """estimate_ler(precision=0) rebuilt from public calls; returns counts."""
    noise = gbx.NoiseModel(p)
    cfg = gbx.DecoderConfig(osd_order=code.ell)
    prior = decoder_prior(p)
    trial_rng = gbx.simulator.trial_rng
    n = code.n
    counts = dict.fromkeys(
        ["trials", "failures", "syndromes", "zero_syndromes", "bp_converged",
         "bp_iters", "bp_row_iters_executed", "bp_row_iters_needed",
         "osd_calls", "unsatisfied"], 0)
    for start in range(0, trials, BATCH):
        count = min(BATCH, trials - start)
        with tracer.span("batch"):
            EX = np.empty((count, n), dtype=np.uint8)
            EZ = np.empty((count, n), dtype=np.uint8)
            for t in range(count):
                with tracer.span("simulator.trial_rng"):
                    rng = trial_rng(seed, start + t)
                with tracer.span("simulator.sample_error"):
                    EX[t], EZ[t] = gbx.sample_error(n, noise, rng)
            with tracer.span("simulator.syndrome"):
                SZ = (EX @ code.hz.T) % 2
                SX = (EZ @ code.hx.T) % 2
            EX_hat = _decode_sector(gbx, tracer, code.hz, SZ, prior, cfg,
                                    counts)
            EZ_hat = _decode_sector(gbx, tracer, code.hx, SX, prior, cfg,
                                    counts)
            for t in range(count):
                with tracer.span("simulator.classify_failure"):
                    counts["failures"] += gbx.classify_failure(
                        code, EX[t] ^ EX_hat[t], EZ[t] ^ EZ_hat[t])
        counts["trials"] += count
    counts["osd_candidates"] = counts["osd_calls"] * osd_candidates(code)
    return counts


def measure(gbx, codes, workload, seed, seconds, trace, ledger,
            between_reps) -> Outcome:
    points = POINTS[workload]
    # Point i decodes the trials of seed (seed, i) in every repetition, so
    # repetitions differ only in machine time, and each must reproduce the
    # failures estimate_ler counted in the first one.
    ref = {}

    def untraced_rep(rep):
        """{point: (seconds, failures)} of one repetition."""
        out = {}
        for i, (label, p, trials) in enumerate(points):
            def op():
                t0 = perf_counter()
                r = gbx.estimate_ler(codes[label], gbx.NoiseModel(p),
                                     gbx.DecoderConfig(), trials,
                                     precision=0.0, seed=(seed, i))
                dt = perf_counter() - t0
                bad = [] if r.trials == trials else [
                    f"ran {r.trials} of {trials} trials"]
                first = ref.setdefault(i, r.failures)
                if r.failures != first:
                    bad.append(f"{r.failures} failures, first repetition "
                               f"{first}")
                return (dt, r.failures), bad
            res = ledger.run(f"rep {rep} {label} p={p}", op)
            if res is not None:
                out[i] = res
        return out

    def pipeline_rep(rep, tracer):
        """{point: (seconds, counts)} of one repetition of the pipeline."""
        kind = "traced pipeline" if isinstance(tracer, Tracer) \
            else "pipeline"
        out = {}
        for i, (label, p, trials) in enumerate(points):
            def op():
                tracer.point = f"{label} p={p}"
                t0 = perf_counter()
                with tracer.span("point"):
                    c = run_pipeline(gbx, codes[label], p, trials,
                                     (seed, i), tracer)
                dt = perf_counter() - t0
                bad = []
                if c["unsatisfied"]:
                    bad.append(f"{c['unsatisfied']} estimates miss their "
                               "syndrome")
                if i in ref and ref[i] != c["failures"]:
                    bad.append(f"pipeline counts {c['failures']} failures, "
                               f"estimate_ler {ref[i]}")
                return (dt, c), bad
            res = ledger.run(f"rep {rep} {label} p={p} ({kind})", op)
            if res is not None:
                out[i] = res
        return out

    if not trace:
        checked = []

        def between():
            between_reps()
            # The untimed correctness pass runs between the first two
            # repetitions, so that the timed ones span more machine time.
            if not checked:
                checked.append(pipeline_rep(0, NullTracer()))
        untraced = repeat(seconds, untraced_rep, between, min_reps=2)
        return _e2e_outcome(points, untraced)

    # estimate_ler once for the reference failure counts, then pairs of an
    # untraced and a traced pipeline repetition on the same trials, back to
    # back, so that both sides of a pair see the same stretch of machine
    # time and their ratio is the cost of tracing
    out = _e2e_outcome(points, [untraced_rep(0)])
    tracer = Tracer()
    marks = []  # span index range of each traced repetition
    plain, traced = [], []

    def pair(rep):
        plain.append(pipeline_rep(rep, NullTracer()))
        lo = len(tracer.spans)
        traced.append(pipeline_rep(rep, tracer))
        marks.append((lo, len(tracer.spans)))
    repeat(seconds, pair)
    out.layers = _layer_metrics(
        tracer, marks, {i: v[1] for i, v in traced[0].items()})
    out.layers["trace.overhead_frac"] = paired_overhead(
        *([{i: v[0] for i, v in r.items()} for r in reps]
          for reps in (plain, traced)))
    out.details["traced_repetitions"] = len(traced)
    out.tracer = tracer
    return out


def _e2e_outcome(points, untraced) -> Outcome:
    """wall_s and the per-point details of the estimate_ler repetitions."""
    times = [{i: v[0] for i, v in r.items()} for r in untraced]
    out = Outcome(e2e={"wall_s": sum_over_ops(times)})
    first = untraced[0]
    fails = sum(v[1] for v in first.values())
    trials = sum(points[i][2] for i in first)
    out.details.update({
        "wall_s_median": sum_over_ops(times, median),
        "points": [{"code": label, "p": p, "trials": t,
                    "failures": first.get(i, (0, None))[1],
                    "trials_per_s": t / mean(r[i] for r in times if i in r)
                    if i in first else None}
                   for i, (label, p, t) in enumerate(points)],
        "repetition_s": [sum(r.values()) for r in times],
        "ler": fails / trials if trials else None,
    })
    return out


def _layer_metrics(tracer, marks, counts0) -> dict:
    """Per-layer metrics: self times are medians over traced repetitions;
    counts come from the first, as every repetition decodes the same
    trials."""
    per_rep = [tracer.self_times(lo, hi) for lo, hi in marks]

    def secs(rep, *names):
        return sum(rep.get(n, (0.0, 0))[0] for n in names)

    def med(fn):
        return median(fn(rep) for rep in per_rep)

    c = {k: sum(pc[k] for pc in counts0.values())
         for k in next(iter(counts0.values()))}
    syn = c["syndromes"]
    return {
        "decoder.bp_s": med(lambda r: secs(r, "decoder.bp_minsum_batch")),
        "decoder.bp_us_per_syndrome": 1e6 * med(
            lambda r: secs(r, "decoder.bp_minsum_batch")) / syn,
        "decoder.bp_iters_mean": c["bp_iters"] / syn,
        "decoder.bp_converged_frac": c["bp_converged"] / syn,
        "decoder.bp_row_iters_executed": c["bp_row_iters_executed"],
        "decoder.bp_row_iters_needed": c["bp_row_iters_needed"],
        "decoder.bp_useful_iter_frac":
            c["bp_row_iters_needed"] / c["bp_row_iters_executed"],
        "decoder.osd_s": med(lambda r: secs(r, "decoder.osd_postprocess")),
        "decoder.osd_calls": c["osd_calls"],
        "decoder.osd_ms_per_call": 1e3 * med(
            lambda r: secs(r, "decoder.osd_postprocess")
            / max(r.get("decoder.osd_postprocess", (0, 1))[1], 1)),
        "decoder.osd_candidates": c["osd_candidates"],
        "simulator.sample_s": med(lambda r: secs(
            r, "simulator.trial_rng", "simulator.sample_error")),
        "simulator.syndrome_s": med(lambda r: secs(r, "simulator.syndrome")),
        "simulator.classify_s": med(
            lambda r: secs(r, "simulator.classify_failure")),
        "simulator.zero_syndrome_frac": c["zero_syndromes"] / syn,
        "simulator.zero_syndromes": c["zero_syndromes"],
        "simulator.trials": c["trials"],
        "simulator.failures": c["failures"],
        "simulator.ler": c["failures"] / c["trials"],
        "trace.spans": marks[0][1] - marks[0][0],
    }
