"""Pieces shared by the LER and algebra workloads: the operation ledger and
the timed repetition loop."""

from __future__ import annotations

import statistics
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Ledger:
    """Operations attempted and failed, with one line per failed check."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def run(self, label: str, fn):
        """Run one operation. `fn` returns (result, problems); an exception
        fails the operation and yields None."""
        self.attempted += 1
        try:
            result, problems = fn()
        except Exception as exc:  # a crashing operation is a failed one
            traceback.print_exc(file=sys.stderr)
            result, problems = None, [f"raised {exc!r}"]
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
        return result


@dataclass
class Outcome:
    """What a workload measured: end-to-end and per-layer metric values
    by name, and details for the result file."""

    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    tracer: object = None  # the spans of a traced run


def repeat(budget_s: float, one_rep, between=None,
           min_reps: int = 1) -> list:
    """Call one_rep(rep) for rep = 0, 1, ... while another repetition of
    the mean length so far still fits in `budget_s` seconds, and at least
    `min_reps` times, calling between() before every repetition but the
    first; time spent in between() does not count. Returns the results in
    order."""
    out = []
    spent = 0.0
    while len(out) < min_reps or spent * (len(out) + 1) / len(out) \
            <= budget_s:
        if out and between is not None:
            between()
        t0 = perf_counter()
        out.append(one_rep(len(out)))
        spent += perf_counter() - t0
    return out


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def sum_over_ops(per_rep: list, stat=mean) -> float:
    """per_rep[r][i] is the time of operation i in repetition r; returns
    the sum over operations of `stat` of their times. Operations missing
    from a repetition (they raised) are skipped."""
    ops = {}
    for rep in per_rep:
        for i, t in rep.items():
            ops.setdefault(i, []).append(t)
    return sum(stat(ts) for ts in ops.values())


def paired_overhead(untraced: list, traced: list) -> float:
    """Median over repetitions of traced over untraced time, minus 1.

    Repetition r of each side ran back to back on the same inputs, so a
    slow stretch of machine time affects both sides of a pair. Times are
    summed over the operations both sides completed."""
    ratios = []
    for u, t in zip(untraced, traced):
        common = u.keys() & t.keys()
        if common:
            ratios.append(sum(t[k] for k in common)
                          / sum(u[k] for k in common))
    return median(ratios) - 1.0 if ratios else 0.0

