"""gbx benchmark: LER estimation and GB-code algebra, end to end and per layer.

  python3 benchmarks/run.py --workload ler-lowp --seed 1 --seconds 20 --trace 0

Workloads: ler-lowp, ler-highp, algebra, or `all` (each workload in a fresh
process, one after another). --trace 0 prints the end-to-end metrics of
BENCHMARK.json; --trace 1 alternates untraced and traced repetitions and
prints the per-layer metrics, including the tracing overhead.
The last line of standard output is the result as one JSON object. A
result file (and, when traced, the spans) goes to benchmarks/results/.

gbx is imported from the checkout's src/ directory, never from elsewhere;
without it the benchmark exits with code 3 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One thread per process, pinned before numpy loads its BLAS.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import algebra  # noqa: E402
import ler  # noqa: E402
from harness import Ledger, median  # noqa: E402
from spans import Tracer, instrumented  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ["ler-lowp", "ler-highp", "algebra"]
SETUP_REPS = 5  # set-ups per group
EXIT_NO_PROGRAM = 3


def _pop_gbx() -> dict:
    return {m: sys.modules.pop(m) for m in list(sys.modules)
            if m == "gbx" or m.startswith("gbx.")}


def import_gbx():
    """Import gbx afresh from src/ (dropping any earlier import)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    _pop_gbx()
    gbx = importlib.import_module("gbx")
    if not Path(gbx.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"gbx imported from {gbx.__file__}, not {SRC}")
    return gbx


def build_codes(gbx, workload):
    if workload == "algebra":
        return algebra.build_codes(gbx)
    return ler.build_codes(gbx, workload)


def timed_setup(workload) -> float:
    """Seconds for one set-up: a fresh import of gbx plus the workload's
    code builds. The gbx modules in use are put back afterwards."""
    saved = _pop_gbx()
    try:
        t0 = perf_counter()
        build_codes(import_gbx(), workload)
        return perf_counter() - t0
    finally:
        _pop_gbx()
        sys.modules.update(saved)


def traced_setup(gbx, workload) -> dict:
    """Per-layer algebra self times of one set-up, with the gbx functions
    the algebra workload traces wrapped in spans."""
    tracer = Tracer()
    tracer.point = "setup"
    with instrumented(tracer, algebra.TRACED):
        build_codes(gbx, workload)
    return algebra.layer_selftimes(tracer, 0, len(tracer.spans))


def provenance(args) -> dict:
    def git(*cmd):
        try:
            r = subprocess.run(["git", "-C", str(ROOT), *cmd],
                               capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return r.stdout.strip() if r.returncode == 0 else None

    # only a repository rooted at this checkout, not one that encloses it
    top = git("rev-parse", "--show-toplevel")
    own = top is not None and Path(top).resolve() == ROOT
    rev = git("rev-parse", "HEAD") if own else None
    status = git("status", "--porcelain", "--untracked-files=no") if own \
        else None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_rev": rev, "git_dirty": None if status is None
            else bool(status), "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def declared_metrics(trace: int) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in doc["per_layer" if trace else "end_to_end"]}


def run_workload(args) -> int:
    try:
        gbx = import_gbx()
    except ImportError as exc:
        print(f"cannot import gbx from {SRC}: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    codes = build_codes(gbx, args.workload)
    # Set-ups run in groups spread over the run: one before the first
    # repetition, one between each pair of repetitions and one after the
    # last. setup_s is the median of all of them, so that it reads the
    # machine over the whole run rather than at one moment.
    setup_groups = []

    def between_reps():
        setup_groups.append([timed_setup(args.workload)
                             for _ in range(SETUP_REPS)])
    between_reps()

    ledger = Ledger()
    checker = algebra if args.workload == "algebra" else ler
    ledger.run("set-up", lambda: (None, checker.check_codes(codes)))
    if args.workload == "algebra":
        out = algebra.measure(gbx, codes, args.seed, args.seconds,
                              args.trace, ledger, between_reps)
    else:
        out = ler.measure(gbx, codes, args.workload, args.seed,
                          args.seconds, args.trace, ledger, between_reps)
    if args.trace:
        values = {}
        if args.workload != "algebra":
            values.update(traced_setup(gbx, args.workload))
        values.update(out.layers)
    else:
        between_reps()
        values = dict(out.e2e, setup_s=median(
                          t for g in setup_groups for t in g),
                      peak_rss_mb=resource.getrusage(
                          resource.RUSAGE_SELF).ru_maxrss / 1024)

    units = declared_metrics(args.trace)
    unknown = set(values) - set(units)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    # layers a workload does not exercise report zero work
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit in units.items()}
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(exist_ok=True)
    out.details["setup_s_groups"] = setup_groups
    report = {"provenance": provenance(args), "details": out.details,
              "problems": ledger.problems, "result": result}
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if out.tracer is not None:
        out.tracer.write(RESULTS / f"{stem}.spans.json.gz")
    for line in ledger.problems:
        print(f"FAILED {line}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload:10s} {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one at a time, so that peak RSS
    and set-up time belong to that workload alone."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{w} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            combined["metrics"][f"{w}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
