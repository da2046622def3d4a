"""Code-capacity depolarizing-noise Monte Carlo.

Errors strike the data qubits only, and each trial has a single perfect
syndrome-extraction round (no measurement errors): sample a Pauli error,
compute both syndromes, decode each sector, and count a logical failure when
either residual pairs nontrivially with the opposite-type logical basis.

Randomness is counter-style: every trial owns a generator seeded by
(master seed, point index, trial index), so results are bit-identical under
any execution order or batching.
"""

from __future__ import annotations

import csv
import io
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .code import CssCode
from .decoder import DecoderConfig, decode_batch

Z95 = 1.959963984540054  # two-sided 95% normal quantile
STOP_CHECK_TRIALS = 1024  # early stopping is tested at multiples of this

CSV_COLUMNS = ["code_label", "n", "k", "p", "trials", "failures", "ler",
               "ci_low", "ci_high", "seed"]


@dataclass
class NoiseModel:
    p: float
    pauli_split: tuple = (1 / 3, 1 / 3, 1 / 3)  # (X, Y, Z)

    def __post_init__(self):
        if not 0 <= self.p <= 1:
            raise ValueError("physical error rate must lie in [0, 1]")
        if len(self.pauli_split) != 3 or any(s < 0 for s in self.pauli_split):
            raise ValueError("pauli_split needs three non-negative entries")
        if abs(sum(self.pauli_split) - 1.0) > 1e-12:
            raise ValueError("pauli_split must sum to 1")


@dataclass
class SimReport:
    code_label: str
    n: int
    k: int
    p: float
    trials: int
    failures: int
    ler: float
    ci_low: float
    ci_high: float
    seed: int
    config: dict = field(default_factory=dict)

    def row(self) -> list:
        return [self.code_label, self.n, self.k, f"{self.p:.10g}",
                self.trials, self.failures, f"{self.ler:.10g}",
                f"{self.ci_low:.10g}", f"{self.ci_high:.10g}", self.seed]


def wilson_interval(failures: int, trials: int, z: float = Z95):
    """95% binomial (Wilson score) interval for the failure rate."""
    if trials == 0:
        return 0.0, 1.0
    phat = failures / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials
                         + z2 / (4 * trials * trials)) / denom
    lo = 0.0 if failures == 0 else max(0.0, center - half)
    hi = 1.0 if failures == trials else min(1.0, center + half)
    return lo, hi


def trial_rng(seed, trial: int) -> np.random.Generator:
    """Deterministic per-trial generator; `seed` may be an int or a tuple of
    ints identifying the sweep point."""
    key = list(seed) if isinstance(seed, (tuple, list)) else [seed]
    return np.random.default_rng(key + [trial])


def sample_error(n: int, noise: NoiseModel, rng: np.random.Generator):
    """Per qubit: with probability p draw a Pauli from the split; X sets the
    ex bit, Z the ez bit, Y both. Always consumes two uniform draws per
    qubit so the stream layout is fixed."""
    hit = rng.random(n) < noise.p
    u = rng.random(n)
    sx, sy, _ = noise.pauli_split
    is_x = u < sx
    is_y = (u >= sx) & (u < sx + sy)
    ex = (hit & (is_x | is_y)).astype(np.uint8)
    ez = (hit & ~is_x).astype(np.uint8)
    return ex, ez


def classify_failure(code: CssCode, rx: np.ndarray, rz: np.ndarray) -> bool:
    """A residual is a logical failure iff it pairs nontrivially with the
    opposite-type logical basis."""
    if code.lx is None or code.lz is None:
        raise ValueError("code needs a populated logical basis")
    return bool(((code.lz @ rx) % 2).any() or ((code.lx @ rz) % 2).any())


def _decoder_prior(p: float) -> float:
    """The decoder needs a prior in (0, 0.5]; clamp edge-case physical
    rates (p = 0 or p > 1/2) into that range."""
    return min(max(p, 1e-9), 0.5)


def _run_batch(code: CssCode, noise: NoiseModel, cfg: DecoderConfig,
               seed, start: int, count: int) -> int:
    """Failure count over trials [start, start + count)."""
    n = code.n
    EX = np.empty((count, n), dtype=np.uint8)
    EZ = np.empty((count, n), dtype=np.uint8)
    for t in range(count):
        EX[t], EZ[t] = sample_error(n, noise, trial_rng(seed, start + t))
    SZ = (EX @ code.hz.T) % 2
    SX = (EZ @ code.hx.T) % 2
    p_dec = _decoder_prior(noise.p)
    EX_hat = decode_batch(code.hz, SZ, p_dec, cfg)
    EZ_hat = decode_batch(code.hx, SX, p_dec, cfg)
    RX = EX ^ EX_hat
    RZ = EZ ^ EZ_hat
    fail = (((RX @ code.lz.T) % 2).any(axis=1)
            | ((RZ @ code.lx.T) % 2).any(axis=1))
    return int(fail.sum())


def estimate_ler(code: CssCode, noise: NoiseModel, cfg: DecoderConfig,
                 trials: int, precision: float = 1e-3, seed=0,
                 batch: int = 1024) -> SimReport:
    """Up to `trials` independent trials, stopping early once the 95% CI
    half-width drops below `precision`. The width is tested only at
    multiples of STOP_CHECK_TRIALS trials, and no batch straddles one, so
    the stopping point does not depend on `batch`. Deterministic given the
    seed."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if code.lx is None or code.lz is None:
        raise ValueError("code needs a populated logical basis")
    sector_cfg = cfg.for_ring(code.ell)
    done = 0
    failures = 0
    while done < trials:
        to_check = STOP_CHECK_TRIALS - done % STOP_CHECK_TRIALS
        count = min(batch, trials - done, to_check)
        failures += _run_batch(code, noise, sector_cfg, seed, done, count)
        done += count
        if done % STOP_CHECK_TRIALS == 0:
            lo, hi = wilson_interval(failures, done)
            if (hi - lo) / 2 < precision:
                break
    lo, hi = wilson_interval(failures, done)
    master = seed[0] if isinstance(seed, (tuple, list)) else seed
    return SimReport(code_label=code.label, n=code.n, k=code.k, p=noise.p,
                     trials=done, failures=failures,
                     ler=failures / done, ci_low=lo, ci_high=hi,
                     seed=int(master),
                     config={"max_iter": cfg.max_iter,
                             "ms_scale": cfg.ms_scale,
                             "osd_order": cfg.osd_order,
                             "osd_mode": cfg.osd_mode,
                             "pauli_split": tuple(noise.pauli_split),
                             "precision": precision})


def _sweep_point(args):
    code, p, split, cfg, trials, precision, seed = args
    return estimate_ler(code, NoiseModel(p, split), cfg, trials,
                        precision=precision, seed=seed)


def sweep(family: list, p_grid: list, cfg: DecoderConfig, trials: int,
          precision: float = 1e-3, seed: int = 0, threads: int = 1,
          pauli_split=(1 / 3, 1 / 3, 1 / 3)) -> list:
    """Cartesian product of members and grid points; each point gets its own
    deterministic seed tuple, so threading never changes the result."""
    if not family or not p_grid:
        raise ValueError("need a nonempty family and grid")
    jobs = [(code, float(p), tuple(pauli_split), cfg, trials, precision,
             (seed, mi, pi))
            for mi, code in enumerate(family)
            for pi, p in enumerate(p_grid)]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(_sweep_point, jobs))
    return [_sweep_point(j) for j in jobs]


def reports_to_csv(reports: list) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for r in reports:
        w.writerow(r.row())
    return buf.getvalue()


def reports_from_csv(text: str) -> list:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CSV_COLUMNS:
        raise ValueError("unrecognized sweep CSV header")
    out = []
    for row in rows[1:]:
        out.append(SimReport(code_label=row[0], n=int(row[1]), k=int(row[2]),
                             p=float(row[3]), trials=int(row[4]),
                             failures=int(row[5]), ler=float(row[6]),
                             ci_low=float(row[7]), ci_high=float(row[8]),
                             seed=int(row[9])))
    return out


def threshold_estimate(reports: list, label_a: str, label_b: str):
    """Zero crossing of the LER difference between two members over their
    shared grid, by linear interpolation; the uncertainty propagates the CI
    half-widths of the bracketing points."""
    by_p_a = {r.p: r for r in reports if r.code_label == label_a}
    by_p_b = {r.p: r for r in reports if r.code_label == label_b}
    shared = sorted(set(by_p_a) & set(by_p_b))
    if len(shared) < 2:
        raise ValueError("members share fewer than two grid points")
    diffs = [by_p_a[p].ler - by_p_b[p].ler for p in shared]
    for i in range(len(shared) - 1):
        d0, d1 = diffs[i], diffs[i + 1]
        if d0 == 0:
            return shared[i], _crossing_err(by_p_a[shared[i]],
                                            by_p_b[shared[i]], shared, i)
        if d0 * d1 < 0:
            frac = d0 / (d0 - d1)
            p_star = shared[i] + frac * (shared[i + 1] - shared[i])
            err = _crossing_err(by_p_a[shared[i]], by_p_b[shared[i]],
                                shared, i)
            return p_star, err
    raise ValueError("no LER crossing inside the shared grid")


def _crossing_err(ra: SimReport, rb: SimReport, grid: list, i: int) -> float:
    half_a = (ra.ci_high - ra.ci_low) / 2
    half_b = (rb.ci_high - rb.ci_low) / 2
    slope_scale = grid[i + 1] - grid[i]
    spread = abs(ra.ler - rb.ler) + 1e-12
    return min(slope_scale, slope_scale * (half_a + half_b) / spread)
