"""Code-capacity depolarizing-noise Monte Carlo.

Errors strike the data qubits only, and each trial has a single perfect
syndrome-extraction round (no measurement errors): sample a Pauli error,
compute both syndromes, decode each sector, and count a logical failure when
either residual pairs nontrivially with the opposite-type logical basis.

Randomness is counter-style: every trial owns a generator seeded by
(master seed, point index, trial index), so results are bit-identical under
any execution order or batching. A batch computes its trials' streams
together: numpy's SeedSequence (NEP 19) runs on uint32 arrays, one lane
per trial, and one PCG64 takes each trial's seeded state in turn, so row t
equals `sample_error(n, noise, trial_rng(seed, t))` bit for bit.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .code import CssCode
from .decoder import DecoderConfig, decode

Z95 = 1.959963984540054  # two-sided 95% normal quantile
STOP_CHECK_TRIALS = 1024  # early stopping is tested at multiples of this

CSV_COLUMNS = ["code_label", "n", "k", "p", "trials", "failures", "ler",
               "ci_low", "ci_high", "seed"]


@dataclass
class NoiseModel:
    """Depolarizing noise: each qubit suffers X, Y or Z with probability
    p/3 each."""

    p: float

    def __post_init__(self):
        if not 0 <= self.p <= 1:
            raise ValueError("physical error rate must lie in [0, 1]")


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

    def row(self) -> list:
        return [self.code_label, self.n, self.k, f"{self.p:.10g}",
                self.trials, self.failures, f"{self.ler:.10g}",
                f"{self.ci_low:.10g}", f"{self.ci_high:.10g}", self.seed]


def wilson_interval(failures: int, trials: int):
    """95% binomial (Wilson score) interval for the failure rate."""
    if trials == 0:
        return 0.0, 1.0
    phat = failures / trials
    z2 = Z95 * Z95
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = Z95 * math.sqrt(phat * (1 - phat) / trials
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
    """Per qubit: with probability p draw X, Y or Z uniformly (u below 1/3,
    below 2/3, above); X sets the ex bit, Z the ez bit, Y both. Always
    consumes two uniform draws per qubit so the stream layout is fixed."""
    return _paulis(rng.random(2 * n), noise.p)


def _paulis(U: np.ndarray, p: float):
    """sample_error's rule on uniforms U (..., 2n): the first n draws decide
    which qubits are hit, the last n which Pauli strikes each."""
    n = U.shape[-1] // 2
    hit = U[..., :n] < p
    ex = (hit & (U[..., n:] < 2 / 3)).astype(np.uint8)
    ez = (hit & (U[..., n:] >= 1 / 3)).astype(np.uint8)
    return ex, ez


# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(v) -> list:
    """A seed entry as SeedSequence reads it: little-endian 32-bit words,
    one word for 0."""
    v = operator.index(v)
    if v < 0:
        raise ValueError("expected non-negative integer")
    return [v >> s & _MASK32 for s in range(0, max(v.bit_length(), 1), 32)]


def _hasher(h: int, mult: int):
    """SeedSequence's hashmix on uint32 arrays: XOR with the running
    constant, step it (h *= mult), multiply by it, fold the high half."""
    def hashmix(v: np.ndarray) -> np.ndarray:
        nonlocal h
        x, h = np.uint32(h), h * mult & _MASK32
        v = (v ^ x) * np.uint32(h)
        return v ^ (v >> np.uint32(16))
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> np.uint32(16))


def _seed_state(key: list, start: int, count: int) -> list:
    """SeedSequence(key + [t]).generate_state(4, np.uint64) for t in
    [start, start + count), every t having as many words as `start`, as
    four lists of words. The pool (size 4) is mixed on uint32 arrays, one
    lane per t."""
    t = np.arange(start, start + count, dtype=np.uint64)
    entropy = [np.full(count, w, np.uint32) for v in key for w in _words(v)]
    entropy += [(t >> np.uint64(32 * i)).astype(np.uint32)
                for i in range(len(_words(start)))]
    entropy += [np.zeros(count, np.uint32)] * (4 - len(entropy))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(w))
    hashmix = _hasher(_INIT_B, _MULT_B)
    st = [hashmix(pool[i % 4]).astype(np.uint64) for i in range(8)]
    return [(st[2 * j] | st[2 * j + 1] << np.uint64(32)).tolist()
            for j in range(4)]


def _sample_batch(n: int, noise: NoiseModel, seed, start: int, count: int):
    """The (count, n) EX and EZ stacks of trials [start, start + count): row
    t is bit for bit sample_error(n, noise, trial_rng(seed, start + t)).
    One PCG64 takes each trial's seeded state (as pcg64_srandom_r sets it)
    and draws 2n doubles, each from one uint64, as sample_error does. A
    batch is split where the trial index gains a 32-bit word."""
    key = list(seed) if isinstance(seed, (tuple, list)) else [seed]
    U = np.empty((count, 2 * n))
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    row = 0
    while row < count:
        lo = start + row
        part = min(count - row, (1 << 32 * len(_words(lo))) - lo)
        for u0, u1, u2, u3 in zip(*_seed_state(key, lo, part)):
            inc = ((u2 << 64 | u3) << 1 | 1) & _MASK128
            state = ((u0 << 64 | u1) + inc) * _PCG_MULT + inc & _MASK128
            bits.state = {"bit_generator": "PCG64", "has_uint32": 0,
                          "uinteger": 0, "state": {"state": state, "inc": inc}}
            gen.random(out=U[row])
            row += 1
    return _paulis(U, noise.p)


def classify_failure(code: CssCode, rx: np.ndarray, rz: np.ndarray):
    """A residual is a logical failure iff it pairs nontrivially with the
    opposite-type logical basis. Takes one residual pair and returns a bool,
    or (B, n) stacks and returns a (B,) boolean array."""
    if code.lx is None or code.lz is None:
        raise ValueError("code needs a populated logical basis")
    fail = (((rx @ code.lz.T) % 2).any(axis=-1)
            | ((rz @ code.lx.T) % 2).any(axis=-1))
    return bool(fail) if fail.ndim == 0 else fail


def _decoder_prior(p: float) -> float:
    """The decoder needs a prior in (0, 0.5]; clamp edge-case physical
    rates (p = 0 or p > 1/2) into that range."""
    return min(max(p, 1e-9), 0.5)


def _run_batch(code: CssCode, noise: NoiseModel, cfg: DecoderConfig,
               seed, start: int, count: int) -> int:
    """Failure count over trials [start, start + count)."""
    EX, EZ = _sample_batch(code.n, noise, seed, start, count)
    SZ = (EX @ code.hz.T) % 2
    SX = (EZ @ code.hx.T) % 2
    EX_hat, EZ_hat = decode(code, SX, SZ, _decoder_prior(noise.p), cfg)
    return int(classify_failure(code, EX ^ EX_hat, EZ ^ EZ_hat).sum())


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
    if batch < 1:
        raise ValueError("batch must be at least 1")
    if code.lx is None or code.lz is None:
        raise ValueError("code needs a populated logical basis")
    done = 0
    failures = 0
    while done < trials:
        to_check = STOP_CHECK_TRIALS - done % STOP_CHECK_TRIALS
        count = min(batch, trials - done, to_check)
        failures += _run_batch(code, noise, cfg, seed, done, count)
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
                     seed=int(master))


def _sweep_point(args):
    code, p, cfg, trials, precision, seed = args
    return estimate_ler(code, NoiseModel(p), cfg, trials,
                        precision=precision, seed=seed)


def sweep(family: list, p_grid: list, cfg: DecoderConfig, trials: int,
          precision: float = 1e-3, seed: int = 0, threads: int = 1) -> list:
    """Cartesian product of members and grid points; each point gets its own
    deterministic seed tuple, so threading never changes the result. The
    points run in min(threads, points, CPUs) worker processes, or serially
    when that is 1; the cap matters because a pool starts all of its
    workers at the first submit."""
    if not family or not p_grid:
        raise ValueError("need a nonempty family and grid")
    if threads < 1:
        raise ValueError("threads must be at least 1")
    jobs = [(code, float(p), cfg, trials, precision, (seed, mi, pi))
            for mi, code in enumerate(family)
            for pi, p in enumerate(p_grid)]
    threads = min(threads, len(jobs), os.cpu_count() or 1)
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
    if diffs[-1] == 0:  # a tie at the last point, bracketed from below
        p = shared[-1]
        return p, _crossing_err(by_p_a[p], by_p_b[p], shared, len(shared) - 2)
    raise ValueError("no LER crossing inside the shared grid")


def _crossing_err(ra: SimReport, rb: SimReport, grid: list, i: int) -> float:
    half_a = (ra.ci_high - ra.ci_low) / 2
    half_b = (rb.ci_high - rb.ci_low) / 2
    slope_scale = grid[i + 1] - grid[i]
    spread = abs(ra.ler - rb.ler) + 1e-12
    return min(slope_scale, slope_scale * (half_a + half_b) / spread)
