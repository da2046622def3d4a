"""Monte Carlo logical-error estimation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbx import simulator
from gbx.code import build_gb
from gbx.decoder import DecoderConfig, decode
from gbx.extension import extend_family, identity_plan
from gbx.gf2poly import parse_ring_poly
from gbx.simulator import (NoiseModel, _decoder_prior, classify_failure,
                           estimate_ler, reports_from_csv, reports_to_csv,
                           sample_error, sweep, threshold_estimate, trial_rng,
                           wilson_interval)


def make_code():
    return build_gb(parse_ring_poly("1+x^4", 5),
                    parse_ring_poly("1+x+x^2+x^4", 5), label="[[10,2,3]]")


def run_trial(code, noise, cfg, rng) -> bool:
    """Scalar reference for one trial: sample, extract both syndromes,
    decode the pair with `decode`, classify."""
    ex, ez = sample_error(code.n, noise, rng)
    s_z = (code.hz @ ex) % 2
    s_x = (code.hx @ ez) % 2
    ex_hat, ez_hat = decode(code, s_x, s_z, _decoder_prior(noise.p), cfg)
    return classify_failure(code, ex ^ ex_hat, ez ^ ez_hat)


def test_noise_model_validation():
    NoiseModel(0.1)
    with pytest.raises(ValueError):
        NoiseModel(-0.1)
    with pytest.raises(ValueError):
        NoiseModel(1.1)


def test_wilson_interval_reference_values():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0
    assert hi == pytest.approx(0.0370, abs=5e-4)  # standard 0/100 bound
    lo, hi = wilson_interval(50, 100)
    assert lo == pytest.approx(0.4038, abs=5e-4)
    assert hi == pytest.approx(0.5962, abs=5e-4)
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_sample_error_statistics():
    rng = np.random.default_rng(81)
    n, trials, p = 50, 4000, 0.12
    noise = NoiseModel(p)
    counts = {"X": 0, "Y": 0, "Z": 0, "I": 0}
    for _ in range(trials):
        ex, ez = sample_error(n, noise, rng)
        counts["Y"] += int((ex & ez).sum())
        counts["X"] += int((ex & ~ez & 1).sum())
        counts["Z"] += int((ez & ~ex & 1).sum())
    total = n * trials
    counts["I"] = total - counts["X"] - counts["Y"] - counts["Z"]
    for pauli in ("X", "Y", "Z"):
        frac = counts[pauli] / total
        assert abs(frac - p / 3) < 4 * math.sqrt(p / 3 / total)


def test_sampling_is_deterministic_per_trial():
    noise = NoiseModel(0.3)
    a = sample_error(20, noise, trial_rng(5, 17))
    b = sample_error(20, noise, trial_rng(5, 17))
    c = sample_error(20, noise, trial_rng(5, 18))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not (np.array_equal(a[0], c[0]) and np.array_equal(a[1], c[1]))
    # tuple seeds address sweep points independently
    d = sample_error(20, noise, trial_rng((5, 0, 1), 17))
    assert not (np.array_equal(a[0], d[0]) and np.array_equal(a[1], d[1]))


SEED_ENTRIES = st.one_of(st.just(0), st.integers(1, 2**32 - 1),
                         st.integers(2**32, 2**80))
# trial ranges at small offsets and where the index gains a 32-bit word
STARTS = st.one_of(st.integers(0, 6000), st.integers(2**32 - 12, 2**32 + 4))


@settings(max_examples=150, deadline=None)
@given(seed=st.one_of(SEED_ENTRIES, st.tuples(SEED_ENTRIES),
                      st.lists(SEED_ENTRIES, min_size=2, max_size=5)
                      .map(tuple)),
       start=STARTS, count=st.integers(1, 12), n=st.integers(1, 810),
       p=st.sampled_from([0.0, 0.01, 0.5, 1.0]), data=st.data())
@example(seed=(0, 0, 0), start=2**32 - 3, count=6, n=1, p=0.5,
         data=None)
@example(seed=2**32, start=0, count=3, n=810, p=0.01, data=None)
def test_batched_sampler_equals_per_trial_streams(seed, start, count, n, p,
                                                   data):
    """Row t of a batch is sample_error on trial_rng(seed, start + t), and
    the threshold rule on numpy's own default_rng(key).random(2n); any
    split of the range into sub-batches stacks to the same rows."""
    noise = NoiseModel(p)
    EX, EZ = simulator._sample_batch(n, noise, seed, start, count)
    assert EX.shape == EZ.shape == (count, n)
    key = list(seed) if isinstance(seed, tuple) else [seed]
    for t in range(count):
        ex, ez = sample_error(n, noise, trial_rng(seed, start + t))
        U = np.random.default_rng(key + [start + t]).random(2 * n)
        hit = U[:n] < p
        assert np.array_equal(EX[t], ex) and np.array_equal(EZ[t], ez)
        assert np.array_equal(EX[t], hit & (U[n:] < 2 / 3))
        assert np.array_equal(EZ[t], hit & (U[n:] >= 1 / 3))
    cuts = [] if data is None else sorted(
        data.draw(st.lists(st.integers(0, count), max_size=3)))
    edges = [0] + cuts + [count]
    parts = [simulator._sample_batch(n, noise, seed, start + a, b - a)
             for a, b in zip(edges, edges[1:])]
    assert np.array_equal(np.concatenate([x for x, _ in parts]), EX)
    assert np.array_equal(np.concatenate([z for _, z in parts]), EZ)


def test_negative_seed_is_refused_as_numpy_refuses_it():
    noise = NoiseModel(0.1)
    for seed in (-1, (3, -1, 0)):
        with pytest.raises(ValueError, match="^expected non-negative"):
            trial_rng(seed, 0)
        with pytest.raises(ValueError, match="^expected non-negative"):
            estimate_ler(make_code(), noise, DecoderConfig(), trials=10,
                         seed=seed)


def test_estimate_ler_with_wide_seed_matches_per_trial_oracle():
    # seed entries of two 32-bit words lengthen SeedSequence's entropy
    code = make_code()
    noise, cfg, trials = NoiseModel(0.1), DecoderConfig(), 150
    for seed in (2**32 + 5, (2**40, 1, 0)):
        scalar = sum(run_trial(code, noise, cfg, trial_rng(seed, t))
                     for t in range(trials))
        rep = estimate_ler(code, noise, cfg, trials=trials, seed=seed,
                           precision=0.0, batch=64)
        assert rep.failures == scalar


def test_classify_failure():
    code = make_code()
    zero = np.zeros(code.n, dtype=np.uint8)
    assert not classify_failure(code, zero, zero)
    # a logical X representative flips the outcome
    assert classify_failure(code, code.lx[0], zero)
    assert classify_failure(code, zero, code.lz[0])
    # a stabilizer row is harmless
    assert not classify_failure(code, code.hx[0, :], zero)
    # (B, n) stacks give one verdict per row
    rng = np.random.default_rng(84)
    RX = rng.integers(0, 2, size=(40, code.n), dtype=np.uint8)
    RZ = rng.integers(0, 2, size=(40, code.n), dtype=np.uint8)
    RX[0] = RZ[0] = 0
    verdicts = classify_failure(code, RX, RZ)
    assert verdicts.shape == (40,) and verdicts.dtype == bool
    assert verdicts.tolist() == [classify_failure(code, rx, rz)
                                 for rx, rz in zip(RX, RZ)]
    assert 0 < verdicts.sum() < 40


def test_run_trial_zero_noise_never_fails():
    code = make_code()
    cfg = DecoderConfig()
    noise = NoiseModel(0.0)
    for t in range(5):
        assert not run_trial(code, noise, cfg, trial_rng(0, t))


def test_estimate_ler_reproducible_and_batch_invariant():
    code = make_code()
    cfg = DecoderConfig()
    noise = NoiseModel(0.08)
    r1 = estimate_ler(code, noise, cfg, trials=600, seed=9, batch=64)
    r2 = estimate_ler(code, noise, cfg, trials=600, seed=9, batch=257)
    assert r1.failures == r2.failures
    assert r1.trials == r2.trials == 600
    assert r1.ler == r1.failures / r1.trials
    assert r1.ci_low <= r1.ler <= r1.ci_high


def test_estimate_ler_matches_run_trial():
    # the batched path must agree with the scalar per-trial path exactly,
    # with osd_order given or left for both paths to resolve
    code = make_code()
    noise = NoiseModel(0.1)
    trials = 120
    for cfg in (DecoderConfig(osd_order=code.ell), DecoderConfig()):
        scalar = sum(run_trial(code, noise, cfg, trial_rng(3, t))
                     for t in range(trials))
        rep = estimate_ler(code, noise, cfg, trials=trials, seed=3,
                           precision=0.0, batch=37)
        assert rep.failures == scalar


@pytest.mark.parametrize("batch", [0, -1])
def test_estimate_ler_rejects_batch_below_one(batch):
    # a batch of no trials would never advance the trial count
    with pytest.raises(ValueError):
        estimate_ler(make_code(), NoiseModel(0.05), DecoderConfig(),
                     trials=100, batch=batch)


def test_estimate_ler_early_stop():
    code = make_code()
    rep = estimate_ler(code, NoiseModel(0.001), DecoderConfig(),
                       trials=100_000, precision=5e-3, seed=1, batch=512)
    assert rep.trials < 100_000  # CI shrinks quickly at tiny p
    lo, hi = wilson_interval(rep.failures, rep.trials)
    assert (hi - lo) / 2 < 5e-3


def test_early_stop_point_ignores_batch_size():
    # the CI rule fires here, so each batch size must stop at the same point
    code = make_code()
    for batch in (64, 257, 1024):
        rep = estimate_ler(code, NoiseModel(0.05), DecoderConfig(),
                           trials=20_000, precision=5e-3, seed=9,
                           batch=batch)
        assert (rep.trials, rep.failures) == (10240, 689), batch


def test_failures_ignore_batch_size_on_a_larger_code():
    # marginals that depend on the batch size flip OSD decisions here
    a, b = parse_ring_poly("1+x^4", 5), parse_ring_poly("1+x+x^2+x^4", 5)
    code = extend_family(identity_plan(a, b, 2))[1]
    for batch in (128, 1024):
        rep = estimate_ler(code, NoiseModel(0.15), DecoderConfig(),
                           trials=2048, precision=0.0, seed=(1, 0),
                           batch=batch)
        assert rep.failures == 826, batch


def test_sweep_deterministic_csv():
    code = make_code()
    cfg = DecoderConfig()
    grid = [0.05, 0.08]
    r1 = sweep([code], grid, cfg, trials=400, seed=13)
    r2 = sweep([code], grid, cfg, trials=400, seed=13)
    assert reports_to_csv(r1) == reports_to_csv(r2)
    assert [r.p for r in r1] == grid


def test_sweep_csv_ignores_thread_count():
    a, b = parse_ring_poly("1+x^4", 5), parse_ring_poly("1+x+x^2+x^4", 5)
    family = [make_code(), extend_family(identity_plan(a, b, 2))[1]]
    args = (family, [0.05, 0.12], DecoderConfig())
    serial = sweep(*args, trials=300, seed=21, threads=1)
    pooled = sweep(*args, trials=300, seed=21, threads=2)
    assert reports_to_csv(pooled) == reports_to_csv(serial)
    assert [r.n for r in serial] == [10, 10, 20, 20]


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, starts no
    process and maps in this one."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


def test_sweep_starts_at_most_one_worker_per_point(monkeypatch):
    monkeypatch.setattr(simulator, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    code = make_code()
    cfg = DecoderConfig()
    serial = reports_to_csv(sweep([code], [0.05], cfg, trials=50, seed=3))
    for threads, grid in ((64, [0.05, 0.08, 0.1]), (2, [0.05, 0.08, 0.1]),
                          (64, [0.05])):
        out = sweep([code], grid, cfg, trials=50, seed=3, threads=threads)
        assert reports_to_csv(out[:1]) == serial
    assert RecordingPool.sizes == [3, 2]  # one point runs without a pool
    for threads in (0, -1):
        with pytest.raises(ValueError):
            sweep([code], [0.05], cfg, trials=50, threads=threads)


def test_csv_roundtrip():
    code = make_code()
    reports = sweep([code], [0.05], DecoderConfig(), trials=200, seed=2)
    text = reports_to_csv(reports)
    back = reports_from_csv(text)
    assert reports_to_csv(back) == text
    with pytest.raises(ValueError):
        reports_from_csv("a,b\n1,2\n")


def test_threshold_estimate_synthetic():
    from gbx.simulator import SimReport

    def row(label, p, ler):
        return SimReport(label, 10, 2, p, 1000, int(ler * 1000), ler,
                         ler - 0.01, ler + 0.01, 0)

    # curves cross between 0.10 and 0.11
    reports = [row("a", 0.10, 0.05), row("a", 0.11, 0.09),
               row("b", 0.10, 0.07), row("b", 0.11, 0.08)]
    p_star, err = threshold_estimate(reports, "a", "b")
    assert 0.10 < p_star < 0.11
    assert err > 0
    # an exact tie is the crossing, at the first or the last shared point
    for ler_a, ler_b, tie in [((0.20, 0.10), (0.20, 0.30), 0.1),
                              ((0.10, 0.30), (0.20, 0.30), 0.2)]:
        p_star, err = threshold_estimate(
            [row("a", 0.1, ler_a[0]), row("a", 0.2, ler_a[1]),
             row("b", 0.1, ler_b[0]), row("b", 0.2, ler_b[1])], "a", "b")
        assert p_star == tie
        assert err > 0
    with pytest.raises(ValueError):
        threshold_estimate([row("a", 0.1, 0.05), row("b", 0.1, 0.07)],
                           "a", "b")
    with pytest.raises(ValueError):  # no crossing
        threshold_estimate([row("a", 0.10, 0.05), row("a", 0.11, 0.06),
                            row("b", 0.10, 0.07), row("b", 0.11, 0.08)],
                           "a", "b")
