"""Monte Carlo logical-error estimation."""

import math

import numpy as np
import pytest

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
    with pytest.raises(ValueError):
        NoiseModel(0.1, (0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        NoiseModel(0.1, (0.5, 0.5))


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


def test_classify_failure():
    code = make_code()
    zero = np.zeros(code.n, dtype=np.uint8)
    assert not classify_failure(code, zero, zero)
    # a logical X representative flips the outcome
    assert classify_failure(code, code.lx[0], zero)
    assert classify_failure(code, zero, code.lz[0])
    # a stabilizer row is harmless
    assert not classify_failure(code, code.hx[0, :], zero)


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
    with pytest.raises(ValueError):
        threshold_estimate([row("a", 0.1, 0.05), row("b", 0.1, 0.07)],
                           "a", "b")
    with pytest.raises(ValueError):  # no crossing
        threshold_estimate([row("a", 0.10, 0.05), row("a", 0.11, 0.06),
                            row("b", 0.10, 0.07), row("b", 0.11, 0.08)],
                           "a", "b")
