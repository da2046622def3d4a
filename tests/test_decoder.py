"""Min-sum BP and ordered-statistics post-processing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbx.code import build_gb
from gbx.decoder import (DecoderConfig, bp_minsum_batch, decode, decode_batch,
                         osd_postprocess)
from gbx.gf2poly import RingPoly, parse_ring_poly


def make_code():
    return build_gb(parse_ring_poly("1+x^4", 5),
                    parse_ring_poly("1+x+x^2+x^4", 5), label="[[10,2,3]]")


def bp_one(H, syndrome, prior, cfg):
    """BP on a batch of one: (hard, marginals, converged, iterations)."""
    hard, marg, conv, iters = bp_minsum_batch(
        H, np.asarray(syndrome, dtype=np.uint8)[None, :], prior, cfg)
    return hard[0], marg[0], bool(conv[0]), int(iters[0])


def repetition_H(n):
    H = np.zeros((n - 1, n), dtype=np.uint8)
    for i in range(n - 1):
        H[i, i] = H[i, i + 1] = 1
    return H


def test_config_validation():
    with pytest.raises(ValueError):
        DecoderConfig(ms_scale=0.0)
    with pytest.raises(ValueError):
        DecoderConfig(ms_scale=1.5)
    with pytest.raises(ValueError):
        DecoderConfig(max_iter=0)
    with pytest.raises(ValueError):
        DecoderConfig(osd_order=-1)
    with pytest.raises(ValueError):
        DecoderConfig(osd_mode="fancy")


def test_bp_zero_syndrome_returns_zero():
    code = make_code()
    s = np.zeros(5, dtype=np.uint8)
    hard, soft, converged, _ = bp_one(code.hz, s, 0.01, DecoderConfig())
    assert converged
    assert not hard.any()
    assert (soft > 0).all()


def test_bp_repetition_code_single_error():
    H = repetition_H(7)
    cfg = DecoderConfig()
    for i in range(7):
        e = np.zeros(7, dtype=np.uint8)
        e[i] = 1
        s = (H @ e) % 2
        hard, _, converged, _ = bp_one(H, s, 0.05, cfg)
        assert converged
        assert np.array_equal(hard, e)


def test_bp_estimate_satisfies_syndrome_when_converged():
    code = make_code()
    rng = np.random.default_rng(71)
    cfg = DecoderConfig()
    for _ in range(100):
        e = (rng.random(10) < 0.1).astype(np.uint8)
        s = (code.hz @ e) % 2
        hard, _, converged, _ = bp_one(code.hz, s, 0.1, cfg)
        if converged:
            assert np.array_equal((code.hz @ hard) % 2, s)


def test_batch_matches_single():
    code = make_code()
    rng = np.random.default_rng(72)
    cfg = DecoderConfig(max_iter=15)
    S = rng.integers(0, 2, size=(20, 5)).astype(np.uint8)
    # keep only achievable syndromes
    S = np.array([(code.hz @ e) % 2 for e in
                  (rng.random((20, 10)) < 0.15).astype(np.uint8)])
    hard, marg, conv, iters = bp_minsum_batch(code.hz, S, 0.15, cfg)
    for i in range(20):
        s_hard, s_marg, s_conv, s_iters = bp_one(code.hz, S[i], 0.15, cfg)
        assert np.array_equal(hard[i], s_hard)
        assert np.allclose(marg[i], s_marg)
        assert bool(conv[i]) == s_conv
        assert iters[i] == s_iters


def test_prior_validation():
    code = make_code()
    s = np.zeros(5, dtype=np.uint8)
    with pytest.raises(ValueError):
        bp_one(code.hz, s, 0.0, DecoderConfig())
    with pytest.raises(ValueError):
        bp_one(code.hz, s, 0.7, DecoderConfig())
    with pytest.raises(ValueError):
        bp_one(code.hz, np.zeros(4, dtype=np.uint8), 0.1, DecoderConfig())


def test_osd_always_satisfies_syndrome():
    code = make_code()
    rng = np.random.default_rng(73)
    cfg = DecoderConfig(osd_order=5)
    for _ in range(100):
        e = (rng.random(10) < 0.3).astype(np.uint8)
        s = (code.hz @ e) % 2
        soft = rng.normal(size=10)
        out = osd_postprocess(code.hz, s, soft, cfg)
        assert out.osd_used
        assert np.array_equal((code.hz @ out.estimate) % 2, s)


def test_osd_order0_solves_on_most_reliable_set():
    # with a strongly informative soft vector, OSD-0 must place the error on
    # the least reliable coordinate
    code = make_code()
    e = np.zeros(10, dtype=np.uint8)
    e[3] = 1
    s = (code.hz @ e) % 2
    soft = np.full(10, 5.0)
    soft[3] = -5.0
    out = osd_postprocess(code.hz, s, soft, DecoderConfig(osd_mode="order0"))
    assert np.array_equal(out.estimate, e)


def test_osd_rejects_unreachable_syndrome():
    # duplicated rows give a nontrivial left kernel, so half the syndromes
    # are unreachable
    H = np.array([[1, 1, 0], [1, 1, 0]], dtype=np.uint8)
    s = np.array([1, 0], dtype=np.uint8)
    with pytest.raises(ValueError):
        osd_postprocess(H, s, np.zeros(3), DecoderConfig())


def test_osd_sweep_never_worse_than_order0():
    code = make_code()
    rng = np.random.default_rng(74)
    for _ in range(50):
        e = (rng.random(10) < 0.3).astype(np.uint8)
        s = (code.hz @ e) % 2
        soft = rng.normal(size=10)
        c0 = osd_postprocess(code.hz, s, soft,
                             DecoderConfig(osd_mode="order0"))
        cs = osd_postprocess(code.hz, s, soft,
                             DecoderConfig(osd_mode="sweep", osd_order=10))
        cost = lambda est: float(soft[est == 1].sum())
        assert cost(cs.estimate) <= cost(c0.estimate) + 1e-12


def test_decode_sector_falls_back_to_osd():
    code = make_code()
    rng = np.random.default_rng(75)
    cfg = DecoderConfig(max_iter=1)  # starve BP so OSD has to run sometimes
    E = (rng.random((50, 10)) < 0.3).astype(np.uint8)
    S = (E @ code.hz.T) % 2
    est = decode_batch(code.hz, S, 0.3, cfg)
    assert np.array_equal((est @ code.hz.T) % 2, S)
    # OSD ran exactly on the rows where BP missed the syndrome
    hard, _, conv, _ = bp_minsum_batch(code.hz, S, 0.3, cfg)
    assert (~conv).sum() > 0
    assert np.array_equal(est[conv], hard[conv])
    assert ((hard[~conv] @ code.hz.T) % 2 != S[~conv]).any(axis=1).all()


def test_decode_full_code_weight_one_errors():
    # every weight-1 X, Y, Z error must be corrected by the full decoder
    code = make_code()
    cfg = DecoderConfig()
    n = code.n
    for kind in ("X", "Y", "Z"):
        for i in range(n):
            ex = np.zeros(n, dtype=np.uint8)
            ez = np.zeros(n, dtype=np.uint8)
            if kind in ("X", "Y"):
                ex[i] = 1
            if kind in ("Y", "Z"):
                ez[i] = 1
            s_z = (code.hz @ ex) % 2
            s_x = (code.hx @ ez) % 2
            ex_hat, ez_hat = decode(code, s_x, s_z, 0.01, cfg)
            rx, rz = ex ^ ex_hat, ez ^ ez_hat
            assert np.array_equal((code.hz @ rx) % 2, np.zeros(5, np.uint8))
            assert np.array_equal((code.hx @ rz) % 2, np.zeros(5, np.uint8))
            assert not ((code.lz @ rx) % 2).any(), (kind, i)
            assert not ((code.lx @ rz) % 2).any(), (kind, i)


# ---------------------------------------------------------------------------
# properties over random GB codes

@st.composite
def gb_codes(draw, max_ell=8):
    ell = draw(st.integers(3, max_ell))
    am = draw(st.integers(1, (1 << ell) - 1))
    bm = draw(st.integers(1, (1 << ell) - 1))
    return build_gb(RingPoly.from_mask(am, ell), RingPoly.from_mask(bm, ell))


@settings(max_examples=60, deadline=None)
@given(code=gb_codes(), seed=st.integers(0, 2**32 - 1),
       mode=st.sampled_from(["order0", "sweep"]),
       order=st.one_of(st.none(), st.integers(0, 6)))
def test_osd_satisfies_random_reachable_syndromes(code, seed, mode, order):
    rng = np.random.default_rng(seed)
    e = rng.integers(0, 2, size=code.n).astype(np.uint8)
    s = (code.hx @ e) % 2  # reachable by construction
    soft = rng.normal(size=code.n)
    out = osd_postprocess(code.hx, s, soft,
                          DecoderConfig(osd_mode=mode, osd_order=order))
    assert np.array_equal((code.hx @ out.estimate) % 2, s)


@settings(max_examples=30, deadline=None)
@given(code=gb_codes(max_ell=7), seed=st.integers(0, 2**32 - 1),
       p=st.sampled_from([0.02, 0.1, 0.2]),
       cfg=st.builds(DecoderConfig, max_iter=st.integers(1, 12),
                     osd_order=st.one_of(st.none(), st.integers(0, 4)),
                     osd_mode=st.sampled_from(
                         ["off", "order0", "sweep", "always"])))
def test_decode_batch_rows_equal_single_decodes(code, seed, p, cfg):
    rng = np.random.default_rng(seed)
    EX = (rng.random((6, code.n)) < p).astype(np.uint8)
    EZ = (rng.random((6, code.n)) < p).astype(np.uint8)
    SZ, SX = (EX @ code.hz.T) % 2, (EZ @ code.hx.T) % 2
    sector_cfg = cfg.for_ring(code.ell)
    EX_hat = decode_batch(code.hz, SZ, p, sector_cfg)
    EZ_hat = decode_batch(code.hx, SX, p, sector_cfg)
    for t in range(6):
        ex, ez = decode(code, SX[t], SZ[t], p, cfg)
        assert np.array_equal(ex, EX_hat[t])
        assert np.array_equal(ez, EZ_hat[t])
