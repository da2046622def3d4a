"""Min-sum BP and ordered-statistics post-processing."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbx.code import build_gb
from gbx.decoder import (LLR_CAP, DecoderConfig, _prior_llr, bp_minsum_batch,
                         decode, decode_batch, osd_postprocess)
from gbx.extension import extend_family, identity_plan
from gbx.gf2mat import row_reduce
from gbx.gf2poly import RingPoly, parse_ring_poly
from gbx.scalable import TripleBlockPlan, build_triple_family
from gbx.simulator import NoiseModel, _sample_batch, classify_failure


def make_code():
    return build_gb(parse_ring_poly("1+x^4", 5),
                    parse_ring_poly("1+x+x^2+x^4", 5), label="[[10,2,3]]")


def bp_one(H, syndrome, prior, cfg):
    """BP on a batch of one: (hard, marginals, converged, iterations)."""
    hard, marg, conv, iters = bp_minsum_batch(
        H, np.asarray(syndrome, dtype=np.uint8)[None, :], prior, cfg)
    return hard[0], marg[0], bool(conv[0]), int(iters[0])


def dense_minsum(H, syndromes, prior, cfg):
    """Reference min-sum on dense (B, m, n) message tensors, the layout the
    edge-list decoder replaced. Run one row at a time, its column sums add
    the checks in ascending order, the order the edge-list gather keeps."""
    H = np.asarray(H, dtype=np.uint8) & 1
    m, n = H.shape
    S = np.asarray(syndromes, dtype=np.uint8) & 1
    B = S.shape[0]
    llr0 = _prior_llr(prior, n)

    mask = H.astype(bool)[None, :, :]  # (1, m, n)
    syn_sign = 1.0 - 2.0 * S.astype(np.float64)  # (B, m)
    M = np.where(mask, llr0[None, None, :], 0.0) * np.ones((B, 1, 1))

    hard_out = np.zeros((B, n), dtype=np.uint8)
    marg_out = np.tile(llr0, (B, 1))
    iters = np.zeros(B, dtype=np.int64)
    done = np.zeros(B, dtype=bool)

    Ht = H.T.astype(np.uint8)
    for it in range(1, cfg.max_iter + 1):
        absM = np.where(mask, np.abs(M), np.inf)
        sgn = np.where(mask & (M < 0), -1.0, 1.0)
        rowsign = sgn.prod(axis=2)  # (B, m)
        amin = absM.argmin(axis=2)
        min1 = np.take_along_axis(absM, amin[..., None], axis=2)[..., 0]
        tmp = absM.copy()
        np.put_along_axis(tmp, amin[..., None], np.inf, axis=2)
        min2 = tmp.min(axis=2)
        ext_min = np.where(np.arange(n)[None, None, :] == amin[..., None],
                           min2[..., None], min1[..., None])
        ext_min = np.minimum(ext_min, LLR_CAP)
        E = cfg.ms_scale * (syn_sign * rowsign)[..., None] * sgn * ext_min
        E = np.where(mask, E, 0.0)
        colsum = E.sum(axis=1)  # (B, n)
        marg = llr0[None, :] + colsum
        M = np.where(mask, marg[:, None, :] - E, 0.0)
        hard = (marg <= 0.0).astype(np.uint8)
        sat = (((hard @ Ht) & 1) == S).all(axis=1)
        newly = sat & ~done
        if newly.any():
            hard_out[newly] = hard[newly]
            marg_out[newly] = marg[newly]
            iters[newly] = it
            done |= newly
        if done.all():
            break
        hard_out[~done] = hard[~done]
        marg_out[~done] = marg[~done]
        iters[~done] = it
    return hard_out, marg_out, done, iters


def osd_reference(H, syndrome, soft, cfg):
    """Reference OSD estimate: the per-candidate loop the vectorized scoring
    replaced. Candidates are tried one at a time in candidate order, each
    scored by its exact cost sum, and the first strict minimum is kept.
    osd_order=None sweeps the first m secondary columns, m = len(H)."""
    H = np.asarray(H, dtype=np.uint8) & 1
    m, n = H.shape
    s = np.asarray(syndrome, dtype=np.uint8) & 1
    llr = np.asarray(soft, dtype=np.float64)
    order = np.argsort(llr, kind="stable")
    R, piv_cols = row_reduce(np.hstack([H[:, order], s[:, None]]))
    A, b = R[:, :n], R[:, n]
    rank = len(piv_cols)
    nonpiv = [c for c in range(n) if c not in set(piv_cols)]
    w = min(m if cfg.osd_order is None else cfg.osd_order, len(nonpiv))

    def assemble(t_cols):
        e = np.zeros(n, dtype=np.uint8)
        rhs = b[:rank].copy()
        for c in t_cols:
            rhs ^= A[:rank, c]
            e[c] = 1
        for i, c in enumerate(piv_cols):
            e[c] = rhs[i]
        return e

    candidates = ([()] + [(c,) for c in nonpiv[:w]]
                  + list(combinations(nonpiv[:w], 2)))
    best_e = best_cost = None
    for t in candidates:
        e_perm = assemble(t)
        cost = float(llr[order[e_perm == 1]].sum())
        if best_cost is None or cost < best_cost:
            best_cost, best_e = cost, e_perm
    estimate = np.zeros(n, dtype=np.uint8)
    estimate[order] = best_e
    return estimate


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
    with pytest.raises(ValueError):  # order 0 is osd_order=0
        DecoderConfig(osd_mode="order0")


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
    # identity member n=20 and 512 rows: enough for numpy to sum a dense
    # (B, m, n) column sum in another order than for one row
    a, b = parse_ring_poly("1+x^4", 5), parse_ring_poly("1+x+x^2+x^4", 5)
    code = extend_family(identity_plan(a, b, 2))[1]
    rng = np.random.default_rng(72)
    cfg = DecoderConfig(max_iter=15)
    E = (rng.random((512, code.n)) < 0.15).astype(np.uint8)
    S = (E @ code.hz.T) % 2
    hard, marg, conv, iters = bp_minsum_batch(code.hz, S, 0.15, cfg)
    for i in range(len(S)):
        s_hard, s_marg, s_conv, s_iters = bp_one(code.hz, S[i], 0.15, cfg)
        assert np.array_equal(hard[i], s_hard)
        assert np.array_equal(marg[i], s_marg)
        assert bool(conv[i]) == s_conv
        assert iters[i] == s_iters


@st.composite
def tanner_problems(draw):
    """A random small check matrix (empty rows and columns and degree-1
    checks included), a batch of arbitrary syndromes and a prior."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    density = draw(st.sampled_from([0.15, 0.4, 0.7]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    H = (rng.random((m, n)) < density).astype(np.uint8)
    S = rng.integers(0, 2, size=(draw(st.integers(1, 8)), m)).astype(np.uint8)
    prior = draw(st.one_of(
        st.sampled_from([0.01, 0.1, 0.5]),
        st.lists(st.floats(1e-3, 0.5), min_size=n, max_size=n)))
    return H, S, prior


# check 0 has no edge, check 1 has degree one, column 3 is empty
EDGE_CASES = (np.array([[0, 0, 0, 0], [0, 1, 0, 0], [1, 1, 1, 0]], np.uint8),
              np.array([[0, 1, 1], [1, 0, 1], [0, 0, 0]], np.uint8), 0.1)


@settings(max_examples=150, deadline=None)
@given(problem=tanner_problems(), max_iter=st.integers(1, 12),
       ms_scale=st.sampled_from([0.3, 0.625, 1.0]))
@example(problem=EDGE_CASES, max_iter=5, ms_scale=0.625)
def test_bp_matches_dense_reference_row_by_row(problem, max_iter, ms_scale):
    H, S, prior = problem
    cfg = DecoderConfig(max_iter=max_iter, ms_scale=ms_scale)
    out = bp_minsum_batch(H, S, prior, cfg)
    for i in range(len(S)):
        ref = dense_minsum(H, S[i:i + 1], prior, cfg)
        for got, want in zip(out, ref):
            assert np.array_equal(got[i], want[0])


def production_width_problem(member):
    """hz of a family member of [[10,2,3]] and 64 syndromes of p = 0.05
    errors: at default settings rows converge at several different
    iterations and some never do."""
    base = make_code()
    if member == "triple n=90":  # check degree 24, variable degree 16
        code = build_triple_family(TripleBlockPlan(base, 3))[2]
    else:  # identity n=30: check degree 6, variable degree 4
        code = extend_family(identity_plan(base.a, base.b, 3))[2]
    rng = np.random.default_rng(73)
    E = (rng.random((64, code.n)) < 0.05).astype(np.uint8)
    return code.hz, (E @ code.hz.T) % 2


@pytest.mark.parametrize("member", ["triple n=90", "identity n=30"])
def test_bp_matches_dense_reference_at_production_widths(member):
    H, S = production_width_problem(member)
    cfg = DecoderConfig()
    out = bp_minsum_batch(H, S, 0.05, cfg)
    conv, iters = out[2], out[3]
    assert (~conv).any() and len(set(iters[conv].tolist())) >= 3
    for i in range(len(S)):
        ref = dense_minsum(H, S[i:i + 1], 0.05, cfg)
        for got, want in zip(out, ref):
            assert np.array_equal(got[i], want[0])


@pytest.mark.parametrize("member", ["triple n=90", "identity n=30"])
def test_bp_rows_keep_their_identity_in_a_shuffled_batch(member):
    # rows leave the active set at different iterations; each must come
    # back at its own position with its own state
    H, S = production_width_problem(member)
    perm = np.random.default_rng(74).permutation(len(S))
    cfg = DecoderConfig()
    out = bp_minsum_batch(H, S, 0.05, cfg)
    shuffled = bp_minsum_batch(H, S[perm], 0.05, cfg)
    for got, want in zip(shuffled, out):
        assert np.array_equal(got, want[perm])


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
    out = osd_postprocess(code.hz, s, soft, DecoderConfig(osd_order=0))
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
        c0 = osd_postprocess(code.hz, s, soft, DecoderConfig(osd_order=0))
        cs = osd_postprocess(code.hz, s, soft, DecoderConfig(osd_order=10))
        cost = lambda est: float(soft[est == 1].sum())
        assert cost(cs.estimate) <= cost(c0.estimate) + 1e-12


# soft vectors: generic floats; small integers, so that exact cost ties
# happen; decimals whose sums round differently in different orders; and
# LLR_CAP-scale entries beside small ones
SOFT_VALUES = {
    "normal": None,
    "integers": [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0],
    "decimals": [-0.3, -0.2, -0.1, 0.1, 0.2, 0.3, 0.7, 1e-17],
    "capped": [-LLR_CAP, -0.5, 0.25, 1.0, LLR_CAP, 2 * LLR_CAP, 3 * LLR_CAP],
}


@st.composite
def osd_problems(draw):
    """A random check matrix, a reachable syndrome and a soft vector."""
    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 12))
    density = draw(st.sampled_from([0.2, 0.5, 0.8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    H = (rng.random((m, n)) < density).astype(np.uint8)
    s = (H @ rng.integers(0, 2, size=n)) % 2
    values = SOFT_VALUES[draw(st.sampled_from(sorted(SOFT_VALUES)))]
    soft = rng.normal(size=n) if values is None else rng.choice(values, n)
    return H, s, soft


# exact cost sums tie in the reals here and round apart in the sweep, so
# the choice depends on which near-minimum candidates are re-scored
ROUNDING_TIE = (
    np.array([[1, 0, 0, 0, 0, 0, 0, 0, 0, 0], [1, 0, 0, 1, 0, 0, 0, 0, 0, 0],
              [0, 0, 1, 0, 0, 1, 0, 0, 0, 1], [0, 0, 1, 1, 1, 0, 0, 0, 0, 0],
              [0, 1, 1, 0, 0, 0, 1, 0, 0, 1], [0, 1, 1, 0, 0, 1, 1, 0, 1, 0],
              [0, 0, 0, 0, 0, 0, 0, 0, 0, 0]], dtype=np.uint8),
    np.array([0, 0, 1, 0, 1, 0, 0], dtype=np.uint8),
    np.array([0.7, 0.1, 0.1, -0.3, -0.3, 0.2, 0.1, -0.3, 0.7, 0.7]))


@settings(max_examples=400, deadline=None)
@given(problem=osd_problems(), order=st.one_of(st.none(), st.integers(0, 12)))
@example(problem=ROUNDING_TIE, order=None)
def test_osd_matches_per_candidate_reference(problem, order):
    H, s, soft = problem
    cfg = DecoderConfig(osd_order=order)
    got = osd_postprocess(H, s, soft, cfg).estimate
    assert np.array_equal(got, osd_reference(H, s, soft, cfg))


@st.composite
def osd_stacks(draw):
    """A random check matrix with a stack of reachable syndromes, each row
    with its own kind of soft vector."""
    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 12))
    density = draw(st.sampled_from([0.2, 0.5, 0.8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    H = (rng.random((m, n)) < density).astype(np.uint8)
    K = draw(st.integers(1, 6))
    S = (rng.integers(0, 2, size=(K, n)) @ H.T) % 2
    kinds = draw(st.lists(st.sampled_from(sorted(SOFT_VALUES)),
                          min_size=K, max_size=K))
    soft = np.array([rng.normal(size=n) if SOFT_VALUES[kind] is None
                     else rng.choice(SOFT_VALUES[kind], n) for kind in kinds])
    return H, S, soft


def rounding_tie_stack():
    """ROUNDING_TIE between ordinary rows on the same check matrix."""
    H, s, soft = ROUNDING_TIE
    rng = np.random.default_rng(76)
    S = (rng.integers(0, 2, size=(4, H.shape[1])) @ H.T) % 2
    S[2] = s
    soft_stack = rng.normal(size=(4, H.shape[1]))
    soft_stack[2] = soft
    return H, S, soft_stack


@settings(max_examples=300, deadline=None)
@given(problem=osd_stacks(), order=st.one_of(st.none(), st.integers(0, 12)))
@example(problem=rounding_tie_stack(), order=None)
@example(problem=rounding_tie_stack(), order=3)
def test_osd_stack_matches_reference_row_by_row(problem, order):
    H, S, soft = problem
    cfg = DecoderConfig(osd_order=order)
    out = osd_postprocess(H, S, soft, cfg)
    assert out.estimate.shape == S.shape[:1] + H.shape[1:]
    for i in range(len(S)):
        assert np.array_equal(out.estimate[i],
                              osd_reference(H, S[i], soft[i], cfg))


def test_osd_stack_with_one_unreachable_row_raises():
    H = np.array([[1, 1, 0], [1, 1, 0], [0, 1, 1]], dtype=np.uint8)
    S = np.array([[0, 0, 1], [1, 1, 0], [1, 0, 0], [0, 0, 0]], np.uint8)
    with pytest.raises(ValueError):
        osd_postprocess(H, S, np.zeros((4, 3)), DecoderConfig())
    # the reachable rows alone decode
    out = osd_postprocess(H, S[[0, 1, 3]], np.zeros((3, 3)), DecoderConfig())
    assert np.array_equal((out.estimate @ H.T) % 2, S[[0, 1, 3]])


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


def test_always_mode_differs_from_order0_by_kernel_vectors():
    # On converged rows `always` may trade BP's estimate for the order-0
    # solution of the same syndrome. At triple n=90, p=0.01 that happens,
    # every such pair differs by a vector of ker H, and it fails less often
    # than order 0 on unconverged rows only (80 against 84 of 1024).
    code = build_triple_family(TripleBlockPlan(make_code(), 3))[2]
    EX, EZ = _sample_batch(code.n, NoiseModel(0.01), (1, 0), 0, 1024)
    sectors = ((code.hz, EX), (code.hx, EZ))
    est, failures = {}, {}
    for mode in ("always", "sweep"):
        cfg = DecoderConfig(osd_mode=mode, osd_order=0)
        est[mode] = [decode_batch(H, (E @ H.T) % 2, 0.01, cfg)
                     for H, E in sectors]
        ex_hat, ez_hat = est[mode]
        failures[mode] = classify_failure(code, EX ^ ex_hat,
                                          EZ ^ ez_hat).sum()
    differing = 0
    for (H, E), a, b in zip(sectors, est["always"], est["sweep"]):
        S = (E @ H.T) % 2
        assert np.array_equal((a @ H.T) % 2, S)
        assert np.array_equal((b @ H.T) % 2, S)
        assert not (((a ^ b) @ H.T) % 2).any()
        differing += (a != b).any(axis=1).sum()
    assert differing > 0
    assert failures["always"] <= failures["sweep"]


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
       order=st.one_of(st.none(), st.integers(0, 6)))
def test_osd_satisfies_random_reachable_syndromes(code, seed, order):
    rng = np.random.default_rng(seed)
    e = rng.integers(0, 2, size=code.n).astype(np.uint8)
    s = (code.hx @ e) % 2  # reachable by construction
    soft = rng.normal(size=code.n)
    out = osd_postprocess(code.hx, s, soft, DecoderConfig(osd_order=order))
    assert np.array_equal((code.hx @ out.estimate) % 2, s)


@settings(max_examples=30, deadline=None)
@given(code=gb_codes(max_ell=7), seed=st.integers(0, 2**32 - 1),
       p=st.sampled_from([0.02, 0.1, 0.2]),
       cfg=st.builds(DecoderConfig, max_iter=st.integers(1, 12),
                     osd_order=st.one_of(st.none(), st.integers(0, 4)),
                     osd_mode=st.sampled_from(["off", "sweep", "always"])))
def test_decode_batch_rows_equal_single_decodes(code, seed, p, cfg):
    rng = np.random.default_rng(seed)
    EX = (rng.random((6, code.n)) < p).astype(np.uint8)
    EZ = (rng.random((6, code.n)) < p).astype(np.uint8)
    SZ, SX = (EX @ code.hz.T) % 2, (EZ @ code.hx.T) % 2
    EX_hat = decode_batch(code.hz, SZ, p, cfg)
    EZ_hat = decode_batch(code.hx, SX, p, cfg)
    for t in range(6):
        ex, ez = decode(code, SX[t], SZ[t], p, cfg)
        assert np.array_equal(ex, EX_hat[t])
        assert np.array_equal(ez, EZ_hat[t])
