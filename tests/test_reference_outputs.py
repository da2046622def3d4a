"""Pinned outputs: code families, logical bases, sweep CSV, failure counts.

The digests and counts were recorded from the matrix-based triple-block
construction, the per-vector logical-basis scan and the per-trial decode
path that the current single implementations replaced. A change that
alters any construction, logical basis or decoder decision shows up here.
"""

import hashlib

import numpy as np

import gbx

# sha256 over (label, hx, hz, lx, lz) of every member, see `family_digest`
FAMILY_DIGESTS = {
    "triple M=5":
        "bbf504900446214e28949b5236f5cdc06f5f092e53d7ad1975837f30db7a0bfc",
    "identity M=4":
        "e64b102717bd1d470eacd0386399b888dee9923fe181500c1d3effed5577048b",
    "insertion j=2 r=5 M=4":
        "dd53492508247e54190edf6de33893278644d660bbe083a6a8501100e8b24e26",
    "catalog":
        "e812487fe08809fbcb12c380bf70cb526ad4a085101c6574642d5d99169c46fa",
}

CRITERION_13_CSV = (
    "code_label,n,k,p,trials,failures,ler,ci_low,ci_high,seed\n"
    '"[[10,2,3]]",10,2,0.05,2000,138,0.069,0.0586982698,0.08095422496,13\n'
    '"[[10,2,3]]",10,2,0.1,2000,448,0.224,0.2062668823,0.2427913278,13\n'
    '"[[10,2,3]]",10,2,0.15,2000,743,0.3715,0.3505881804,0.3929045007,13\n')

# (p, osd_mode, osd_order) -> failures of the identity member n=20 in 300
# trials, seed (7, 1)
FAILURES = {
    (0.05, "off", None): 21, (0.05, "off", 2): 21,
    (0.05, "sweep", 0): 20,
    (0.05, "sweep", None): 8, (0.05, "sweep", 2): 13,
    (0.05, "always", None): 20, (0.05, "always", 2): 20,
    (0.12, "off", None): 114, (0.12, "off", 2): 114,
    (0.12, "sweep", 0): 105,
    (0.12, "sweep", None): 61, (0.12, "sweep", 2): 77,
    (0.12, "always", None): 105, (0.12, "always", 2): 105,
}

# sha256 of the decode_batch estimates, see `decode_batch_digest`; recorded
# with one osd_postprocess call per OSD row and per-column elimination
DECODE_BATCH_DIGEST = (
    "c4dbde69344d9c633ee350711c17afa112d4f386ce34e156b07bc037f5d5c25c")


def base_pair():
    return (gbx.parse_ring_poly("1+x^4", 5),
            gbx.parse_ring_poly("1+x+x^2+x^4", 5))


def base_code():
    return gbx.build_gb(*base_pair(), label="[[10,2,3]]")


def family_digest(codes) -> str:
    h = hashlib.sha256()
    for code in codes:
        h.update(code.label.encode())
        for M in (code.hx, code.hz, code.lx, code.lz):
            M = np.ascontiguousarray(M, dtype=np.uint8)
            h.update(repr(M.shape).encode())
            h.update(M.tobytes())
    return h.hexdigest()


def families() -> dict:
    base = base_code()
    return {
        "triple M=5": gbx.build_triple_family(gbx.TripleBlockPlan(base, 5)),
        "identity M=4": gbx.extend_family(gbx.identity_plan(*base_pair(), 4)),
        "insertion j=2 r=5 M=4": gbx.build_insertion_family(
            gbx.ZeroInsertPlan(base, 4, j=2, r=5)),
        "catalog": gbx.catalog(),
    }


def criterion_13_csv() -> str:
    return gbx.reports_to_csv(gbx.sweep(
        [base_code()], [0.05, 0.10, 0.15], gbx.DecoderConfig(),
        trials=2000, precision=0.0, seed=13))


def failure_counts() -> dict:
    code = gbx.extend_family(gbx.identity_plan(*base_pair(), 2))[1]
    out = {}
    for p in (0.05, 0.12):
        for mode, order in (("off", None), ("off", 2), ("sweep", 0),
                            ("sweep", None), ("sweep", 2), ("always", None),
                            ("always", 2)):
            cfg = gbx.DecoderConfig(osd_mode=mode, osd_order=order)
            rep = gbx.estimate_ler(code, gbx.NoiseModel(p), cfg, trials=300,
                                   precision=0.0, seed=(7, 1), batch=128)
            out[(p, mode, order)] = rep.failures
    return out


def test_family_outputs_are_pinned():
    got = {name: family_digest(codes) for name, codes in families().items()}
    assert got == FAMILY_DIGESTS


def test_criterion_13_csv_is_pinned():
    assert criterion_13_csv() == CRITERION_13_CSV


def test_failure_counts_are_pinned():
    assert failure_counts() == FAILURES


def decode_batch_digest() -> str:
    """sha256 over the decode_batch estimates of both sectors, per point
    and mode, for 1024 trials of each point i with seed (1, i)."""
    members = gbx.extend_family(gbx.identity_plan(*base_pair(), 3))[1:]
    points = [(code, p) for code in members for p in (0.10, 0.15)]
    h = hashlib.sha256()
    for i, (code, p) in enumerate(points):
        noise = gbx.NoiseModel(p)
        EX = np.empty((1024, code.n), dtype=np.uint8)
        EZ = np.empty((1024, code.n), dtype=np.uint8)
        for t in range(1024):
            EX[t], EZ[t] = gbx.sample_error(
                code.n, noise, gbx.simulator.trial_rng((1, i), t))
        SZ, SX = (EX @ code.hz.T) % 2, (EZ @ code.hx.T) % 2
        for mode, order in (("sweep", 0), ("sweep", None), ("always", None)):
            cfg = gbx.DecoderConfig(osd_mode=mode, osd_order=order)
            for H, S in ((code.hz, SZ), (code.hx, SX)):
                h.update(gbx.decode_batch(H, S, p, cfg).tobytes())
    return h.hexdigest()


def test_decode_batch_estimates_are_pinned():
    assert decode_batch_digest() == DECODE_BATCH_DIGEST
