"""Command-line front end.

Subcommands: search, build, extend, scale3, scale4, distance, decode,
sweep, report, catalog. Exit codes: 0 success, 2 empty filter result,
3 enumeration budget exceeded, 4 artifact I/O failure or missing artifact
field, 5 usage error (a malformed command line or an invalid argument
value). Every error prints one ``error:`` line to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .code import (build_gb, code_from_json, code_to_dict, code_to_json,
                   to_alist)
from .decoder import DecoderConfig, decode
from .distance import BudgetExceeded, min_distance
from .extension import (ExtensionPlan, extend_family, identity_plan,
                        plan_from_json, plan_to_dict, sparsity_profile)
from .gf2poly import parse_ring_poly
from .scalable import (ZeroInsertPlan, TripleBlockPlan, build_triple_family,
                       build_insertion_family, verify_embedding)
from .search import (SearchFilter, assemble_report, catalog,
                     search_base_codes)
from .simulator import (reports_from_csv, reports_to_csv, sweep)

EXIT_OK = 0
EXIT_EMPTY = 2
EXIT_BUDGET = 3
EXIT_IO = 4
EXIT_USAGE = 5


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _load_code(path):
    with open(path) as fh:
        return code_from_json(fh.read())


def _family_json(family) -> str:
    return json.dumps([code_to_dict(c) for c in family], indent=2)


def _bits(s: str) -> np.ndarray:
    return np.array([int(ch) for ch in s.strip()], dtype=np.uint8)


# ---------------------------------------------------------------------------
# subcommand handlers

def cmd_build(args) -> int:
    a = parse_ring_poly(args.a, args.ell)
    b = parse_ring_poly(args.b, args.ell)
    code = build_gb(a, b)
    if args.with_distance:
        code.d = min_distance(code).d
    if args.alist:
        with open(args.alist, "w") as fh:
            fh.write(to_alist(np.vstack([code.hx, code.hz])))
    _emit(code_to_json(code, embed_matrices=args.embed_matrices), args.out)
    return EXIT_OK


def cmd_catalog(args) -> int:
    codes = catalog()
    if args.format == "json":
        _emit(_family_json(codes), args.out)
    elif args.format == "csv":
        lines = ["label,ell,a,b,n,k,d"]
        for c in codes:
            lines.append(f"{c.label},{c.ell},{c.a},{c.b},{c.n},{c.k},{c.d}")
        _emit("\n".join(lines), args.out)
    else:
        lines = [f"{c.label:>12}  l={c.ell:<3} a={c.a}  b={c.b}" for c in codes]
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def cmd_search(args) -> int:
    ler_screen = None
    if args.ler_screen:
        p, max_ler = args.ler_screen.split(":")
        ler_screen = (float(p), float(max_ler))
    flt = SearchFilter(ell=args.ell, max_weight=args.max_weight,
                       require_dim=not args.allow_zero_dim,
                       require_distance=args.min_distance,
                       ler_screen=ler_screen,
                       screen_trials=args.trials)
    hits, k_positive = search_base_codes(flt, seed=args.seed)
    header = (f"# ring size {args.ell}: {k_positive} ordered nonzero pairs "
              f"with k > 0 (no equivalence deduplication)")
    if args.format == "json":
        _emit(json.dumps({"k_positive_pairs": k_positive,
                          "hits": [vars(h) for h in hits]}, indent=2),
              args.out)
    else:
        lines = [header, "a,b,n,k,w_r,d,ler"]
        for h in hits:
            lines.append(f"{h.a},{h.b},{h.n},{h.k},{h.w_r},"
                         f"{h.d if h.d is not None else ''},"
                         f"{h.ler if h.ler is not None else ''}")
        _emit("\n".join(lines), args.out)
    return EXIT_OK if hits else EXIT_EMPTY


def _plan_from_args(args, members: int) -> ExtensionPlan:
    if args.plan:
        with open(args.plan) as fh:
            return plan_from_json(fh.read())
    if not args.base:
        raise ValueError("need --plan or --base")
    base = _load_code(args.base)
    if args.preset == "identity":
        return identity_plan(base.a, base.b, members)
    if args.preset == "triple":
        from .scalable import triple_extension_plan
        return triple_extension_plan(base, members)
    raise ValueError(f"unknown preset {args.preset!r}")


def cmd_extend(args) -> int:
    plan = _plan_from_args(args, args.members)
    family = extend_family(plan)
    doc = {"plan": plan_to_dict(plan),
           "family": [code_to_dict(c) for c in family]}
    if args.sparsity:
        prof = sparsity_profile(family)
        doc["sparsity"] = {"classification": prof.classification,
                           "t": prof.t,
                           "alpha": str(prof.alpha) if prof.alpha else None,
                           "q_r": [str(q) for q in prof.q_r],
                           "q_c": [str(q) for q in prof.q_c]}
    _emit(json.dumps(doc, indent=2), args.out)
    return EXIT_OK


def cmd_scale3(args) -> int:
    base = _load_code(args.base)
    family = build_triple_family(TripleBlockPlan(base, args.levels))
    certs = []
    for small, large in zip(family, family[1:]):
        ok, witness = verify_embedding(small, large)
        certs.append({"small": small.label or small.n, "large": large.label,
                      "embedded": ok, "witness": _jsonable(witness)})
    _emit(_family_json(family), args.out)
    cert_path = args.cert or ((args.out or "scale3") + ".cert.json")
    with open(cert_path, "w") as fh:
        json.dump(certs, fh, indent=2)
    return EXIT_OK


def cmd_scale4(args) -> int:
    base = _load_code(args.base)
    family = build_insertion_family(ZeroInsertPlan(base, args.levels, args.j, args.r))
    _emit(_family_json(family), args.out)
    return EXIT_OK


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def cmd_distance(args) -> int:
    code = _load_code(args.code)
    res = min_distance(code, cap=args.cap)
    n = code.n
    sympl = np.zeros(2 * n, dtype=np.uint8)
    if res.witness_sector == "X":
        sympl[:n] = res.witness
    else:
        sympl[n:] = res.witness
    qualifier = "" if res.exact else " (upper bound; cap hit)"
    _emit(f"d = {res.d}{qualifier}\n"
          f"witness ({res.witness_sector}-type, X-part|Z-part): "
          + "".join(str(int(b)) for b in sympl), args.out)
    return EXIT_OK


def cmd_decode(args) -> int:
    code = _load_code(args.code)
    with open(args.syndrome) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) != 2:
        print("error: syndrome file needs two lines (X-sector, Z-sector)",
              file=sys.stderr)
        return EXIT_IO
    s_x, s_z = _bits(lines[0]), _bits(lines[1])
    cfg = DecoderConfig(max_iter=args.max_iter, ms_scale=args.ms_scale,
                        osd_order=args.osd_order, osd_mode=args.osd_mode)
    ex, ez = decode(code, s_x, s_z, args.p, cfg)
    _emit("ex: " + "".join(map(str, ex.tolist())) + "\n"
          "ez: " + "".join(map(str, ez.tolist())), args.out)
    return EXIT_OK


def _parse_members(spec: str, count: int) -> list:
    if ".." in spec:
        lo, hi = spec.split("..")
        idx = list(range(int(lo), int(hi) + 1))
    else:
        idx = [int(t) for t in spec.split(",")]
    if any(i < 1 or i > count for i in idx):
        raise ValueError("member index out of range")
    return idx


def cmd_sweep(args) -> int:
    if ".." in args.members:
        top = int(args.members.split("..")[1])
    else:
        top = max(int(t) for t in args.members.split(","))
    plan = _plan_from_args(args, top)
    family = extend_family(plan)
    members = _parse_members(args.members, len(family))
    family = [family[i - 1] for i in members]
    grid = []
    p = args.p_min
    while p <= args.p_max + 1e-12:
        grid.append(round(p, 12))
        p += args.p_step
    cfg = DecoderConfig(max_iter=args.max_iter, ms_scale=args.ms_scale,
                        osd_order=args.osd_order, osd_mode=args.osd_mode)
    reports = sweep(family, grid, cfg, trials=args.trials,
                    precision=args.precision, seed=args.seed,
                    threads=args.threads)
    _emit(reports_to_csv(reports), args.out)
    return EXIT_OK


def cmd_report(args) -> int:
    reports = []
    try:
        for path in args.csvs:
            with open(path) as fh:
                reports.extend(reports_from_csv(fh.read()))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    if not reports:
        print("error: no rows in the supplied artifacts", file=sys.stderr)
        return EXIT_IO
    doc = assemble_report(reports)
    lines = ["code_label breakeven_PER"]
    for label in doc["labels"]:
        be = doc["breakevens"][label]
        lines.append(f"{label} {be if be is not None else 'none'}")
    for pair, (p_star, err) in doc["thresholds"].items():
        lines.append(f"threshold {pair}: {p_star:.4g} +- {err:.2g}")
    _emit("\n".join(lines), None)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(reports_to_csv(doc["reports"]))
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gbx",
                                 description="generalized-bicycle code toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=["json", "csv", "text"],
                       default="text")

    p = sub.add_parser("build", help="construct a GB code from generators")
    common(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--with-distance", action="store_true")
    p.add_argument("--embed-matrices", action="store_true")
    p.add_argument("--alist", default=None,
                   help="also export the stacked checks in alist form")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("catalog", help="list the bundled base codes")
    common(p)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("search", help="exhaustive base-code search")
    common(p)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--max-weight", type=int, default=8)
    p.add_argument("--allow-zero-dim", action="store_true")
    p.add_argument("--min-distance", type=int, default=None)
    p.add_argument("--ler-screen", default=None, metavar="P:MAX_LER")
    p.add_argument("--trials", type=int, default=10_000)
    p.set_defaults(func=cmd_search)

    def plan_args(p):
        p.add_argument("--plan", default=None, help="extension plan JSON")
        p.add_argument("--base", default=None, help="base code JSON")
        p.add_argument("--preset", default="identity",
                       choices=["identity", "triple"])

    p = sub.add_parser("extend", help="build an extended family")
    common(p)
    plan_args(p)
    p.add_argument("--members", type=int, default=3)
    p.add_argument("--sparsity", action="store_true")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("scale3", help="triple-block scalable family")
    common(p)
    p.add_argument("--base", required=True)
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--cert", default=None,
                   help="embedding-certificate output path")
    p.set_defaults(func=cmd_scale3)

    p = sub.add_parser("scale4", help="zero-insertion scalable family")
    common(p)
    p.add_argument("--base", required=True)
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=cmd_scale4)

    p = sub.add_parser("distance", help="exact brute-force distance")
    common(p)
    p.add_argument("--code", required=True)
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("decode", help="decode one syndrome pair")
    common(p)
    p.add_argument("--code", required=True)
    p.add_argument("--syndrome", required=True)
    p.add_argument("--p", type=float, default=0.01)
    p.add_argument("--max-iter", type=int, default=40)
    p.add_argument("--ms-scale", type=float, default=0.625)
    p.add_argument("--osd-order", type=int, default=None)
    p.add_argument("--osd-mode", default="sweep",
                   choices=["off", "order0", "sweep", "always"])
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("sweep", help="Monte Carlo LER sweep over a family")
    common(p)
    plan_args(p)
    p.add_argument("--members", type=str, default="1..3",
                   help="member selection, e.g. 1..3 or 1,3")
    p.add_argument("--p-min", type=float, required=True)
    p.add_argument("--p-max", type=float, required=True)
    p.add_argument("--p-step", type=float, required=True)
    p.add_argument("--trials", type=int, default=50_000)
    p.add_argument("--precision", type=float, default=1e-3)
    p.add_argument("--max-iter", type=int, default=40)
    p.add_argument("--ms-scale", type=float, default=0.625)
    p.add_argument("--osd-order", type=int, default=None)
    p.add_argument("--osd-mode", default="sweep",
                   choices=["off", "order0", "sweep", "always"])
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="merge sweep CSVs and annotate")
    common(p)
    p.add_argument("csvs", nargs="+")
    p.set_defaults(func=cmd_report)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse has printed its own error line
        return EXIT_USAGE if exc.code == 2 else exc.code
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        return _fail(exc, EXIT_BUDGET)
    except KeyError as exc:  # artifact without a required field
        return _fail(f"artifact lacks {exc.args[0]}", EXIT_IO)
    except (OSError, json.JSONDecodeError) as exc:  # unreadable artifact
        return _fail(exc, EXIT_IO)
    except ValueError as exc:
        return _fail(exc, EXIT_USAGE)


def _fail(exc, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
