"""Command-line interface: subcommands, artifacts, exit codes."""

import json

import pytest

from gbx.cli import (EXIT_BUDGET, EXIT_EMPTY, EXIT_IO, EXIT_OK, EXIT_USAGE,
                     main)
from gbx.code import code_from_dict, code_to_dict
from gbx.scalable import TripleBlockPlan, build_triple_family
from gbx.simulator import CSV_COLUMNS


def build_code_file(tmp_path, name="code.json"):
    path = tmp_path / name
    rc = main(["build", "--a", "1+x^4", "--b", "1+x+x^2+x^4", "--ell", "5",
               "--out", str(path)])
    assert rc == EXIT_OK
    return path


def test_build_writes_code_json(tmp_path):
    path = build_code_file(tmp_path)
    doc = json.loads(path.read_text())
    assert doc["n"] == 10 and doc["k"] == 2
    assert doc["a"] == "1+x^4"


def test_build_with_distance_and_alist(tmp_path):
    out = tmp_path / "code.json"
    alist = tmp_path / "code.alist"
    rc = main(["build", "--a", "1+x^4", "--b", "1+x+x^2+x^4", "--ell", "5",
               "--with-distance", "--alist", str(alist), "--out", str(out)])
    assert rc == EXIT_OK
    assert json.loads(out.read_text())["d"] == 3
    assert alist.read_text().splitlines()[0] == "10 10"


def test_catalog_formats(tmp_path, capsys):
    assert main(["catalog"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "[[10,2,3]]" in text
    out = tmp_path / "cat.csv"
    assert main(["catalog", "--format", "csv", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "label,ell,a,b,n,k,d"
    assert len(lines) == 7
    assert main(["catalog", "--format", "json"]) == EXIT_OK
    docs = json.loads(capsys.readouterr().out)
    assert [(c["label"], c["n"], c["k"], c["d"]) for c in docs][::5] == [
        ("[[10,2,3]]", 10, 2, 3), ("[[20,2]]", 20, 2, 4)]
    assert len(docs) == 6


def test_search_counts_and_empty_exit(tmp_path, capsys):
    rc = main(["search", "--ell", "4"])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    assert "49 ordered nonzero pairs" in text
    # an unsatisfiable distance filter empties the result set
    rc = main(["search", "--ell", "3", "--min-distance", "9"])
    capsys.readouterr()
    assert rc == EXIT_EMPTY


def test_search_screens(capsys):
    # weight screen: every k > 0 pair at l = 3 has row weight 4 or more
    assert main(["search", "--ell", "3", "--max-weight", "3"]) == EXIT_EMPTY
    # distance screen: the [[10,2,3]] generators pass with d = 3
    assert main(["search", "--ell", "5", "--min-distance", "3"]) == EXIT_OK
    assert "1+x^4,1+x+x^2+x^4,10,2,6,3," in capsys.readouterr().out
    # LER screen: every hit carries its estimate; LER < 0 passes no pair
    assert main(["search", "--ell", "3", "--trials", "64",
                 "--ler-screen", "0.05:0.5"]) == EXIT_OK
    hits = capsys.readouterr().out.splitlines()[2:]
    assert hits and all(h.split(",")[6] for h in hits)
    assert main(["search", "--ell", "3", "--trials", "64",
                 "--ler-screen", "0.05:0"]) == EXIT_EMPTY


def test_search_json_format(tmp_path):
    out = tmp_path / "hits.json"
    rc = main(["search", "--ell", "3", "--format", "json", "--out", str(out)])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["k_positive_pairs"] > 0
    assert all(h["k"] > 0 for h in doc["hits"])


def test_distance_command(tmp_path, capsys):
    path = build_code_file(tmp_path)
    rc = main(["distance", "--code", str(path)])
    assert rc == EXIT_OK
    assert "d = 3" in capsys.readouterr().out


def test_decode_command(tmp_path, capsys):
    path = build_code_file(tmp_path)
    syn = tmp_path / "syn.txt"
    syn.write_text("00000\n01100\n")
    rc = main(["decode", "--code", str(path), "--syndrome", str(syn),
               "--p", "0.01"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("ex: ")
    # malformed syndrome file
    syn.write_text("00000\n")
    assert main(["decode", "--code", str(path),
                 "--syndrome", str(syn)]) == EXIT_IO


def test_scale3_emits_family_and_certificate(tmp_path):
    path = build_code_file(tmp_path)
    fam = tmp_path / "fam.json"
    cert = tmp_path / "cert.json"
    rc = main(["scale3", "--base", str(path), "--levels", "3",
               "--out", str(fam), "--cert", str(cert)])
    assert rc == EXIT_OK
    family = json.loads(fam.read_text())
    assert [c["n"] for c in family] == [10, 30, 90]
    certs = json.loads(cert.read_text())
    assert len(certs) == 2
    assert all(c["embedded"] for c in certs)


def test_scale3_writes_certificate_only_where_told(tmp_path, monkeypatch,
                                                    capsys):
    path = build_code_file(tmp_path)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(["scale3", "--base", str(path), "--levels", "2"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)[1]["n"] == 30
    assert list(work.iterdir()) == []  # family on stdout, no certificate
    assert main(["scale3", "--base", str(path), "--levels", "2",
                 "--out", "fam.json"]) == EXIT_OK
    assert sorted(p.name for p in work.iterdir()) == ["fam.json",
                                                      "fam.json.cert.json"]


def test_scale4_family(tmp_path):
    path = build_code_file(tmp_path)
    fam = tmp_path / "fam4.json"
    rc = main(["scale4", "--base", str(path), "--levels", "3",
               "--j", "2", "--r", "5", "--out", str(fam)])
    assert rc == EXIT_OK
    family = json.loads(fam.read_text())
    assert [c["n"] for c in family] == [10, 20, 30]


def test_extend_with_sparsity(tmp_path):
    path = build_code_file(tmp_path)
    out = tmp_path / "ext.json"
    rc = main(["extend", "--base", str(path), "--members", "3",
               "--sparsity", "--out", str(out)])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["plan"]["kappa"] == [1, 2, 3]
    assert doc["sparsity"]["classification"] == "t-qldpc"
    assert [c["n"] for c in doc["family"]] == [10, 20, 30]


def test_triple_preset(tmp_path, capsys):
    path = build_code_file(tmp_path)
    assert main(["extend", "--base", str(path), "--preset", "triple",
                 "--members", "3", "--sparsity"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert [c["n"] for c in doc["family"]] == [10, 30, 90]
    assert (doc["sparsity"]["classification"],
            doc["sparsity"]["alpha"]) == ("exp-decay", "2/3")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--base", str(path), "--preset", "triple",
                 "--members", "2..2"] + SWEEP_GRID
                + ["--out", str(out)]) == EXIT_OK
    assert out.read_text().splitlines()[1].startswith('"m=2,l=15",30,')


def test_sweep_and_report(tmp_path, capsys):
    path = build_code_file(tmp_path)
    csv1 = tmp_path / "sweep.csv"
    args = ["sweep", "--base", str(path), "--members", "1..1",
            "--p-min", "0.05", "--p-max", "0.06", "--p-step", "0.01",
            "--trials", "200", "--seed", "4", "--out", str(csv1)]
    assert main(args) == EXIT_OK
    csv2 = tmp_path / "sweep2.csv"
    args[args.index(str(csv1))] = str(csv2)
    assert main(args) == EXIT_OK
    assert csv1.read_text() == csv2.read_text()  # byte-identical reruns
    rows = csv1.read_text().splitlines()
    assert rows[0].startswith("code_label,")
    assert len(rows) == 3

    rc = main(["report", str(csv1), str(csv2)])
    assert rc == EXIT_OK
    assert "breakeven" in capsys.readouterr().out
    # --out writes the merged rows, each once; the report still goes to
    # stdout
    merged = tmp_path / "merged.csv"
    assert main(["report", str(csv1), str(csv2), "--out",
                 str(merged)]) == EXIT_OK
    assert merged.read_text() == csv1.read_text()
    assert "breakeven" in capsys.readouterr().out
    rc = main(["report", str(tmp_path / "missing.csv")])
    assert rc == EXIT_IO


def test_sweep_member_list(tmp_path):
    path = build_code_file(tmp_path)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--base", str(path), "--members", "1,3"]
                + SWEEP_GRID + ["--out", str(out)]) == EXIT_OK
    labels = [row.split('"')[1] for row in out.read_text().splitlines()[1:]]
    assert labels == ["m=1,l=5", "m=3,l=15"]


def synthetic_csv(tmp_path, rows, half):
    """A sweep CSV of (label, p, ler) rows, CI half-width half[label]."""
    csv = tmp_path / "synthetic.csv"
    csv.write_text(",".join(CSV_COLUMNS) + "\n" + "".join(
        f"{lab},10,2,{p},100,{round(100 * ler)},{ler},{ler - half[lab]},"
        f"{ler + half[lab]},0\n" for lab, p, ler in rows))
    return csv


def test_report_breakeven_and_threshold(tmp_path, capsys):
    # A dips below p between p = 0.1 and 0.2 and crosses B between 0.2 and
    # 0.3; B never dips below p
    rows = [("A", 0.1, 0.2), ("A", 0.2, 0.15), ("A", 0.3, 0.4),
            ("B", 0.1, 0.3), ("B", 0.2, 0.25), ("B", 0.3, 0.35)]
    csv = synthetic_csv(tmp_path, rows, {"A": 0.01, "B": 0.02})
    assert main(["report", str(csv)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "code_label breakeven_PER"
    # margins ler - p: +0.1 at 0.1, -0.05 at 0.2, so 0.1 + 0.1 * 0.1 / 0.15
    assert lines[1] == f"A {0.1 + 0.1 / 1.5:.4g}"
    assert lines[2] == "B none"
    # LER differences -0.1 at 0.2 and +0.05 at 0.3: 0.2 + 0.1 * 0.1 / 0.15;
    # error 0.1 * (0.01 + 0.02) / |0.15 - 0.25|
    p_star, err = 0.2 + 0.1 / 1.5, 0.1 * 0.03 / 0.1
    assert lines[3:] == [f"threshold A vs B: {p_star:.4g} +- {err:.2g}"]


def test_report_breakeven_at_first_point_and_uncrossed_pair(tmp_path,
                                                            capsys):
    # C lies below p from the first grid point on; B and C never cross, so
    # that pair has no threshold line
    rows = [("B", 0.1, 0.3), ("B", 0.2, 0.25),
            ("C", 0.1, 0.05), ("C", 0.2, 0.1)]
    csv = synthetic_csv(tmp_path, rows, {"B": 0.02, "C": 0.01})
    assert main(["report", str(csv)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "code_label breakeven_PER", "B none", "C 0.1"]


def test_missing_artifact_is_io_error(tmp_path, capsys):
    rc = main(["distance", "--code", str(tmp_path / "nope.json")])
    capsys.readouterr()
    assert rc == EXIT_IO


SWEEP_GRID = ["--p-min", "0.1", "--p-max", "0.1", "--p-step", "0.01",
              "--trials", "10"]

# (argv with {code}/{syn}/{big} placeholders, expected exit code[, text the
# error line must hold])
BAD_ARGV = [
    (["search", "--ell", "300"], EXIT_USAGE),
    (["search", "--ell", "3", "--ler-screen", "0.1"], EXIT_USAGE),
    (["build", "--a", "1+y", "--b", "1", "--ell", "5"], EXIT_USAGE),
    (["build", "--a", "1"], EXIT_USAGE),  # missing required flags
    (["build", "--a", "1", "--b", "1", "--ell", "five"], EXIT_USAGE),
    (["sweep", "--base", "{code}", "--members", "0..2"] + SWEEP_GRID,
     EXIT_USAGE),
    (["sweep", "--base", "{code}", "--members", "1..x"] + SWEEP_GRID,
     EXIT_USAGE),
    (["sweep", "--members", "1..2"] + SWEEP_GRID, EXIT_USAGE),  # no base
    # a step that is not positive would never end the grid
    (["sweep", "--base", "{code}", "--members", "1..2"] + SWEEP_GRID[:4]
     + ["--p-step", "0", "--trials", "10"], EXIT_USAGE),
    (["sweep", "--base", "{code}", "--members", "1..2"] + SWEEP_GRID[:4]
     + ["--p-step", "-0.01", "--trials", "10"], EXIT_USAGE),
    (["decode", "--code", "{code}", "--syndrome", "{syn}", "--p", "0"],
     EXIT_USAGE),
    (["distance", "--code", "{big}"], EXIT_BUDGET),
    (["distance", "--code", "{missing}"], EXIT_IO),
    (["distance", "--code", "{syn}"], EXIT_IO),  # not a JSON artifact
    (["distance", "--code", "{empty}"], EXIT_IO),  # {}: no field at all
    (["distance", "--code", "{no_b}"], EXIT_IO),  # lacks "b"
    (["sweep", "--threads", "0", "--base", "{code}"] + SWEEP_GRID,
     EXIT_USAGE),
    # a digit other than 0 or 1 is not read modulo 2
    (["decode", "--syndrome", "{digit2}", "--code", "{code}"], EXIT_USAGE),
    # order 0 is --osd-order 0, not a mode of its own
    (["decode", "--osd-mode", "order0", "--code", "{code}", "--syndrome",
      "{syn}"], EXIT_USAGE),
    # flags act only on the subcommands that read them
    (["distance", "--threads", "8", "--code", "{code}"], EXIT_USAGE),
    (["search", "--format", "csv", "--ell", "3"], EXIT_USAGE),
    # malformed artifact content names the file instead of a traceback
    (["distance", "--code", "{int_a}"], EXIT_IO),
    (["distance", "--code", "{list_ell}"], EXIT_IO),
    (["distance", "--code", "{int_hx}"], EXIT_IO),
    (["extend", "--plan", "{int_base}"], EXIT_IO),
    (["report", "{short_row}"], EXIT_IO),
    # SeedSequence takes non-negative seed entries only
    (["sweep", "--base", "{code}", "--members", "1..2"] + SWEEP_GRID
     + ["--seed", "-1"], EXIT_USAGE),
    # a ring of size 0 is refused rather than folded forever
    (["build", "--a", "1", "--b", "1", "--ell", "0"], EXIT_USAGE),
    (["distance", "--code", "{ell0}"], EXIT_IO),
    # non-integral numbers in an artifact are refused, not truncated
    (["extend", "--sparsity", "--plan", "{kappa_2_5}"], EXIT_IO,
     "kappa_2_5: kappa must be an integer, not 2.5"),
    (["distance", "--code", "{ell_5_9}"], EXIT_IO,
     "ell_5_9: ell must be an integer, not 5.9"),
    # NaN passes no range check of the prior
    (["decode", "--p", "nan", "--code", "{code}", "--syndrome", "{syn}"],
     EXIT_USAGE),
    (["search", "--ler-screen", "0.1", "--ell", "3"], EXIT_USAGE,
     "P:MAX_LER"),
    (["report", "{header_only}"], EXIT_IO, "no rows"),
    # grid ends outside [0, 1] or too many points (a step too small to move
    # p would loop forever) are refused before the grid is built
    (["sweep", "--base", "{code}", "--p-min", "nan", "--p-max", "0.1",
      "--p-step", "0.01"], EXIT_USAGE,
     "--p-min must be finite and lie in [0, 1]"),
    (["sweep", "--base", "{code}", "--p-min", "-0.1", "--p-max", "0.1",
      "--p-step", "0.01"], EXIT_USAGE,
     "--p-min must be finite and lie in [0, 1]"),
    (["sweep", "--base", "{code}", "--p-min", "0.1", "--p-max", "inf",
      "--p-step", "0.01"], EXIT_USAGE,
     "--p-max must be finite and lie in [0, 1]"),
    (["sweep", "--base", "{code}", "--p-min", "0.9", "--p-max", "1.5",
      "--p-step", "0.5"], EXIT_USAGE,
     "--p-max must be finite and lie in [0, 1]"),
    (["sweep", "--base", "{code}", "--p-min", "0.1", "--p-max", "0.1",
      "--p-step", "1e-300"], EXIT_USAGE, "--p-step gives more than"),
    # a plan's "M" must be there and count its kappa entries
    (["sweep", "--plan", "{plan_m3}"] + SWEEP_GRID, EXIT_IO,
     "plan_m3: kappa and p_seq must both have M entries"),
    (["sweep", "--plan", "{plan_no_m}"] + SWEEP_GRID, EXIT_IO,
     "plan_no_m: artifact lacks M"),
    # a plan file fixes the family size
    (["sweep", "--plan", "{plan2}", "--members", "1..3"] + SWEEP_GRID,
     EXIT_USAGE, "member index out of range"),
]


@pytest.mark.parametrize("argv,expected,says",
                         [(a, e, says[0] if says else "")
                          for a, e, *says in BAD_ARGV],
                         ids=[" ".join(a[:2]) + f" -> {e}"
                              for a, e, *_ in BAD_ARGV])
def test_bad_input_gives_one_error_line_and_exit_code(tmp_path, capsys,
                                                       argv, expected, says):
    code = build_code_file(tmp_path)
    base = code_from_dict(json.loads(code.read_text()))
    big = tmp_path / "big.json"  # triple member n=90: kernel dimension 60
    big.write_text(json.dumps(code_to_dict(build_triple_family(
        TripleBlockPlan(base, 3))[2])))
    syn = tmp_path / "syn.txt"
    syn.write_text("00000\n01100\n")
    digit2 = tmp_path / "digit2.txt"
    digit2.write_text("00000\n00200\n")
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    no_b = tmp_path / "no_b.json"
    no_b.write_text('{"ell": 5, "a": "1+x^4"}')
    paths = {"{code}": code, "{syn}": syn, "{big}": big, "{empty}": empty,
             "{no_b}": no_b, "{digit2}": digit2,
             "{missing}": tmp_path / "missing.json"}
    for name, text in [
            ("int_a", '{"ell": 5, "a": 5, "b": "1"}'),
            ("list_ell", '{"ell": [1], "a": "1", "b": "1"}'),
            ("int_hx", '{"ell": 5, "a": "1+x", "b": "1", "hx": 5}'),
            ("int_base", '{"base": 5}'),
            ("ell0", '{"ell": 0, "a": "1", "b": "1"}'),
            ("ell_5_9", '{"ell": 5.9, "a": "1+x^4", "b": "1+x+x^2+x^4"}'),
            ("kappa_2_5", '{"base": {"a": "1+x^4", "b": "1+x+x^2+x^4", '
             '"ell": 5}, "M": 2, "kappa": [1, 2.5], "p_seq": ["1", "1"]}'),
            ("short_row", ",".join(CSV_COLUMNS) + "\na,1\n"),
            ("header_only", ",".join(CSV_COLUMNS) + "\n"),
            ("plan2", '{"base": {"a": "1+x^4", "b": "1+x+x^2+x^4", "ell": 5}, '
             '"M": 2, "kappa": [1, 2], "p_seq": ["1", "1"]}'),
            ("plan_m3", '{"base": {"a": "1+x^4", "b": "1+x+x^2+x^4", '
             '"ell": 5}, "M": 3, "kappa": [1, 2], "p_seq": ["1", "1"]}'),
            ("plan_no_m", '{"base": {"a": "1+x^4", "b": "1+x+x^2+x^4", '
             '"ell": 5}, "kappa": [1, 2], "p_seq": ["1", "1"]}')]:
        path = paths["{%s}" % name] = tmp_path / name
        path.write_text(text)
    capsys.readouterr()
    rc = main([str(paths.get(a, a)) for a in argv])
    err = capsys.readouterr().err
    assert rc == expected
    assert "Traceback" not in err
    assert "error: " in err.strip().splitlines()[-1]
    assert err.count("error: ") == 1
    assert says in err
    if expected == EXIT_IO:
        assert len(err.strip().splitlines()) == 1


def test_seed_errors_and_wide_seeds(tmp_path, capsys):
    code = build_code_file(tmp_path)
    args = ["sweep", "--base", str(code), "--members", "1..1"] + SWEEP_GRID
    capsys.readouterr()
    assert main(args + ["--seed", "-1"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: expected non-negative integer\n"
    # a seed of two 32-bit words is an ordinary seed (row as numpy's
    # per-trial generators give it)
    out = tmp_path / "wide.csv"
    assert main(args + ["--seed", str(2**32), "--out", str(out)]) == EXIT_OK
    assert out.read_text().splitlines()[1:] == [
        '"m=1,l=5",10,2,0.1,10,3,0.3,0.1077912674,0.6032218525,4294967296']
