import csv
import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from divprog import cli, mainterm, sweeps, tausieve, voronoi
from divprog import kloosterman as kloosterman_module
from divprog.characters import fourth_moment
from divprog.cli import main
from divprog.errors import ConfigInvalid
from divprog.kloosterman import kloosterman
from divprog.mainterm import error_vector, interval_residues
from divprog.sweeps import (
    ExperimentConfig,
    emit_report,
    exceptional_count_bound,
    interval_abs_error_bound,
    interval_abs_regime,
    interval_signed_error_bound,
    interval_signed_regime,
    run_theorem_sweep,
    set_abs_error_bound,
    set_abs_regime,
)
from divprog.tausieve import divisor_sum_progressions, total_divisor_sum

ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------- bounds

def test_signed_bound_spec_point():
    A, X, q = 32, 10**6, 10**4
    want = A * X**0.5 * q**-0.5 + A**0.125 * X**0.25 * q**0.5 + A**0.5 * X**0.25 * q**0.25
    assert math.isclose(interval_signed_error_bound(A, X, q), want, rel_tol=1e-12)


def test_abs_bound_terms():
    A, X, p = 16, 10**5, 499
    want = (A * X**0.5 / p**0.5 + A**1.5 * X**0.5 / p**0.625
            + A**0.5 * X**0.5 / p**0.125 + A ** (5 / 6) * X ** (5 / 18) * p ** (11 / 72))
    assert math.isclose(interval_abs_error_bound(A, X, p), want, rel_tol=1e-12)
    want_set = A**0.75 * X**0.25 * p**0.25 + A ** (2 / 3) * X ** (1 / 3)
    assert math.isclose(set_abs_error_bound(A, X, p), want_set, rel_tol=1e-12)
    assert math.isclose(
        exceptional_count_bound(X, p, 0.1),
        max(p * X ** (-1 / 3 + 0.4), X**0.3),
        rel_tol=1e-12,
    )


def test_regime_predicates():
    # X = 10^5: X^(4/7) ~ 721, X^(19/31) ~ 1162
    X = 10**5
    assert interval_abs_regime(16, X, 997)
    assert not interval_abs_regime(16, X, 499)      # below X^(4/7)
    assert not interval_abs_regime(2000, X, 997)    # A > p
    assert not interval_abs_regime(16, X, 1001)     # 7*11*13, not prime
    assert interval_signed_regime(16, X, 2000)
    assert not interval_signed_regime(16, X, 1100)  # below X^(19/31)
    assert set_abs_regime(100, X, 499)
    assert not set_abs_regime(2, X, 499)            # p > A X^(1/3-eps)


def _write(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


BASE = {
    "experiment": "interval_abs",
    "x_grid": [2000],
    "modulus_grid": [101],
    "sets": {"kind": "interval", "lengths": [8], "offsets": [1]},
    "seed": 5,
}


def test_config_round_trip(tmp_path):
    cfg = ExperimentConfig.from_json(_write(tmp_path, BASE))
    assert cfg.experiment == "interval_abs"
    assert cfg.lengths == (8,)
    assert cfg.seed == 5


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda d: d.update(experiment="quux"), "experiment"),
        (lambda d: d.update(x_grid=[]), "x_grid"),
        (lambda d: d.update(modulus_grid=[1]), "modulus_grid"),
        (lambda d: d.update(modulus_grid=[5000]), "exceeds"),
        (lambda d: d.update(sets={"kind": "interval", "lengths": []}), "lengths"),
        (lambda d: d.update(sets={"kind": "banana", "lengths": [4]}), "set_kind"),
        (lambda d: d.update(bogus_key=1), "unknown"),
        (lambda d: d.update(sets={"kind": "interval", "lengths": [40], "offset": [500]}),
         "unknown sets keys: ['offset']"),
        (lambda d: d.update(thresholds={"ratio_nope": 1}), "thresholds"),
        (lambda d: d.update(thresholds={"max_ratio_set_abs": 1}), "max_ratio_set_abs"),
    ],
)
def test_config_validation_messages(tmp_path, mutate, needle):
    doc = json.loads(json.dumps(BASE))
    mutate(doc)
    with pytest.raises(ConfigInvalid) as exc:
        ExperimentConfig.from_json(_write(tmp_path, doc))
    assert needle in str(exc.value)


@pytest.mark.parametrize(
    "path", sorted([*ROOT.glob("configs/*.json"), *ROOT.glob("demos/*.json")]),
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_shipped_configs_parse(path):
    ExperimentConfig.from_json(path)


def test_config_syntax_error_cites_line(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{\n "experiment": "set_abs",\n parse error here\n}')
    with pytest.raises(ConfigInvalid) as exc:
        ExperimentConfig.from_json(p)
    assert ":3:" in str(exc.value)


def test_exceptional_requires_kappas_and_primes(tmp_path):
    doc = {"experiment": "exceptional", "x_grid": [2000], "modulus_grid": [101]}
    with pytest.raises(ConfigInvalid):
        ExperimentConfig.from_json(_write(tmp_path, doc))
    doc["kappas"] = [0.1]
    cfg = ExperimentConfig.from_json(_write(tmp_path, doc))
    with pytest.raises(ConfigInvalid, match="modulus_grid"):
        ExperimentConfig(experiment="exceptional", x_grid=(2000,), modulus_grid=(100,), kappas=(0.1,))
    assert cfg.kappas == (0.1,)


# ---------------------------------------------------------------- reports

def test_emit_report_empty_rows(tmp_path):
    path = tmp_path / "empty.csv"
    emit_report([], "csv", path, seed=3)
    text = path.read_text()
    assert text.startswith("# seed=3\n")
    assert len(text.strip().splitlines()) == 1  # header comment only


def test_emit_report_formats(tmp_path):
    rows = [{"a": 1, "val": 0.1234567890123456, "flag": True},
            {"a": 2, "val": float(np.float64(2.5)), "flag": False}]
    cpath = tmp_path / "r.csv"
    emit_report(rows, "csv", cpath, seed=1)
    lines = cpath.read_text().splitlines()
    assert lines[0] == "# seed=1"
    assert lines[1] == "a,val,flag"
    assert lines[2] == "1,0.123456789012,true"
    assert lines[3] == "2,2.5,false"
    jpath = tmp_path / "r.json"
    emit_report(rows, "json", jpath, seed=1)
    doc = json.loads(jpath.read_text())
    assert doc["seed"] == 1
    assert doc["rows"][0]["a"] == 1


def test_emit_report_byte_stable(tmp_path):
    rows = [{"x": i, "y": math.sqrt(i)} for i in range(20)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_report(rows, "csv", p1, seed=9)
    emit_report(rows, "csv", p2, seed=9)
    assert p1.read_bytes() == p2.read_bytes()


def test_emit_report_quotes_fields_with_commas_or_quotes(tmp_path):
    rows = [{"set": "interval(0,40)", "note": 'say "hi"', "x": 1.5}]
    path = tmp_path / "q.csv"
    emit_report(rows, "csv", path, seed=4)
    header, body = path.read_text().split("\n", 1)
    assert header == "# seed=4"
    assert body == 'set,note,x\n"interval(0,40)","say ""hi""",1.5\n'
    with open(path, newline="") as fh:
        fh.readline()
        assert list(csv.reader(fh)) == [["set", "note", "x"], ["interval(0,40)", 'say "hi"', "1.5"]]


def test_interval_sweep_report_reads_back_with_csv_reader(tmp_path):
    doc = dict(BASE, x_grid=[2000, 3000], sets={"kind": "interval", "lengths": [8, 12], "offsets": [1, 5]})
    res = run_theorem_sweep(ExperimentConfig.from_json(_write(tmp_path, doc)), tmp_path)
    path = next(p for p in res.paths if str(p).endswith("sweep_interval_abs.csv"))
    with open(path, newline="") as fh:
        table = [row for row in csv.reader(fh) if not row[0].startswith("#")]
    header, body = table[0], table[1:]
    assert len(body) == len(res.rows) == 8
    for fields, row in zip(body, res.rows):
        assert len(fields) == len(header)
        got = dict(zip(header, fields))
        assert got["set"] == row["set"]
        assert got["set"].startswith("interval(") and "," in got["set"]
        assert int(got["X"]) == row["X"] and float(got["D"]) == pytest.approx(row["D"], rel=1e-11)


# ----------------------------------------------------------------- sweeps

def test_sweep_determinism_and_totality(tmp_path):
    doc = {
        "experiment": "set_abs",
        "x_grid": [3000, 2000],
        "modulus_grid": [101, 61],
        "sets": {"kind": "random", "lengths": [10, "sqrt"]},
        "seed": 21,
    }
    cfg = ExperimentConfig.from_json(_write(tmp_path, doc))
    r1 = run_theorem_sweep(cfg, tmp_path / "run1")
    r2 = run_theorem_sweep(cfg, tmp_path / "run2")
    for a, b in zip(r1.paths, r2.paths):
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()
    # totality: every row carries every regime flag, no row dropped
    assert len(r1.rows) == 2 * 2 * 2
    for row in r1.rows:
        for key in ("in_regime_interval_abs", "in_regime_interval_signed", "in_regime_set_abs"):
            assert isinstance(row[key], (bool, np.bool_))
    # grids are traversed sorted regardless of config order
    xs = [row["X"] for row in r1.rows]
    assert xs == sorted(xs)


def test_sweep_interval_e_matches_error_vector(tmp_path):
    doc = dict(BASE, x_grid=[2500], modulus_grid=[101])
    cfg = ExperimentConfig.from_json(_write(tmp_path, doc))
    res = run_theorem_sweep(cfg, tmp_path)
    row = res.rows[0]
    R = error_vector(2500, 101).R
    # error_set's R is error_vector's R bit for bit, so the sums are equal
    assert row["E"] == math.fsum(float(R[a]) for a in range(2, 10))  # interval {2..9}
    assert row["D"] == math.fsum(abs(float(R[a])) for a in range(2, 10))


def test_sweep_refuses_a_bad_format_before_any_row(tmp_path, monkeypatch):
    def no_rows(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(sweeps, "_interval_rows", no_rows)
    out = tmp_path / "out"
    with pytest.raises(ConfigInvalid, match="format"):
        run_theorem_sweep(ExperimentConfig.from_json(_write(tmp_path, BASE)), out, fmt="xml")
    assert not out.exists()


def test_sweep_exceptional_counts(tmp_path):
    doc = {
        "experiment": "exceptional",
        "x_grid": [3000],
        "modulus_grid": [101],
        "kappas": [0.05, 0.2],
        "seed": 1,
    }
    cfg = ExperimentConfig.from_json(_write(tmp_path, doc))
    res = run_theorem_sweep(cfg, tmp_path)
    from divprog.mainterm import exceptional_set

    for row in res.rows:
        assert row["count"] == len(exceptional_set(3000, 101, row["kappa"]))
        assert row["ratio_exceptional"] == row["count"] / row["rhs_exceptional"]


def test_sweep_breach_reporting(tmp_path):
    doc = dict(BASE, thresholds={"ratio_interval_abs": 1e-9})
    cfg = ExperimentConfig.from_json(_write(tmp_path, doc))
    res = run_theorem_sweep(cfg, tmp_path)
    assert res.breaches
    assert "ratio_interval_abs" in res.breaches[0]


# ------------------------------------------------------------------- CLI

def test_cli_tau_all_and_single(tmp_path, capsys):
    rc = main(["--out-dir", str(tmp_path), "tau", "--x", "500", "--q", "9"])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    with open(out) as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert len(rows) == 9
    vec = divisor_sum_progressions(500, 9)
    assert int(rows[4]["S"]) == vec[4]
    assert sum(int(r["S"]) for r in rows) == total_divisor_sum(500)

    rc = main(["tau", "--x", "500", "--q", "9", "--a", "4"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["S"] == vec[4]


def test_cli_report_name_follows_format(tmp_path, capsys):
    argv = ["tau", "--x", "1000", "--q", "7"]
    assert main(["--out-dir", str(tmp_path), "--format", "json"] + argv) == 0
    path = tmp_path / "tau_x1000_q7.json"
    assert capsys.readouterr().out.strip() == str(path)
    rows = json.loads(path.read_text())["rows"]
    assert [r["S"] for r in rows] == divisor_sum_progressions(1000, 7).sums.tolist()
    assert main(["--out-dir", str(tmp_path)] + argv) == 0
    assert capsys.readouterr().out.strip() == str(tmp_path / "tau_x1000_q7.csv")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tau_x1000_q7.csv", "tau_x1000_q7.json"]


def test_cli_parser_is_reused_without_sharing_parsed_state(tmp_path, capsys):
    # one parser per process; flags and subcommand arguments of one call do
    # not carry over to the next
    first = ["--seed", "7", "--format", "json", "--out-dir", str(tmp_path / "o1"),
             "kloosterman", "--d", "13", "--m", "2", "--batch-a", "0,3"]
    assert main(first) == 0
    assert json.loads(Path(capsys.readouterr().out.strip()).read_text())["seed"] == 7
    assert main(["--out-dir", str(tmp_path / "o2"), "tau", "--x", "100", "--q", "7"]) == 0
    path = Path(capsys.readouterr().out.strip())
    assert path == tmp_path / "o2" / "tau_x100_q7.csv"
    assert path.read_text().splitlines()[0] == "# seed=0"
    assert cli._parser() is cli._parser()
    args = cli._parser().parse_args(["tau", "--x", "100", "--q", "7"])
    assert (args.seed, args.format, args.out_dir, args.a) == (0, "csv", ".", None)
    assert not hasattr(args, "batch_a")


def test_cli_tau_row_sum_check_raises(tmp_path, monkeypatch, capsys):
    def broken(X, q):
        vec = divisor_sum_progressions(X, q)
        vec.sums[0] += 1
        return vec

    monkeypatch.setattr(cli, "divisor_sum_progressions", broken)
    argv = ["--out-dir", str(tmp_path), "tau", "--x", "500", "--q", "9"]
    with pytest.raises(RuntimeError, match="internal check failed"):
        cli._cmd_tau(cli.build_parser().parse_args(argv))
    # main reports the failed check as an internal error, exit 4
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "internal check failed" in err


def test_cli_errors_set_file(tmp_path, capsys):
    listing = tmp_path / "set.txt"
    listing.write_text("1\n5\n8\n")
    rc = main(["--out-dir", str(tmp_path), "errors", "--x", "2000", "--q", "9",
               "--set", str(listing)])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    with open(out) as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert [int(r["a"]) for r in rows] == [1, 5, 8]
    for r in rows:
        assert abs(float(r["S"]) - float(r["M"]) - float(r["R"])) < 1e-6


def _refuse_vectors(monkeypatch):
    """Make every length-q vector route raise, in each module that imports one."""
    def refuse(*args, **kwargs):
        raise AssertionError("a length-q vector was built")

    for module in (tausieve, mainterm, sweeps, cli):
        for name in ("divisor_sum_progressions", "main_term_vector", "error_vector"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


def test_cli_residue_commands_build_no_vector(tmp_path, monkeypatch, capsys):
    X, q = 10**5, 2310
    vec = divisor_sum_progressions(X, q)
    _refuse_vectors(monkeypatch)
    for a in (13, 30, q + 13, -7):  # a unit, a non-unit, a >= q, a < 0
        assert main(["tau", "--x", str(X), "--q", str(q), "--a", str(a)]) == 0, a
        doc = json.loads(capsys.readouterr().out)
        assert (doc["a"], doc["S"]) == (a % q, vec[a]), a
    assert main(["--out-dir", str(tmp_path), "errors", "--x", "1000000", "--q", "9973",
                 "--set", "0,40"]) == 0
    assert main(["--out-dir", str(tmp_path), "voronoi-check", "--x", "2000", "--q", "12",
                 "--y", "320", "--a", "1,5"]) == 0


def _expected_errors_report(path, X, q, residues, fmt):
    vec = error_vector(X, q)
    rows = [{"a": a, "S": int(vec.S[a]), "M": float(vec.M[a]), "R": float(vec.R[a])}
            for a in residues]
    emit_report(rows, fmt, path, seed=0)
    return path.read_bytes()


def test_cli_errors_rows_are_error_vector_rows(tmp_path, capsys):
    listing = tmp_path / "set.txt"
    listing.write_text("40\n9972\n10000\n-3\n1\n40\n")
    X, q = 10**6, 9973
    cases = [  # (X, q, --set, residues): pairs side, vector side, a file
        (X, q, "0,40", sorted(set(interval_residues(q, 0, 40)[0]))),
        (10**5, 2153, "100,500", sorted(set(interval_residues(2153, 100, 500)[0]))),
        (X, q, str(listing), [1, 27, 40, 9970, 9972]),
    ]
    assert len(cases[0][3]) <= tausieve._pairs_max_residues(X, q)
    assert len(cases[1][3]) > tausieve._pairs_max_residues(10**5, 2153)
    for X, q, text, residues in cases:
        for fmt in ("csv", "json"):
            out = tmp_path / f"{fmt}_{q}_{len(residues)}"
            argv = ["--out-dir", str(out), "--format", fmt, "errors", "--x", str(X),
                    "--q", str(q), "--set", text]
            assert main(argv) == 0, argv
            path = Path(capsys.readouterr().out.strip())
            want = _expected_errors_report(tmp_path / f"want.{fmt}", X, q, residues, fmt)
            assert path.read_bytes() == want, argv


def test_cli_errors_refuses_a_listed_non_reduced_residue(tmp_path, capsys):
    listing = tmp_path / "set.txt"
    listing.write_text("1\n5\n6\n8\n")
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "errors", "--x", "2000", "--q", "9",
                 "--set", str(listing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == "divprog: 6 shares a factor with 9\n"
    # an interval drops its non-reduced members instead
    assert main(["--out-dir", str(out), "errors", "--x", "2000", "--q", "9",
                 "--set", "0,8"]) == 0
    with open(capsys.readouterr().out.strip()) as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert [int(r["a"]) for r in rows] == [1, 2, 4, 5, 7, 8]


def test_cli_kloosterman_scalar_and_batch(tmp_path, capsys):
    rc = main(["kloosterman", "--d", "13", "--m", "2", "--n", "5"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["value"] - kloosterman(13, 2, 5)) < 1e-9
    assert doc["weil_ok"] is True

    rc = main(["--out-dir", str(tmp_path), "kloosterman", "--d", "13", "--m", "2",
               "--batch-a", "0,12"])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    with open(out) as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert len(rows) == 13
    for r in rows:
        assert abs(float(r["K"]) - kloosterman(13, 2, int(r["a"]))) < 1e-9


def test_cli_kloosterman_refuses_an_empty_batch(tmp_path, capsys):
    argv = ["--out-dir", str(tmp_path), "kloosterman", "--d", "7", "--m", "1", "--batch-a", "5,1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("divprog: config error: --batch-a: ")
    assert captured.out == "" and list(tmp_path.iterdir()) == []


def test_cli_bilinear_fast_flag(capsys):
    rc = main(["--seed", "3", "bilinear", "--d", "101", "--I", "0,16", "--J", "0,16"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) >= {"value_re", "value_im", "bound_21", "bound_22", "ratios"}
    rc = main(["--seed", "3", "bilinear", "--d", "101", "--I", "0,16", "--J", "0,16",
               "--fast"])
    assert rc == 0
    doc_fast = json.loads(capsys.readouterr().out)
    assert doc_fast["ratios"]["general"] >= 0


def test_cli_moment4_and_congcount(capsys):
    rc = main(["moment4", "--p", "11", "--k", "1", "--h", "4"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["moment"] - 145.0) < 1e-9
    rc = main(["congcount", "--p", "5", "--boxes", "1,4,1,4,1,4,1,4"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 64


def test_cli_moment4_prints_the_exact_integer(capsys):
    # the pair route's moment is an exact integer; the report format's 12
    # significant digits would print 4323890292680.0
    rc = main(["moment4", "--p", "999983", "--k", "12345", "--h", "1500"])
    assert rc == 0
    out = capsys.readouterr().out
    assert '"moment": 4323890292685,' in out
    assert json.loads(out)["moment"] == fourth_moment(999983, 12345, 1500) == 4323890292685


def test_cli_moment4_prints_an_integer_past_two_to_the_53(capsys, monkeypatch):
    monkeypatch.setattr(cli, "fourth_moment", lambda p, K, H: 2**53 + 1)
    assert main(["moment4", "--p", "101", "--k", "0", "--h", "10"]) == 0
    out = capsys.readouterr().out
    assert '"moment": 9007199254740993,' in out


def test_cli_characters_at_p2(capsys):
    assert main(["moment4", "--p", "2", "--k", "0", "--h", "10"]) == 0
    assert json.loads(capsys.readouterr().out)["moment"] == 0
    assert main(["congcount", "--p", "2", "--boxes", "1,3000,1,3000,1,3000,1,3000"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 1500**4
    assert main(["poisson-check", "--q", "2", "--chi", "1"]) == 2
    assert "principal" in capsys.readouterr().err


def test_cli_poisson_check(capsys):
    rc = main(["poisson-check", "--q", "7", "--z", "3"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["residual"] < 1e-8
    rc = main(["poisson-check", "--q", "7", "--chi", "2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["residual"] < 1e-8
    assert abs(math.hypot(doc["eta_re"], doc["eta_im"]) - 1.0) < 1e-10


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"experiment": "nope"}')
    assert main(["sweep", "--config", str(bad)]) == 2
    capsys.readouterr()

    doc = dict(BASE, thresholds={"ratio_interval_abs": 1e-9})
    cfg = tmp_path / "breach.json"
    cfg.write_text(json.dumps(doc))
    assert main(["--out-dir", str(tmp_path), "sweep", "--config", str(cfg)]) == 3
    capsys.readouterr()

    assert main(["errors", "--x", "100", "--q", "7", "--set", "not-a-thing"]) == 2
    capsys.readouterr()

    assert main(["kloosterman", "--d", "5", "--m", "1"]) == 2
    capsys.readouterr()

    assert main(["tau", "--x", str(2**40), "--q", "7", "--a", "1"]) == 2
    assert "need X <" in capsys.readouterr().err


@pytest.mark.parametrize("limit", ["1.0", None])
def test_cli_sweep_refuses_a_non_numeric_threshold(tmp_path, capsys, limit):
    # refused when the config is read, before any grid point runs
    cfg = _write(tmp_path, dict(BASE, thresholds={"ratio_interval_abs": limit}))
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "sweep", "--config", str(cfg)]) == 2
    assert "thresholds: ratio_interval_abs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_cli_sweep_refuses_a_non_finite_eps(tmp_path, capsys, literal):
    # json reads these literals as floats; NaN would make every regime test false
    doc = dict(BASE, experiment="set_abs", sets={"kind": "random", "lengths": [8]})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc)[:-1] + f', "eps": {literal}}}')
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "sweep", "--config", str(cfg)]) == 2
    assert "eps: must be a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("update,needle", [
    ({"x_grid": [100000.9]}, "x_grid"),
    ({"x_grid": "100000"}, "x_grid"),
    ({"modulus_grid": [2153.7]}, "modulus_grid"),
    ({"modulus_grid": [True]}, "modulus_grid"),
    ({"sets": {"kind": "interval", "lengths": [25.8, True]}}, "lengths"),
    ({"sets": {"kind": "interval", "lengths": [True]}}, "lengths"),
    ({"sets": {"kind": "interval", "lengths": [0]}}, "lengths"),
    ({"sets": {"kind": "interval", "lengths": "sqrt"}}, "lengths"),
    ({"sets": {"kind": "interval", "lengths": [8], "offsets": [0.5]}}, "offsets"),
    ({"sets": {"kind": "interval", "lengths": [8], "offsets": 0}}, "offsets"),
    ({"seed": 1.9}, "seed"),
    ({"eps": "0.05"}, "eps"),
    ({"experiment": "exceptional", "sets": {}, "kappas": ["0.1"]}, "kappas"),
    ({"experiment": "exceptional", "sets": {}, "kappas": 0.1}, "kappas"),
    ({"experiment": "exceptional", "sets": {}, "kappas": [0.1], "modulus_grid": [100]}, "modulus_grid"),
    ({"sets": {"kind": "interval", "lengths": [8], "offsets": [-5]}}, "offsets"),
    ({"experiment": "set_abs", "sets": {"kind": "random", "lengths": [5], "offsets": [0, 7]}}, "sets.offsets"),
])
def test_cli_sweep_refuses_values_of_the_wrong_type(tmp_path, capsys, update, needle):
    # nothing is truncated, parsed from a string or left to fail mid-run: the field is named, exit 2
    cfg = _write(tmp_path, dict(BASE, **update))
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "sweep", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"divprog: config error: {needle}: "), captured.err
    assert captured.out == "" and not out.exists()


def test_cli_sweep_that_fails_while_running_leaves_no_out_dir(tmp_path, capsys):
    # X past the window cap is refused by the sieve, not by the config
    cfg = _write(tmp_path, dict(BASE, x_grid=[2**41]))
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "sweep", "--config", str(cfg)]) == 2
    assert "need X <" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", ["flag", "config", "override"])
def test_cli_negative_seed_is_bad_input(tmp_path, capsys, case):
    # PCG64 refuses a negative seed with a plain ValueError (exit 4); the
    # flag, the config field and the override are refused first
    cfg = _write(tmp_path, dict(BASE, seed=-3 if case == "config" else 5))
    out = tmp_path / "out"
    argv = {
        "flag": ["--seed", "-1", "bilinear", "--d", "101", "--I", "0,10", "--J", "0,10"],
        "config": ["sweep", "--config", str(cfg)],
        "override": ["sweep", "--config", str(cfg), "--seed-override", "-2"],
    }[case]
    assert main(["--out-dir", str(out)] + argv) == 2
    captured = capsys.readouterr()
    assert "seed" in captured.err and "internal error" not in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("argv", [
    ["errors", "--x", "100", "--q", "0", "--set", "0,5"],
    ["voronoi-check", "--x", "1000", "--q", "0", "--y", "10", "--a", "1"],
])
def test_cli_modulus_below_one_is_bad_input(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(["--out-dir", str(out)] + argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "divprog: --q must be >= 1, got 0\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("argv", [
    ["poisson-check", "--q", "7", "--z", "3", "--gx", "nan,1"],
    ["poisson-check", "--q", "7", "--z", "3", "--gx", "2,nan"],
    ["poisson-check", "--q", "7", "--z", "3", "--gy", "nan,1"],
    ["voronoi-check", "--x", "2000", "--q", "12", "--y", "320", "--a", "1", "--eps", "nan"],
])
def test_cli_non_finite_floats_are_bad_input(tmp_path, capsys, argv):
    assert main(["--out-dir", str(tmp_path)] + argv) == 2
    assert "internal error" not in capsys.readouterr().err


def test_cli_refuses_flag_prefixes(tmp_path, monkeypatch, capsys):
    # the removed --out must not be read as a prefix of --out-dir, on either
    # side of the subcommand name; parse errors exit 2 before anything runs
    monkeypatch.chdir(tmp_path)
    for argv in (["tau", "--x", "100", "--q", "7", "--out", "r.csv"],
                 ["--out", "r.csv", "tau", "--x", "100", "--q", "7"],
                 ["tau", "--x", "100", "--q", "7", "--out-d", "r.csv"],
                 ["kloosterman", "--d", "13", "--m", "2", "--batch", "1,3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "divprog: error:" in capsys.readouterr().err, argv
    assert list(tmp_path.iterdir()) == []


def test_cli_kloosterman_imaginary_check_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(kloosterman_module, "_IMAG_SLACK", -1.0)  # no imaginary part passes
    assert main(["kloosterman", "--d", "7", "--m", "1", "--n", "2"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("divprog: internal error: FloatingPointError: K_7(1,2)")
    assert captured.err.count("\n") == 1


def test_cli_kloosterman_batch_imaginary_check_exits_4(tmp_path, capsys, monkeypatch):
    # a single a: auto takes the direct route; a hundred values of a at
    # d = 13: the fft route.  Both sums are checked like the scalar
    real = kloosterman_module.KloostermanEvaluator._phases

    def corrupted(self, idx):
        out = real(self, idx)
        if out.ndim == 1:
            out = out.copy()
            out[0] *= 1j
        return out

    monkeypatch.setattr(kloosterman_module.KloostermanEvaluator, "_phases", corrupted)
    for a_range in ("1,1", "0,99"):
        argv = ["--out-dir", str(tmp_path), "kloosterman", "--d", "13", "--m", "2",
                "--batch-a", a_range]
        assert main(argv) == 4, a_range
        captured = capsys.readouterr()
        assert captured.out == "" and not list(tmp_path.iterdir())
        assert captured.err.startswith("divprog: internal error: FloatingPointError: K_13(2, a)")
        assert captured.err.count("\n") == 1


def test_cli_exit_codes_by_error_type(capsys, monkeypatch):
    # the package's own errors, bad flags included, exit 2
    assert main(["congcount", "--p", "5", "--boxes", "1,4,1,x,1,4,1,4"]) == 2
    assert capsys.readouterr().err.startswith("divprog: config error: --boxes:")
    assert main(["poisson-check", "--q", "7", "--z", "3", "--gx", "2.5,wide"]) == 2
    assert main(["voronoi-check", "--x", "2000", "--q", "12", "--y", "320", "--a", "1,five"]) == 2
    assert main(["bilinear", "--d", "11", "--I", "0,3", "--J", "0,3", "--weights", "no-such.json"]) == 2
    capsys.readouterr()
    # any other ValueError, numpy's own included, is an internal failure
    def broken(X, q):
        np.zeros(6).reshape(4)

    monkeypatch.setattr(cli, "divisor_sum_progressions", broken)
    assert main(["tau", "--x", "100", "--q", "7"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("divprog: internal error: ValueError:") and err.count("\n") == 1


def test_cli_voronoi_check(tmp_path, capsys):
    rc = main(["--out-dir", str(tmp_path), "voronoi-check", "--x", "2000", "--q", "12",
               "--y", "320", "--a", "1,5"])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    with open(out) as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert [int(r["a"]) for r in rows] == [1, 5]
    for r in rows:
        assert abs(float(r["residual"])) <= float(r["budget"])


def test_cli_voronoi_check_warns_on_unconverged_weights(tmp_path, capsys, monkeypatch):
    argv = ["voronoi-check", "--x", "2000", "--q", "12", "--y", "320", "--a", "1,5"]
    assert main(["--out-dir", str(tmp_path / "plain")] + argv) == 0
    assert capsys.readouterr().err == ""

    real = voronoi.weight_u

    def one_flagged(d, n, sign, cutoff, **kwargs):
        w = real(d, n, sign, cutoff, **kwargs)
        err = np.array(w.error_estimate, dtype=np.float64)
        if d == 12 and sign < 0:
            err[0] = 1.0
        return voronoi.WeightValue(w.value, err, bool(np.all(err <= 1e-8)), w.panels)

    monkeypatch.setattr(voronoi, "weight_u", one_flagged)
    assert main(["--out-dir", str(tmp_path / "flagged")] + argv) == 0
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "d=12:" in err[0] and "1 of" in err[0]
    name = "voronoi_x2000_q12.csv"
    assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "flagged" / name).read_bytes()


def test_cli_voronoi_check_imaginary_fold_exits_4(tmp_path, capsys, monkeypatch):
    real = kloosterman_module.KloostermanEvaluator.unit_sums

    def corrupted(self, t, a, method):
        return real(self, t, a, method) + 1e-6j * np.abs(t).sum()

    monkeypatch.setattr(kloosterman_module.KloostermanEvaluator, "unit_sums", corrupted)
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "voronoi-check", "--x", "2000", "--q", "12",
                 "--y", "320", "--a", "1,5"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("divprog: internal error: FloatingPointError: K_")
    assert "(W, a) imaginary part" in captured.err
    assert captured.err.count("\n") == 1


def test_cli_voronoi_check_panel_cap_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(voronoi, "_MAX_PANELS", 3)
    rc = main(["--out-dir", str(tmp_path), "voronoi-check", "--x", "2000", "--q", "12",
               "--y", "320", "--a", "1"])
    assert rc == 2
    assert "panels" in capsys.readouterr().err


def test_cli_sweep_seed_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(BASE, sets={"kind": "random", "lengths": [6]})))
    assert main(["--out-dir", str(tmp_path / "o1"), "sweep", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["--out-dir", str(tmp_path / "o2"), "sweep", "--config", str(cfg),
                 "--seed-override", "99"]) == 0
    capsys.readouterr()
    b1 = (tmp_path / "o1" / "sweep_interval_abs.csv").read_text()
    b2 = (tmp_path / "o2" / "sweep_interval_abs.csv").read_text()
    assert b1.splitlines()[0] == "# seed=5"
    assert b2.splitlines()[0] == "# seed=99"


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "divprog.cli", "tau", "--x", "100", "--q", "4", "--a", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["q"] == 4


def _readme_section(title: str) -> str:
    """The text of README's "## <title>" section."""
    text = (ROOT / "README.md").read_text()
    return text.split(f"## {title}", 1)[1].split("\n## ", 1)[0]


def _readme_examples() -> list[list[str]]:
    """The divprog lines of the Examples block under README's "## Command line"."""
    block = _readme_section("Command line").split("Examples:", 1)[1].split("```", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("divprog ")]


def test_readme_quick_start_runs(capsys):
    block = _readme_section("Quick start").split("```python\n", 1)[1].split("```", 1)[0]
    exec(block, {})
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_readme_examples_run(tmp_path, capsys):
    examples = _readme_examples()
    assert len(examples) >= 5
    for argv in examples:
        argv = [str(ROOT / a) if a.startswith("configs/") else a for a in argv]
        if "--out-dir" in argv:
            argv[argv.index("--out-dir") + 1] = str(tmp_path)
        else:
            argv = ["--out-dir", str(tmp_path)] + argv
        assert main(argv) == 0, argv
        capsys.readouterr()
