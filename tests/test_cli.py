"""Command line behavior: exit codes, record formats, determinism."""

import csv
import json

import numpy as np

from ejalg import parse_algebra, random_element
from ejalg.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_element(path, algebra, seed=0):
    spec = parse_algebra(algebra)
    x = random_element(spec, np.random.default_rng(seed))
    path.write_text(json.dumps({"algebra": algebra, "coords": list(x.coords)}))
    return x


# ---------------------------------------------------------------------------
# top level


def test_no_command_is_usage_error(capsys):
    code, _, _ = run(capsys, )
    assert code == 2


def test_version_exits_clean(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0


# ---------------------------------------------------------------------------
# verify


def test_verify_usage_errors(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--suite", "nope", "--trials", "2")
    assert code == 2 and "unknown suite" in err
    code, _, err = run(capsys, "verify", "--algebra", "sym:0", "--trials", "2")
    assert code == 2
    code, _, err = run(capsys, "verify", "--trials", "0")
    assert code == 2
    code, _, err = run(capsys, "verify", "--tol-commute", "-1", "--trials", "2")
    assert code == 2
    code, _, err = run(capsys, "verify", "--suite", "normalcone", "--trials", "2", "--format", "csv")
    assert code == 2 and "--out" in err


def test_verify_writes_versioned_record(capsys, tmp_path):
    out = tmp_path / "rec.json"
    code, text, _ = run(
        capsys, "verify", "--suite", "normalcone", "--suite", "appendix",
        "--trials", "2", "--out", str(out),
    )
    assert code == 0
    assert "suite" in text  # summary table on stdout
    rec = json.loads(out.read_text())
    assert rec["schema"] == 1
    assert rec["tool"]["name"] == "ejalg"
    assert rec["passed"] is True
    assert [s["suite"] for s in rec["suites"]] == ["normalcone", "appendix"]
    assert rec["config"]["trials"] == 2


def test_verify_deterministic_modulo_timestamp(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "verify", "--suite", "smooth", "--trials", "2", "--out", str(a))
    run(capsys, "verify", "--suite", "smooth", "--trials", "2", "--out", str(b))
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    ra.pop("timestamp"), rb.pop("timestamp")
    assert ra == rb


def test_verify_csv_layout(capsys, tmp_path):
    out = tmp_path / "rec.csv"
    code, _, _ = run(
        capsys, "verify", "--suite", "normalcone", "--trials", "2",
        "--format", "csv", "--out", str(out),
    )
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["suite", "algebra", "trial", "inputs", "status", "metric", "value"]
    assert len(rows) > 1
    for row in rows[1:]:
        assert row[0] == "normalcone"
        float(row[6])  # values parse back


def test_verify_summary_counts_skips(capsys):
    # spin:2 has no derivations, so every shifted trial is a skip; the
    # summary must say so rather than read as a clean pass
    code, text, _ = run(capsys, "verify", "--suite", "shifted", "--trials", "6", "--seed", "11", "--algebra", "spin:2")
    assert code == 0
    header, row = text.splitlines()[:2]
    assert header.split() == ["suite", "algebra", "trials", "violations", "skips", "worst"]
    assert row.split()[:5] == ["shifted", "spin:2", "6", "0", "6"]


def test_verify_impossible_tolerance_fails(capsys):
    # residuals around 1e-9 cannot meet 1e-18, so the run reports violations
    code, _, _ = run(
        capsys, "verify", "--suite", "shifted", "--trials", "2",
        "--tol-commute", "1e-18",
    )
    assert code == 1


# ---------------------------------------------------------------------------
# solve


def test_solve_matches_oracle(capsys, tmp_path):
    args = (
        "solve", "--algebra", "sym:2", "--objective", "schatten:2",
        "--orbit", "random", "--seed", "4", "--starts", "4",
    )
    out = tmp_path / "s.json"
    code, _, _ = run(capsys, *args, "--out", str(out))
    assert code == 0
    solved = json.loads(out.read_text())
    code, _, _ = run(capsys, *args, "--oracle", "--out", str(out))
    assert code == 0
    oracle = json.loads(out.read_text())
    assert abs(solved["result"]["value"] - oracle["result"]["value"]) <= 1e-6
    assert "commutation" in solved["result"]


def test_solve_prints_record_to_stdout(capsys):
    code, text, _ = run(
        capsys, "solve", "--algebra", "sym:2", "--box", "0..1",
        "--starts", "2", "--max-iters", "100",
    )
    assert code == 0
    assert text.startswith("value ")
    rec = json.loads(text[text.index("{"):])
    assert rec["schema"] == 1
    assert rec["result"]["algebra"] == "sym:2"


def test_solve_usage_errors(capsys, tmp_path):
    code, _, _ = run(capsys, "solve", "--algebra", "sym:2")  # no feasible set
    assert code == 2
    code, _, _ = run(capsys, "solve", "--algebra", "sym:2", "--orbit", "random", "--box", "0..1")
    assert code == 2
    code, _, _ = run(capsys, "solve", "--algebra", "sym:2", "--box", "junk")
    assert code == 2
    code, _, _ = run(capsys, "solve", "--algebra", "sym:2", "--box", "1..0")
    assert code == 2
    code, _, _ = run(capsys, "solve", "--algebra", "nope:3", "--box", "0..1")
    assert code == 2
    code, _, _ = run(capsys, "solve", "--algebra", "sym:2", "--orbit", "random", "--objective", "schatten:0.5")
    assert code == 2
    # oracle needs an orbit and a spectral objective
    code, _, _ = run(capsys, "solve", "--algebra", "sym:2", "--box", "0..1", "--oracle")
    assert code == 2
    code, _, _ = run(capsys, "solve", "--algebra", "sym:2", "--orbit", "random",
                     "--objective", "kappa", "--oracle")
    assert code == 2


def test_solve_element_files(capsys, tmp_path):
    anchor = tmp_path / "anchor.json"
    write_element(anchor, "sym:2", seed=7)
    code, text, _ = run(
        capsys, "solve", "--algebra", "sym:2", "--orbit", str(anchor),
        "--starts", "2", "--max-iters", "100",
    )
    assert code == 0

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"coords": [1, 0, 0]}))
    code, _, err = run(capsys, "solve", "--algebra", "sym:2", "--orbit", str(bad))
    assert code == 2 and "must contain" in err

    other = tmp_path / "other.json"
    write_element(other, "rn:3")
    code, _, err = run(capsys, "solve", "--algebra", "sym:2", "--orbit", str(other))
    assert code == 2 and "does not match" in err

    code, _, _ = run(capsys, "solve", "--algebra", "sym:2", "--orbit", str(tmp_path / "missing.json"))
    assert code == 2


# ---------------------------------------------------------------------------
# demo


def test_demo_requires_eps(capsys):
    code, _, err = run(capsys, "demo", "kappa", "--trials", "1")
    assert code == 2 and "--eps" in err
    code, _, _ = run(capsys, "demo", "kappa", "--eps", "-0.5", "--trials", "1")
    assert code == 2


def test_demo_unknown_name_rejected(capsys):
    code, _, _ = run(capsys, "demo", "sigma", "--eps", "0.5")
    assert code == 2


def test_demo_prints_trials_and_record(capsys, tmp_path):
    out = tmp_path / "demo.json"
    code, text, _ = run(
        capsys, "demo", "kappa", "--eps", "0.5", "--trials", "2", "--out", str(out),
    )
    assert code == 0
    assert "trial 0: kappa" in text
    assert "->" in text
    rec = json.loads(out.read_text())
    assert rec["passed"] is True
    assert rec["config"]["eps"] == 0.5


def test_solver_options_out_of_range_are_usage_errors(capsys):
    base = ("solve", "--algebra", "sym:3", "--orbit", "random")
    for opt, value in (("--starts", "0"), ("--max-iters", "0"), ("--tol", "0"), ("--tol", "-1e-8"), ("--tol", "nan"), ("--tol", "inf")):
        code, out, err = run(capsys, *base, opt, value)
        assert code == 2, (opt, value)
        assert opt in err and not out
    code, _, _ = run(capsys, *base, "--starts", "1", "--max-iters", "1")
    assert code == 0


def test_non_finite_numbers_are_usage_errors(capsys):
    # a NaN tolerance would make every "worst > tol" comparison false
    for value in ("nan", "inf"):
        code, out, err = run(capsys, "verify", "--suite", "shifted", "--trials", "3", "--tol-commute", value)
        assert code == 2 and "finite" in err and not out, value
        code, out, err = run(capsys, "demo", "kappa", "--eps", value, "--trials", "1")
        assert code == 2 and "--eps" in err and not out, value
    # an infinite bound would overflow the random starts and pass any start
    for box in ("-1..inf", "-inf..1", "nan..1", "-1..nan"):
        code, out, err = run(capsys, "solve", "--algebra", "sym:3", f"--box={box}", "--starts", "2")
        assert code == 2 and "finite" in err and not out, box


def test_demo_usage_errors_exit_2(capsys):
    code, out, err = run(capsys, "demo", "kappa", "--eps", "0.5", "--trials", "0")
    assert code == 2 and "trials must be >= 1" in err and not out
    code, _, _ = run(capsys, "demo", "kappa", "--eps", "0.5", "--algebra", "nope:3", "--trials", "1")
    assert code == 2


def test_consecutive_calls_do_not_leak_options(capsys, tmp_path):
    # the parser is built once per process; options of one call must not
    # reach the defaults of the next
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "verify", "--suite", "shifted", "--algebra", "sym:2", "--trials", "1", "--out", str(first))
    run(capsys, "verify", "--trials", "1", "--out", str(second))
    assert json.loads(first.read_text())["config"]["suite"] == ["shifted"]
    config = json.loads(second.read_text())["config"]
    assert config["suite"] == ["all"] and config["algebra"] == ["sym:3"]
    assert [r["suite"] for r in json.loads(second.read_text())["suites"]][:2] == ["smooth", "max"]
