"""The four benchmark workloads and the checks on their outputs.

Each workload runs in chunks.  A chunk is one or two ``ejalg``
command-line calls made in process through ``ejalg.cli.main``; the
chunk's trials are the suite records (or oracle solves) those calls
produce.  Every chunk's written JSON is read back and checked without
trusting the program's own verdicts where an independent check exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

STATUSES = ("ok", "skip", "violation")
ORACLE_RTOL = 1e-9


@dataclass
class ChunkResult:
    trials: int = 0
    failed: int = 0
    skipped: int = 0
    cli_s: float = 0.0  # time inside ejalg.cli.main only
    digest: str = ""
    failures: list[str] = field(default_factory=list)  # failed trials: violations, errors
    wrong: list[str] = field(default_factory=list)  # outputs a check contradicts

    def add(self, other: "ChunkResult") -> None:
        """Accumulate another chunk's counts and messages into this one."""
        self.trials += other.trials
        self.failed += other.failed
        self.skipped += other.skipped
        self.failures += other.failures
        self.wrong += other.wrong


def payload_digest(records: list[dict]) -> str:
    """sha256 of the JSON records without their timestamps."""
    h = hashlib.sha256()
    for rec in records:
        rec = {k: v for k, v in rec.items() if k != "timestamp"}
        h.update(json.dumps(rec, sort_keys=True).encode())
    return h.hexdigest()


def call_cli(cli, argv: list[str]) -> tuple[int, float, str]:
    """(exit code, seconds, captured output) of one in-process ``ejalg`` call."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        dt = time.perf_counter() - t0
    return rc, dt, sink.getvalue()


@dataclass(frozen=True)
class SuiteWorkload:
    """``ejalg verify --suite S --algebra A --trials K --seed N``."""

    name: str
    suite: str
    algebra: str
    trials: int  # per call; a multiple of the suite's variant period

    @property
    def setup_algebra(self) -> str:
        return self.algebra

    def run_chunk(self, cli, seed: int, work: Path, own) -> ChunkResult:
        out = work / f"{self.name}.json"
        argv = ["verify", "--suite", self.suite, "--algebra", self.algebra,
                "--trials", str(self.trials), "--seed", str(seed), "--out", str(out)]
        res = ChunkResult()
        try:
            rc, res.cli_s, _ = call_cli(cli, argv)
        except Exception:  # an exception inside the program fails the chunk
            res.trials = res.failed = self.trials
            res.failures.append(f"seed {seed}: {traceback.format_exc()}")
            return res
        with own("bench.check"):
            self._check(rc, out, seed, res)
        return res

    def _check(self, rc: int, out: Path, seed: int, res: ChunkResult) -> None:
        try:
            record = json.loads(out.read_text())
            (rep,) = record["suites"]
            records = rep["records"]
            statuses = [r["status"] for r in records]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            res.trials = res.failed = self.trials
            res.wrong.append(f"seed {seed}: unreadable record ({exc!r}), exit code {rc}")
            return
        res.trials = len(records)
        res.digest = payload_digest([record])
        violations = statuses.count("violation")
        res.skipped = statuses.count("skip")
        res.failed = violations
        if violations:
            trials = [r["trial"] for r in records if r["status"] == "violation"]
            res.failures.append(f"seed {seed}: violations in trials {trials}")
        problems = []
        if any(s not in STATUSES for s in statuses):
            problems.append("unknown trial status")
        if rep["trials"] != len(records) or rep["violations"] != violations or rep["skips"] != res.skipped:
            problems.append("suite counts disagree with its records")
        if record["passed"] is not (violations == 0):
            problems.append("'passed' disagrees with the trial statuses")
        if rc != (0 if record["passed"] else 1):
            problems.append(f"exit code {rc} disagrees with 'passed'")
        if problems:
            res.failed = res.trials
            res.wrong.extend(f"seed {seed}: {p}" for p in problems)


def _sym_pack(M: np.ndarray) -> list[float]:
    """sym:n coordinates: upper triangle row major, off-diagonals times sqrt(2)."""
    rows, cols = np.triu_indices(M.shape[0])
    return [float(v) for v in M[rows, cols] * np.where(rows == cols, 1.0, math.sqrt(2.0))]


def _sym_unpack(n: int, coords) -> np.ndarray:
    rows, cols = np.triu_indices(n)
    M = np.zeros((n, n))
    M[rows, cols] = np.asarray(coords, dtype=float) / np.where(rows == cols, 1.0, math.sqrt(2.0))
    return M + np.triu(M, 1).T


@dataclass(frozen=True)
class OracleWorkload:
    """``ejalg solve --objective schatten:2 --oracle`` in both senses on sym:n.

    The benchmark draws the shift a and the orbit anchor b itself and
    passes them as element files, so the check can compute the answer
    from the matrices it made: by Hoffman-Wielandt the min is
    |lam_desc(b) - lam_desc(a)|_2 and the max |lam_desc(b) - lam_asc(a)|_2.
    """

    name: str
    n: int

    @property
    def setup_algebra(self) -> str:
        return f"sym:{self.n}"

    def run_chunk(self, cli, seed: int, work: Path, own) -> ChunkResult:
        spec = f"sym:{self.n}"
        res = ChunkResult()
        with own("bench.inputs"):
            rng = np.random.default_rng(seed)
            mats = {}
            for role in ("a", "b"):
                G = rng.standard_normal((self.n, self.n))
                mats[role] = 0.5 * (G + G.T)
                path = work / f"{self.name}-{role}.json"
                path.write_text(json.dumps({"algebra": spec, "coords": _sym_pack(mats[role])}))
        records = []
        for sense in ("min", "max"):
            out = work / f"{self.name}-{sense}.json"
            argv = ["solve", "--algebra", spec, "--objective", "schatten:2",
                    "--shift", str(work / f"{self.name}-a.json"), "--orbit", str(work / f"{self.name}-b.json"),
                    "--sense", sense, "--oracle", "--seed", str(seed), "--out", str(out)]
            res.trials += 1
            try:
                rc, dt, output = call_cli(cli, argv)
            except Exception:  # a solver exception is a failed trial
                res.failed += 1
                res.failures.append(f"seed {seed} {sense}: {traceback.format_exc()}")
                continue
            res.cli_s += dt
            if rc != 0:
                res.failed += 1
                res.failures.append(f"seed {seed} {sense}: exit code {rc}: {output.strip()}")
                continue
            with own("bench.check"):
                problem = self._check(out, sense, mats)
                if problem is None:
                    records.append(json.loads(out.read_text()))
                else:
                    res.failed += 1
                    res.wrong.append(f"seed {seed} {sense}: {problem}")
        res.digest = payload_digest(records)
        return res

    def _check(self, out: Path, sense: str, mats: dict) -> str | None:
        try:
            result = json.loads(out.read_text())["result"]
            value, status, coords = float(result["value"]), result["status"], result["coords"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return f"unreadable record ({exc!r})"
        la = np.linalg.eigvalsh(mats["a"])[::-1]
        lb = np.linalg.eigvalsh(mats["b"])[::-1]
        want = float(np.linalg.norm(lb - (la if sense == "min" else la[::-1])))
        if status != "oracle":
            return f"status {status!r}"
        if not math.isclose(value, want, rel_tol=ORACLE_RTOL):
            return f"value {value!r} != {want!r}"
        X = _sym_unpack(self.n, coords)
        scale = 1.0 + float(np.max(np.abs(lb)))
        if float(np.max(np.abs(np.linalg.eigvalsh(X)[::-1] - lb))) > ORACLE_RTOL * scale:
            return "answer is off the orbit of b"
        A = mats["a"]
        if float(np.linalg.norm(X @ A - A @ X)) > 1e-8 * (1.0 + np.linalg.norm(X) * np.linalg.norm(A)):
            return "answer does not commute with a"
        return None


WORKLOADS = {
    w.name: w
    for w in (
        SuiteWorkload("shifted-prod", "shifted", "prod(sym:3,spin:4)", trials=3),
        SuiteWorkload("min-sym3", "min", "sym:3", trials=2),
        SuiteWorkload("kappa-sym3", "kappa", "sym:3", trials=4),
        OracleWorkload("oracle-sym8", n=8),
    )
}
