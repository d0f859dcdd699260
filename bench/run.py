"""Benchmark for ejalg: certification workloads driven through the CLI.

Usage (from the repository root):

    python3 bench/run.py --workload shifted-prod --seed 0 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 50 --trace 0

Each workload calls ``ejalg.cli.main`` in process, in chunks, for
``--seconds`` seconds.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced chunks and reports the
per-layer metrics from spans recorded at module boundaries.  The last
line of standard output is one JSON object; the lines before it are a
readable table and an ``{"info": ...}`` record of the environment.
``--workload all`` runs every workload in its own process, one after
another, and prints one table.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer, leftover_wrappers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH.relative_to(ROOT) / ".work"
PACKAGE = "ejalg"

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 5

# name, unit, better, bound
END_TO_END = (
    ("trials_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
)

TRACED = (
    ("algebra", "_eigvals"),
    ("algebra", "_decompose_rows"),
    ("algebra", "operator_commutes"),
    ("algebra", "lyapunov_map"),
    ("liegroup", "exp_action"),
    ("liegroup", "_expm"),
    ("liegroup", "tangent_stack"),
    ("liegroup", "random_automorphism"),
    ("specfun", "spectral_value_coords"),
    ("specfun", "spectral_subgrad_coords"),
    ("optimize", "orbit_descent"),
    ("optimize", "spectralbox_descent"),
    ("optimize", "project_sorted_box"),
    ("optimize", "permutation_oracle"),
    ("optimize", "multistart"),
    ("verify", "run_suite"),
    ("verify", "commuting_witness"),
    ("cli", "main"),
)
LAYERS = ("algebra", "liegroup", "specfun", "optimize", "verify", "cli")
SOLVERS = ("optimize.orbit_descent", "optimize.spectralbox_descent")


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    spec = []
    for mod, fn in TRACED:
        spec += [(f"{mod}.{fn}.calls", "count", "lower"), (f"{mod}.{fn}.self_s", "s", "lower")]
    for solver in SOLVERS:
        spec += [(f"{solver}.iterations", "count", "lower"), (f"{solver}.converged_ratio", "ratio", "higher")]
    spec += [
        ("optimize.permutation_oracle.perms", "count", "lower"),
        ("optimize.multistart.p50_ms", "ms", "lower"),
        ("optimize.multistart.tail_ms", "ms", "lower"),
        ("optimize.value_evals_per_iter", "1/iter", "lower"),
        ("optimize.subgrad_evals_per_iter", "1/iter", "lower"),
        ("verify.skip_ratio", "ratio", "lower"),
    ]
    spec += [(f"{layer}.self_share", "ratio", "lower") for layer in LAYERS]
    spec += [
        ("trace.trials", "count", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.covered_ratio", "ratio", "higher"),
    ]
    return spec


# -- environment ---------------------------------------------------------------


def pin_environment() -> None:
    """Single-threaded BLAS and no trial thread pool; set before numpy loads."""
    os.environ.update(PINNED_ENV)
    os.environ.pop("EJA_THREADS", None)


def _openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_", "scipy_openblas_get_num_threads64_"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    commit = None  # a source checkout without git metadata
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_at_start": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {**blas, "threads": _openblas_threads(), "env": {k: os.environ.get(k) for k in PINNED_ENV}},
        "eja_threads": os.environ.get("EJA_THREADS"),
        "git_commit": commit,
        "code_sha256": code_digest(),
    }


# -- set-up time ------------------------------------------------------------------

SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[2])
t0 = time.perf_counter()
import ejalg
from ejalg.algebra import lyapunov_basis_stack, parse_algebra
from ejalg.liegroup import derivation_basis
spec = parse_algebra(sys.argv[1])
lyapunov_basis_stack(spec)
derivation_basis(spec)
print(repr(time.perf_counter() - t0))
"""


def measure_setup(algebra: str) -> float:
    """Median over fresh interpreters of import plus the algebra's cache fill."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, algebra, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, env=dict(os.environ),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


# -- chunks ---------------------------------------------------------------------


def chunk_seeds(workload: str, seed: int):
    """The workload's input seeds: the same --seed gives the same sequence."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.randrange(2**31)


class DigestStore:
    """Deterministic-payload digests by (code, workload, chunk seed), kept across runs."""

    def __init__(self, path: Path, code: str, workload: str):
        self.path, self.prefix = path, f"{code[:16]}:{workload}:"
        try:
            self.known = json.loads(path.read_text())
        except (OSError, ValueError):
            self.known = {}
        self.mismatches: list[str] = []

    def check(self, seed: int, digest: str) -> None:
        if not digest:
            return
        key = self.prefix + str(seed)
        old = self.known.setdefault(key, digest)
        if old != digest:
            self.mismatches.append(f"chunk seed {seed}: payload digest {digest[:12]} != earlier {old[:12]}")

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, sort_keys=True))
        os.replace(tmp, self.path)


def _no_span(name):
    return contextlib.nullcontext()


def warm_up(wl, cli, seeds, store: DigestStore) -> int:
    """Run the first chunk untimed to fill lazy caches; it is timed again next."""
    seed = next(seeds)
    store.check(seed, wl.run_chunk(cli, seed, WORK, _no_span).digest)
    return seed


def run_untraced(wl, cli, seconds: float, seeds, store: DigestStore, tally) -> list[float]:
    """Chunks until the deadline; returns each chunk's trials per second."""
    seed = warm_up(wl, cli, seeds, store)
    rates = []
    deadline = time.perf_counter() + seconds
    while True:
        res = wl.run_chunk(cli, seed, WORK, _no_span)
        store.check(seed, res.digest)
        tally.add(res)
        if res.cli_s > 0 and res.trials:
            rates.append(res.trials / res.cli_s)
        if time.perf_counter() >= deadline:
            return rates
        seed = next(seeds)


# -- tracing ----------------------------------------------------------------------


class LayerCounts:
    """Counts the traced wrappers collect from arguments and results."""

    def __init__(self):
        self.iterations = {s: 0 for s in SOLVERS}
        self.converged = {s: 0 for s in SOLVERS}
        self.evals = {"value": 0, "subgrad": 0}
        self.perms = 0

    def _counted(self, fn, kind):
        if fn is None:
            return None

        def counted(*args):
            self.evals[kind] += 1
            return fn(*args)

        return counted

    def solver_hooks(self, name):
        def before(args, kwargs):
            # count objective evaluations where the solver receives the objective
            if args:
                obj, rest = args[0], args[1:]
            else:
                obj, rest = kwargs.pop("obj"), ()
            obj = dataclasses.replace(
                obj,
                value=self._counted(obj.value, "value"),
                value_c=self._counted(obj.value_c, "value"),
                subgradient=self._counted(obj.subgradient, "subgrad"),
                subgrad_c=self._counted(obj.subgrad_c, "subgrad"),
            )
            return (obj, *rest), kwargs

        def after(result):
            self.iterations[name] += result.iterations
            self.converged[name] += result.status == "converged"

        return before, after

    def hooks(self) -> dict:
        def perms(result):
            self.perms += result.iterations

        out = {s: self.solver_hooks(s) for s in SOLVERS}
        out["optimize.permutation_oracle"] = (None, perms)
        return out


def run_traced(wl, cli, seconds: float, seeds, store: DigestStore, tally):
    """Alternate untraced and traced runs of each chunk until the deadline."""
    tracer, counts = Tracer(), LayerCounts()
    seed = warm_up(wl, cli, seeds, store)
    windows, plain_s, traced_s, traced_trials, skipped = [], 0.0, 0.0, 0, 0
    problems = []
    j = 0
    deadline = time.perf_counter() + seconds
    while True:
        for traced in ((False, True) if j % 2 == 0 else (True, False)):
            if traced:
                tracer.install(PACKAGE, TRACED, counts.hooks())
                try:
                    t0 = time.perf_counter()
                    res = wl.run_chunk(cli, seed, WORK, tracer.span)
                    windows.append((t0, time.perf_counter()))
                finally:
                    tracer.restore()
                left = leftover_wrappers(PACKAGE)
                if left:
                    problems.append(f"traced bindings not restored: {left}")
                traced_s += res.cli_s
                traced_trials += res.trials
                skipped += res.skipped
            else:
                res = wl.run_chunk(cli, seed, WORK, _no_span)
                plain_s += res.cli_s
            store.check(seed, res.digest)
            tally.add(res)
        j += 1
        if time.perf_counter() >= deadline:
            break
        seed = next(seeds)
    return layer_metrics(tracer, counts, windows, plain_s, traced_s, traced_trials, skipped), problems


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, counts: LayerCounts, windows, plain_s, traced_s, trials, skipped) -> dict:
    totals = tracer.totals()
    empty = {"calls": 0, "self_s": 0.0}
    wall = sum(w1 - w0 for w0, w1 in windows)
    m = {}
    for mod, fn in TRACED:
        row = totals.get(f"{mod}.{fn}", empty)
        m[f"{mod}.{fn}.calls"] = row["calls"]
        m[f"{mod}.{fn}.self_s"] = row["self_s"]
    for solver in SOLVERS:
        m[f"{solver}.iterations"] = counts.iterations[solver]
        m[f"{solver}.converged_ratio"] = _ratio(counts.converged[solver], totals.get(solver, empty)["calls"])
    m["optimize.permutation_oracle.perms"] = counts.perms
    durations = sorted(tracer.durations("optimize.multistart"))
    m["optimize.multistart.p50_ms"] = 1e3 * statistics.median(durations) if durations else 0.0
    # highest percentile with at least ten samples beyond it; the largest one below eleven samples
    tail = len(durations) - 11 if len(durations) >= 11 else len(durations) - 1
    m["optimize.multistart.tail_ms"] = 1e3 * durations[tail] if durations else 0.0
    iterations = sum(counts.iterations.values())
    m["optimize.value_evals_per_iter"] = _ratio(sum(counts.evals.values()), iterations)
    m["optimize.subgrad_evals_per_iter"] = _ratio(counts.evals["subgrad"], iterations)
    m["verify.skip_ratio"] = _ratio(skipped, trials)
    for layer in LAYERS:
        layer_self = sum(row["self_s"] for name, row in totals.items() if name.split(".")[0] == layer)
        m[f"{layer}.self_share"] = _ratio(layer_self, wall)
    m["trace.trials"] = trials
    m["trace.overhead_ratio"] = _ratio(traced_s, plain_s) - 1.0
    m["trace.covered_ratio"] = _ratio(tracer.root_coverage(windows), wall)
    return m


# -- main -----------------------------------------------------------------------


def run_one(args) -> int:
    import ejalg.cli
    from workloads import WORKLOADS, ChunkResult

    if not Path(ejalg.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported ejalg from {ejalg.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    env = environment()
    WORK.mkdir(exist_ok=True)
    store = DigestStore(WORK / "digests.json", env["code_sha256"], wl.name)
    seeds = chunk_seeds(wl.name, args.seed)
    tally = ChunkResult()
    problems = []
    if args.trace:
        metrics, problems = run_traced(wl, ejalg.cli, args.seconds, seeds, store, tally)
        units = {name: unit for name, unit, _ in per_layer_spec()}
    else:
        setup_s = measure_setup(wl.setup_algebra)
        rates = run_untraced(wl, ejalg.cli, args.seconds, seeds, store, tally)
        metrics = {
            "trials_per_s": statistics.median(rates) if rates else 0.0,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {name: unit for name, unit, _, _ in END_TO_END}
    store.save()
    problems += store.mismatches + tally.wrong
    for line in tally.failures + problems:
        print(f"{wl.name}: {line}", file=sys.stderr)
    info = {
        "workload": wl.name,
        "seed": args.seed,
        "trials": tally.trials,
        "failed_ratio": _ratio(tally.failed, tally.trials),
        "skip_ratio": _ratio(tally.skipped, tally.trials),
        "skipped": tally.skipped,
        "env": env,
    }
    print(f"# {wl.name} seed {args.seed}: {tally.trials} trials, failed_ratio {info['failed_ratio']:.4f}"
          f" ({tally.failed}/{tally.trials}), skip_ratio {info['skip_ratio']:.4f} ({tally.skipped}/{tally.trials})")
    for name, value in metrics.items():
        print(f"#   {name:<44} {value:>14.6g} {units[name]}")
    print(json.dumps({"info": info}, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": max(tally.trials, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process, one at a time, then one table."""
    from workloads import WORKLOADS

    results, status = {}, 0
    print(f"{'workload':<14} {'trials_per_s':>14} {'failed_ratio':>20} {'skip_ratio':>20} {'setup_s':>9} {'peak_rss_mb':>12}")
    print(f"{'':<14} {'1/s':>14} {'ratio (base)':>20} {'ratio (base)':>20} {'s':>9} {'MiB':>12}")
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name:<14} failed with exit code {proc.returncode}")
            status = 1
            continue
        info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
        results[name] = {**result, "info": info}
        status |= not result["correct"]
        if args.trace:
            print(f"{name:<14} " + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()))
            continue
        m = {k: v["value"] for k, v in result["metrics"].items()}
        base = info["trials"]
        print(f"{name:<14} {m['trials_per_s']:>14.4f} {info['failed_ratio']:>9.4f} ({result['failed']:>4}/{base:<4})"
              f" {info['skip_ratio']:>9.4f} ({info['skipped']:>4}/{base:<4}) {m['setup_s']:>9.4f} {m['peak_rss_mb']:>12.2f}")
    print(json.dumps(results, sort_keys=True))
    return status


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    pin_environment()
    sys.exit(main())
