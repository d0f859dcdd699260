"""Command line front end: run suites, solve single instances, demos.

Exit codes: 0 clean run, 1 violations or solver failure, 2 usage
errors.  JSON is the authoritative record format; CSV is a flattened
per-trial residual table for spreadsheets.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .algebra import AlgebraError, Element, parse_algebra, random_element
from .optimize import (
    SolverParams,
    kappa_shift,
    multistart,
    orbit,
    permutation_oracle,
    shifted_spectral,
    spectral_box,
)
from .specfun import SpectralFunction, builtin_function
from .verify import SuiteConfig, SuiteReport, Tolerances, demo_kappa, run_suite, suite_names

USAGE_ERROR = 2
FAILURE = 1


def _record(config: dict, **body) -> dict:
    """A JSON record: the common header, then the command's own fields."""
    return {
        "schema": 1,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "tool": {"name": "ejalg", "version": __version__},
        "config": config,
        **body,
    }


def run_record(config: dict, reports: list[SuiteReport]) -> dict:
    return _record(config, suites=[dataclasses.asdict(r) for r in reports], passed=all(r.passed for r in reports))


def _write_json(record: dict, path: str | None) -> None:
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_csv(record: dict, path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["suite", "algebra", "trial", "inputs", "status", "metric", "value"])
        for rep in record["suites"]:
            for rec in rep["records"]:
                base = [rep["suite"], rep["algebra"], rec.get("trial", ""), rec.get("inputs", ""), rec.get("status", "")]
                for key in sorted(rec):
                    val = rec[key]
                    if key in ("trial", "inputs", "status") or isinstance(val, (str, bool, list)):
                        continue
                    w.writerow(base + [key, repr(float(val))])


def _print_summary(reports: list[SuiteReport]) -> None:
    print(f"{'suite':<12} {'algebra':<22} {'trials':>6} {'violations':>10} {'skips':>6} {'worst':>10}")
    for rep in reports:
        worst = max(rep.worst.values(), default=0.0)
        print(f"{rep.suite:<12} {rep.algebra:<22} {rep.trials:>6} {rep.violations:>10} {rep.skips:>6} {worst:>10.2e}")


def _load_element(spec, text: str, rng: np.random.Generator) -> Element:
    """Element from 'random' or a JSON file {algebra: ..., coords: [...]}."""
    if text == "random":
        return random_element(spec, rng)
    with open(text) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "algebra" not in data or "coords" not in data:
        raise AlgebraError(f"element file {text!r} must contain 'algebra' and 'coords'")
    if parse_algebra(data["algebra"]) != spec:
        raise AlgebraError(f"element file algebra {data['algebra']!r} does not match {spec}")
    coords = np.asarray(data["coords"], dtype=float)
    return Element(spec, coords)


def cmd_verify(args) -> int:
    try:
        names = suite_names(args.suite)
    except KeyError as exc:
        print(f"error: unknown suite {exc.args[0]!r}", file=sys.stderr)
        return USAGE_ERROR
    try:
        specs = [parse_algebra(s) for s in args.algebra]
        tols = Tolerances(commute=args.tol_commute)
        cfgs = [SuiteConfig(algebra=a, trials=args.trials, seed=args.seed, tolerances=tols) for a in specs]
    except (AlgebraError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    reports: list[SuiteReport] = []
    try:
        for cfg in cfgs:
            for name in names:
                reports.append(run_suite(name, cfg))
    except AlgebraError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return FAILURE
    _print_summary(reports)
    config = {
        "suite": list(args.suite),
        "algebra": list(args.algebra),
        "trials": args.trials,
        "seed": args.seed,
        "tol_commute": args.tol_commute,
        "format": args.format,
    }
    record = run_record(config, reports)
    if args.format == "csv":
        if args.out is None:
            print("error: --format csv requires --out", file=sys.stderr)
            return USAGE_ERROR
        _write_csv(record, args.out)
    elif args.out is not None:
        _write_json(record, args.out)
    return 0 if record["passed"] else FAILURE


def _parse_box(text: str):
    parts = text.split("..")
    if len(parts) != 2:
        raise AlgebraError(f"box must look like 'l..u', got {text!r}")
    return float(parts[0]), float(parts[1])


def cmd_solve(args) -> int:
    try:
        spec = parse_algebra(args.algebra)
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    rng = np.random.default_rng(np.random.SeedSequence(entropy=args.seed, spawn_key=(101,)))
    try:
        a = _load_element(spec, args.shift, rng)
        if args.orbit is not None:
            b = _load_element(spec, args.orbit, rng)
            fset = orbit(b)
        else:
            lo, hi = _parse_box(args.box)
            fset = spectral_box(spec, lo, hi)
    except (OSError, KeyError, ValueError, json.JSONDecodeError, AlgebraError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        if args.objective == "kappa":
            obj = kappa_shift(a, args.sense)
            F = None
        else:
            F = SpectralFunction(builtin_function(args.objective), spec)
            obj = shifted_spectral(F, a, args.sense)
    except (ValueError, AlgebraError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if args.starts < 1 or args.max_iters < 1:
        print("error: --starts and --max-iters must be >= 1", file=sys.stderr)
        return USAGE_ERROR
    if not (args.tol > 0.0 and np.isfinite(args.tol)):
        print("error: --tol must be positive and finite", file=sys.stderr)
        return USAGE_ERROR
    params = SolverParams(max_iters=args.max_iters, tol=args.tol)
    try:
        if args.oracle:
            if fset.variant != "orbit" or F is None:
                print("error: --oracle needs an orbit set and a spectral objective", file=sys.stderr)
                return USAGE_ERROR
            res = permutation_oracle(a, fset.anchor, F, args.sense)
        else:
            res = multistart(obj, fset, params, starts=args.starts, seed=args.seed)
    except AlgebraError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return FAILURE
    config = {
        "algebra": args.algebra,
        "objective": args.objective,
        "shift": args.shift,
        "orbit": args.orbit,
        "box": args.box,
        "sense": args.sense,
        "starts": args.starts,
        "max_iters": args.max_iters,
        "tol": args.tol,
        "seed": args.seed,
        "oracle": bool(args.oracle),
    }
    result = {
        "algebra": str(spec),
        "coords": [float(v) for v in res.x.coords],
        "value": float(res.value),
        "iterations": res.iterations,
        "stationarity": float(res.stationarity),
        "status": res.status,
        "start_index": res.start_index,
        "commutation": {name: float(r) for name, r in res.diagnostics.pairs},
    }
    print(f"value {res.value:.9g}  status {res.status}  stationarity {res.stationarity:.2e}")
    for name, r in res.diagnostics.pairs:
        print(f"  commutation[{name}] = {r:.2e}")
    _write_json(_record(config, result=result), args.out)
    return 0


def cmd_demo(args) -> int:
    if args.what != "kappa":
        print(f"error: unknown demo {args.what!r}", file=sys.stderr)
        return USAGE_ERROR
    if args.eps is None or not (args.eps > 0.0 and np.isfinite(args.eps)):
        print("error: --eps must be given, positive and finite", file=sys.stderr)
        return USAGE_ERROR
    try:
        cfg = SuiteConfig(algebra=parse_algebra(args.algebra), trials=args.trials, seed=args.seed)
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        rep = demo_kappa(cfg, eps=args.eps)
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAILURE
    for rec in rep.records:
        print(
            f"trial {rec['trial']}: kappa {rec['kappa_before']:.6f} -> {rec['kappa_after']:.6f}"
            f"  (oracle {rec['oracle']:.6f}, commutation {rec['commute']:.2e})"
        )
    for note in rep.notes:
        print(note)
    if args.out is not None:
        config = {"demo": "kappa", "algebra": args.algebra, "eps": args.eps, "trials": args.trials, "seed": args.seed}
        _write_json(run_record(config, [rep]), args.out)
    return 0 if rep.passed else FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ejalg", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"ejalg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run certification suites")
    pv.add_argument("--suite", action="append", default=None, help="suite name or 'all' (repeatable)")
    pv.add_argument("--algebra", action="append", default=None, help="algebra spec string (repeatable)")
    pv.add_argument("--trials", type=int, default=100)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--tol-commute", type=float, default=1e-6, dest="tol_commute")
    pv.add_argument("--out", default=None)
    pv.add_argument("--format", choices=("json", "csv"), default="json")
    pv.set_defaults(func=cmd_verify)

    ps = sub.add_parser("solve", help="solve one instance")
    ps.add_argument("--algebra", required=True)
    ps.add_argument("--objective", default="schatten:2", help="schatten:p, sumsq, or kappa")
    ps.add_argument("--shift", default="random", help="element JSON file or 'random'")
    group = ps.add_mutually_exclusive_group(required=True)
    group.add_argument("--orbit", default=None, help="anchor element JSON file or 'random'")
    group.add_argument("--box", default=None, help="eigenvalue bounds 'l..u'")
    ps.add_argument("--sense", choices=("min", "max"), default="min")
    ps.add_argument("--starts", type=int, default=8)
    ps.add_argument("--max-iters", type=int, default=400, dest="max_iters")
    ps.add_argument("--tol", type=float, default=1e-8)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--oracle", action="store_true", help="answer with the frame enumeration instead")
    ps.add_argument("--out", default=None)
    ps.set_defaults(func=cmd_solve)

    pd = sub.add_parser("demo", help="worked demonstrations")
    pd.add_argument("what", choices=("kappa",))
    pd.add_argument("--algebra", default="sym:3")
    pd.add_argument("--eps", type=float, default=None)
    pd.add_argument("--trials", type=int, default=8)
    pd.add_argument("--seed", type=int, default=0)
    pd.add_argument("--out", default=None)
    pd.set_defaults(func=cmd_demo)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and reused after it.

    Parsing leaves the parser as it was: every call gets a fresh
    namespace, and ``main`` fills the verify defaults there.
    """
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "verify":
        if args.suite is None:
            args.suite = ["all"]
        if args.algebra is None:
            args.algebra = ["sym:3"]
        if args.trials < 1:
            print("error: trials must be >= 1", file=sys.stderr)
            return USAGE_ERROR
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
