"""Self-tests of the benchmark's tracer and command line.

Run from the repository root with ``python3 -m pytest bench`` or
``python3 -m unittest discover -s bench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
from tracer import Tracer, leftover_wrappers  # noqa: E402


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: float(next(it))


class SelfTimeTest(unittest.TestCase):
    def test_self_time_is_duration_minus_child_coverage(self):
        tr = Tracer(clock=fake_clock(0, 1, 3, 4, 5, 10))
        inner = tr.wrap("inner", lambda: None)

        def body():
            inner()
            inner()

        tr.wrap("outer", body)()
        totals = tr.totals()
        self.assertEqual(totals["outer"]["calls"], 1)
        self.assertEqual(totals["outer"]["self_s"], 10.0 - (2.0 + 1.0))
        self.assertEqual(totals["inner"]["calls"], 2)
        self.assertEqual(totals["inner"]["self_s"], 3.0)
        self.assertEqual(list(tr.parent), [-1, 0, 0])

    def test_recursion_and_own_spans_nest(self):
        # clock reads: span start, fact(2), fact(1), fact(0), then the ends inside out
        tr = Tracer(clock=fake_clock(0, 1, 2, 6, 7, 9, 11, 12))

        def fact(n):
            return 1 if n == 0 else n * traced(n - 1)

        traced = tr.wrap("fact", fact)
        with tr.span("bench.check"):
            self.assertEqual(traced(2), 2)
        durations = [e - s for s, e in zip(tr.start, tr.end)]
        self.assertEqual(durations, [12.0, 10.0, 7.0, 1.0])
        self.assertEqual(list(tr.self_times()), [2.0, 3.0, 6.0, 1.0])
        self.assertEqual(tr.root_coverage([(0.0, 20.0)]), 12.0)

    def test_exception_still_closes_span(self):
        tr = Tracer(clock=fake_clock(0, 5))

        def boom():
            raise ValueError("x")

        with self.assertRaises(ValueError):
            tr.wrap("boom", boom)()
        self.assertEqual(tr.totals()["boom"]["self_s"], 5.0)
        self.assertEqual(tr._stack, [-1])


class InstallRestoreTest(unittest.TestCase):
    def test_every_binding_wrapped_then_restored(self):
        import ejalg
        import ejalg.cli
        import ejalg.liegroup
        import ejalg.optimize
        import ejalg.verify

        originals = {
            (mod, name): getattr(sys.modules[f"ejalg.{mod}"], name) for mod, name in run.TRACED
        }
        shared = [
            (ejalg.liegroup, "exp_action"), (ejalg.optimize, "exp_action"), (ejalg.verify, "exp_action"),
            (ejalg.optimize, "multistart"), (ejalg.verify, "multistart"), (ejalg.cli, "multistart"), (ejalg, "multistart"),
        ]
        before = {(m.__name__, a): getattr(m, a) for m, a in shared}
        tr = Tracer()
        patched = tr.install("ejalg", run.TRACED)
        try:
            self.assertGreater(patched, len(run.TRACED))
            for mod, attr in shared:
                self.assertIsNot(getattr(mod, attr), before[(mod.__name__, attr)], f"{mod.__name__}.{attr}")
        finally:
            tr.restore()
        self.assertEqual(leftover_wrappers("ejalg"), [])
        for (mod, name), fn in originals.items():
            self.assertIs(getattr(sys.modules[f"ejalg.{mod}"], name), fn)
        for mod, attr in shared:
            self.assertIs(getattr(mod, attr), before[(mod.__name__, attr)])

    def test_traced_calls_are_recorded_at_importing_modules(self):
        import numpy as np

        import ejalg.verify
        from ejalg import SuiteConfig, parse_algebra

        tr = Tracer()
        tr.install("ejalg", run.TRACED)
        try:
            ejalg.verify.exp_action(np.zeros((3, 3)), np.ones(3))
            ejalg.verify.run_suite("normalcone", SuiteConfig(parse_algebra("sym:2"), trials=1))
        finally:
            tr.restore()
        totals = tr.totals()
        self.assertEqual(totals["liegroup.exp_action"]["calls"], 1)
        self.assertEqual(totals["verify.run_suite"]["calls"], 1)
        self.assertEqual(tr._stack, [-1])

    def test_unknown_target_is_an_error(self):
        with self.assertRaises(AttributeError):
            Tracer().install("ejalg", [("algebra", "no_such_function")])
        self.assertEqual(leftover_wrappers("ejalg"), [])


class CommandLineTest(unittest.TestCase):
    def _run(self, script: Path, *args, cwd=ROOT):
        return subprocess.run([sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=120)

    def test_unknown_workload_is_rejected(self):
        proc = self._run(BENCH / "run.py", "--workload", "no-such-workload", "--seed", "0", "--seconds", "1", "--trace", "0")
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, "")
        self.assertIn("invalid choice", proc.stderr)

    def test_fails_without_the_program_sources(self):
        bare = BENCH / ".work" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            proc = self._run(Path(BENCH.name) / "run.py", "--workload", "oracle-sym8", "--seed", "0",
                             "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")

    def test_benchmark_json_matches_the_metrics_reported(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        from workloads import WORKLOADS

        self.assertTrue({w["name"] for w in spec["workloads"]} <= set(WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]], list(run.END_TO_END)
        )
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]], run.per_layer_spec())


if __name__ == "__main__":
    unittest.main()
