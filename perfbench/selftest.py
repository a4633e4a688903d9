"""Self-tests of the benchmark: catalogue, tracer arithmetic, tiny runs.

Usage (from the repository root): ``python3 perfbench/selftest.py``.
Takes about two minutes; the tiny runs use a 3-second window.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import metrics  # noqa: E402
import tracer as tracing  # noqa: E402

UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


class Catalogue(unittest.TestCase):
    def test_benchmark_json_matches_the_catalogue(self):
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(doc, metrics.benchmark_json())

    def test_names_units_and_limits(self):
        e2e = [m[0] for m in metrics.END_TO_END]
        layer = [m[0] for m in metrics.PER_LAYER]
        self.assertLessEqual(len(e2e), 16)
        self.assertLessEqual(len(layer), 128)
        names = e2e + layer + [w for w, _ in metrics.WORKLOADS]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, metrics.NAME_RE)
        for name, unit, better, *_ in metrics.END_TO_END + metrics.PER_LAYER:
            self.assertRegex(unit, UNIT_RE, name)
            self.assertIn(better, ("lower", "higher"), name)
        bounds = {name: bound for name, _, _, bound in metrics.END_TO_END}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        for _, why in metrics.WORKLOADS:
            self.assertLessEqual(len(why), 200)
            self.assertNotIn("\n", why)
        for *_, target in metrics.PER_LAYER:
            self.assertTrue(target)


class Tracer(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        t = tracing.Tracer()
        root = t.add("op.x", 0.0, 10.0)
        t.add("exp.a", 1.0, 4.0, parent=root.id)
        t.add("sim.b", 3.0, 6.0, parent=root.id)  # overlaps exp.a
        own = tracing.self_times(t.spans)
        self.assertAlmostEqual(own[root.id], 5.0)

    def test_layers_plus_remainder_add_up_to_the_op_wall(self):
        from ops import Ops

        t = tracing.Tracer()
        for start in (0.0, 20.0):
            root = t.add("op.x", start, start + 10.0)
            inner = t.add("api.call", start + 1.0, start + 9.0, parent=root.id)
            t.add("exp.work", start + 2.0, start + 7.0, parent=inner.id)
        plain, traced = Ops(), Ops()
        plain.add("x", 9.0, True)
        traced.add("x", 10.0, True)
        values = tracing.accounting(t, plain, traced)
        self.assertAlmostEqual(
            sum(values[f"{layer}.self_s"] for layer in tracing.SELF_LAYERS)
            + values["trace.remainder_s"],
            values["trace.wall_s"],
        )
        self.assertAlmostEqual(values["trace.remainder_s"], 4.0)
        self.assertAlmostEqual(values["trace.overhead_pct"], 100.0 / 9.0)

    def test_install_and_restore_leave_the_library_untouched(self):
        harness.prepare_process()
        from repro import api

        before = (api.evaluate, api.SweepRequest.__dict__["from_dict"])
        t = tracing.Tracer()
        tracing.install(t)
        try:
            self.assertIsNot(api.evaluate, before[0])
        finally:
            t.restore()
        self.assertIs(api.evaluate, before[0])
        self.assertIs(api.SweepRequest.__dict__["from_dict"], before[1])

    def test_tail_needs_ten_samples_beyond(self):
        value, p, beyond = harness.tail([float(i) for i in range(1, 1001)])
        self.assertEqual((p, beyond), (99.0, 10))
        self.assertAlmostEqual(value, 990.01)
        value, p, _ = harness.tail([3.0, 1.0, 2.0, 4.0])
        self.assertEqual((value, p), (2.5, 50.0))


class TinyRuns(unittest.TestCase):
    """Each workload end to end with a 3-second window, plain and traced."""

    def check(self, workload: str, trace: int, seed: int = 7) -> dict:
        out = bench("--workload", workload, "--seed", str(seed), "--seconds", "3",
                    "--trace", str(trace))
        self.assertEqual(out.returncode, 0, out.stderr[-3000:])
        doc = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(set(doc), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(doc["correct"], out.stdout)
        self.assertEqual(doc["failed"], 0)
        self.assertGreaterEqual(doc["attempted"], 1)
        table = metrics.PER_LAYER if trace else metrics.END_TO_END
        self.assertEqual(list(doc["metrics"]), [m[0] for m in table])
        for name, unit, *_ in table:
            self.assertEqual(doc["metrics"][name]["unit"], unit)
            self.assertIsInstance(doc["metrics"][name]["value"], (int, float))
        if not trace:
            for name, value in doc["metrics"].items():
                self.assertGreater(value["value"], 0, name)
        return {"doc": doc, "stdout": out.stdout}

    def test_cli_paths(self):
        self.check("cli-paths", 0)
        traced = self.check("cli-paths", 1)["doc"]["metrics"]
        self.assertGreater(traced["startup.self_s"]["value"], 0)

    def test_engine_kernels_is_deterministic_per_seed(self):
        runs = [self.check("engine-kernels", 0)["stdout"] for _ in range(2)]
        digests = [re.search(r"first cycle: (\w+)", r).group(1) for r in runs]
        self.assertEqual(digests[0], digests[1])
        traced = self.check("engine-kernels", 1)["doc"]["metrics"]
        for name in ("startup.self_s", "store.self_s", "serve.requests", "dist.self_s"):
            self.assertEqual(traced[name]["value"], 0, name)
        self.assertGreater(traced["sim.self_s"]["value"], 0)

    def test_serve_mix(self):
        self.check("serve-mix", 0)
        traced = self.check("serve-mix", 1)["doc"]["metrics"]
        self.assertGreater(traced["serve.requests"]["value"], 0)

    def test_refuses_to_run_without_the_sources(self):
        harness.BUILD.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=harness.BUILD) as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = bench("--workload", "cli-paths", "--seed", "1", "--seconds", "1",
                        cwd=bare)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
