"""Workload ``cli-paths``: fresh-process CLI runs in a closed loop.

One process at a time.  Each cycle runs, in order: ``--help``; a small
``sweep`` on a seeded ``sigma_t`` axis value; the same sweep ``--via``
the daemon (a store miss: cold); a fixed sweep ``--via`` the daemon that
setup committed to the store (warm); ``fig7``; and a 2-shard ``shard
plan`` -> ``shard launch`` -> ``shard merge`` job on the cycle's grid
(one op: plan start to merge end).

Checks: ``--help`` prints the usage; the cold ``--via`` output and the
merged shard CSV are byte-identical to the plain ``sweep`` output of the
same cycle; the plain sweep, the warm ``--via`` output and ``fig7`` are
byte-identical to the CLI run in this process on the same arguments.
"""

from __future__ import annotations

import io
import json
import random
import statistics
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import harness
import tracer as tracing
from harness import Daemon, run_child
from ops import Ops

SETUP_REPEATS = 3
GRID = ("--families", "TC,BGC", "--lengths", "6,8")
GRID_POINTS = 4
WARM_GRID = ("--families", "BGC,GC", "--lengths", "8")
WARM_POINTS = 2
PROBE = Path(__file__).resolve().parent / "probe.py"
PATHS = ("help", "sweep", "via_cold", "via_warm", "figure", "shard_job")

def _sweep_args(grid, sigma_t: float) -> list[str]:
    return ["sweep", *grid, "--axis", f"sigma_t={sigma_t!r}", "--format", "csv"]


def in_process_cli(argv: list[str]) -> str:
    """What ``repro <argv>`` prints, run by this process's own CLI."""
    import repro.cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = repro.cli.main(argv)
    if rc != 0:
        raise harness.BenchError(f"in-process CLI failed: {argv}")
    return buf.getvalue()


class Runner:
    """One measured phase: CLI processes, plain or under ``probe.py``."""

    def __init__(self, daemon: Daemon, warm_args, expected, host, tracer=None):
        self.daemon = daemon
        self.host = host
        self.warm_args = warm_args
        self.expected = expected
        self.tracer = tracer
        self.ops = Ops()
        self.rss_mb = 0.0
        self.sweeps: list[tuple[list[str], str]] = []  # checked after the loop
        self.jobs: list[Path] = []
        self._root = None

    def cli(self, *args: str) -> harness.Child:
        if self.tracer is None:
            child = run_child(harness.repro_argv(*args))
        else:
            spans = Path("spans.json")
            child = run_child([sys.executable, str(PROBE), str(spans), *args])
            if spans.exists():  # a crashed child leaves none; its op fails anyway
                doc = json.loads(spans.read_text())
                spans.unlink()
                root = self._root.id
                self.tracer.add("startup.interp", child.start, doc["t0"], parent=root)
                self.tracer.absorb(doc["spans"], root)
        self.rss_mb = max(self.rss_mb, child.rss_mb)
        return child

    def op(self, kind: str, fn, points: int) -> None:
        """Time one op (one or more processes) and record whether it passed."""
        self.host.maybe_sample()
        start = time.perf_counter()
        if self.tracer is not None:
            self._root = self.tracer.add(f"op.{kind}", start, start)
        ok = bool(fn())
        end = time.perf_counter()
        if self._root is not None:
            self._root.end = end
        self.ops.add(kind, end - start, ok, points)

    def cycle(self, sigma_t: float, job: Path) -> None:
        """One pass over every path."""
        sweep_args = _sweep_args(GRID, sigma_t)
        via = ("--via", self.daemon.socket)
        plain = {}

        def help_():
            c = self.cli("--help")
            return c.returncode == 0 and c.stdout.startswith("usage: repro")

        def sweep():
            c = self.cli(*sweep_args)
            plain["csv"] = c.stdout
            self.sweeps.append((sweep_args, c.stdout))
            return c.returncode == 0

        def via_cold():
            c = self.cli(*sweep_args, *via)
            return c.returncode == 0 and c.stdout == plain.get("csv")

        def via_warm():
            c = self.cli(*self.warm_args, *via)
            return c.returncode == 0 and c.stdout == self.expected["warm"]

        def figure():
            c = self.cli("fig7")
            return c.returncode == 0 and c.stdout == self.expected["fig7"]

        def shard_job():
            self.jobs.append(job)
            grid = sweep_args[1:-2]
            steps = (
                ("shard", "plan", "sweep", str(job), "--shards", "2", *grid),
                ("shard", "launch", str(job), "--workers", "2"),
                ("shard", "merge", str(job), "--format", "csv"),
            )
            for step in steps:
                c = self.cli(*step)
                if c.returncode != 0:
                    return False
            return c.stdout == plain.get("csv")

        for kind, fn, points in (
            ("help", help_, 0),
            ("sweep", sweep, GRID_POINTS),
            ("via_cold", via_cold, GRID_POINTS),
            ("via_warm", via_warm, WARM_POINTS),
            ("figure", figure, 0),
            ("shard_job", shard_job, GRID_POINTS),
        ):
            self.op(kind, fn, points)

    def measure(self, seconds: float, rng: random.Random, tag: str) -> None:
        """Whole cycles until ``seconds`` have passed, so every path weighs
        the same in each run however the window ends."""
        deadline = harness.Deadline(seconds)
        deadline.start()
        n = 0
        while not deadline.expired():
            self.cycle(round(rng.uniform(0.035, 0.065), 6), Path(f"job-{tag}-{n}"))
            n += 1
        self.ops.elapsed_s = deadline.elapsed()

    def mismatches(self) -> int:
        """Plain sweep outputs that differ from this process's CLI."""
        return sum(out != in_process_cli(args) for args, out in self.sweeps)


def run(seed: int, seconds: float, trace: bool, host: harness.HostSpeed) -> dict:
    rng = random.Random(f"cli-paths:{seed}")
    warm_args = _sweep_args(WARM_GRID, round(rng.uniform(0.035, 0.065), 6))
    expected = {"fig7": in_process_cli(["fig7"]), "warm": in_process_cli(warm_args)}

    def prime(daemon):
        if in_process_cli([*warm_args, "--via", daemon.socket]) != expected["warm"]:
            raise harness.BenchError("priming the warm --via request failed")

    # setup, several times: start the daemon and commit the warm request
    daemon, setups = harness.setup_daemon(SETUP_REPEATS, prime)
    try:
        if trace:
            return _traced(daemon, rng, warm_args, expected, seconds, host)
        runner = Runner(daemon, warm_args, expected, host)
        runner.measure(seconds, rng, "m")
        failed = runner.ops.failed + runner.mismatches()
        values, note = runner.ops.e2e(statistics.median(setups), runner.rss_mb)
        lines = [
            note,
            "setup_s: median of "
            + ", ".join(f"{s:.3f}" for s in setups)
            + " s (daemon start to a committed warm --via request)",
            "per path:",
            *runner.ops.kind_table(),
        ]
        return {"ops": runner.ops, "failed": failed, "values": values, "lines": lines}
    finally:
        daemon.stop()


def _traced(daemon, rng, warm_args, expected, seconds, host) -> dict:
    """An untraced half, then a traced half, against the same daemon."""
    plain = Runner(daemon, warm_args, expected, host)
    plain.measure(seconds / 2, rng, "u")
    tracer = tracing.Tracer()
    traced = Runner(daemon, warm_args, expected, host, tracer)
    traced.measure(seconds / 2, rng, "t")
    failed = plain.ops.failed + traced.ops.failed + plain.mismatches() + traced.mismatches()

    values = _startup_probe()
    for path in PATHS:
        values[f"path.{path}_wall_s"] = plain.ops.kind_median(path)
    values.update(tracing.accounting(tracer, plain.ops, traced.ops))
    spans, median = tracer.spans, tracing.span_median
    values.update(
        {
            "cli.sweep_after_import_s": median(spans, "cli.main", "op.sweep"),
            "cli.figure_after_import_s": median(spans, "cli.main", "op.figure"),
            "dist.plan_s": median(spans, "dist.plan") + median(spans, "dist.write_job"),
            "dist.launch_s": median(spans, "dist.launch"),
            "dist.merge_s": median(spans, "dist.merge"),
        }
    )
    values.update(_dist_status(traced.jobs))
    with daemon.client() as client:
        values.update(harness.serve_stats(client, client.stats()))
    ops = Ops()
    ops.records = plain.ops.records + traced.ops.records
    lines = ["per-layer self time of the traced half:", *tracing.table(values)]
    return {"ops": ops, "failed": failed, "values": values, "lines": lines, "tracer": tracer}


def _startup_probe() -> dict:
    """Bare interpreter and import walls, and ``-X importtime`` self sums."""
    py = sys.executable
    interp = statistics.median(run_child([py, "-c", "pass"]).wall_s for _ in range(5))

    def import_wall(module: str) -> float:
        code = (
            "import time; t = time.perf_counter(); "
            f"import {module}; print(time.perf_counter() - t)"
        )
        return statistics.median(
            float(run_child([py, "-c", code]).stdout) for _ in range(3)
        )

    sums = []
    for _ in range(3):
        child = run_child([py, "-X", "importtime", "-c", "import repro.cli"])
        by_pkg = {"numpy": 0, "scipy": 0, "repro": 0}
        for line in child.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            top = fields[2].strip().split(".")[0]
            if top in by_pkg:
                by_pkg[top] += int(fields[0])
        sums.append(by_pkg)
    values = {
        "startup.interp_s": interp,
        "startup.import_cli_s": import_wall("repro.cli"),
        "startup.import_client_s": import_wall("repro.serve.client"),
    }
    for key, pkg in (("numpy", "numpy"), ("scipy", "scipy"), ("repro_self", "repro")):
        values[f"startup.import_{key}_s"] = statistics.median(s[pkg] for s in sums) / 1e6
    return values


def _dist_status(jobs) -> dict:
    from repro import dist

    slowest, retries, quarantined = [], 0, 0
    for job in jobs:
        if not (job / "job.json").exists():
            continue
        st = dist.status(job)
        slowest.append(max(r.get("elapsed_s", 0.0) for r in st["shard_details"]))
        retries += sum(n for _, n in st["retried"])
        quarantined += len(st["quarantined"])
    return {
        "dist.slowest_shard_s": statistics.median(slowest) if slowest else 0.0,
        "dist.retries": retries,
        "dist.quarantined": quarantined,
    }
