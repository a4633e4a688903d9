"""End-to-end benchmark of the repro stack, split by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cli-paths --seed 1 --seconds 24 --trace 0

Workloads (see ``metrics.py`` for why each exists):

* ``cli-paths``      fresh-process CLI runs, one at a time;
* ``engine-kernels`` in-process ``repro.api`` calls with no store;
* ``serve-mix``      two closed-loop clients on a ``repro serve`` daemon.

The seed fixes every generated request.  ``--trace 0`` measures for
``--seconds`` and prints the end-to-end metrics; ``--trace 1`` spends
half the window untraced and half with the layers' public calls wrapped
in spans, prints the per-layer metrics and writes the spans as JSONL to
``.bench_build/perfbench/``.  Outputs are checked on every run; a wrong
output counts as a failed operation.  The last line of stdout is the
JSON result; if the benchmark cannot run it exits 1 without one.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark's own directory source-only
sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import metrics  # noqa: E402

WORKLOAD_NAMES = tuple(name for name, _ in metrics.WORKLOADS)


def _parse(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _workload(name: str):
    if name == "cli-paths":
        import cli_paths as module
    elif name == "engine-kernels":
        import engine_kernels as module
    else:
        import serve_mix as module
    return module


def main(argv=None) -> int:
    args = _parse(argv)
    # SIGTERM unwinds like an error, so the daemon teardown still runs
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        harness.prepare_process()
        harness.compile_bytecode()
        module = _workload(args.workload)
        host = harness.HostSpeed()
        host.sample()
        with harness.run_dir():
            out = module.run(args.seed, args.seconds, bool(args.trace), host)
        host.sample()
    except harness.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    names = [n for n, *_ in (metrics.PER_LAYER if args.trace else metrics.END_TO_END)]
    measured = out["values"]
    scale = host.scale if not args.trace else 1.0
    values = metrics.host_scaled(measured, scale) if not args.trace else measured
    if args.trace:
        for name in names:
            values.setdefault(name, 0.0)  # a layer this workload never enters
        tracer = out["tracer"]
        harness.BUILD.mkdir(parents=True, exist_ok=True)
        spans = harness.BUILD / f"trace-{args.workload}-{args.seed}-{int(time.time())}.jsonl"
        tracer.write_jsonl(spans)
        out["lines"].append(f"spans written to {spans}")

    ops = out["ops"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(host.describe(scale))
    for line in out["lines"]:
        print(line)
    if not args.trace:
        print(f"  {'metric':<34} {'reported':>16} {'as measured':>16}")
    for name in names:
        unscaled = "" if args.trace else f" {measured[name]:>16.6g}"
        print(f"  {name:<34} {values[name]:>16.6g}{unscaled} {metrics.UNITS[name]}")
    failed = out["failed"]
    print(f"operations attempted {ops.attempted}, failed {failed}")
    doc = metrics.result(failed == 0, ops.attempted, failed, values, names)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
