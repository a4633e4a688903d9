"""Run ``repro <args>`` under the span recorder and write the spans out.

Usage: ``python perfbench/probe.py SPANS.json <repro arguments>``.

The traced ``cli-paths`` half runs every CLI process through this
script instead of ``python -m repro``.  It notes the clock as its first
statement (the end of interpreter start), times ``import repro.cli``,
wraps the layers' public calls and times ``repro.cli.main``.  stdout and
the exit code are the CLI's own, so the outputs are checked as usual.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import tracer as tracing  # noqa: E402


def main() -> int:
    out, args = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    with tracer.span("startup.import"):
        import repro.cli
    tracing.install(tracer)
    code = 0
    try:
        with tracer.span("cli.main"):
            code = repro.cli.main(args)
    except SystemExit as exc:  # argparse --help and usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        tracer.restore()
        tracer.resolve_rids()
        with open(out, "w") as fh:
            json.dump({"t0": T0, "spans": [s.to_dict() for s in tracer.spans]}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
