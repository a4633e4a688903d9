"""Cold start of the engines in a fresh process: the engine-kernels setup.

Usage: ``python perfbench/coldstart.py``.  Imports ``repro.api``, builds
every code the engine-kernels mix uses cold (printing that time as JSON)
and makes one small call of each op kind (lazy imports and first-call
set-up); the caller times the whole process.
"""

import json
import sys
import time

import engine_kernels
from repro.codes.registry import make_code


def main() -> int:
    t0 = time.perf_counter()
    for family, length in engine_kernels.mix_codes():
        make_code(family, 2, length)
    codes_s = time.perf_counter() - t0
    for kind, request in engine_kernels.warmup_ops():
        engine_kernels.call(kind, request)
    json.dump({"codes_s": codes_s}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
