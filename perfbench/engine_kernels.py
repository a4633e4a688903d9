"""Workload ``engine-kernels``: in-process ``repro.api`` calls, no store.

Each cycle makes five facade calls, each sized to take roughly 0.1 s on
a 2-core container so that every kernel carries a similar share of the
op-time distribution:

* ``sweep``    ``api.evaluate`` of 256 design points (yield, area,
  margins) on seeded ``sigma_t`` overrides, 75% of them new to the
  ``repro.exp.cache`` lru caches and 25% repeats of points of the
  previous sweep;
* ``marginmc`` ``api.simulate`` k-sigma margin-yield Monte-Carlo, 4096 trials;
* ``cavemc``   ``api.simulate`` cave-yield Monte-Carlo, 32768 trials;
* ``memsim``   ``api.memsim`` ideal lookups, 250k accesses x 8 instances;
* ``readout``  ``api.memsim`` electrical reads (``readout="float"``),
  160 accesses x 2 instances.

The code, trace kind and sizes of each op follow a fixed rotation; the
seed draws the override values and every Monte-Carlo and trace seed.

Checks: after the window, the caches are cleared and a seeded sample of
the ops (always including the whole first cycle) is computed again; each
result must be identical to the one the timed call returned.  The digest
of the first cycle's results is printed, so two runs of one seed can be
compared.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import statistics
import sys
import time
from pathlib import Path

import harness
import tracer as tracing
from ops import Ops

SETUP_REPEATS = 3
SWEEP_CODES = (
    ("TC", 6), ("TC", 8), ("TC", 10), ("GC", 6), ("GC", 8), ("GC", 10),
    ("BGC", 6), ("BGC", 8), ("BGC", 10), ("HC", 6), ("HC", 8), ("AHC", 6), ("AHC", 8),
)
ROTATION = (
    ("BGC", 8, "zipfian"), ("TC", 10, "uniform"), ("GC", 8, "bursty"), ("HC", 8, "sequential"),
)
SWEEP_POINTS = 256
SWEEP_METRICS = ("yield", "area", "margins")
REPEAT_SHARE = 0.25
MARGIN_SAMPLES = 4096
CAVE_SAMPLES = 32768
IDEAL_SIZE = (250_000, 8)
READOUT_SIZE = (160, 2)
VERIFY_EXTRA = 5


class Mix:
    """The seeded request stream: one cycle of five ops at a time."""

    def __init__(self, seed: int):
        self.rng = random.Random(f"engine-kernels:{seed}")
        self.previous: list = []
        self.cycle = 0

    def _points(self):
        """Fresh points, plus repeats of the previous sweep's points."""
        from repro.exp.designpoint import DesignPoint

        points = []
        for _ in range(SWEEP_POINTS):
            if self.previous and self.rng.random() < REPEAT_SHARE:
                points.append(self.rng.choice(self.previous))
            else:
                family, length = self.rng.choice(SWEEP_CODES)
                sigma_t = round(self.rng.uniform(0.03, 0.07), 6)
                points.append(DesignPoint.make(family, length, sigma_t=sigma_t))
        self.previous = points
        return tuple(points)

    def next_cycle(self):
        from repro import api

        family, length, trace = ROTATION[self.cycle % len(ROTATION)]
        self.cycle += 1
        seed = self.rng.randrange
        return (
            ("sweep", api.SweepRequest(points=self._points(), metrics=SWEEP_METRICS)),
            ("marginmc", api.McRequest("marginmc", family, length,
                                       samples=MARGIN_SAMPLES, seed=seed(2**31))),
            ("cavemc", api.McRequest("cavemc", family, length,
                                     samples=CAVE_SAMPLES, seed=seed(2**31))),
            ("memsim", api.WorkloadRequest(family, length, trace=trace,
                                           accesses=IDEAL_SIZE[0], instances=IDEAL_SIZE[1],
                                           seed=seed(2**31))),
            ("readout", api.WorkloadRequest(family, length, trace=trace,
                                            accesses=READOUT_SIZE[0],
                                            instances=READOUT_SIZE[1],
                                            seed=seed(2**31), readout="float")),
        )


def call(kind: str, request):
    from repro import api

    if kind == "sweep":
        return api.evaluate(request, jobs=1)
    if kind in ("marginmc", "cavemc"):
        return api.simulate(request)
    return api.memsim(request)


def result_digest(kind: str, result) -> str:
    """sha256 of a result's canonical JSON.

    Built from the result objects directly rather than the ``repro.api``
    encoders, which the traced half wraps in spans.  Bank-cache
    statistics are left out: they describe the run, not the result, and
    are outside the library's byte-identity contract.
    """
    from repro.dist.spec import canonical_json

    if kind == "sweep":
        payload = {"fields": list(result.fields), "records": result.to_records()}
    else:
        payload = dataclasses.asdict(result)
        payload.pop("cache", None)
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def work(kind: str, request) -> int:
    """Units of work of one op: points, trials or accesses x instances."""
    if kind == "sweep":
        return len(request.points)
    if kind in ("marginmc", "cavemc"):
        return request.samples
    return request.accesses * request.instances


class Phase:
    """One measured window of the mix."""

    def __init__(self, mix: Mix, host: harness.HostSpeed, tracer=None):
        self.mix = mix
        self.host = host
        self.tracer = tracer
        self.ops = Ops()
        self.done: list[tuple[str, object, str]] = []  # (kind, request, digest)
        self.bank = [0, 0]  # bank-cache hits, misses of the readout ops

    def measure(self, seconds: float) -> None:
        """Whole cycles until ``seconds`` have passed: every kind runs
        equally often."""
        deadline = harness.Deadline(seconds)
        deadline.start()
        while not deadline.expired():
            self.host.maybe_sample()
            for kind, request in self.mix.next_cycle():
                self._op(kind, request)
        self.ops.elapsed_s = deadline.elapsed()

    def _op(self, kind, request) -> None:
        t0 = time.perf_counter()
        if self.tracer is None:
            result = call(kind, request)
        else:
            with self.tracer.span(f"op.{kind}"):
                result = call(kind, request)
        latency = time.perf_counter() - t0
        self.ops.add(kind, latency, True, len(request.points) if kind == "sweep" else 0)
        self.done.append((kind, request, result_digest(kind, result)))
        if kind == "readout":
            self.bank[0] += result.cache["hits"]
            self.bank[1] += result.cache["misses"]

    def rate(self, *kinds: str) -> float:
        units = sum(work(k, r) for k, r, _ in self.done if k in kinds)
        busy = sum(r[1] for r in self.ops.records if r[0] in kinds)
        return units / busy if busy else 0.0

    def bank_hit_ratio(self) -> float:
        total = sum(self.bank)
        return self.bank[0] / total if total else 0.0

    def verify(self, seed: int) -> int:
        """Recompute the first cycle and a seeded sample cold; count mismatches."""
        from repro.exp.cache import clear_caches

        picks = set(range(min(5, len(self.done))))
        rng = random.Random(f"engine-kernels-verify:{seed}")
        picks.update(rng.sample(range(len(self.done)), min(VERIFY_EXTRA, len(self.done))))
        clear_caches()
        bad = 0
        for i in sorted(picks):
            kind, request, digest = self.done[i]
            bad += result_digest(kind, call(kind, request)) != digest
        return bad

    def first_cycle_digest(self) -> str:
        joined = "".join(d for _, _, d in self.done[:5])
        return hashlib.sha256(joined.encode()).hexdigest()[:16]


def _cache_totals() -> tuple[int, int, int]:
    """(hits, misses over every exp cache, decoder_for misses)."""
    from repro.exp.cache import cache_stats

    stats = cache_stats()
    return (
        sum(s["hits"] for s in stats.values()),
        sum(s["misses"] for s in stats.values()),
        stats["decoder_for"]["misses"],
    )


def mix_codes() -> list[tuple[str, int]]:
    return sorted(set(SWEEP_CODES) | {(f, m) for f, m, _ in ROTATION})


def warmup_ops():
    """One small call of each op kind: lazy imports and first-call set-up."""
    from repro import api
    from repro.exp.designpoint import DesignPoint

    family, length, trace = ROTATION[0]
    return (
        ("sweep", api.SweepRequest(points=(DesignPoint.make(family, length),),
                                   metrics=SWEEP_METRICS)),
        ("marginmc", api.McRequest("marginmc", family, length, samples=64)),
        ("cavemc", api.McRequest("cavemc", family, length, samples=64)),
        ("memsim", api.WorkloadRequest(family, length, accesses=64, instances=1)),
        ("readout", api.WorkloadRequest(family, length, accesses=8, instances=1,
                                        readout="float")),
    )


def _setup() -> tuple[list[float], list[float]]:
    """Cold starts in fresh processes: (walls, code construction times)."""
    script = str(Path(__file__).resolve().parent / "coldstart.py")
    walls, codes = [], []
    for _ in range(SETUP_REPEATS):
        child = harness.run_child([sys.executable, script])
        if child.returncode != 0:
            raise harness.BenchError(f"engine cold start failed: {child.stderr[-500:]}")
        walls.append(child.wall_s)
        codes.append(json.loads(child.stdout)["codes_s"])
    return walls, codes


def _input_properties(phase: Phase, before, after) -> dict:
    hits, misses, decoder_misses = (a - b for a, b in zip(after, before))
    points = sum(work(k, r) for k, r, _ in phase.done if k == "sweep")
    return {
        "exp.points": points,
        "exp.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "exp.point_miss_share": decoder_misses / points if points else 0.0,
        "workload.bank_cache_hit_ratio": phase.bank_hit_ratio(),
    }


def run(seed: int, seconds: float, trace: bool, host: harness.HostSpeed) -> dict:
    import repro.api  # noqa: F401  (the import is not part of any op)

    setups, codes = _setup()
    for kind, request in warmup_ops():
        call(kind, request)
    mix = Mix(seed)
    if trace:
        return _traced(mix, seed, seconds, codes, host)
    phase = Phase(mix, host)
    before = _cache_totals()
    phase.measure(seconds)
    props = _input_properties(phase, before, _cache_totals())
    failed = phase.verify(seed)
    values, note = phase.ops.e2e(statistics.median(setups), harness.peak_rss_of(os.getpid()))
    lines = [
        note,
        "setup_s: median of " + ", ".join(f"{s:.4f}" for s in setups)
        + " s (fresh process: import repro.api, build every code the mix uses cold,"
        + " one small call of each op kind)",
        f"results digest of the first cycle: {phase.first_cycle_digest()}",
        "per kind:",
        *phase.ops.kind_table(),
        f"  rates: sweep {phase.rate('sweep'):.1f} points/s, "
        f"mc {phase.rate('marginmc', 'cavemc'):.0f} trials/s, "
        f"memsim {phase.rate('memsim'):.0f} accesses/s, "
        f"readout {phase.rate('readout'):.1f} accesses/s",
        "input properties: "
        + ", ".join(f"{k} {v:.4g}" for k, v in props.items() if k != "exp.points"),
    ]
    return {"ops": phase.ops, "failed": failed, "values": values, "lines": lines}


def _traced(mix: Mix, seed: int, seconds: float, codes, host) -> dict:
    plain = Phase(mix, host)
    plain.measure(seconds / 2)
    tracer = tracing.Tracer()
    traced = Phase(mix, host, tracer)
    before = _cache_totals()
    tracing.install(tracer)
    try:
        traced.measure(seconds / 2)
    finally:
        tracer.restore()
    values = _input_properties(traced, before, _cache_totals())
    failed = plain.verify(seed) + traced.verify(seed)
    values.update(tracing.accounting(tracer, plain.ops, traced.ops))
    def busy(kind):
        return sum(r[1] for r in traced.ops.records if r[0] == kind)

    def units(*kinds):
        return sum(work(k, r) for k, r, _ in traced.done if k in kinds)

    values.update(
        {
            "codes.build_s": statistics.median(codes),
            "sim.trials": units("marginmc", "cavemc"),
            "workload.ideal_busy_s": busy("memsim"),
            "workload.electrical_busy_s": busy("readout"),
            "workload.accesses": units("memsim", "readout"),
            "rate.mc_trials_per_s": plain.rate("marginmc", "cavemc"),
            "rate.memsim_accesses_per_s": plain.rate("memsim"),
            "rate.readout_accesses_per_s": plain.rate("readout"),
        }
    )
    ops = Ops()
    ops.records = plain.ops.records + traced.ops.records
    lines = ["per-layer self time of the traced half:", *tracing.table(values)]
    return {"ops": ops, "failed": failed, "values": values, "lines": lines, "tracer": tracer}
