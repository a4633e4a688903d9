"""Workload ``serve-mix``: two closed-loop clients on a ``repro serve`` daemon.

The daemon runs ``--store`` with ``--jobs 1`` in its own process (in the
traced run it is hosted in this process by ``ReproServer.running()``, on
both halves).  Two threads, each with one blocking ``ServeClient``
connection, send their next request as soon as the last one returned;
closed, because ``--via`` callers each wait for their reply.  The two
take turns, so one request is in flight at a time, except the joint
pairs below, which both send at once: hits then measure the store-read
path and misses the compute, window and commit, not whether the other
client's compute or reply parsing held a core or a GIL at that moment
(when both sent freely, ``op_p50_ms`` spread by 0.3-0.4 of its median
from run to run).
This process and the daemon are pinned to one core: a request's two
wake-ups are then local context switches, not cross-core wake-ups, whose
cost on a shared virtual machine follows the neighbours' load (pinned,
hits were 20-30% faster and their run-to-run spread roughly halved).

Each client draws from its own seeded stream, dealing the kinds from a
shuffled deck of 100 so every run gets the same mix:

* 85% a request of the hot set setup committed to the store (8 sweeps
  of 6 points, 4 marginmc of 2048 trials, 4 ideal memsim of 20k x 4):
  a store read;
* 6% a fresh sweep of 1-3 points, 4% a fresh marginmc of 2048 trials,
  5% a fresh ideal memsim of 20k x 4: compute, then commit;
* every 20th request is sent by both clients at once, after a barrier:
  alternately the same fresh request (coalescing) and two different
  sweeps on one spec, metrics and params (batching).

Store hits are then ~80% of all requests, so ``op_p50_ms`` lies well
inside the hits (with 70% hot requests it sat in their upper tail and
jumped with the host's speed) and ``op_tail_ms`` among the misses.

The window is measured in slices of ``SLICE_S``: between slices both
clients close their connections, nothing is in flight, and the host's
speed is sampled (``harness.HostSpeed``).  Every op, the daemon's and
the clients', is CPU work in a Python process, so its time follows the
host's speed as the other workloads' do, and the end-to-end times are
scaled the same way.  Each slice starts the request streams afresh from
the seed and its index, so both clients meet at every joint request.

Checks: every joint response and a seeded 5% of the others (at most 60)
must equal ``repro.api`` run in this process on the same request with no
store.  A request that errors counts as failed.
"""

from __future__ import annotations

import hashlib
import os
import random
import statistics
import threading
import time

import engine_kernels
import harness
import tracer as tracing
from ops import Ops

#: Seconds per slice; the host's speed is sampled between slices.
SLICE_S = 2.0
#: Offset between the request streams of consecutive slices.
SLICE_STRIDE = 10_000
SETUP_REPEATS = 3
HOT_SWEEPS, HOT_MC, HOT_MEMSIM = 8, 4, 4
#: Each client deals the kinds of its requests from a shuffled deck of 100.
DECK = ("hot",) * 85 + ("sweep",) * 6 + ("marginmc",) * 4 + ("memsim",) * 5
JOINT_EVERY = 20
MC_SAMPLES = 2048
MEMSIM_SIZE = (20_000, 4)
CODES = (("TC", 6), ("TC", 8), ("GC", 8), ("BGC", 6), ("BGC", 8), ("HC", 8))
VERIFY_SHARE, VERIFY_MAX = 0.05, 60


def _sweep(rng: random.Random, points: int):
    from repro import api
    from repro.exp.designpoint import DesignPoint

    return api.SweepRequest(
        points=tuple(
            DesignPoint.make(*rng.choice(CODES), sigma_t=round(rng.uniform(0.03, 0.07), 9))
            for _ in range(points)
        ),
        metrics=("yield", "area"),
    )


def _marginmc(rng: random.Random):
    from repro import api

    family, length = rng.choice(CODES)
    return api.McRequest("marginmc", family, length, samples=MC_SAMPLES,
                         seed=rng.randrange(2**31))


def _memsim(rng: random.Random):
    from repro import api

    family, length = rng.choice(CODES)
    return api.WorkloadRequest(family, length, accesses=MEMSIM_SIZE[0],
                               instances=MEMSIM_SIZE[1], seed=rng.randrange(2**31))


def hot_set(seed: int) -> list[tuple[str, object]]:
    rng = random.Random(f"serve-mix:{seed}:hot")
    return (
        [("sweep", _sweep(rng, 6)) for _ in range(HOT_SWEEPS)]
        + [("marginmc", _marginmc(rng)) for _ in range(HOT_MC)]
        + [("memsim", _memsim(rng)) for _ in range(HOT_MEMSIM)]
    )


def _fresh(rng: random.Random, kind: str):
    if kind == "sweep":
        return _sweep(rng, rng.randint(1, 3))
    return _marginmc(rng) if kind == "marginmc" else _memsim(rng)


def joint(seed: int, j: int, client: int):
    """Request ``j`` of the joint schedule, as client ``client`` sends it."""
    rng = random.Random(f"serve-mix:{seed}:joint:{j}")
    if j % 2 == 0:  # the same fresh request on both connections: coalescing
        kind = ("sweep", "marginmc")[(j // 2) % 2]
        return kind, _fresh(rng, kind)
    # every sweep shares one spec, metrics and params: two different ones batch
    return "sweep", _sweep(random.Random(f"serve-mix:{seed}:joint:{j}:{client}"), 2)


def send(client, kind: str, request):
    if kind == "sweep":
        return client.evaluate(request)
    if kind == "marginmc":
        return client.simulate(request)
    return client.memsim(request)


def digest(request) -> str:
    return hashlib.sha256(request.canonical().encode()).hexdigest()


class Phase:
    """One measured window driven by two client threads."""

    def __init__(self, seed: int, hot, connect, tracer=None, offset: int = 0):
        self.seed = seed
        self.hot = hot
        self.connect = connect
        self.tracer = tracer
        self.offset = offset  # keeps fresh streams distinct across phases
        self.ops = Ops()
        self.samples: list[tuple[str, object, str]] = []
        self._lock = threading.Lock()
        self._turn = threading.Lock()  # one request in flight, but for joint pairs
        self.errors: list[str] = []

    def measure(self, seconds: float, host: harness.HostSpeed | None = None) -> None:
        """Measure ``seconds`` in slices, sampling ``host`` around each."""
        slices = max(1, round(seconds / SLICE_S))
        for k in range(slices):
            if host is not None:
                host.sample()
            self.ops.elapsed_s += self._slice(seconds / slices, self.offset + k * SLICE_STRIDE)
        if host is not None:
            host.sample()

    def _slice(self, seconds: float, offset: int) -> float:
        deadline = harness.Deadline(seconds)
        barrier = threading.Barrier(2)
        threads = [
            threading.Thread(
                target=self._client, args=(c, offset, deadline, barrier), daemon=True
            )
            for c in range(2)
        ]
        deadline.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=seconds + 120)
        if any(t.is_alive() for t in threads):
            raise harness.BenchError("a serve-mix client did not finish")
        return deadline.elapsed()

    def _client(self, c: int, offset: int, deadline, barrier) -> None:
        rng = random.Random(f"serve-mix:{self.seed}:{offset}:{c}")
        verify_rng = random.Random(f"serve-mix-verify:{self.seed}:{offset}:{c}")
        deck: list[str] = []
        i = 0
        with self.connect() as client:
            while not deadline.expired():
                i += 1
                is_joint = i % JOINT_EVERY == 0
                if is_joint:
                    kind, request = joint(self.seed, offset + i // JOINT_EVERY, c)
                    try:
                        barrier.wait(timeout=60)
                    except threading.BrokenBarrierError:
                        break
                else:
                    if not deck:
                        deck = list(DECK)
                        rng.shuffle(deck)
                    kind = deck.pop()
                    if kind == "hot":
                        kind, request = rng.choice(self.hot)
                    else:
                        request = _fresh(rng, kind)
                sample = is_joint or verify_rng.random() < VERIFY_SHARE
                if is_joint:
                    self._op(client, kind, request, sample)
                else:
                    with self._turn:
                        self._op(client, kind, request, sample)
        barrier.abort()

    def _op(self, client, kind, request, sample: bool) -> None:
        from repro.serve.client import ServeError

        rid = digest(request) if self.tracer is not None else None
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                result = send(client, kind, request)
            else:
                with self.tracer.span("op.request", rid):
                    result = send(client, kind, request)
            ok = True
        except ServeError as exc:
            ok, result = False, None
            with self._lock:
                self.errors.append(f"{kind}: {exc}")
        latency = time.perf_counter() - t0
        outcome = "hit" if ok and client.last_cached else "miss"
        points = len(request.points) if kind == "sweep" else 0
        self.ops.add(f"{kind}.{outcome}", latency, ok, points)
        if ok and sample:
            with self._lock:
                if len(self.samples) < VERIFY_MAX:
                    self.samples.append(
                        (kind, request, engine_kernels.result_digest(kind, result))
                    )

    def mismatches(self) -> int:
        """Sampled responses that differ from ``repro.api`` in this process."""
        return sum(
            engine_kernels.result_digest(kind, engine_kernels.call(kind, request)) != want
            for kind, request, want in self.samples
        )

    def outcome_median_ms(self, outcome: str) -> float:
        values = [r[1] for r in self.ops.records if r[0].endswith("." + outcome)]
        return statistics.median(values) * 1e3 if values else 0.0


def _prime(connect, hot) -> None:
    with connect() as client:
        for kind, request in hot:
            send(client, kind, request)


def _shares(before: dict, after: dict) -> dict:
    d = {k: after["server"][k] - before["server"][k] for k in after["server"]}
    n = d["requests"] or 1
    return {
        "serve.hit_share": d["store_hits"] / n,
        "serve.coalesced_share": d["coalesced"] / n,
        "serve.batched_share": (d["batched_requests"] - d["batch_groups"]) / n,
    }


def _pin_to_one_core() -> None:
    """Pin this process, and so every child it starts, to one allowed core."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run(seed: int, seconds: float, trace: bool, host: harness.HostSpeed) -> dict:
    from repro import api  # noqa: F401  (imported before any measurement)

    _pin_to_one_core()

    hot = hot_set(seed)
    if trace:
        return _traced(seed, seconds, hot)
    # setup, several times: start the daemon and commit the hot set
    daemon, setups = harness.setup_daemon(SETUP_REPEATS, lambda d: _prime(d.client, hot))
    try:
        with daemon.client() as client:
            before = client.stats()
        phase = Phase(seed, hot, daemon.client)
        phase.measure(seconds, host)
        with daemon.client() as client:
            after = client.stats()
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    failed = phase.ops.failed + phase.mismatches()
    values, note = phase.ops.e2e(statistics.median(setups), rss)
    props = _shares(before, after)
    lines = [
        note,
        "setup_s: median of " + ", ".join(f"{s:.3f}" for s in setups)
        + f" s (daemon start to {len(hot)} hot requests committed)",
        f"serve_hit_p50_ms {phase.outcome_median_ms('hit'):.3f}, "
        f"serve_miss_p50_ms {phase.outcome_median_ms('miss'):.3f}",
        "per request kind:",
        *phase.ops.kind_table(),
        "input properties: " + ", ".join(f"{k} {v:.4f}" for k, v in props.items()),
        f"responses checked against repro.api in-process: {len(phase.samples)}",
        *phase.errors[:5],
    ]
    return {"ops": phase.ops, "failed": failed, "values": values, "lines": lines}


def _traced(seed: int, seconds: float, hot) -> dict:
    from pathlib import Path

    from repro.serve.client import ServeClient
    from repro.serve.daemon import ReproServer
    from repro.store import ResultStore

    Path("d").mkdir()
    server = ReproServer("d/serve.sock", store=ResultStore(Path("d/store").resolve()), jobs=1)

    def connect():
        return ServeClient("d/serve.sock", timeout=120.0, retries=0)

    tracer = tracing.Tracer()
    with server.running():
        _prime(connect, hot)
        plain = Phase(seed, hot, connect)
        plain.measure(seconds / 2)
        before = server.stats()
        traced = Phase(seed, hot, connect, tracer, offset=1_000_000)
        tracing.install(tracer)
        try:
            traced.measure(seconds / 2)
        finally:
            tracer.restore()
        after = server.stats()
        with connect() as client:
            values = harness.serve_stats(client, after)
        # let the daemon reap the closed connections before it stops, or
        # it cancels their handlers mid-close and logs the cancellation
        time.sleep(0.2)
    failed = plain.ops.failed + traced.ops.failed + plain.mismatches() + traced.mismatches()
    batch_wait = _batch_wait_ms(tracer)
    values.update(_shares(before, after))
    values.update(tracing.accounting(tracer, plain.ops, traced.ops))
    values.update(
        {
            "serve.batch_wait_ms": batch_wait,
            "serve.overhead_ms": values["trace.remainder_s"] * 1e3
            / max(traced.ops.attempted, 1),
            "serve.hit_p50_ms": plain.outcome_median_ms("hit"),
            "serve.miss_p50_ms": plain.outcome_median_ms("miss"),
        }
    )
    ops = Ops()
    ops.records = plain.ops.records + traced.ops.records
    lines = [
        "per-layer self time of the traced half (remainder: socket, framing, "
        "event loop and batch-window wait):",
        *tracing.table(values),
    ]
    return {"ops": ops, "failed": failed, "values": values, "lines": lines, "tracer": tracer}


def _batch_wait_ms(tracer) -> float:
    """Median time a sweep miss waited between its store miss and its engine call.

    A batch group's ``store.put`` calls run on the event loop right after
    the group's ``exp.evaluate_records`` call returns; each put's digest
    names a member, whose miss ended at its last ``store.get``.
    """
    spans = tracer.spans
    evals = sorted((s for s in spans if s.name == "exp.evaluate_records" and s.parent is None),
                   key=lambda s: s.end)
    gets: dict[str, list] = {}
    for s in spans:
        if s.name == "store.get" and s.parent is None:
            gets.setdefault(s.rid, []).append(s)
    waits = []
    for put in spans:
        if put.name != "store.put" or put.parent is not None:
            continue
        group = [e for e in evals if e.end <= put.start]
        if not group:
            continue
        engine = group[-1]
        misses = [g for g in gets.get(put.rid, ()) if g.end <= engine.start]
        if misses:
            waits.append(engine.start - max(g.end for g in misses))
    return statistics.median(waits) * 1e3 if waits else 0.0
