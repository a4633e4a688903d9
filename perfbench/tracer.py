"""In-memory span recorder for the traced benchmark runs.

Spans are recorded from the benchmark's own files only: :func:`install`
wraps the public functions of each ``repro`` layer (module functions,
class methods) in place, so every call made by the CLI, the facade, the
daemon or the engines opens a span named ``<layer>.<call>``.  Nothing in
``src/`` is edited; :meth:`Tracer.restore` puts the originals back.

A span is ``(id, name, start, end, parent, rid, thread)``.  ``parent``
is the innermost span open on the same thread; ``rid`` is the request
id (a request digest where the call reveals one, else inherited from
the parent).  Times are ``time.perf_counter()`` readings, which on
Linux come from ``CLOCK_MONOTONIC`` and are therefore comparable across
processes: spans a child process writes (see ``probe.py``) are absorbed
into the parent's tree unchanged.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import threading
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "rid", "thread")

    def __init__(self, id, name, start, end=None, parent=None, rid=None, thread=0):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.rid = rid
        self.thread = thread

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Thread-safe span store with a per-thread stack for parents."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next = 0
        self._patched: list[tuple[object, str, object]] = []

    def _new_id(self) -> int:
        with self._lock:
            self._next += 1
            return self._next

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rid: str | None = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        s = Span(
            self._new_id(),
            name,
            time.perf_counter(),
            parent=parent.id if parent else None,
            rid=rid if rid is not None else (parent.rid if parent else None),
            thread=threading.get_ident(),
        )
        stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(s)

    def add(self, name, start, end, *, parent=None, rid=None) -> Span:
        """Record a span measured elsewhere (e.g. around a child process)."""
        s = Span(self._new_id(), name, start, end, parent, rid)
        with self._lock:
            self.spans.append(s)
        return s

    def absorb(self, records: list[dict], parent: int) -> None:
        """Adopt spans a child process wrote; its roots hang off ``parent``."""
        remap = {}
        for rec in sorted(records, key=lambda r: r["id"]):
            remap[rec["id"]] = s = self.add(
                rec["name"],
                rec["start"],
                rec["end"],
                parent=remap[rec["parent"]].id if rec["parent"] in remap else parent,
                rid=rec["rid"],
            )
            s.thread = rec["thread"]

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn, name: str, rid_of=None):
        """``fn`` inside a span; ``rid_of(args, result)`` names its request."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as s:
                result = fn(*args, **kwargs)
                if rid_of is not None:
                    s.rid = rid_of(args, result)
                return result

        return wrapper

    def resolve_rids(self) -> None:
        """Turn request objects kept as request ids into their digests."""
        digests = {}
        for s in self.spans:
            if s.rid is not None and not isinstance(s.rid, str):
                key = id(s.rid)
                if key not in digests:
                    canonical = s.rid.canonical().encode()
                    digests[key] = hashlib.sha256(canonical).hexdigest()
                s.rid = digests[key]

    def patch(self, owner, attr: str, name: str, rid_of=None) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(raw.__func__, name, rid_of))
        else:
            new = self.wrap(raw, name, rid_of)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(s.to_dict()) + "\n")


def _rid_digest_arg(args, result):
    return args[1]


def _rid_request_arg(args, result):
    return args[0]


def _rid_result(args, result):
    return result


#: Layers whose self time ``<layer>.self_s`` a traced run reports.
SELF_LAYERS = ("startup", "cli", "api", "exp", "codes", "sim", "workload", "store", "dist")

#: The public calls wrapped per layer: (module, class or None, attr, span,
#: request id).  A request id is a digest, or a request object whose digest
#: :meth:`Tracer.resolve_rids` computes after the run, off the clock.
WRAPPED_CALLS = (
    ("repro.api", None, "request_digest", "api.digest", _rid_result),
    ("repro.api", None, "parse_request", "api.parse", _rid_result),
    ("repro.api", "SweepRequest", "from_dict", "api.parse", _rid_result),
    ("repro.api", "McRequest", "from_dict", "api.parse", _rid_result),
    ("repro.api", "WorkloadRequest", "from_dict", "api.parse", _rid_result),
    ("repro.api", None, "sweep_result_to_dict", "api.encode", None),
    ("repro.api", None, "mc_result_to_dict", "api.encode", None),
    ("repro.api", "WorkloadResult", "to_dict", "api.encode", None),
    ("repro.api", None, "evaluate", "api.evaluate", _rid_request_arg),
    ("repro.api", None, "simulate", "api.simulate", _rid_request_arg),
    ("repro.api", None, "memsim", "api.memsim", _rid_request_arg),
    ("repro.api", None, "evaluate_records", "exp.evaluate_records", None),
    ("repro.api", None, "simulate_margin_yield", "sim.margin_yield", None),
    ("repro.api", None, "simulate_cave_yield", "sim.cave_yield", None),
    ("repro.codes.registry", None, "make_code", "codes.make_code", None),
    ("repro.workload", None, "prepare_workload", "workload.prepare", None),
    ("repro.workload.memory_batch", "MemoryFleet", "run", "workload.run", None),
    ("repro.store.core", "ResultStore", "get", "store.get", _rid_digest_arg),
    ("repro.store.core", "ResultStore", "contains", "store.contains", _rid_digest_arg),
    ("repro.store.core", "ResultStore", "put", "store.put", _rid_digest_arg),
    ("repro.dist", None, "plan_sweep_shards", "dist.plan", None),
    ("repro.dist", None, "write_job", "dist.write_job", None),
    ("repro.dist", None, "launch", "dist.launch", None),
    ("repro.dist", None, "merge_results", "dist.merge", None),
)


def install(tracer: Tracer) -> None:
    """Wrap every call in :data:`WRAPPED_CALLS` (undo with ``restore``)."""
    for module, cls, attr, name, rid_of in WRAPPED_CALLS:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        tracer.patch(owner, attr, name, rid_of)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per span: its duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent in by_id:
            p = by_id[s.parent]
            children.setdefault(p.id, []).append(
                (max(s.start, p.start), min(s.end, p.end))
            )
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted(children.get(s.id, ())):
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


def _link_by_rid(spans: list[Span]) -> None:
    """Hang parentless spans of another thread under the op with their rid.

    The daemon's event-loop and executor threads serve requests the
    client threads opened ``op.*`` spans for; where a call reveals the
    request digest (``store.get``, ``api.digest``) it becomes a child of
    the op span with that digest that was open at the time.
    """
    roots: dict[str, list[Span]] = {}
    for s in spans:
        if s.name.startswith("op.") and s.rid is not None:
            roots.setdefault(s.rid, []).append(s)
    for s in spans:
        if s.parent is None and not s.name.startswith("op.") and s.rid in roots:
            for root in roots[s.rid]:
                if root.start <= s.start and s.end <= root.end:
                    s.parent = root.id
                    break


def span_median(spans: list[Span], name: str, root: str | None = None) -> float:
    """Median duration of the spans called ``name`` (0 if there are none),
    optionally only those under an op span called ``root``."""
    by_id = {s.id: s for s in spans}

    def root_name(s: Span) -> str:
        while s.parent in by_id:
            s = by_id[s.parent]
        return s.name

    durations = sorted(
        s.duration
        for s in spans
        if s.name == name and (root is None or root_name(s) == root)
    )
    return durations[len(durations) // 2] if durations else 0.0


def accounting(tracer: Tracer, plain, traced) -> dict:
    """Per-layer self times and the traced-vs-untraced reconciliation.

    ``trace.wall_s`` sums the ``op.*`` spans; ``trace.remainder_s`` is
    that wall minus every other span's self time, so the layers' self
    times plus the remainder add up to the traced wall exactly.  The
    untraced half of the run gives ``trace.overhead_pct``: mean op time
    traced over untraced, minus one.
    """
    tracer.resolve_rids()
    spans = [s for s in tracer.spans if s.end is not None]
    _link_by_rid(spans)
    own = self_times(spans)
    per_layer = {layer: 0.0 for layer in SELF_LAYERS}
    for s in spans:
        if s.layer in per_layer:
            per_layer[s.layer] += own[s.id]
    wall = sum(s.duration for s in spans if s.layer == "op")
    inner = sum(own[s.id] for s in spans if s.layer != "op")
    plain_mean = sum(plain.latencies()) / max(len(plain.latencies()), 1)
    traced_mean = sum(traced.latencies()) / max(len(traced.latencies()), 1)
    values = {f"{layer}.self_s": t for layer, t in per_layer.items()}
    values.update(
        {
            "trace.wall_s": wall,
            "trace.remainder_s": wall - inner,
            "trace.overhead_pct": (traced_mean / plain_mean - 1.0) * 100.0
            if plain_mean
            else 0.0,
            "trace.spans": len(spans),
            "api.digest_us": span_median(spans, "api.digest") * 1e6,
            "api.parse_us": span_median(spans, "api.parse") * 1e6,
            "api.encode_us": span_median(spans, "api.encode") * 1e6,
            "store.get_us": span_median(spans, "store.get") * 1e6,
            "store.put_ms": span_median(spans, "store.put") * 1e3,
            "exp.evaluate_busy_s": sum(
                s.duration for s in spans if s.name == "exp.evaluate_records"
            ),
            "sim.busy_s": sum(s.duration for s in spans if s.layer == "sim"),
        }
    )
    return values


def table(values: dict) -> list[str]:
    """Human-readable per-layer self-time table of a traced run."""
    wall = values["trace.wall_s"]
    lines = [f"  {'layer':<10} {'self s':>10} {'share':>7}"]
    for layer in SELF_LAYERS:
        t = values[f"{layer}.self_s"]
        lines.append(f"  {layer:<10} {t:10.4f} {100 * t / wall if wall else 0:6.1f}%")
    rem = values["trace.remainder_s"]
    lines.append(f"  {'remainder':<10} {rem:10.4f} {100 * rem / wall if wall else 0:6.1f}%")
    lines.append(
        f"  {'op wall':<10} {wall:10.4f}  (tracing overhead "
        f"{values['trace.overhead_pct']:+.1f}% of op time, {values['trace.spans']} spans)"
    )
    return lines
