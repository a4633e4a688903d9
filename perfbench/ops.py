"""Per-op bookkeeping and the end-to-end metrics every workload reports."""

from __future__ import annotations

import threading

from harness import median, tail


class Ops:
    """Completed operations of one measured phase (thread-safe)."""

    def __init__(self):
        self.records: list[tuple[str, float, bool, int]] = []
        self._lock = threading.Lock()
        self.elapsed_s = 0.0

    def add(self, kind: str, latency_s: float, ok: bool, points: int = 0) -> None:
        with self._lock:
            self.records.append((kind, latency_s, ok, points))

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if not r[2])

    def latencies(self, kind: str | None = None) -> list[float]:
        return [r[1] for r in self.records if kind is None or r[0] == kind]

    def kind_median(self, kind: str) -> float:
        values = self.latencies(kind)
        return median(values) if values else 0.0

    def e2e(self, setup_s: float, peak_rss_mb: float) -> tuple[dict, str]:
        """The end-to-end metric values plus a line stating the tail."""
        lat = self.latencies()
        tail_s, tail_p, beyond = tail(lat)
        sweep = [(r[1], r[3]) for r in self.records if r[3] > 0]
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "ops_per_s": (self.attempted - self.failed) / self.elapsed_s,
            "op_p50_ms": median(lat) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "sweep_points_per_s": (
                sum(p for _, p in sweep) / sum(t for t, _ in sweep) if sweep else 0.0
            ),
        }
        note = (
            f"op_tail_ms is p{tail_p:g} of {len(lat)} ops "
            f"({beyond} beyond it); measured window {self.elapsed_s:.2f} s"
        )
        return values, note

    def kind_table(self) -> list[str]:
        kinds = sorted({r[0] for r in self.records})
        lines = []
        for kind in kinds:
            lat = self.latencies(kind)
            lines.append(
                f"  {kind:<14} n={len(lat):<5} p50={median(lat) * 1e3:10.3f} ms"
                f"  max={max(lat) * 1e3:10.3f} ms"
            )
        return lines
