"""Process, daemon and statistics helpers shared by the workloads.

Every run is hermetic: the ``REPRO_*`` environment variables that change
behaviour are cleared, each run works in a fresh directory under
``.bench_build/perfbench/`` of the checkout (store, socket and shard job
directories all live there), bytecode goes to a cache prefix in the same
tree, and every process the run starts is waited for before it ends.
"""

from __future__ import annotations

import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
PYCACHE = BUILD / "pycache"

#: Environment variables that alter what ``repro`` computes or where.
CLEARED_ENV = ("REPRO_STORE", "REPRO_FAULTS", "REPRO_FAULT_EPOCH")

#: Percentiles considered for the reported tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, dead daemon...)."""


def check_sources() -> None:
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(f"no repro sources under {SRC}")


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def prepare_process() -> None:
    """Make this process see the same sources and environment as its children."""
    check_sources()
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    sys.pycache_prefix = str(PYCACHE)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def compile_bytecode() -> None:
    """Compile the package once, untimed, so no measured run pays for it."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC), str(ROOT / "perfbench")],
        env=child_env(),
        check=True,
        stdout=subprocess.DEVNULL,
    )


@contextmanager
def run_dir():
    """A fresh working directory for one run, entered, removed afterwards."""
    BUILD.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD))
    cwd = os.getcwd()
    os.chdir(path)
    try:
        yield path
    finally:
        os.chdir(cwd)
        shutil.rmtree(path, ignore_errors=True)


class Child:
    """Outcome of one child process: wall time, output and peak RSS."""

    __slots__ = ("start", "end", "returncode", "stdout", "stderr", "rss_mb")

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def run_child(argv: list[str], timeout: float = 120.0) -> Child:
    """Run one process to completion; wall covers spawn to reap.

    ``os.wait4`` reaps the child so its own peak RSS (``ru_maxrss``)
    is known, not the maximum over every child this process has had.
    """
    out = Child()
    with tempfile.TemporaryFile() as err:
        out.start = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=child_env(), stdout=subprocess.PIPE, stderr=err
        )
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            stdout = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        out.end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        out.stderr = err.read().decode(errors="replace")
    out.returncode = proc.returncode
    out.stdout = stdout.decode(errors="replace")
    out.rss_mb = usage.ru_maxrss / 1024.0
    return out


def repro_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", *args]


def peak_rss_of(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


class Daemon:
    """A ``repro serve --store`` process, with a guaranteed teardown.

    The socket path is relative to the run directory, which is the
    working directory of this process and of every child: a unix socket
    path must fit in ~100 bytes, and the checkout's path may not.
    """

    def __init__(self, name: str):
        self.dir = Path(name)
        self.dir.mkdir()
        self.socket = str(self.dir / "serve.sock")
        self.store = self.dir.resolve() / "store"
        self.proc: subprocess.Popen | None = None

    def start(self, timeout: float = 60.0) -> None:
        from repro.serve.client import ServeError

        self.proc = subprocess.Popen(
            repro_argv(
                "serve", "--socket", self.socket, "--store", str(self.store), "--jobs", "1"
            ),
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise BenchError(f"daemon exited with {self.proc.returncode}")
            if Path(self.socket).exists():
                try:
                    with self.client() as client:
                        client.ping()
                    return
                except (ServeError, OSError):
                    pass
            if time.monotonic() > deadline:
                raise BenchError("daemon did not answer a ping in time")
            time.sleep(0.005)

    def client(self):
        from repro.serve.client import ServeClient

        return ServeClient(self.socket, timeout=120.0, retries=0)

    def peak_rss_mb(self) -> float:
        return peak_rss_of(self.proc.pid)

    def stop(self) -> None:
        """``shutdown`` op, then SIGTERM, then SIGKILL; always reaped."""
        if self.proc is None:
            return
        from repro.serve.client import ServeError

        proc, self.proc = self.proc, None
        try:
            with self.client() as client:
                client.shutdown()
        except (ServeError, OSError):
            pass
        for sig in (None, signal.SIGTERM, signal.SIGKILL):
            if sig is not None:
                proc.send_signal(sig)
            try:
                proc.wait(timeout=10.0)
                break
            except subprocess.TimeoutExpired:
                continue
        proc.wait()
        if Path(self.socket).exists():
            raise BenchError(f"daemon left its socket behind: {self.socket}")


def setup_daemon(repeats: int, prime) -> tuple[Daemon, list[float]]:
    """Start a fresh daemon and ``prime`` it, ``repeats`` times over.

    Returns the last daemon, still running, and the time each set-up
    took; the earlier daemons are stopped.  The caller stops the last.
    """
    daemon, times = None, []
    try:
        for i in range(repeats):
            if daemon is not None:
                daemon.stop()
            t0 = time.perf_counter()
            daemon = Daemon(f"s{i}")
            daemon.start()
            prime(daemon)
            times.append(time.perf_counter() - t0)
    except BaseException:
        if daemon is not None:
            daemon.stop()
        raise
    return daemon, times


SERVE_COUNTERS = (
    "requests", "store_hits", "coalesced", "batch_groups", "batched_requests",
    "computed", "errors", "rejected_busy", "deadline_exceeded",
)


def serve_stats(client, stats: dict) -> dict:
    """Daemon counters, store counters and the median ``ping`` round trip."""
    pings = []
    for _ in range(50):
        t = time.perf_counter()
        client.ping()
        pings.append(time.perf_counter() - t)
    server, store = stats["server"], stats["store"]
    lookups = store["hits"] + store["misses"]
    values = {f"serve.{k}": server[k] for k in SERVE_COUNTERS}
    values.update(
        {
            "serve.ping_ms": statistics.median(pings) * 1e3,
            "store.hits": store["hits"],
            "store.misses": store["misses"],
            "store.puts": store["puts"],
            "store.corrupt": store["corrupt"],
            "store.hit_ratio": store["hits"] / lookups if lookups else 0.0,
        }
    )
    return values


# -- statistics ----------------------------------------------------------------


def median(values) -> float:
    return statistics.median(values)


def percentile(values, p: float) -> tuple[float, int]:
    """Linearly interpolated percentile (``p`` in 0..100) and the number
    of samples above its position; the 50th is the median."""
    data = sorted(values)
    pos = p / 100.0 * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo), len(data) - 1 - lo


def tail(values) -> tuple[float, float, int]:
    """The highest ladder percentile with at least 10 samples beyond it.

    Returns ``(value, percentile, beyond)``.  Below 20 samples not even
    the median has 10 beyond it; the median is then reported.
    """
    for p in TAIL_LADDER:
        value, beyond = percentile(values, p)
        if beyond >= 10 or p == 50.0:
            return value, p, beyond
    raise AssertionError("the ladder ends at the median")


#: Reference-loop time, in ms, of the host the scaled metrics are expressed on.
NOMINAL_REFERENCE_MS = 10.0


def reference_loop_ms() -> float:
    """Time of a fixed pure-Python loop, in ms (~10 ms on the tuning host)."""
    t0 = time.perf_counter()
    total = 0
    for i in range(250_000):
        total += i
    return (time.perf_counter() - t0) * 1e3


class HostSpeed:
    """How fast the host runs this process right now, sampled through a run.

    On shared hosts the machine's speed swings by tens of percent for
    minutes at a time, which no amount of work inside one run averages
    out.  A run samples a fixed pure-Python loop at idle points (never
    while an op is in flight), and reports its end-to-end times scaled to a host
    whose loop takes :data:`NOMINAL_REFERENCE_MS`: ``scale`` is nominal
    over the measured median.  The unscaled values are printed beside
    them.  Background CPU load a change adds to the measured processes
    also slows the loop, so such a load is partly hidden by the scaled
    figures and shows in the unscaled ones.
    """

    MIN_GAP_S = 2.0

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        self.samples.append(median(reference_loop_ms() for _ in range(5)))
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        """Sample unless the last sample is under ``MIN_GAP_S`` old."""
        if time.perf_counter() - self._last >= self.MIN_GAP_S:
            self.sample()

    @property
    def reference_ms(self) -> float:
        return median(self.samples)

    @property
    def scale(self) -> float:
        return NOMINAL_REFERENCE_MS / self.reference_ms

    def describe(self, applied: float) -> str:
        return (
            f"host reference loop: median {self.reference_ms:.2f} ms over "
            f"{len(self.samples)} samples (min {min(self.samples):.2f}, max "
            f"{max(self.samples):.2f}); end-to-end times scaled by {applied:.4f}"
        )


class Deadline:
    """The measured window of one run: ``--seconds`` from ``start()``."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.t0 = 0.0

    def start(self) -> None:
        self.t0 = time.perf_counter()

    def expired(self) -> bool:
        return time.perf_counter() - self.t0 >= self.seconds

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0
