"""Integration tests for the repro serve daemon, protocol and client."""

import json
import socket
import threading
import uuid

import pytest

from repro import api
from repro.exp.designpoint import DesignPoint
from repro.serve import ReproServer, ServeClient, ServeError
from repro.serve.protocol import (
    check_frame_keys,
    decode_frame,
    encode_frame,
    iter_record_chunks,
    request_frame,
)
from repro.store import ResultStore


@pytest.fixture
def socket_path(tmp_path):
    # unix socket paths are limited to ~108 bytes; keep the name short
    path = tmp_path / f"s{uuid.uuid4().hex[:6]}.sock"
    if len(str(path)) > 100:
        path = f"/tmp/repro-{uuid.uuid4().hex[:8]}.sock"
    return str(path)


def raw_roundtrip(socket_path, frames):
    """Send ``frames`` in one write; return the terminal frame of each id."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(120)
        sock.connect(socket_path)
        sock.sendall(b"".join(encode_frame(f) for f in frames))
        answers = {}
        with sock.makefile("rb") as stream:
            while len(answers) < len(frames):
                frame = decode_frame(stream.readline())
                if frame["frame"] != "chunk":
                    answers[frame["id"]] = frame
    return answers


def mc_bytes(result) -> str:
    """Canonical text of one MC result dict (byte-for-byte comparison)."""
    if not isinstance(result, dict):
        result = api.mc_result_to_dict(result)
    return json.dumps(result, sort_keys=True)


def sweep_request(*families, length=6):
    points = tuple(DesignPoint.make(f, length) for f in families or ("TC", "GC"))
    return api.SweepRequest(points=points, metrics=("yield", "area"))


class TestProtocol:
    def test_frame_round_trip(self):
        frame = request_frame("evaluate", 3, {"kind": "sweep"}, jobs=2)
        assert decode_frame(encode_frame(frame)) == frame

    def test_none_knobs_dropped(self):
        frame = request_frame("simulate", 1, {}, chunk_size=None)
        assert "chunk_size" not in frame
        assert request_frame("simulate", 1, {}, chunk_size=8)["chunk_size"] == 8

    def test_unknown_frame_keys_rejected(self):
        check_frame_keys(request_frame("simulate", 1, {}, chunk_size=8))
        check_frame_keys(request_frame("evaluate", 1, {}, jobs=2))
        with pytest.raises(ValueError, match="unknown frame key.*method"):
            check_frame_keys(request_frame("simulate", 1, {}, method="loop"))
        with pytest.raises(ValueError, match="jobs"):
            check_frame_keys(request_frame("memsim", 1, {}, jobs=2))

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown op"):
            request_frame("bogus", 1)

    def test_non_object_frame_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            decode_frame(b"[1,2,3]\n")

    def test_record_chunking(self):
        records = [{"i": i} for i in range(5)]
        chunks = list(iter_record_chunks(records, 2))
        assert [len(c) for c in chunks] == [2, 2, 1]
        assert list(iter_record_chunks([], 2)) == [[]]


class TestDaemon:
    def test_ping_stats_shutdown(self, socket_path):
        server = ReproServer(socket_path)
        with server.running():
            with ServeClient(socket_path) as client:
                assert client.ping()
                stats = client.stats()
                assert stats["server"]["requests"] >= 1
                assert "store" not in stats  # no store configured
                client.shutdown()

    def test_evaluate_matches_direct(self, socket_path):
        req = sweep_request()
        direct = api.evaluate(req)
        with ReproServer(socket_path).running():
            with ServeClient(socket_path) as client:
                served = client.evaluate(req)
                assert client.last_cached is False
        assert served == direct
        assert served.fields == direct.fields

    def test_warm_request_served_from_store(self, socket_path, tmp_path):
        req = sweep_request()
        store = ResultStore(tmp_path / "store")
        with ReproServer(socket_path, store=store).running():
            with ServeClient(socket_path) as client:
                cold = client.evaluate(req)
                assert client.last_cached is False
                warm = client.evaluate(req)
                assert client.last_cached is True
                stats = client.stats()
        assert warm == cold
        assert stats["server"]["store_hits"] >= 1
        assert stats["store"]["hits"] >= 1

    def test_store_shared_between_daemon_and_direct_path(self, socket_path, tmp_path):
        req = sweep_request()
        store = ResultStore(tmp_path / "store")
        direct = api.evaluate(req, store=store)  # populate before the daemon
        with ReproServer(socket_path, store=store).running():
            with ServeClient(socket_path) as client:
                served = client.evaluate(req)
                assert client.last_cached is True
        assert served == direct

    def test_simulate_and_memsim_match_direct(self, socket_path):
        mc = api.McRequest(kind="marginmc", family="TC", total_length=6, samples=32)
        wl = api.WorkloadRequest(family="TC", total_length=6, accesses=128, instances=2)
        with ReproServer(socket_path).running():
            with ServeClient(socket_path) as client:
                assert client.simulate(mc) == api.simulate(mc)
                assert client.memsim(wl) == api.memsim(wl)

    def test_cavemc_loop_not_reported_cached(self, socket_path, tmp_path):
        """A frame still carrying ``method`` fails plainly, never answers."""
        req = api.McRequest(kind="cavemc", family="TC", total_length=6, samples=32)
        store = ResultStore(tmp_path / "store")
        server = ReproServer(socket_path, store=store)
        with server.running():
            with ServeClient(socket_path, retries=3, backoff_s=0.0) as client:
                client.simulate(req)  # commits the estimate
                requests = server.counters["requests"]
                with pytest.raises(ServeError, match="method") as excinfo:
                    client._roundtrip("simulate", req.to_dict(), method="loop")
                assert excinfo.value.kind is None  # plain, non-retryable
                assert server.counters["requests"] == requests + 1  # no retry
                assert client.ping()  # the connection survives the error
        assert server.counters["errors"] == 1

    def test_concurrent_cavemc_frames_match_direct(self, socket_path, tmp_path):
        """Direct call, coalesced daemon answers and a warm hit: one answer."""
        req = api.McRequest(kind="cavemc", family="BGC", total_length=8, samples=20000)
        direct = mc_bytes(api.simulate(req))
        server = ReproServer(socket_path, store=ResultStore(tmp_path / "store"))
        frame = dict(op="simulate", request=req.to_dict())
        with server.running():
            # both frames arrive in one write: the second coalesces onto
            # the first's in-flight computation
            cold = raw_roundtrip(
                socket_path, [dict(id=1, **frame), dict(id=2, **frame)]
            )
            warm = raw_roundtrip(socket_path, [dict(id=3, **frame)])
        assert server.counters["coalesced"] == 1
        assert [cold[1]["cached"], cold[2]["cached"], warm[3]["cached"]] == [
            False,
            False,
            True,
        ]
        for answer in (cold[1], cold[2], warm[3]):
            assert mc_bytes(answer["result"]) == direct

    def test_error_frame_for_bad_request(self, socket_path):
        with ReproServer(socket_path).running():
            with ServeClient(socket_path) as client:
                with pytest.raises(ServeError, match="unexpected request kind"):
                    client._roundtrip("evaluate", {"v": 1, "kind": "bogus"})
                assert client.ping()  # connection survives the error

    def test_identical_inflight_requests_coalesce(self, socket_path):
        req = sweep_request("TC", "GC", "BGC", length=8)
        server = ReproServer(socket_path, batch_window_s=0.05)
        results, errors = [], []

        def worker():
            try:
                with ServeClient(socket_path) as client:
                    results.append(client.evaluate(req))
            except Exception as exc:  # noqa: BLE001 — surfaced via the assert
                errors.append(exc)

        with server.running():
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        assert not errors
        assert len(results) == 4
        direct = api.evaluate(req)
        assert all(r == direct for r in results)
        assert server.counters["coalesced"] >= 1
        assert server.counters["computed"] + server.counters["coalesced"] >= 4

    def test_compatible_sweeps_batch_into_one_group(self, socket_path):
        # same spec/metrics/params, different point grids -> one engine call
        first = sweep_request("TC")
        second = sweep_request("GC")
        server = ReproServer(socket_path, batch_window_s=0.1)
        results = {}

        def worker(name, req):
            with ServeClient(socket_path) as client:
                results[name] = client.evaluate(req)

        with server.running():
            threads = [
                threading.Thread(target=worker, args=("tc", first)),
                threading.Thread(target=worker, args=("gc", second)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        assert results["tc"] == api.evaluate(first)
        assert results["gc"] == api.evaluate(second)
        if server.counters["batch_groups"] == 1:  # both landed in the window
            assert server.counters["batched_requests"] == 2

    def test_clean_shutdown_removes_socket(self, socket_path, tmp_path):
        import os

        server = ReproServer(socket_path)
        with server.running():
            with ServeClient(socket_path) as client:
                client.ping()
        assert not os.path.exists(socket_path)

    def test_stale_socket_file_replaced_on_start(self, socket_path):
        from pathlib import Path

        Path(socket_path).touch()  # debris from a killed daemon
        with ReproServer(socket_path).running():
            with ServeClient(socket_path) as client:
                assert client.ping()
