"""The service's HTTP surface and Python client over a real socket.

A stub-backed daemon on an ephemeral port covers every endpoint —
submit, list, poll, result, NDJSON stream, cancel, fork, health, stats —
plus the structured error bodies (400/404/409/500) and two injected
faults (a client hanging up mid-stream, a cancel that lands after the
last evaluation).  One smoke test
drives the real runner factory end to end on a tiny scenario, the only
test in this file that simulates anything, and one boots the real
``serve`` command in a child process to check its SIGTERM shutdown.
"""

import contextlib
import json
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import urllib.request
from pathlib import Path
from urllib.parse import urlparse

import pytest

from repro.api.scenario import Scenario
from repro.service import (
    JobManager,
    ServiceClient,
    ServiceError,
    SnapshotStore,
    make_server,
)
from repro.service.http import MAX_BODY_BYTES, ServiceHandler, ServiceServer
from tests.test_service import StubFactory, StubRunner, make_record, make_scenario


@contextlib.contextmanager
def served(manager):
    """A client for ``manager`` behind a daemon on an OS-picked port."""
    server = make_server(manager, port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    try:
        yield ServiceClient(f"http://{host}:{port}", timeout=10.0)
    finally:
        server.shutdown()
        server.server_close()
        manager.shutdown(cancel_running=True)


@pytest.fixture
def service():
    """(manager, client) around a stub-backed daemon on an OS-picked port."""
    manager = JobManager(runner_factory=StubFactory(), max_workers=2)
    with served(manager) as client:
        yield manager, client


class TestEndpoints:
    def test_health_and_stats(self, service):
        _, client = service
        health = client.health()
        assert health["status"] == "ok"
        assert set(health["jobs"]) == {
            "queued",
            "materializing",
            "searching",
            "done",
            "failed",
            "cancelled",
        }
        stats = client.stats()
        assert stats["n_jobs"] == 0
        assert stats["uptime_s"] >= 0

    def test_health_does_not_read_the_store(self, tmp_path, monkeypatch):
        """A liveness probe reads only the job table; the store, whose
        stats read every result file, is left to ``/stats``."""
        store = SnapshotStore(tmp_path)
        manager = JobManager(runner_factory=StubFactory(), store=store)
        with served(manager) as client:

            def unreadable():
                raise OSError("store unreadable")

            monkeypatch.setattr(store, "stats", unreadable)
            assert client.health()["status"] == "ok"
            monkeypatch.undo()
            assert client.stats()["store"] == {
                "root": str(tmp_path),
                "n_scenarios": 0,
                "n_results": 0,
            }

    def test_submit_poll_result_round_trip(self, service):
        _, client = service
        job = client.submit(make_scenario(), "ribbon", seed=2)
        assert job["id"].startswith("j0001-")
        final = client.wait(job["id"], timeout=10)
        assert final["state"] == "done"
        assert final["evaluations"] == 3
        body = client.result(job["id"])
        assert body["id"] == job["id"]
        assert body["result"]["method"] == "ribbon"
        assert body["result"]["best"]["cost_per_hour"] == pytest.approx(2.0)
        assert [j["id"] for j in client.jobs()] == [job["id"]]
        # The full single-job view carries the scenario document back.
        assert client.job(job["id"])["scenario"] == make_scenario().to_dict()

    def test_stream_ends_with_the_terminal_snapshot(self, service):
        _, client = service
        job = client.submit(make_scenario(), "ribbon")
        lines = list(client.stream(job["id"]))
        assert lines, "stream yielded nothing"
        assert lines[-1]["state"] == "done"
        assert lines[-1]["evaluations"] == 3
        # Versions strictly increase line to line: no duplicates, no gaps
        # backwards — the stream is a changelog, not a poll.
        versions = [line["version"] for line in lines]
        assert versions == sorted(set(versions))

    def test_stream_of_finished_job_is_one_line(self, service):
        _, client = service
        job = client.submit(make_scenario(), "ribbon")
        client.wait(job["id"], timeout=10)
        lines = list(client.stream(job["id"]))
        assert len(lines) == 1
        assert lines[0]["state"] == "done"

    def test_cancel_endpoint(self, service):
        manager, client = service
        job = client.submit(make_scenario(), "ribbon")
        snap = client.cancel(job["id"])
        assert snap["id"] == job["id"]
        final = client.wait(job["id"], timeout=10)
        assert final["state"] in ("cancelled", "done")  # may already have won

    def test_fork_endpoint(self, service):
        _, client = service
        parent = client.submit(make_scenario(), "ribbon", seed=1)
        client.wait(parent["id"], timeout=10)
        child = client.fork(parent["id"], load_factor=1.5, seed=7)
        assert child["forked_from"] == parent["id"]
        assert child["workload_changes"] == {"load_factor": 1.5}
        final = client.wait(child["id"], timeout=10)
        assert final["state"] == "done"
        assert final["seed"] == 7

    def test_reuse_over_http(self, service):
        _, client = service
        first = client.submit(make_scenario(), "ribbon", seed=0)
        client.wait(first["id"], timeout=10)
        again = client.submit(make_scenario(), "ribbon", seed=0)
        assert again["id"] == first["id"]
        fresh = client.submit(make_scenario(), "ribbon", seed=0, reuse=False)
        assert fresh["id"] != first["id"]

    def test_options_pass_through(self, service):
        _, client = service
        job = client.submit(make_scenario(), "ribbon", seed=0, batch_size=4)
        client.wait(job["id"], timeout=10)
        result = client.result(job["id"])["result"]
        assert result["metadata"]["batch_size"] == 4


class TestErrors:
    def test_bad_scenario_is_a_structured_400(self, service):
        _, client = service
        with pytest.raises(ServiceError) as err:
            client.submit({"model": "MT-WND", "workloud": {}}, "ribbon")
        assert err.value.status == 400
        assert err.value.error_type == "ScenarioError"
        assert "workloud" in err.value.message

    def test_missing_scenario_key_is_400(self, service):
        _, client = service
        with pytest.raises(ServiceError) as err:
            client._request("POST", "/jobs", {"strategy": "ribbon"})
        assert err.value.status == 400
        assert "scenario" in err.value.message

    def test_unknown_job_is_404(self, service):
        _, client = service
        for call in (
            lambda: client.job("j9999-missing"),
            lambda: client.result("j9999-missing"),
            lambda: client.cancel("j9999-missing"),
            lambda: client.fork("j9999-missing", load_factor=2.0),
        ):
            with pytest.raises(ServiceError) as err:
                call()
            assert err.value.status == 404
            assert err.value.error_type == "NotFound"

    def test_unknown_path_is_404(self, service):
        _, client = service
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/nope")
        assert err.value.status == 404

    def test_result_before_done_is_409(self, service):
        manager, client = service
        # A queued job behind a held worker can't have a result yet.
        import tests.test_service as ts

        gate = threading.Event()
        manager._runner_factory = ts.StubFactory(gate=gate)
        job = client.submit(make_scenario(), "ribbon")
        try:
            with pytest.raises(ServiceError) as err:
                client.result(job["id"])
            assert err.value.status == 409
            assert err.value.error_type == "ResultNotReady"
        finally:
            gate.set()

    def test_malformed_json_body_is_400(self, service):
        _, client = service
        req = urllib.request.Request(
            client.base_url + "/jobs",
            data=b"{not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=5)
        assert err.value.code == 400
        body = json.loads(err.value.read())
        assert body["error"]["type"] == "ScenarioError"

    def test_bad_fork_body_is_400(self, service):
        _, client = service
        parent = client.submit(make_scenario(), "ribbon")
        client.wait(parent["id"], timeout=10)
        with pytest.raises(ServiceError) as err:
            client._request(
                "POST", f"/jobs/{parent['id']}/fork", {"workload": "nope"}
            )
        assert err.value.status == 400

    @pytest.mark.parametrize("seed", ["abc", None, [1], True, 1.5, -1])
    def test_bad_seed_is_400_and_queues_nothing(self, service, seed):
        _, client = service
        body = {"scenario": make_scenario().to_dict(), "seed": seed}
        with pytest.raises(ServiceError) as err:
            client._request("POST", "/jobs", body)
        assert err.value.status == 400
        assert err.value.error_type == "ScenarioError"
        assert "seed" in err.value.message
        assert client.jobs() == []

    def test_bad_fork_seed_and_non_object_fork_body_are_400(self, service):
        _, client = service
        parent = client.submit(make_scenario(), "ribbon")
        client.wait(parent["id"], timeout=10)
        path = f"/jobs/{parent['id']}/fork"
        for body in (
            [{"workload": {"load_factor": 1.5}}],
            {"workload": {"load_factor": 1.5}, "seed": "abc"},
        ):
            with pytest.raises(ServiceError) as err:
                client._request("POST", path, body)
            assert err.value.status == 400
            assert err.value.error_type == "ScenarioError"
        assert [job["id"] for job in client.jobs()] == [parent["id"]]

    def test_oversized_bound_cap_is_400_and_queues_nothing(self, service):
        _, client = service
        doc = make_scenario().to_dict()
        doc["pool"]["bound_cap"] = 4_000_000
        with pytest.raises(ServiceError) as err:
            client.submit(doc, "ribbon")
        assert err.value.status == 400
        assert err.value.error_type == "ScenarioError"
        assert "bound_cap" in err.value.message
        assert client.jobs() == []

    def test_oversized_lattice_is_400_and_queues_nothing(self, service):
        _, client = service
        doc = make_scenario().to_dict()
        doc["pool"]["bounds"] = [1000, 1000]
        with pytest.raises(ServiceError) as err:
            client.submit(doc, "exhaustive")
        assert err.value.status == 400
        assert err.value.error_type == "ScenarioError"
        assert "1002000 cells" in err.value.message
        assert client.jobs() == []

    def test_unknown_option_is_400_and_queues_nothing(self):
        # The default factory's registry validator; nothing is simulated
        # because the submission is refused before queueing.
        manager = JobManager(max_workers=1)
        server = make_server(manager, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}", timeout=10.0)
        try:
            with pytest.raises(ServiceError) as err:
                client.submit(make_scenario(), "ribbon", bogus_knob=3)
            assert err.value.status == 400
            assert err.value.error_type == "ScenarioError"
            assert "bogus_knob" in err.value.message
            assert "batch_size" in err.value.message
            assert client.jobs() == []
        finally:
            server.shutdown()
            server.server_close()
            manager.shutdown(cancel_running=True)

    def test_stored_engine_option_restores_but_is_refused_anew(self, tmp_path):
        """A record written while ``proposal_engine`` was an option restores
        as a done job; submitting that option now is a structured 400."""
        store = SnapshotStore(tmp_path)
        store.append_result(make_scenario(), {
            "job_id": "j-old-engine", "strategy": "ribbon", "seed": 0,
            "options": {"proposal_engine": "qei"},
            "options_key": '{"proposal_engine": "qei"}',
            "submitted_at": 100.0, "started_at": 100.0, "finished_at": 101.0,
            "result": {"n_samples": 3, "best": None},
        })
        manager = JobManager(store=store, max_workers=1)
        server = make_server(manager, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}", timeout=10.0)
        try:
            restored = client.job("j-old-engine")
            assert restored["state"] == "done" and restored["restored"]
            with pytest.raises(ServiceError) as err:
                client.submit(make_scenario(), "ribbon", proposal_engine="qei")
            assert err.value.status == 400
            assert err.value.error_type == "ScenarioError"
            assert "'proposal_engine'" in err.value.message
            assert "accepted options" in err.value.message
            assert "batch_size" in err.value.message
            assert [job["id"] for job in client.jobs()] == ["j-old-engine"]
        finally:
            server.shutdown()
            server.server_close()
            manager.shutdown(cancel_running=True)

    @pytest.mark.parametrize(
        "length, status",
        [("-1", 400), ("abc", 400), ("1_0", 400), (str(MAX_BODY_BYTES + 1), 413)],
    )
    def test_bad_content_length_is_refused_unread(self, service, length, status):
        """A bad or oversized Content-Length is answered at once, before
        any body is read: ``-1`` would otherwise block the read until the
        client hangs up, and ``abc`` would surface as a 500."""
        _, client = service
        url = urlparse(client.base_url)
        with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
            sock.sendall(
                f"POST /jobs HTTP/1.1\r\nHost: {url.hostname}\r\n"
                f"Content-Length: {length}\r\n\r\n".encode()
            )
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split()[1] == str(status).encode()
        error = json.loads(body)["error"]
        assert error["type"] == "RequestBodyError"
        assert "invalid literal" not in error["message"]

    @pytest.mark.parametrize(
        "method, path, attr",
        [("GET", "/stats", "stats"), ("POST", "/jobs", "submit")],
    )
    def test_internal_error_hides_exception_text(
        self, service, monkeypatch, method, path, attr
    ):
        manager, client = service

        def boom(*args, **kwargs):
            raise RuntimeError("secret-path")

        monkeypatch.setattr(manager, attr, boom)
        body = json.dumps({"scenario": make_scenario().to_dict()}).encode()
        req = urllib.request.Request(
            client.base_url + path,
            data=body if method == "POST" else None,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=5)
        assert err.value.code == 500
        raw = err.value.read()
        assert b"secret-path" not in raw
        assert json.loads(raw) == {
            "error": {"type": "InternalError", "message": "internal server error"}
        }


class TestInjectedFaults:
    def test_client_disconnect_mid_stream(self, monkeypatch):
        """A client that hangs up mid-stream ends its handler quietly: the
        job still finishes and the daemon still answers."""
        ended = threading.Event()
        raised: list[type] = []
        escaped: list[object] = []
        stream = ServiceHandler._stream

        def watched_stream(handler, job):
            try:
                stream(handler, job)
            except BaseException as exc:
                raised.append(type(exc))
                raise
            finally:
                ended.set()

        monkeypatch.setattr(ServiceHandler, "_stream", watched_stream)
        monkeypatch.setattr(
            ServiceServer, "handle_error", lambda self, req, addr: escaped.append(addr)
        )
        gate = threading.Event()
        manager = JobManager(runner_factory=StubFactory(gate=gate), max_workers=1)
        with served(manager) as client:
            job = client.submit(make_scenario(), "ribbon")
            url = urlparse(client.base_url)
            sock = socket.create_connection((url.hostname, url.port), timeout=5)
            sock.sendall(
                f"GET /jobs/{job['id']}/stream HTTP/1.1\r\n"
                f"Host: {url.hostname}\r\n\r\n".encode()
            )
            reply = b""
            while b"\n" not in reply.partition(b"\r\n\r\n")[2]:
                reply += sock.recv(4096)
            # Close with a reset, so the handler's next write fails at once.
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            sock.close()
            gate.set()
            assert ended.wait(timeout=10.0)
            assert client.wait(job["id"], timeout=10)["state"] == "done"
            assert client.health()["status"] == "ok"
        assert raised and raised[0] in (BrokenPipeError, ConnectionResetError)
        assert escaped == []

    def test_cancel_after_the_last_evaluation_ends_done(self):
        """A cancel that lands after the last admitted evaluation, before
        the worker marks the job done, comes too late: the job ends done
        and its result is served."""
        last_admitted, release = threading.Event(), threading.Event()

        class PauseAfterLast(StubRunner):
            def run(self, strategy, **kwargs):
                result = super().run(strategy, **kwargs)
                last_admitted.set()
                assert release.wait(timeout=10.0), "test never released the run"
                return result

        manager = JobManager(runner_factory=PauseAfterLast, max_workers=1)
        with served(manager) as client:
            job = client.submit(make_scenario(), "ribbon")
            assert last_admitted.wait(timeout=10.0)
            assert client.cancel(job["id"])["state"] == "searching"
            release.set()
            final = client.wait(job["id"], timeout=10)
            assert final["state"] == "done"
            assert final["evaluations"] == 3
            assert client.result(job["id"])["result"]["n_samples"] == 3

    def test_runner_raising_mid_search_fails_the_job(self, tmp_path):
        """A runner that raises after two admitted evaluations: the job
        ends failed with the error text and keeps the progress it made,
        nothing reaches the snapshot store, and an identical resubmission
        searches again instead of reusing the failed job."""
        built = []

        class RaiseAfterTwo(StubRunner):
            def __init__(self, scenario):
                super().__init__(scenario)
                built.append(self)

            def run(self, strategy, *, seed=0, progress=None, **kwargs):
                for i in range(2):
                    progress(make_record(i, cost=3.0 - 0.5 * i))
                raise RuntimeError("simulator crashed")

        store = SnapshotStore(tmp_path)
        manager = JobManager(runner_factory=RaiseAfterTwo, store=store, max_workers=1)
        with served(manager) as client:
            job = client.submit(make_scenario(), "ribbon")
            final = client.wait(job["id"], timeout=10)
            assert final["state"] == "failed"
            assert final["error"] == "RuntimeError: simulator crashed"
            assert final["evaluations"] == 2
            assert final["best"]["cost_per_hour"] == 2.5
            assert manager.stats()["jobs_by_state"]["failed"] == 1
            again = client.submit(make_scenario(), "ribbon")
            assert again["id"] != job["id"] and not again["reused"]
            assert client.wait(again["id"], timeout=10)["state"] == "failed"
        assert len(built) == 2
        assert list(store.iter_results()) == []
        assert manager.stats()["jobs_by_state"]["failed"] == 2


class TestRealRunnerSmoke:
    def test_tiny_search_end_to_end(self):
        """The one simulating test: default factory, real search, stream."""
        manager = JobManager(max_workers=1)
        server = make_server(manager, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}", timeout=60.0)
        try:
            scenario = (
                Scenario.builder("MT-WND")
                .workload(n_queries=300, seed=2)
                .pool("g4dn", "t3", bounds=(4, 4))
                .budget(max_samples=5)
                .build()
            )
            job = client.submit(scenario, "random", seed=0)
            lines = list(client.stream(job["id"]))
            assert lines[-1]["state"] == "done"
            result = client.result(job["id"])["result"]
            # Distinct evaluations (repeat draws are memoized, so <= budget)
            # must agree between the final stream line and the result.
            assert 1 <= result["n_samples"] <= 5
            assert lines[-1]["evaluations"] == result["n_samples"]
            assert len(result["history"]) == result["n_samples"]
            # An unknown strategy 400s through the registry validator.
            with pytest.raises(ServiceError) as err:
                client.submit(scenario, "gradient-descent")
            assert err.value.status == 400
            assert err.value.error_type == "UnknownStrategyError"
        finally:
            server.shutdown()
            server.server_close()
            manager.shutdown(cancel_running=True)


class TestServeCommand:
    def test_sigterm_shuts_down_cleanly(self, tmp_path):
        """SIGTERM takes the same clean-shutdown path as Ctrl-C: exit 0
        after the "shutting down" line, not death by the signal."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                p for p in (str(src), os.environ.get("PYTHONPATH")) if p
            ),
            PYTHONUNBUFFERED="1",
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--snapshot-dir", str(tmp_path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            banner = proc.stdout.readline()
            assert "listening on http://" in banner, banner
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "shutting down" in out
