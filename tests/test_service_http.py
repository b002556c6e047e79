"""The service's HTTP surface and Python client over a real socket.

A stub-backed daemon on an ephemeral port covers every endpoint —
submit, list, poll, result, NDJSON stream, cancel, fork, health, stats —
plus the structured error bodies (400/404/409).  One final smoke test
drives the real runner factory end to end on a tiny scenario, the only
test in this file that simulates anything.
"""

import json
import socket
import threading
import urllib.request
from urllib.parse import urlparse

import pytest

from repro.api.scenario import Scenario
from repro.service import JobManager, ServiceClient, ServiceError, make_server
from repro.service.http import MAX_BODY_BYTES
from tests.test_service import StubFactory, make_scenario


@pytest.fixture
def service():
    """(manager, client) around a stub-backed daemon on an OS-picked port."""
    manager = JobManager(runner_factory=StubFactory(), max_workers=2)
    server = make_server(manager, port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    yield manager, ServiceClient(f"http://{host}:{port}", timeout=10.0)
    server.shutdown()
    server.server_close()
    manager.shutdown(cancel_running=True)


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
