"""Stdlib-only HTTP front-end for the optimization service.

A thin :mod:`http.server` layer over :class:`~repro.service.jobs.
JobManager` — no web framework, no new dependencies.  Endpoints:

==========================  =====================================================
``GET  /health``            liveness + job counts
``GET  /stats``             manager/store statistics
``GET  /jobs``              all jobs (progress snapshots, submission order)
``POST /jobs``              submit ``{"scenario": {...}, "strategy": "ribbon",
                            "seed": 0, "options": {...}, "reuse": true}``
``GET  /jobs/<id>``         one job's full snapshot (scenario + cache stats)
``GET  /jobs/<id>/result``  the serialized SearchResult (409 until done)
``GET  /jobs/<id>/stream``  NDJSON progress stream: one snapshot line per
                            state/evaluation change, closing after the
                            terminal line
``POST /jobs/<id>/cancel``  cooperative cancellation
``POST /jobs/<id>/fork``    live load adaptation: ``{"workload":
                            {"load_factor": 1.5}, "seed": 3}`` forks the
                            job's runner (shared lattice + caches) onto
                            the changed workload
==========================  =====================================================

All responses are JSON.  Malformed scenarios surface as structured 400
bodies — ``{"error": {"type": "ScenarioError", "message": ...}}`` — with
the validation message produced by :meth:`Scenario.from_dict`, unknown
jobs as 404, results-not-ready as 409.  A ``Content-Length`` that is not
a non-negative integer is a 400, and one above :data:`MAX_BODY_BYTES` a
413; both are refused before any of the body is read.

The handler is deliberately free of optimization logic: everything it
does is translate HTTP to :class:`JobManager` calls, which is why the
entire API layer is unit-testable with a stub runner factory that never
simulates.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlparse

from repro.api.registry import UnknownStrategyError
from repro.api.scenario import ScenarioError
from repro.service.jobs import TERMINAL_STATES, JobManager

__all__ = ["MAX_BODY_BYTES", "ServiceHandler", "ServiceServer", "make_server"]

#: Largest request body the service reads, in bytes.
MAX_BODY_BYTES = 1 << 20


class _BodyError(Exception):
    """A request body refused before reading it (``status`` is 400 or 413)."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class ServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the :class:`JobManager` for handlers."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, handler_cls, manager: JobManager):
        super().__init__(address, handler_cls)
        self.manager = manager


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes HTTP verbs + paths onto the job manager."""

    server_version = "repro-ribbon-service/1.0"
    #: Seconds between wakeups while a progress stream waits for changes.
    STREAM_POLL_S = 0.25

    @property
    def manager(self) -> JobManager:
        return self.server.manager

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # keep the daemon quiet; the CLI prints the address once

    # -- plumbing -----------------------------------------------------------------
    def _send_json(self, status: int, payload) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, exc_type: str, message: str) -> None:
        self._send_json(status, {"error": {"type": exc_type, "message": message}})

    def _read_json(self):
        header = self.headers.get("Content-Length") or "0"
        if not (header.isascii() and header.isdigit()):
            raise _BodyError(
                400, f"Content-Length must be a non-negative integer, got {header!r}"
            )
        length = int(header)
        if length > MAX_BODY_BYTES:
            raise _BodyError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            return json.loads(raw.decode("utf-8"))
        except ValueError as exc:
            raise ScenarioError(f"request body is not valid JSON: {exc}") from None

    def _job(self, job_id: str):
        return self.manager.get(job_id)

    # -- verbs --------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        try:
            self._route_get(urlparse(self.path).path.rstrip("/") or "/")
        except KeyError as exc:
            self._send_error_json(404, "NotFound", str(exc.args[0]))
        except (BrokenPipeError, ConnectionResetError):  # client went away
            pass
        except Exception as exc:  # noqa: BLE001 - HTTP boundary
            self._send_error_json(500, type(exc).__name__, str(exc))

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        try:
            self._route_post(urlparse(self.path).path.rstrip("/") or "/")
        except (ScenarioError, UnknownStrategyError) as exc:
            self._send_error_json(400, type(exc).__name__, str(exc))
        except _BodyError as exc:
            # The unread body is still on the socket: do not reuse it.
            self.close_connection = True
            self._send_error_json(exc.status, "RequestBodyError", str(exc))
        except KeyError as exc:
            self._send_error_json(404, "NotFound", str(exc.args[0]))
        except (BrokenPipeError, ConnectionResetError):
            pass
        except Exception as exc:  # noqa: BLE001 - HTTP boundary
            self._send_error_json(500, type(exc).__name__, str(exc))

    # -- GET routes -----------------------------------------------------------------
    def _route_get(self, path: str) -> None:
        if path == "/health":
            stats = self.manager.stats()
            self._send_json(
                200,
                {
                    "status": "ok",
                    "jobs": stats["jobs_by_state"],
                    "uptime_s": stats["uptime_s"],
                },
            )
        elif path == "/stats":
            self._send_json(200, self.manager.stats())
        elif path == "/jobs":
            self._send_json(
                200, {"jobs": [job.snapshot() for job in self.manager.jobs()]}
            )
        elif path.startswith("/jobs/"):
            parts = path.split("/")[2:]  # ['<id>'] or ['<id>', '<action>']
            job = self._job(parts[0])
            if len(parts) == 1:
                self._send_json(200, job.snapshot(full=True))
            elif parts[1] == "result":
                if job.state != "done":
                    self._send_error_json(
                        409,
                        "ResultNotReady",
                        f"job {job.id} is {job.state!r}"
                        + (f": {job.error}" if job.error else ""),
                    )
                else:
                    self._send_json(
                        200, {"id": job.id, "result": job.result_dict}
                    )
            elif parts[1] == "stream":
                self._stream(job)
            else:
                raise KeyError(f"unknown job endpoint {parts[1]!r}")
        else:
            raise KeyError(f"unknown path {path!r}")

    # -- POST routes ----------------------------------------------------------------
    def _route_post(self, path: str) -> None:
        if path == "/jobs":
            body = self._read_json()
            if not isinstance(body, dict):
                raise ScenarioError("submission body must be a JSON object")
            if "scenario" not in body:
                raise ScenarioError(
                    "submission body needs a 'scenario' document "
                    "(Scenario.to_dict shape)"
                )
            options = body.get("options") or {}
            if not isinstance(options, dict):
                raise ScenarioError("'options' must be a JSON object")
            job = self.manager.submit(
                body["scenario"],
                body.get("strategy", "ribbon"),
                seed=int(body.get("seed", 0)),
                reuse=body.get("reuse"),
                **options,
            )
            self._send_json(202, job.snapshot())
        elif path.startswith("/jobs/"):
            parts = path.split("/")[2:]
            if len(parts) != 2:
                raise KeyError(f"unknown path {path!r}")
            job_id, action = parts
            if action == "cancel":
                job = self.manager.cancel(job_id)
                self._send_json(200, job.snapshot())
            elif action == "fork":
                body = self._read_json()
                changes = body.get("workload") or {}
                if not isinstance(changes, dict):
                    raise ScenarioError("'workload' must be a JSON object")
                kwargs = {}
                if body.get("seed") is not None:
                    kwargs["seed"] = int(body["seed"])
                if body.get("strategy") is not None:
                    kwargs["strategy"] = body["strategy"]
                job = self.manager.fork(job_id, **kwargs, **changes)
                self._send_json(202, job.snapshot())
            else:
                raise KeyError(f"unknown job action {action!r}")
        else:
            raise KeyError(f"unknown path {path!r}")

    # -- streaming -------------------------------------------------------------------
    def _stream(self, job) -> None:
        """NDJSON progress: one snapshot per change, ending at terminal."""
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        version = -1
        while True:
            snap = job.snapshot()
            version = snap["version"]
            self.wfile.write((json.dumps(snap) + "\n").encode("utf-8"))
            self.wfile.flush()
            # Terminality must be judged on the snapshot just written, not
            # the live job: the job can reach a terminal state between the
            # snapshot and the check, and breaking on the live state would
            # end the stream with a stale non-terminal line.
            if snap["state"] in TERMINAL_STATES:
                break
            new_version = job.wait_change(version, timeout=self.STREAM_POLL_S)
            while new_version == version and not job.terminal:
                new_version = job.wait_change(version, timeout=self.STREAM_POLL_S)


def make_server(
    manager: JobManager, host: str = "127.0.0.1", port: int = 8765
) -> ServiceServer:
    """Bind the service (``port=0`` picks an ephemeral port).

    The caller owns the lifecycle::

        server = make_server(manager, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        ...
        server.shutdown(); server.server_close(); manager.shutdown()
    """
    return ServiceServer((host, int(port)), ServiceHandler, manager)
