"""Job manager: thread-pooled searches with live progress and fork lineage.

The heart of the optimization service.  A :class:`JobManager` owns a worker
pool and a table of :class:`Job`\\ s, each one search request moving
through the lifecycle::

    queued -> materializing -> searching -> done | failed | cancelled

Progress is incremental: every evaluation a running search admits flows
through the runner's ``progress`` hook into the job — evaluations so far,
best-so-far record, running deploy-cost sum — and bumps a per-job version
counter that the HTTP layer's NDJSON stream waits on.  Cancellation is
cooperative through the same hook (the next admitted record raises
:class:`JobCancelled` inside the search).

Live load adaptation is the Fig. 16 workflow made continuous:
:meth:`JobManager.fork` derives a new job from an existing one through the
runner's :meth:`~repro.api.runner.ScenarioRunner.fork` — the forked search
shares the parent's lattice, objective and caches, so re-optimizing after
a load change starts from everything the parent already simulated.

The runner factory is injectable: the default is the process-wide
:func:`~repro.api.runner.runner_for`, and the tests drive the whole
manager (lifecycle, cancellation, forks, warm restart, concurrency) with
a stub factory that never runs a single simulation.  Whatever the
factory, every submission and fork passes the registry's
:func:`~repro.api.registry.check_strategy_options` first, so a bad
strategy name or option is refused before anything is queued.

With a :class:`~repro.service.store.SnapshotStore` attached, completed
jobs are appended to disk and replayed on construction — a restarted
daemon comes up with its job history warm, and re-submitting an identical
(scenario, strategy, seed, options) request returns the stored result
instead of searching again.
"""

from __future__ import annotations

import itertools
import json
import logging
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

from repro.api.registry import check_strategy_options
from repro.api.scenario import Scenario, ScenarioError
from repro.service.store import SnapshotStore, record_to_dict, search_result_to_dict

_log = logging.getLogger(__name__)

__all__ = [
    "Job",
    "JobCancelled",
    "JobManager",
    "JOB_STATES",
    "TERMINAL_STATES",
]


class JobCancelled(Exception):
    """Raised inside a search by the progress hook to abort cooperatively."""


#: Lifecycle states, in order of progression.
JOB_STATES = (
    "queued",
    "materializing",
    "searching",
    "done",
    "failed",
    "cancelled",
)
#: States a job never leaves.
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})


def _options_key(strategy_kwargs: dict) -> str:
    """Canonical fingerprint of the extra strategy knobs (reuse matching)."""
    if not strategy_kwargs:
        return ""
    return json.dumps(strategy_kwargs, sort_keys=True, default=str)


def _submission_time(stored: tuple[dict, dict]) -> float:
    """Sort key of a stored ``(scenario, record)`` pair: its submission
    time, 0 when the record lacks a numeric one."""
    at = stored[1].get("submitted_at")
    return float(at) if isinstance(at, (int, float)) else 0.0


class Job:
    """One tracked search request; all mutation happens via the manager.

    Reads (:meth:`snapshot`) are safe from any thread; writers hold the
    job's condition and bump :attr:`version`, which :meth:`wait_change`
    blocks on — the primitive behind the HTTP progress stream.
    """

    def __init__(
        self,
        job_id: str,
        scenario: Scenario,
        strategy: str,
        seed: int,
        strategy_kwargs: dict,
        *,
        forked_from: str | None = None,
        workload_changes: dict | None = None,
    ):
        self.id = job_id
        self.scenario = scenario
        self.strategy = strategy
        self.seed = int(seed)
        self.strategy_kwargs = dict(strategy_kwargs)
        self.state = "queued"
        self.error: str | None = None
        self.submitted_at = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.n_evaluations = 0
        self.best: dict | None = None
        self.cost_per_hour_sum = 0.0
        self.result = None  # live SearchResult (None for restored/reused jobs)
        self.result_dict: dict | None = None
        self.forked_from = forked_from
        self.workload_changes = dict(workload_changes or {})
        self.restored = False  # loaded from the snapshot store on startup
        self.reused = False  # answered from a prior identical job's result
        self.runner = None  # the runner-like object once assigned
        self.position = -1  # index in the manager's submission order
        # Keyed once: the scenario identity is a JSON dump plus sha256
        # (snapshots read it from here too).
        self._reuse_key = (
            scenario.identity(),
            self.strategy,
            self.seed,
            _options_key(self.strategy_kwargs),
        )
        self.version = 0
        self.cancel_event = threading.Event()
        self.cond = threading.Condition()

    # -- identity ----------------------------------------------------------------
    def reuse_key(self) -> tuple:
        return self._reuse_key

    # -- views -------------------------------------------------------------------
    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def snapshot(self, *, full: bool = False) -> dict:
        """JSON-ready progress view (``full`` adds scenario + stats)."""
        snap: dict[str, Any] = {
            "id": self.id,
            "state": self.state,
            "strategy": self.strategy,
            "seed": self.seed,
            "scenario_identity": self._reuse_key[0],
            "model": self.scenario.model,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "evaluations": self.n_evaluations,
            "max_samples": self.scenario.budget.max_samples,
            "best": self.best,
            "cost_per_hour_sum": self.cost_per_hour_sum,
            "forked_from": self.forked_from,
            "workload_changes": self.workload_changes or None,
            "restored": self.restored,
            "reused": self.reused,
            "error": self.error,
            "version": self.version,
        }
        if full:
            snap["scenario"] = self.scenario.to_dict()
            snap["options"] = dict(self.strategy_kwargs)
            runner = self.runner
            if runner is not None and hasattr(runner, "cache_stats"):
                snap["cache_stats"] = runner.cache_stats()
        return snap

    # -- change notification -------------------------------------------------------
    def _touch(self) -> None:
        """Bump the version and wake streamers (caller holds ``cond``)."""
        self.version += 1
        self.cond.notify_all()

    def wait_change(self, seen_version: int, timeout: float = 1.0) -> int:
        """Block until the version moves past ``seen_version`` (or timeout);
        returns the current version either way."""
        with self.cond:
            if self.version == seen_version and not self.terminal:
                self.cond.wait(timeout)
            return self.version


def _check_seed(seed) -> None:
    """Refuse a seed that is not a non-negative ``int`` (``bool`` included)
    before a job is admitted; it would otherwise fail later, in the worker."""
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ScenarioError(f"'seed' must be a non-negative integer, got {seed!r}")


class JobManager:
    """Owns the worker pool, the job table, and the snapshot store.

    Parameters
    ----------
    runner_factory:
        ``scenario -> runner`` callable.  The runner contract is the
        :class:`~repro.api.runner.ScenarioRunner` surface the manager
        touches: ``materialize(seed)`` (optional), ``run(strategy, seed=,
        progress=, **kwargs)``, ``fork(**workload_changes)`` returning a
        runner with a ``.scenario``, and optionally ``cache_stats()``.
        Defaults to the process-wide :func:`~repro.api.runner.runner_for`;
        tests inject a stub that never simulates.
    store:
        Optional :class:`~repro.service.store.SnapshotStore`.  When given,
        completed jobs are appended to it and its history is replayed into
        the job table on construction (warm restart).
    max_workers:
        Concurrent searches.

    Submissions and forks are checked against the strategy registry
    whatever the factory (:func:`~repro.api.registry.
    check_strategy_options`): an unknown strategy raises
    :class:`~repro.api.registry.UnknownStrategyError`, an option name its
    constructor lacks :class:`ScenarioError`, before anything is queued.
    Identical re-submissions are answered from a finished job unless the
    request says ``reuse=False``.
    """

    def __init__(
        self,
        *,
        runner_factory: Callable[[Scenario], Any] | None = None,
        store: SnapshotStore | None = None,
        max_workers: int = 2,
    ):
        if runner_factory is None:
            from repro.api.runner import runner_for

            runner_factory = runner_for
        if int(max_workers) < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers!r}")
        self._runner_factory = runner_factory
        self.store = store
        # Insertion order is admission order: restored history first.
        self._jobs: dict[str, Job] = {}
        # reuse key -> the latest-submitted done job with that key
        self._reusable: dict[tuple, Job] = {}
        self._lock = threading.RLock()
        self._pool = ThreadPoolExecutor(
            max_workers=int(max_workers), thread_name_prefix="repro-job"
        )
        self._seq = itertools.count(1)
        # Completed jobs whose snapshot-store append raised OSError.
        self._store_errors = 0
        self.started_at = time.time()
        if store is not None:
            self._restore(store)

    # -- construction helpers --------------------------------------------------------
    def _new_id(self) -> str:
        # Sequence for human-readable ordering, random suffix so ids from
        # earlier daemon generations (restored jobs) can never collide.
        return f"j{next(self._seq):04d}-{uuid.uuid4().hex[:8]}"

    def _restore(self, store: SnapshotStore) -> None:
        """Replay the store's completed-job history into the table.

        Records are admitted in submission order (the persisted
        ``submitted_at``, file order on ties), not file order: a job is
        marked done before its record is appended, so a job submitted
        later can be appended first, and ``position`` ranks reuse.
        """
        for scenario_dict, rec in sorted(
            store.iter_results(), key=_submission_time
        ):
            try:
                scenario = Scenario.from_dict(scenario_dict)
            except ScenarioError:
                continue  # a spec this build no longer accepts
            job_id = rec.get("job_id") or self._new_id()
            if job_id in self._jobs:
                continue
            job = Job(
                job_id,
                scenario,
                rec.get("strategy", "ribbon"),
                rec.get("seed", 0),
                rec.get("options") or {},
                forked_from=rec.get("forked_from"),
                workload_changes=rec.get("workload_changes") or {},
            )
            job.state = "done"
            job.restored = True
            job.submitted_at = rec.get("submitted_at", job.submitted_at)
            job.started_at = rec.get("started_at")
            job.finished_at = rec.get("finished_at")
            job.result_dict = rec.get("result")
            if job.result_dict is not None:
                job.n_evaluations = job.result_dict.get("n_samples", 0)
                job.best = job.result_dict.get("best")
            with self._lock:
                self._admit(job)
                self._mark_reusable(job)

    def _admit(self, job: Job) -> None:
        """Add ``job`` to the table (caller holds ``self._lock``)."""
        job.position = len(self._jobs)
        self._jobs[job.id] = job

    def _mark_reusable(self, job: Job) -> None:
        """Index a done job for reuse (caller holds ``self._lock``).

        Jobs finish out of submission order; the index keeps the
        latest-submitted one per key.
        """
        key = job.reuse_key()
        held = self._reusable.get(key)
        if held is None or held.position < job.position:
            self._reusable[key] = job

    # -- submission ------------------------------------------------------------------
    def submit(
        self,
        scenario: Scenario | dict,
        strategy: str = "ribbon",
        *,
        seed: int = 0,
        reuse: bool | None = None,
        **strategy_kwargs,
    ) -> Job:
        """Queue one search; returns its :class:`Job` immediately.

        ``scenario`` may be a :class:`Scenario` or a ``to_dict``-shaped
        document (the HTTP body); validation errors — the scenario, the
        strategy name, an option name, the seed — raise before anything is
        queued.
        Unless ``reuse`` is false, an identical finished job — in memory
        or in the snapshot store — is returned instead of searching again.
        """
        _check_seed(seed)
        if not isinstance(scenario, Scenario):
            scenario = Scenario.from_dict(scenario)
        if not isinstance(strategy, str) or not strategy.strip():
            raise ScenarioError(
                f"strategy must be a non-empty name string, got {strategy!r}"
            )
        strategy = strategy.strip()
        check_strategy_options(strategy, strategy_kwargs)
        job = Job(self._new_id(), scenario, strategy, seed, strategy_kwargs)
        with self._lock:
            if reuse is None or reuse:
                hit = self._reusable.get(job.reuse_key())
                if hit is not None:
                    return hit
            self._admit(job)
        self._pool.submit(self._execute, job)
        return job

    def fork(
        self,
        job_id: str,
        *,
        seed: int | None = None,
        strategy: str | None = None,
        **workload_changes,
    ) -> Job:
        """Derive a new job from ``job_id`` under a changed workload.

        The parent's runner (built on demand for restored jobs) is forked
        through its ``fork(**workload_changes)`` — for real runners the
        load-change machinery of Sec. 4/Fig. 16: the child searches the
        parent's lattice with the parent's objective and caches, so a
        load change re-optimizes from shared state instead of cold.
        ``seed``/``strategy`` default to the parent's.
        """
        if seed is not None:
            _check_seed(seed)
        parent = self.get(job_id)
        if not workload_changes:
            raise ScenarioError(
                "fork needs at least one workload change "
                "(load_factor=, n_queries=, seed=, gaussian=)"
            )
        if strategy is None:
            strategy = parent.strategy
        try:
            check_strategy_options(strategy, parent.strategy_kwargs)
        except ScenarioError as exc:
            # A fork sends no options: they are the parent's (for a restored
            # job, from a record an older build may have written).
            raise ScenarioError(
                f"cannot fork job {parent.id!r}: its options come from its "
                f"stored record, and {exc}"
            ) from None
        parent_runner = parent.runner
        if parent_runner is None:
            parent_runner = self._runner_factory(parent.scenario)
        try:
            forked_runner = parent_runner.fork(**workload_changes)
        except TypeError as exc:
            raise ScenarioError(f"bad fork change: {exc}") from None
        job = Job(
            self._new_id(),
            forked_runner.scenario,
            strategy,
            seed if seed is not None else parent.seed,
            dict(parent.strategy_kwargs),
            forked_from=parent.id,
            workload_changes=workload_changes,
        )
        job.runner = forked_runner
        with self._lock:
            self._admit(job)
        self._pool.submit(self._execute, job)
        return job

    # -- worker ----------------------------------------------------------------------
    def _execute(self, job: Job) -> None:
        with job.cond:
            if job.terminal:
                return
            if job.cancel_event.is_set():
                job.state = "cancelled"
                job.finished_at = time.time()
                job._touch()
                return
            job.state = "materializing"
            job.started_at = time.time()
            job._touch()
        try:
            runner = job.runner
            if runner is None:
                runner = self._runner_factory(job.scenario)
                job.runner = runner
            if hasattr(runner, "materialize"):
                runner.materialize(job.seed)
            with job.cond:
                if job.cancel_event.is_set():
                    raise JobCancelled()
                job.state = "searching"
                job._touch()

            def on_progress(record) -> None:
                if job.cancel_event.is_set():
                    raise JobCancelled()
                with job.cond:
                    job.n_evaluations += 1
                    job.cost_per_hour_sum += record.cost_per_hour
                    if record.meets_qos and (
                        job.best is None
                        or record.cost_per_hour < job.best["cost_per_hour"]
                    ):
                        job.best = record_to_dict(record)
                    job._touch()

            result = runner.run(
                job.strategy,
                seed=job.seed,
                progress=on_progress,
                **job.strategy_kwargs,
            )
        except JobCancelled:
            with job.cond:
                job.state = "cancelled"
                job.finished_at = time.time()
                job._touch()
            return
        except Exception as exc:  # noqa: BLE001 - the job *is* the error boundary
            with job.cond:
                job.state = "failed"
                job.error = f"{type(exc).__name__}: {exc}"
                job.finished_at = time.time()
                job._touch()
            return
        result_dict = search_result_to_dict(result)
        # Index before waiters see "done": a resubmission right after
        # wait() must find this job.
        with self._lock, job.cond:
            job.result = result
            job.result_dict = result_dict
            job.n_evaluations = result_dict["n_samples"]
            job.best = result_dict["best"]
            job.state = "done"
            job.finished_at = time.time()
            self._mark_reusable(job)
            job._touch()
        if self.store is not None:
            # The job is done and served from memory either way; a failed
            # append only costs its history after a restart, so say so.
            try:
                self.store.append_result(job.scenario, self._store_record(job))
            except OSError as exc:
                with self._lock:
                    self._store_errors += 1
                _log.error("job %s: snapshot store append failed: %s", job.id, exc)

    def _store_record(self, job: Job) -> dict:
        return {
            "job_id": job.id,
            "strategy": job.strategy,
            "seed": job.seed,
            "options": dict(job.strategy_kwargs),
            "options_key": _options_key(job.strategy_kwargs),
            "submitted_at": job.submitted_at,
            "started_at": job.started_at,
            "finished_at": job.finished_at,
            "forked_from": job.forked_from,
            "workload_changes": job.workload_changes or None,
            "result": job.result_dict,
        }

    # -- control ----------------------------------------------------------------------
    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        return job

    def cancel(self, job_id: str) -> Job:
        """Request cancellation; queued jobs die now, running ones at the
        next admitted evaluation (cooperative)."""
        job = self.get(job_id)
        with job.cond:
            job.cancel_event.set()
            if job.state == "queued":
                job.state = "cancelled"
                job.finished_at = time.time()
                job._touch()
        return job

    def wait(self, job_id: str, timeout: float = 60.0) -> Job:
        """Block until the job reaches a terminal state (or timeout)."""
        job = self.get(job_id)
        deadline = time.monotonic() + timeout
        version = -1
        while not job.terminal:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"job {job_id} still {job.state!r} after {timeout:g}s"
                )
            version = job.wait_change(version, timeout=min(remaining, 0.5))
        return job

    def jobs(self) -> list[Job]:
        """All jobs, submission order (restored history first)."""
        with self._lock:
            return list(self._jobs.values())

    def stats(self) -> dict:
        """Job-table statistics, read without touching the snapshot store.

        ``/health`` answers from these alone; ``/stats`` adds the store's
        shape (:meth:`SnapshotStore.stats`, which reads every result file).
        """
        with self._lock:
            jobs = list(self._jobs.values())
            store_errors = self._store_errors
        by_state = {state: 0 for state in JOB_STATES}
        evaluations = 0
        for job in jobs:
            by_state[job.state] = by_state.get(job.state, 0) + 1
            evaluations += job.n_evaluations
        return {
            "n_jobs": len(jobs),
            "jobs_by_state": by_state,
            "total_evaluations": evaluations,
            "store_errors": store_errors,
            "uptime_s": time.time() - self.started_at,
        }

    def shutdown(self, *, wait: bool = True, cancel_running: bool = False) -> None:
        """Stop accepting work; optionally cancel in-flight searches."""
        if cancel_running:
            for job in self.jobs():
                if not job.terminal:
                    self.cancel(job.id)
        self._pool.shutdown(wait=wait, cancel_futures=True)
        # Queued jobs whose futures were cancelled never reach a worker.
        for job in self.jobs():
            if job.state == "queued":
                with job.cond:
                    if job.state == "queued":
                        job.state = "cancelled"
                        job.finished_at = time.time()
                        job._touch()
