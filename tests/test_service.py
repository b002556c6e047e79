"""The optimization service's job manager and snapshot store.

Everything here runs against a **stub runner factory** — the injectable
seam the service was designed around — so the full lifecycle (queued →
materializing → searching → done/failed/cancelled), cooperative
cancellation, fork-on-load-change, warm restart from the snapshot store,
result reuse, and concurrent submissions are all exercised without a
single simulation.
"""

import errno
import logging
import threading

import pytest

from repro.api.registry import UnknownStrategyError
from repro.api.scenario import (
    EvaluationBudget,
    PoolSpec,
    Scenario,
    ScenarioError,
    WorkloadSpec,
)
from repro.core.evaluator import EvaluationRecord
from repro.core.result import SearchResult
from repro.service import (
    JobManager,
    SnapshotStore,
    record_to_dict,
    search_result_to_dict,
)
from repro.simulator.pool import PoolConfiguration


def make_scenario(**workload) -> Scenario:
    workload.setdefault("n_queries", 500)
    workload.setdefault("seed", 1)
    return Scenario(
        "MT-WND",
        workload=WorkloadSpec(**workload),
        pool=PoolSpec(families=("g4dn", "t3"), bounds=(4, 4)),
        budget=EvaluationBudget(max_samples=6),
    )


def make_record(i: int, cost: float, meets: bool = True) -> EvaluationRecord:
    return EvaluationRecord(
        pool=PoolConfiguration(("g4dn", "t3"), (i + 1, 1)),
        qos_rate=0.999 if meets else 0.5,
        cost_per_hour=cost,
        objective=cost if meets else 10.0,
        meets_qos=meets,
        sample_index=i,
        p99_ms=12.0,
        mean_queue_length=0.4,
    )


class StubRunner:
    """ScenarioRunner lookalike: canned records, no simulation anywhere.

    ``gate`` (a threading.Event) makes each evaluation wait, so tests can
    hold a search mid-flight to observe intermediate states and exercise
    cooperative cancellation deterministically.
    """

    def __init__(self, scenario, *, n_records=3, gate=None, fail=None):
        self.scenario = scenario
        self.n_records = n_records
        self.gate = gate
        self.fail = fail
        self.materialize_seeds: list[int] = []
        self.forked_with: list[dict] = []

    def materialize(self, seed=0):
        self.materialize_seeds.append(seed)

    def run(self, strategy, *, seed=0, progress=None, **kwargs):
        if self.fail is not None:
            raise self.fail
        history = []
        for i in range(self.n_records):
            if self.gate is not None:
                assert self.gate.wait(timeout=10.0), "test gate never opened"
            rec = make_record(i, cost=3.0 - 0.5 * i)
            history.append(rec)
            if progress is not None:
                progress(rec)  # may raise JobCancelled, like the real hook
        best = min(
            (r for r in history if r.meets_qos),
            key=lambda r: r.cost_per_hour,
            default=None,
        )
        return SearchResult(
            method=strategy,
            best=best,
            history=tuple(history),
            exploration_cost_dollars=0.01,
            exhaustive_cost_dollars=1.0,
            converged=True,
            metadata={"seed": seed, **kwargs},
        )

    def fork(self, **workload_changes):
        self.forked_with.append(workload_changes)
        return StubRunner(
            self.scenario.with_workload(**workload_changes),
            n_records=self.n_records,
        )

    def cache_stats(self):
        return {"n_materializations": 0}


class StubFactory:
    """Counts scenarios it built runners for (warm-restart assertions)."""

    def __init__(self, **runner_kwargs):
        self.runner_kwargs = runner_kwargs
        self.built: list[StubRunner] = []

    def __call__(self, scenario):
        runner = StubRunner(scenario, **self.runner_kwargs)
        self.built.append(runner)
        return runner


@pytest.fixture
def manager():
    mgr = JobManager(runner_factory=StubFactory(), max_workers=2)
    yield mgr
    mgr.shutdown(cancel_running=True)


class TestLifecycle:
    def test_submit_runs_to_done(self, manager):
        job = manager.submit(make_scenario(), "ribbon", seed=3)
        manager.wait(job.id, timeout=10)
        assert job.state == "done"
        assert job.n_evaluations == 3
        assert job.best is not None
        assert job.best["cost_per_hour"] == pytest.approx(2.0)
        assert job.result_dict == search_result_to_dict(job.result)
        assert job.result_dict["metadata"]["seed"] == 3
        assert job.started_at is not None and job.finished_at is not None

    def test_strategy_kwargs_reach_the_runner(self, manager):
        job = manager.submit(make_scenario(), "ribbon", seed=0, batch_size=4)
        manager.wait(job.id, timeout=10)
        assert job.result_dict["metadata"]["batch_size"] == 4

    def test_submit_accepts_scenario_dict(self, manager):
        job = manager.submit(make_scenario().to_dict(), "random")
        manager.wait(job.id, timeout=10)
        assert job.state == "done"
        assert job.scenario == make_scenario()

    def test_bad_scenario_dict_rejected_before_queueing(self, manager):
        with pytest.raises(ScenarioError, match="unknown"):
            manager.submit({"model": "MT-WND", "workloud": {}}, "ribbon")
        assert manager.jobs() == []

    def test_blank_strategy_rejected(self, manager):
        with pytest.raises(ScenarioError, match="strategy"):
            manager.submit(make_scenario(), "  ")

    def test_strategy_validator_rejects_unknown_names(self, manager):
        # The registry refuses the name even behind an injected factory.
        with pytest.raises(UnknownStrategyError, match="no-such"):
            manager.submit(make_scenario(), "no-such")
        assert manager.jobs() == []
        job = manager.submit(make_scenario(), "hill-climb")
        manager.wait(job.id, timeout=10)
        assert job.state == "done"

    def test_failure_is_captured_not_raised(self):
        factory = StubFactory(fail=RuntimeError("lattice exploded"))
        mgr = JobManager(runner_factory=factory)
        try:
            job = mgr.submit(make_scenario(), "ribbon")
            mgr.wait(job.id, timeout=10)
            assert job.state == "failed"
            assert "lattice exploded" in job.error
            assert job.result_dict is None
        finally:
            mgr.shutdown()

    def test_progress_bumps_version_per_evaluation(self, manager):
        job = manager.submit(make_scenario(), "ribbon")
        manager.wait(job.id, timeout=10)
        # queued->materializing, ->searching, 3 evaluations, ->done
        assert job.version >= 6
        snap = job.snapshot(full=True)
        assert snap["scenario"]["model"] == "MT-WND"
        assert snap["cache_stats"] == {"n_materializations": 0}

    def test_unknown_job_raises_keyerror(self, manager):
        with pytest.raises(KeyError, match="nope"):
            manager.get("nope")

    @pytest.mark.parametrize("seed", [-1, "1", True])
    def test_bad_seed_rejected_before_queueing(self, manager, seed):
        with pytest.raises(ScenarioError, match="seed"):
            manager.submit(make_scenario(), "ribbon", seed=seed)
        assert manager.jobs() == []

    @pytest.mark.parametrize("seed", [-1, "1", True])
    def test_bad_fork_seed_rejected_before_queueing(self, manager, seed):
        parent = manager.submit(make_scenario(), "ribbon")
        manager.wait(parent.id, timeout=10)
        with pytest.raises(ScenarioError, match="seed"):
            manager.fork(parent.id, seed=seed, load_factor=1.5)
        assert manager.jobs() == [parent]


class TestOptionValidation:
    """The registry checks option names at submission, whatever the factory."""

    @pytest.fixture
    def registry_manager(self):
        mgr = JobManager(runner_factory=StubFactory(), max_workers=1)
        yield mgr
        mgr.shutdown(cancel_running=True)

    @pytest.mark.parametrize("option", ["bogus_knob", "kernel"])
    def test_unknown_option_rejected_before_queueing(self, registry_manager, option):
        with pytest.raises(ScenarioError) as err:
            registry_manager.submit(make_scenario(), "ribbon", **{option: 3})
        message = str(err.value)
        assert repr(option) in message
        assert "batch_size" in message and "patience" in message
        assert registry_manager.jobs() == []

    def test_fork_checks_options_against_the_new_strategy(self, registry_manager):
        parent = registry_manager.submit(make_scenario(), "ribbon", batch_size=4)
        registry_manager.wait(parent.id, timeout=10)
        with pytest.raises(ScenarioError, match="batch_size"):
            registry_manager.fork(parent.id, strategy="random", load_factor=1.5)
        assert [job.id for job in registry_manager.jobs()] == [parent.id]
        child = registry_manager.fork(parent.id, load_factor=1.5)
        registry_manager.wait(child.id, timeout=10)
        assert child.state == "done"

    def test_fork_refuses_options_from_a_restored_record(self, tmp_path):
        """A restored parent whose stored options this build no longer
        accepts is not forked: the error names the parent and its stored
        record, and nothing is queued."""
        store = SnapshotStore(tmp_path)
        store.append_result(make_scenario(), {
            "job_id": "j-old", "strategy": "ribbon", "seed": 0,
            "options": {"proposal_engine": "qei"},
            "submitted_at": 100.0, "started_at": 100.0, "finished_at": 101.0,
            "result": {"n_samples": 3, "best": None},
        })
        factory = StubFactory()
        mgr = JobManager(runner_factory=factory, store=store, max_workers=1)
        try:
            with pytest.raises(ScenarioError) as err:
                mgr.fork("j-old", load_factor=1.5)
            message = str(err.value)
            assert "'j-old'" in message and "stored record" in message
            assert "'proposal_engine'" in message and "batch_size" in message
            assert [job.id for job in mgr.jobs()] == ["j-old"]
            assert factory.built == []
        finally:
            mgr.shutdown()

    def test_injected_factory_gets_option_checks(self):
        factory = StubFactory()
        mgr = JobManager(runner_factory=factory, max_workers=1)
        try:
            with pytest.raises(ScenarioError, match="'bogus_knob'"):
                mgr.submit(make_scenario(), "ribbon", bogus_knob=3)
            assert mgr.jobs() == [] and factory.built == []
        finally:
            mgr.shutdown()


class TestCancellation:
    def test_running_job_cancels_at_next_evaluation(self):
        gate = threading.Event()
        mgr = JobManager(runner_factory=StubFactory(gate=gate), max_workers=1)
        try:
            job = mgr.submit(make_scenario(), "ribbon")
            # The worker is now blocked inside run() waiting on the gate.
            version = job.wait_change(-1, timeout=5)
            while job.state != "searching":
                version = job.wait_change(version, timeout=5)
            mgr.cancel(job.id)
            gate.set()  # release the stub; its next progress() raises
            mgr.wait(job.id, timeout=10)
            assert job.state == "cancelled"
            assert job.result_dict is None
        finally:
            mgr.shutdown(cancel_running=True)

    def test_queued_job_cancels_immediately(self):
        gate = threading.Event()
        mgr = JobManager(runner_factory=StubFactory(gate=gate), max_workers=1)
        try:
            running = mgr.submit(make_scenario(seed=1), "ribbon")
            queued = mgr.submit(make_scenario(seed=2), "ribbon")
            mgr.cancel(queued.id)
            assert queued.state == "cancelled"
            gate.set()
            mgr.wait(running.id, timeout=10)
            assert running.state == "done"
            # The cancelled job's worker slot never ran a search.
            assert queued.n_evaluations == 0
        finally:
            mgr.shutdown(cancel_running=True)


class TestFork:
    def test_fork_shares_parent_runner_state(self, manager):
        parent = manager.submit(make_scenario(), "ribbon", seed=5)
        manager.wait(parent.id, timeout=10)
        child = manager.fork(parent.id, load_factor=1.5)
        manager.wait(child.id, timeout=10)
        assert child.state == "done"
        assert child.forked_from == parent.id
        assert child.workload_changes == {"load_factor": 1.5}
        # Forked through the parent's runner, not a fresh factory build.
        assert parent.runner.forked_with == [{"load_factor": 1.5}]
        assert child.scenario.workload.load_factor == pytest.approx(1.5)
        # Strategy and seed inherited from the parent unless overridden.
        assert child.strategy == parent.strategy
        assert child.seed == 5

    def test_fork_can_override_strategy_and_seed(self, manager):
        parent = manager.submit(make_scenario(), "ribbon")
        manager.wait(parent.id, timeout=10)
        child = manager.fork(parent.id, strategy="random", seed=9, load_factor=2.0)
        manager.wait(child.id, timeout=10)
        assert child.strategy == "random"
        assert child.seed == 9

    def test_fork_requires_a_workload_change(self, manager):
        parent = manager.submit(make_scenario(), "ribbon")
        manager.wait(parent.id, timeout=10)
        with pytest.raises(ScenarioError, match="workload change"):
            manager.fork(parent.id)

    def test_bad_fork_field_is_a_scenario_error(self, manager):
        parent = manager.submit(make_scenario(), "ribbon")
        manager.wait(parent.id, timeout=10)
        with pytest.raises(ScenarioError, match="fork"):
            manager.fork(parent.id, warp_factor=9)


class TestReuse:
    def test_identical_resubmission_returns_same_job(self, manager):
        first = manager.submit(make_scenario(), "ribbon", seed=0)
        manager.wait(first.id, timeout=10)
        again = manager.submit(make_scenario(), "ribbon", seed=0)
        assert again is first

    def test_different_seed_or_options_is_a_new_job(self, manager):
        first = manager.submit(make_scenario(), "ribbon", seed=0)
        manager.wait(first.id, timeout=10)
        other_seed = manager.submit(make_scenario(), "ribbon", seed=1)
        other_opts = manager.submit(
            make_scenario(), "ribbon", seed=0, batch_size=4
        )
        assert other_seed is not first and other_opts is not first

    def test_reuse_false_forces_a_fresh_search(self, manager):
        first = manager.submit(make_scenario(), "ribbon", seed=0)
        manager.wait(first.id, timeout=10)
        again = manager.submit(make_scenario(), "ribbon", seed=0, reuse=False)
        assert again is not first
        manager.wait(again.id, timeout=10)
        assert again.state == "done"


    def test_latest_submitted_of_identical_done_jobs_wins(self):
        # The older job finishes last; the reuse answer is still the
        # most recently *submitted* done job, as a newest-first scan gives.
        gate = threading.Event()
        gates = [gate, None]
        mgr = JobManager(
            runner_factory=lambda scn: StubRunner(scn, gate=gates.pop(0)),
            max_workers=2,
        )
        try:
            older = mgr.submit(make_scenario(), "ribbon", seed=0)
            version = -1
            while older.state != "searching":  # its runner took the gate
                version = older.wait_change(version, timeout=5)
            newer = mgr.submit(make_scenario(), "ribbon", seed=0, reuse=False)
            mgr.wait(newer.id, timeout=10)
            gate.set()
            mgr.wait(older.id, timeout=10)
            assert older.finished_at >= newer.finished_at
            assert mgr.submit(make_scenario(), "ribbon", seed=0) is newer
        finally:
            mgr.shutdown(cancel_running=True)

    def test_failed_jobs_are_never_reused(self):
        mgr = JobManager(runner_factory=StubFactory(fail=RuntimeError("boom")))
        try:
            failed = mgr.submit(make_scenario(), "ribbon", seed=0)
            mgr.wait(failed.id, timeout=10)
            assert failed.state == "failed"
            assert mgr.submit(make_scenario(), "ribbon", seed=0) is not failed
        finally:
            mgr.shutdown(cancel_running=True)

    def test_cancelled_jobs_are_never_reused(self):
        gate = threading.Event()
        mgr = JobManager(runner_factory=StubFactory(gate=gate), max_workers=1)
        try:
            running = mgr.submit(make_scenario(), "ribbon", seed=0)
            queued = mgr.submit(make_scenario(), "ribbon", seed=1)
            version = -1
            while running.state != "searching":
                version = running.wait_change(version, timeout=5)
            mgr.cancel(running.id)
            mgr.cancel(queued.id)
            gate.set()
            mgr.wait(running.id, timeout=10)
            assert running.state == queued.state == "cancelled"
            again = [
                mgr.submit(make_scenario(), "ribbon", seed=seed)
                for seed in (0, 1)
            ]
            assert again[0] is not running and again[1] is not queued
            for job in again:
                mgr.wait(job.id, timeout=10)
                assert job.state == "done"
        finally:
            mgr.shutdown(cancel_running=True)


class TestWarmRestart:
    def test_restored_jobs_are_reused_latest_first(self, tmp_path):
        store = SnapshotStore(tmp_path)
        first_gen = JobManager(runner_factory=StubFactory(), store=store)
        older = first_gen.submit(make_scenario(), "ribbon", seed=2)
        first_gen.wait(older.id, timeout=10)
        newer = first_gen.submit(make_scenario(), "ribbon", seed=2, reuse=False)
        first_gen.wait(newer.id, timeout=10)
        first_gen.shutdown()

        factory = StubFactory()
        second_gen = JobManager(runner_factory=factory, store=store)
        try:
            again = second_gen.submit(make_scenario(), "ribbon", seed=2)
            assert again.restored and again.id == newer.id
            assert factory.built == []
        finally:
            second_gen.shutdown()

    def test_restore_ranks_by_submission_not_file_order(self, tmp_path):
        """A job is marked done before its record is appended, so a later
        submission can land first in the results file; the restore must
        still rank it as the latest."""
        store = SnapshotStore(tmp_path)
        scenario = make_scenario()
        for job_id, submitted_at in (("j-newer", 200.0), ("j-older", 100.0)):
            store.append_result(scenario, {
                "job_id": job_id, "strategy": "ribbon", "seed": 2,
                "options": {}, "options_key": "",
                "submitted_at": submitted_at, "started_at": submitted_at,
                "finished_at": submitted_at + 1.0,
                "result": {"n_samples": 3, "best": None},
            })
        factory = StubFactory()
        mgr = JobManager(runner_factory=factory, store=store)
        try:
            older, newer = mgr.get("j-older"), mgr.get("j-newer")
            assert older.position < newer.position
            again = mgr.submit(scenario, "ribbon", seed=2)
            assert again is newer
            assert factory.built == []
        finally:
            mgr.shutdown()


    def test_restored_reuse_matches_options_exactly(self, tmp_path):
        """Two stored records differ only in their options: after a
        restart each identical request reuses its own record, and another
        seed or scenario reuses neither."""
        store = SnapshotStore(tmp_path)
        scenario = make_scenario()
        for job_id, options, key in (
            ("j-plain", {}, ""),
            ("j-batch", {"batch_size": 4}, '{"batch_size": 4}'),
        ):
            store.append_result(scenario, {
                "job_id": job_id, "strategy": "ribbon", "seed": 0,
                "options": options, "options_key": key,
                "submitted_at": 100.0, "started_at": 100.0,
                "finished_at": 101.0,
                "result": {"n_samples": 3, "best": None},
            })
        factory = StubFactory()
        mgr = JobManager(runner_factory=factory, store=store)
        try:
            plain, batch = mgr.get("j-plain"), mgr.get("j-batch")
            assert mgr.submit(scenario, "ribbon", seed=0) is plain
            assert mgr.submit(scenario, "ribbon", seed=0, batch_size=4) is batch
            assert factory.built == []
            fresh = [
                mgr.submit(scenario, "ribbon", seed=1),
                mgr.submit(make_scenario(seed=9), "ribbon", seed=0),
                mgr.submit(make_scenario(seed=9), "ribbon", seed=0, batch_size=4),
            ]
            for job in fresh:
                mgr.wait(job.id, timeout=10)
                assert job.state == "done" and not job.restored
            assert len(factory.built) == 3
        finally:
            mgr.shutdown()

    def test_history_survives_a_daemon_generation(self, tmp_path):
        store = SnapshotStore(tmp_path)
        first_gen = JobManager(runner_factory=StubFactory(), store=store)
        job = first_gen.submit(make_scenario(), "ribbon", seed=4)
        first_gen.wait(job.id, timeout=10)
        first_gen.shutdown()

        factory = StubFactory()
        second_gen = JobManager(runner_factory=factory, store=store)
        try:
            restored = second_gen.get(job.id)
            assert restored.restored and restored.state == "done"
            assert restored.result_dict == job.result_dict
            assert restored.best == job.best
            # Re-submitting the identical request is answered from history
            # without building a runner, let alone searching.
            again = second_gen.submit(make_scenario(), "ribbon", seed=4)
            assert again is restored
            assert factory.built == []
        finally:
            second_gen.shutdown()

    def test_restored_job_can_be_forked(self, tmp_path):
        store = SnapshotStore(tmp_path)
        first_gen = JobManager(runner_factory=StubFactory(), store=store)
        job = first_gen.submit(make_scenario(), "ribbon")
        first_gen.wait(job.id, timeout=10)
        first_gen.shutdown()

        factory = StubFactory()
        second_gen = JobManager(runner_factory=factory, store=store)
        try:
            child = second_gen.fork(job.id, load_factor=1.25)
            second_gen.wait(child.id, timeout=10)
            assert child.state == "done"
            assert child.forked_from == job.id
            # The restored parent had no live runner: built on demand.
            assert len(factory.built) == 1
        finally:
            second_gen.shutdown()

    def test_torn_trailing_line_loses_only_itself(self, tmp_path):
        store = SnapshotStore(tmp_path)
        mgr = JobManager(runner_factory=StubFactory(), store=store)
        job = mgr.submit(make_scenario(), "ribbon")
        mgr.wait(job.id, timeout=10)
        mgr.shutdown()
        path = store.results_path(job.scenario)
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"job_id": "j9999-dead", "trunca')  # crash mid-append
        second = JobManager(runner_factory=StubFactory(), store=store)
        try:
            assert second.get(job.id).state == "done"
            assert len(second.jobs()) == 1
        finally:
            second.shutdown()


    def test_torn_scenario_spec_is_rewritten(self, tmp_path):
        """An empty spec (a write torn by a crash or a full disk) would
        hide every result under its identity on each restart; the next
        append rewrites it, so the restart restores the job."""
        store = SnapshotStore(tmp_path)
        scenario = make_scenario()
        store.scenario_path(scenario).write_text("")
        mgr = JobManager(runner_factory=StubFactory(), store=store)
        job = mgr.submit(scenario, "ribbon", seed=3)
        mgr.wait(job.id, timeout=10)
        mgr.shutdown()
        assert sorted(p.name for p in store.scenario_path(scenario).parent.iterdir()) == [
            store.scenario_path(scenario).name
        ]
        second = JobManager(runner_factory=StubFactory(), store=store)
        try:
            restored = second.get(job.id)
            assert restored.restored and restored.state == "done"
        finally:
            second.shutdown()


class FullDiskStore(SnapshotStore):
    """A snapshot store whose first ``n_failures`` appends raise ENOSPC."""

    def __init__(self, root, n_failures=1):
        super().__init__(root)
        self.n_failures = n_failures

    def append_result(self, scenario, job_record):
        if self.n_failures > 0:
            self.n_failures -= 1
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().append_result(scenario, job_record)


class TestStoreFaults:
    def test_failed_append_is_logged_counted_and_survived(self, tmp_path, caplog):
        store = FullDiskStore(tmp_path)
        # One worker: the second job starts only after the first job's
        # append (and its failure handling) has finished.
        mgr = JobManager(runner_factory=StubFactory(), store=store, max_workers=1)
        try:
            with caplog.at_level(logging.ERROR, logger="repro.service.jobs"):
                first = mgr.submit(make_scenario(), "ribbon", seed=1)
                mgr.wait(first.id, timeout=10)
                second = mgr.submit(make_scenario(), "ribbon", seed=2)
                mgr.wait(second.id, timeout=10)
            assert first.state == "done" and second.state == "done"
            # The unstored result is still served from memory.
            assert mgr.get(first.id).result_dict == search_result_to_dict(
                first.result
            )
            assert mgr.submit(make_scenario(), "ribbon", seed=1) is first
        finally:
            mgr.shutdown()
        assert mgr.stats()["store_errors"] == 1
        failures = [r for r in caplog.records if r.levelno == logging.ERROR]
        assert len(failures) == 1 and first.id in failures[0].getMessage()
        # Only the second job's record reached the store.
        assert [(rec["job_id"], rec["seed"]) for _, rec in store.iter_results()] == [
            (second.id, 2)
        ]

    def test_no_store_reports_zero_errors(self, manager):
        job = manager.submit(make_scenario(), "ribbon")
        manager.wait(job.id, timeout=10)
        assert manager.stats()["store_errors"] == 0


class TestConcurrency:
    def test_many_concurrent_submissions_all_finish(self):
        mgr = JobManager(runner_factory=StubFactory(), max_workers=4)
        try:
            jobs = [
                mgr.submit(make_scenario(seed=i), "ribbon", seed=i)
                for i in range(12)
            ]
            for job in jobs:
                mgr.wait(job.id, timeout=30)
            assert all(j.state == "done" for j in jobs)
            assert len({j.id for j in jobs}) == 12
            stats = mgr.stats()
            assert stats["jobs_by_state"]["done"] == 12
            assert stats["total_evaluations"] == 36
        finally:
            mgr.shutdown()

    def test_shutdown_cancels_queued_jobs(self):
        gate = threading.Event()
        mgr = JobManager(runner_factory=StubFactory(gate=gate), max_workers=1)
        running = mgr.submit(make_scenario(seed=1), "ribbon")
        queued = mgr.submit(make_scenario(seed=2), "ribbon")
        gate.set()
        mgr.shutdown(cancel_running=True)
        assert running.terminal
        assert queued.terminal


class TestStore:
    def test_scenario_spec_written_once(self, tmp_path):
        store = SnapshotStore(tmp_path)
        scn = make_scenario()
        path = store.save_scenario(scn)
        before = path.read_text()
        store.save_scenario(scn)
        assert path.read_text() == before
        assert path.name == f"{scn.identity()}.json"

    def test_record_round_trip_shape(self):
        rec = make_record(2, cost=1.5)
        doc = record_to_dict(rec)
        assert doc["families"] == ["g4dn", "t3"]
        assert doc["counts"] == [3, 1]
        assert doc["cost_per_hour"] == pytest.approx(1.5)
        assert doc["meets_qos"] is True

    def test_stats_counts_specs_and_results(self, tmp_path):
        store = SnapshotStore(tmp_path)
        scn = make_scenario()
        store.append_result(scn, {"strategy": "a", "seed": 0, "options_key": ""})
        store.append_result(scn, {"strategy": "b", "seed": 0, "options_key": ""})
        assert store.stats() == {
            "root": str(tmp_path),
            "n_scenarios": 1,
            "n_results": 2,
        }
