"""Disk tier of the simulation result memo.

Covers the content-addressed keys (equal-content objects hash equally,
any change to the workload changes the digest), the SQLite store's
round-trip fidelity, its corruption tolerance (damaged rows and torn
database files degrade to misses, never errors), the byte-budget
eviction, and the two-tier integration on ``SimulationResultCache`` /
``ScenarioRunner`` / ``JobManager`` and the ``--disk-cache`` flag —
including the headline warm-restart property: a
rebuilt process replays bit-identical results out of the disk tier.
"""

from __future__ import annotations

import sqlite3

import numpy as np
import pytest

from repro.simulator.disk_cache import DiskResultStore, result_key
from repro.simulator.engine import InferenceServingSimulator
from repro.simulator.pool import PoolConfiguration
from repro.simulator.result_cache import SimulationResultCache
from tests.conftest import make_toy_model, make_toy_trace


def simulate_one(model, trace, counts=(2, 1), memo=None):
    sim = InferenceServingSimulator(
        model,
        result_cache=memo
        if memo is not None
        else SimulationResultCache(maxsize=0),
    )
    return sim.simulate(trace, PoolConfiguration(("g4dn", "t3"), counts))


class TestResultKey:
    def test_equal_content_hashes_equally(self):
        model_a, model_b = make_toy_model(), make_toy_model()
        trace_a = make_toy_trace(model_a, n=120, seed=3)
        trace_b = make_toy_trace(model_b, n=120, seed=3)
        assert model_a is not model_b and trace_a is not trace_b
        key_a = result_key(model_a, trace_a, ("g4dn", "t3"), (2, 1), True)
        key_b = result_key(model_b, trace_b, ("g4dn", "t3"), (2, 1), True)
        assert key_a == key_b

    def test_key_varies_with_every_input(self):
        model = make_toy_model()
        trace = make_toy_trace(model, n=120, seed=3)
        base = result_key(model, trace, ("g4dn", "t3"), (2, 1), True)
        other_trace = make_toy_trace(model, n=120, seed=4)
        assert result_key(model, other_trace, ("g4dn", "t3"), (2, 1), True) != base
        assert result_key(model, trace, ("g4dn", "t3"), (1, 2), True) != base
        assert result_key(model, trace, ("t3", "g4dn"), (2, 1), True) != base
        assert result_key(model, trace, ("g4dn", "t3"), (2, 1), False) != base
        other_model = make_toy_model(noise=0.1)
        assert result_key(other_model, trace, ("g4dn", "t3"), (2, 1), True) != base


class TestDiskResultStore:
    def make_store(self, tmp_path, **kwargs):
        return DiskResultStore(tmp_path / "cache.sqlite", **kwargs)

    def test_round_trip_bit_identical(self, tmp_path):
        model = make_toy_model()
        trace = make_toy_trace(model, n=150, seed=5)
        result = simulate_one(model, trace)
        store = self.make_store(tmp_path)
        key = result_key(model, trace, ("g4dn", "t3"), (2, 1), True)
        store.put(key, result)
        loaded = store.get(key)
        assert loaded is not None
        np.testing.assert_array_equal(loaded.latency_s, result.latency_s)
        np.testing.assert_array_equal(loaded.wait_s, result.wait_s)
        np.testing.assert_array_equal(loaded.service_s, result.service_s)
        np.testing.assert_array_equal(loaded.instance_index, result.instance_index)
        np.testing.assert_array_equal(
            loaded.busy_s_per_instance, result.busy_s_per_instance
        )
        np.testing.assert_array_equal(
            loaded.queue_len_at_arrival, result.queue_len_at_arrival
        )
        assert loaded.makespan_s == result.makespan_s
        assert list(loaded.instance_family) == list(result.instance_family)

    def test_miss_on_unknown_key(self, tmp_path):
        store = self.make_store(tmp_path)
        assert store.get("no-such-key") is None
        assert store.stats()["misses"] == 1

    def test_survives_reopen(self, tmp_path):
        model = make_toy_model()
        trace = make_toy_trace(model, n=100, seed=5)
        result = simulate_one(model, trace)
        key = result_key(model, trace, ("g4dn", "t3"), (2, 1), True)
        store = self.make_store(tmp_path)
        store.put(key, result)
        store.close()
        reopened = self.make_store(tmp_path)
        loaded = reopened.get(key)
        assert loaded is not None
        np.testing.assert_array_equal(loaded.latency_s, result.latency_s)

    def test_corrupt_row_deleted_and_missed(self, tmp_path):
        model = make_toy_model()
        trace = make_toy_trace(model, n=100, seed=5)
        key = result_key(model, trace, ("g4dn", "t3"), (2, 1), True)
        store = self.make_store(tmp_path)
        store.put(key, simulate_one(model, trace))
        store.close()
        conn = sqlite3.connect(tmp_path / "cache.sqlite")
        conn.execute("UPDATE results SET payload = X'DEADBEEF'")
        conn.commit()
        conn.close()
        store = self.make_store(tmp_path)
        assert store.get(key) is None
        stats = store.stats()
        assert stats["errors"] == 1
        assert stats["entries"] == 0  # damaged row was deleted

    def test_checksum_mismatch_is_a_miss(self, tmp_path):
        model = make_toy_model()
        trace = make_toy_trace(model, n=100, seed=5)
        key = result_key(model, trace, ("g4dn", "t3"), (2, 1), True)
        store = self.make_store(tmp_path)
        store.put(key, simulate_one(model, trace))
        store.close()
        conn = sqlite3.connect(tmp_path / "cache.sqlite")
        conn.execute("UPDATE results SET checksum = 'bogus'")
        conn.commit()
        conn.close()
        store = self.make_store(tmp_path)
        assert store.get(key) is None
        assert store.stats()["errors"] == 1

    def test_torn_database_file_resets_to_empty(self, tmp_path):
        model = make_toy_model()
        trace = make_toy_trace(model, n=100, seed=5)
        key = result_key(model, trace, ("g4dn", "t3"), (2, 1), True)
        store = self.make_store(tmp_path)
        store.put(key, simulate_one(model, trace))
        store.close()
        (tmp_path / "cache.sqlite").write_bytes(b"this is not sqlite at all")
        store = self.make_store(tmp_path)  # must not raise
        assert store.get(key) is None
        assert store.stats()["errors"] >= 1
        # The store works again after the reset.
        store.put(key, simulate_one(model, trace))
        assert store.get(key) is not None

    def test_byte_budget_evicts_lru(self, tmp_path):
        model = make_toy_model()
        trace = make_toy_trace(model, n=200, seed=5)
        results = {
            counts: simulate_one(model, trace, counts)
            for counts in [(2, 1), (1, 3), (3, 2)]
        }
        store = self.make_store(tmp_path)
        keys = {
            counts: result_key(model, trace, ("g4dn", "t3"), counts, True)
            for counts in results
        }
        store.put(keys[(2, 1)], results[(2, 1)])
        one_entry_bytes = store.stats()["bytes"]
        store.close()
        store = DiskResultStore(
            tmp_path / "budget.sqlite", max_bytes=int(one_entry_bytes * 1.5)
        )
        for counts, result in results.items():
            store.put(keys[counts], result)
        stats = store.stats()
        assert stats["evictions"] >= 1
        assert stats["bytes"] <= int(one_entry_bytes * 1.5)
        # The most recent entry survived.
        assert store.get(keys[(3, 2)]) is not None

    def test_single_overbudget_entry_kept(self, tmp_path):
        model = make_toy_model()
        trace = make_toy_trace(model, n=150, seed=5)
        store = DiskResultStore(tmp_path / "tiny.sqlite", max_bytes=16)
        key = result_key(model, trace, ("g4dn", "t3"), (2, 1), True)
        store.put(key, simulate_one(model, trace))
        assert store.get(key) is not None

    def test_duplicate_put_first_wins(self, tmp_path):
        model = make_toy_model()
        trace = make_toy_trace(model, n=100, seed=5)
        key = result_key(model, trace, ("g4dn", "t3"), (2, 1), True)
        store = self.make_store(tmp_path)
        store.put(key, simulate_one(model, trace))
        store.put(key, simulate_one(model, trace))
        assert store.stats()["entries"] == 1


class TestTwoTierCache:
    def test_memory_miss_falls_through_and_promotes(self, tmp_path):
        model = make_toy_model()
        trace = make_toy_trace(model, n=150, seed=7)
        path = tmp_path / "two-tier.sqlite"
        cold = SimulationResultCache(maxsize=16, disk=path)
        first = simulate_one(model, trace, memo=cold)
        assert cold.stats()["disk_entries"] == 1
        cold.disk.close()
        # A "restarted process": rebuilt equal-content objects, fresh
        # memory tier, same disk path.
        model2 = make_toy_model()
        trace2 = make_toy_trace(model2, n=150, seed=7)
        warm = SimulationResultCache(maxsize=16, disk=path)
        second = simulate_one(model2, trace2, memo=warm)
        stats = warm.stats()
        assert stats["disk_hits"] == 1
        np.testing.assert_array_equal(second.latency_s, first.latency_s)
        np.testing.assert_array_equal(second.instance_index, first.instance_index)
        assert second.makespan_s == first.makespan_s
        # Promotion: the next lookup is a pure memory hit.
        simulate_one(model2, trace2, memo=warm)
        after = warm.stats()
        assert after["hits"] == stats["hits"] + 1
        assert after["disk_hits"] == 1

    def test_disabled_memo_skips_disk(self, tmp_path):
        model = make_toy_model()
        trace = make_toy_trace(model, n=100, seed=7)
        cache = SimulationResultCache(maxsize=0, disk=tmp_path / "off.sqlite")
        simulate_one(model, trace, memo=cache)
        assert cache.stats()["disk_entries"] == 0

    def test_track_queue_keys_disk_entries_apart(self, tmp_path):
        model = make_toy_model()
        trace = make_toy_trace(model, n=100, seed=7)
        path = tmp_path / "tq.sqlite"
        cache = SimulationResultCache(maxsize=16, disk=path)
        pool = PoolConfiguration(("g4dn", "t3"), (2, 1))
        InferenceServingSimulator(model, result_cache=cache).simulate(trace, pool)
        InferenceServingSimulator(
            model, track_queue=False, result_cache=cache
        ).simulate(trace, pool)
        assert cache.stats()["disk_entries"] == 2


class TestRunnerDiskWiring:
    def scenario(self):
        from repro.api.scenario import Scenario

        return (
            Scenario.builder("MT-WND")
            .workload(n_queries=500, seed=2)
            .budget(max_samples=6)
            .build()
        )

    def test_warm_restart_replays_from_disk(self, tmp_path):
        from repro.api.runner import ScenarioRunner

        path = tmp_path / "runner.sqlite"
        cold = ScenarioRunner(self.scenario(), disk_cache=path)
        cold_result = cold.run("random", seed=0)
        assert cold.cache_stats()["simulation"]["disk_entries"] > 0
        cold.close()
        warm = ScenarioRunner(self.scenario(), disk_cache=path)
        warm_result = warm.run("random", seed=0)
        stats = warm.cache_stats()["simulation"]
        assert stats["disk_hits"] > 0
        assert [r.pool.counts for r in warm_result.history] == [
            r.pool.counts for r in cold_result.history
        ]
        assert [r.cost_per_hour for r in warm_result.history] == [
            r.cost_per_hour for r in cold_result.history
        ]
        assert [r.p99_ms for r in warm_result.history] == [
            r.p99_ms for r in cold_result.history
        ]
        warm.close()

    def test_disk_cache_and_simulation_cache_are_exclusive(self, tmp_path):
        from repro.api.runner import ScenarioRunner
        from repro.api.scenario import ScenarioError

        with pytest.raises(ScenarioError, match="not both"):
            ScenarioRunner(
                self.scenario(),
                simulation_cache=SimulationResultCache(),
                disk_cache=tmp_path / "x.sqlite",
            )

    def test_make_experiment_disk_passthrough(self, tmp_path):
        from repro.analysis.experiments import ExperimentSetting, make_experiment

        setting = ExperimentSetting(n_queries=400)
        exp = make_experiment("MT-WND", setting, disk_cache=tmp_path / "exp.sqlite")
        stats = exp.runner.cache_stats()["simulation"]
        assert stats["disk_entries"] > 0  # the homogeneous scan wrote through

    def test_job_manager_disk_cache_needs_the_default_factory(self, tmp_path):
        from repro.service.jobs import JobManager

        with pytest.raises(ValueError, match="default runner factory"):
            JobManager(
                runner_factory=lambda s: None, disk_cache=tmp_path / "x.sqlite"
            )

    def test_configured_job_manager_reports_disk_entries(self, tmp_path):
        from repro.service.jobs import JobManager

        manager = JobManager(disk_cache=tmp_path / "jobs.sqlite")
        try:
            job = manager.submit(self.scenario(), "random", seed=0)
            manager.wait(job.id, timeout=120)
            assert job.state == "done"
            stats = job.snapshot(full=True)["cache_stats"]["simulation"]
            assert stats["disk_entries"] > 0
        finally:
            manager.shutdown()

    def test_parser_accepts_disk_cache(self):
        from repro.cli import build_parser

        for argv in (["search", "MT-WND"], ["serve"]):
            args = build_parser().parse_args([*argv, "--disk-cache", "runs.sqlite"])
            assert args.disk_cache == "runs.sqlite"
