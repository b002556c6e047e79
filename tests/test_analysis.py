"""Tests for the analysis harness and reporting helpers."""

import pytest

from repro.analysis.experiments import (
    ExperimentSetting,
    make_experiment,
    mean_samples_to_saving,
)
from repro.analysis.cardinality import cardinality_sweep
from repro.analysis.reporting import (
    ascii_bar_chart,
    ascii_table,
    series_table,
)
from repro.core.result import SearchResult
from repro.core.evaluator import EvaluationRecord
from repro.simulator.pool import PoolConfiguration


class TestReporting:
    def test_ascii_table_alignment(self):
        out = ascii_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len({len(l) for l in lines[2:]}) <= 2  # consistent widths

    def test_ascii_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            ascii_table(["a"], [[1, 2]])

    def test_bar_chart_scales_to_max(self):
        out = ascii_bar_chart(["x", "y"], [1.0, 2.0], width=10)
        lines = out.splitlines()
        assert lines[1].count("#") == 10
        assert lines[0].count("#") == 5

    def test_bar_chart_length_mismatch(self):
        with pytest.raises(ValueError):
            ascii_bar_chart(["x"], [1.0, 2.0])

    def test_series_table(self):
        out = series_table("x", [1, 2], {"s1": [10, 20], "s2": [30, 40]})
        assert "s1" in out and "40" in out

    def test_series_table_mismatch(self):
        with pytest.raises(ValueError):
            series_table("x", [1], {"s1": [10, 20]})


class TestMeanSamplesToSaving:
    @staticmethod
    def _result(costs_meets):
        history = []
        for i, (cost, meets) in enumerate(costs_meets):
            history.append(
                EvaluationRecord(
                    pool=PoolConfiguration(("g4dn",), (i + 1,)),
                    qos_rate=0.99 if meets else 0.5,
                    cost_per_hour=cost,
                    objective=0.5,
                    meets_qos=meets,
                    sample_index=i,
                    p99_ms=1.0,
                    mean_queue_length=0.0,
                )
            )
        meeting = [r for r in history if r.meets_qos]
        best = min(meeting, key=lambda r: r.cost_per_hour) if meeting else None
        return SearchResult(
            method="X",
            best=best,
            history=tuple(history),
            exploration_cost_dollars=0.0,
            exhaustive_cost_dollars=1.0,
        )

    def test_average_over_seeds(self):
        r1 = self._result([(2.0, True), (1.0, True)])  # reaches 50% at n=2
        r2 = self._result([(1.0, True)])  # reaches at n=1
        out = mean_samples_to_saving([r1, r2], homogeneous_cost=2.0, saving_percent=50.0)
        assert out == pytest.approx(1.5)

    def test_penalty_for_non_reaching_runs(self):
        r = self._result([(2.0, True)])
        out = mean_samples_to_saving(
            [r], homogeneous_cost=2.0, saving_percent=50.0, penalty_samples=99
        )
        assert out == pytest.approx(99.0)


class TestExperimentWiring:
    @pytest.fixture(scope="class")
    def exp(self):
        return make_experiment("MT-WND", ExperimentSetting(n_queries=2500, seed=1))

    def test_space_over_table3_pool(self, exp):
        assert exp.space.families == ("g4dn", "c5", "r5n")

    def test_homogeneous_optimum_meets_qos(self, exp):
        assert exp.homogeneous_optimum.meets_qos

    def test_ground_truth_cached(self, exp):
        a = exp.ground_truth()
        b = exp.ground_truth()
        assert a is b

    def test_default_start_inside_space(self, exp):
        assert exp.space.contains(exp.default_start())

    def test_custom_families(self):
        exp = make_experiment(
            "MT-WND",
            ExperimentSetting(n_queries=2000, seed=1),
            families=("g4dn", "t3"),
        )
        assert exp.space.families == ("g4dn", "t3")


class TestCardinalitySweep:
    def test_two_point_sweep_structure(self):
        points = cardinality_sweep(
            "MT-WND",
            max_types=2,
            setting=ExperimentSetting(n_queries=2000, seed=1),
            bound_cap=8,
        )
        assert [p.n_types for p in points] == [1, 2]
        assert points[0].families == ("g4dn",)
        assert points[1].families == ("g4dn", "c5")
        # Cardinality 1 cannot beat the best homogeneous configuration.
        assert points[0].n_better_configs == 0
        assert points[0].best_saving_percent == 0.0
        # More types can only widen the set of better configurations.
        assert points[1].n_better_configs >= points[0].n_better_configs
