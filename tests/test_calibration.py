"""Calibration contract (DESIGN.md section 5).

These tests pin the substrate to the paper's qualitative characterization.
They run the paper-scale workloads, so they are the slowest tests in the
suite (a few seconds); everything else in the suite runs on toy workloads.
"""

import pytest

from repro.analysis.experiments import (
    ExperimentSetting,
    find_homogeneous_optimum,
    make_experiment,
)
from repro.models.zoo import MODEL_ZOO, get_model
from repro.simulator.engine import InferenceServingSimulator
from repro.simulator.pool import PoolConfiguration
from repro.workload.trace import trace_for_model

FIG3_FAMILIES = ("g4dn", "c5", "m5n", "t3", "r5", "r5n")


@pytest.fixture(scope="module")
def mtwnd():
    return get_model("MT-WND")


@pytest.fixture(scope="module")
def mtwnd_trace(mtwnd):
    return trace_for_model(mtwnd, n_queries=4000, seed=1)


class TestFig3Tradeoff:
    """Fig. 3: performance rank != cost-effectiveness rank."""

    def test_g4dn_best_performance_at_batch_128(self, mtwnd):
        lats = {f: float(mtwnd.latency_ms(f, 128)) for f in FIG3_FAMILIES}
        assert min(lats, key=lats.get) == "g4dn"
        # ... clearly: second best is at most 70% of g4dn's throughput.
        second = min(v for k, v in lats.items() if k != "g4dn")
        assert lats["g4dn"] / second <= 0.70

    def test_all_instances_comparable_at_batch_32(self, mtwnd):
        perf = {f: 1.0 / float(mtwnd.latency_ms(f, 32)) for f in FIG3_FAMILIES}
        top = max(perf.values())
        assert all(v / top >= 0.45 for v in perf.values())

    def test_g4dn_least_cost_effective_at_batch_128(self, mtwnd):
        ce = {f: mtwnd.cost_effectiveness(f, 128) for f in FIG3_FAMILIES}
        assert min(ce, key=ce.get) == "g4dn"

    def test_r5_most_cost_effective_at_batch_128(self, mtwnd):
        ce = {f: mtwnd.cost_effectiveness(f, 128) for f in FIG3_FAMILIES}
        assert max(ce, key=ce.get) == "r5"

    def test_rank_flip_exists(self, mtwnd):
        """The core trade-off: the performance winner is the cost loser."""
        perf = {f: 1.0 / float(mtwnd.latency_ms(f, 128)) for f in FIG3_FAMILIES}
        ce = {f: mtwnd.cost_effectiveness(f, 128) for f in FIG3_FAMILIES}
        assert max(perf, key=perf.get) == min(ce, key=ce.get) == "g4dn"


class TestFig4Opportunity:
    """Fig. 4: the six MT-WND example configurations (p99 <= 20 ms)."""

    @pytest.fixture(scope="class")
    def rates(self, mtwnd, mtwnd_trace):
        sim = InferenceServingSimulator(mtwnd)
        out = {}
        for cfg in [(5, 0), (4, 0), (0, 12), (3, 4), (2, 4), (4, 4)]:
            pool = PoolConfiguration(("g4dn", "t3"), cfg)
            res = sim.simulate(mtwnd_trace, pool)
            out[cfg] = res.qos_satisfaction_rate(mtwnd.qos_target_ms)
        return out

    def test_five_g4dn_meets(self, rates):
        assert rates[(5, 0)] >= 0.99

    def test_four_g4dn_violates(self, rates):
        assert rates[(4, 0)] < 0.99

    def test_twelve_t3_violates_but_cheaper(self, rates):
        assert rates[(0, 12)] < 0.99
        assert PoolConfiguration(("g4dn", "t3"), (0, 12)).hourly_cost() < \
            PoolConfiguration(("g4dn", "t3"), (5, 0)).hourly_cost()

    def test_three_plus_four_meets_and_saves(self, rates):
        assert rates[(3, 4)] >= 0.99
        cost = PoolConfiguration(("g4dn", "t3"), (3, 4)).hourly_cost()
        assert cost < PoolConfiguration(("g4dn", "t3"), (5, 0)).hourly_cost()

    def test_two_plus_four_violates(self, rates):
        assert rates[(2, 4)] < 0.99

    def test_four_plus_four_meets_but_costs_more(self, rates):
        assert rates[(4, 4)] >= 0.99
        assert PoolConfiguration(("g4dn", "t3"), (4, 4)).hourly_cost() > \
            PoolConfiguration(("g4dn", "t3"), (5, 0)).hourly_cost()


class TestHomogeneousBaselines:
    """Table 3: the best homogeneous type and its minimal count."""

    @pytest.mark.parametrize("name", list(MODEL_ZOO))
    def test_homogeneous_family_can_meet_qos(self, name):
        model = get_model(name)
        trace = trace_for_model(model, n_queries=4000, seed=1)
        rec = find_homogeneous_optimum(model, trace)
        assert rec.meets_qos
        assert rec.pool.families == (model.homogeneous_family,)

    def test_mtwnd_needs_five_g4dn(self, mtwnd, mtwnd_trace):
        rec = find_homogeneous_optimum(mtwnd, mtwnd_trace)
        assert rec.pool.counts == (5,)


class TestHeterogeneousSavings:
    """Fig. 9 shape: the diverse pool beats the homogeneous optimum."""

    @pytest.mark.parametrize("name", list(MODEL_ZOO))
    def test_positive_double_digit_or_near_savings(self, name):
        exp = make_experiment(name, ExperimentSetting(n_queries=4000, seed=1))
        saving = exp.max_saving_percent()
        assert saving >= 4.0, f"{name} saving {saving:.1f}% too small"
        assert saving <= 30.0, f"{name} saving {saving:.1f}% implausibly large"

    def test_mtwnd_heterogeneous_optimum_is_mixed(self):
        exp = make_experiment("MT-WND", ExperimentSetting(n_queries=4000, seed=1))
        best = exp.ground_truth()
        n_used_types = sum(1 for c in best.pool.counts if c > 0)
        assert n_used_types >= 2
