"""Fig. 4: the diverse-pool opportunity on MT-WND (g4dn + t3 example).

Paper shape: 5xg4dn is the homogeneous optimum ($2.63/hr); 12xt3 is cheaper
but violates; (3+4) meets QoS *below* the homogeneous optimum's price;
(2+4) violates; (4+4) meets but costs more than 5xg4dn.
"""

from conftest import BENCH_SETTING, once, register_figure

from repro.analysis.reporting import ascii_table
from repro.models.zoo import get_model
from repro.simulator.engine import InferenceServingSimulator
from repro.simulator.pool import PoolConfiguration
from repro.workload.trace import trace_for_model

CONFIGS = [(4, 0), (5, 0), (0, 12), (3, 4), (2, 4), (4, 4)]


def test_fig04_opportunity(benchmark):
    model = get_model("MT-WND")
    trace = trace_for_model(
        model, n_queries=BENCH_SETTING.n_queries, seed=BENCH_SETTING.seed
    )
    sim = InferenceServingSimulator(model)

    def run():
        out = {}
        for cfg in CONFIGS:
            pool = PoolConfiguration(("g4dn", "t3"), cfg)
            res = sim.simulate(trace, pool)
            out[cfg] = (
                pool.hourly_cost(),
                res.qos_satisfaction_rate(model.qos_target_ms),
            )
        return out

    results = once(benchmark, run)
    rows = [
        (
            f"({g} + {t})",
            f"{cost:.3f}",
            f"{100 * rate:.2f}%",
            "meets" if rate >= 0.99 else "violates",
        )
        for (g, t), (cost, rate) in results.items()
    ]
    register_figure(
        "fig04_opportunity",
        ascii_table(
            ["config (g4dn + t3)", "cost $/hr", "QoS sat. rate", "verdict"],
            rows,
            title="Fig. 4 — MT-WND QoS satisfaction vs price (p99 <= 20 ms)",
        ),
    )

    cost = {cfg: results[cfg][0] for cfg in CONFIGS}
    rate = {cfg: results[cfg][1] for cfg in CONFIGS}
    assert rate[(5, 0)] >= 0.99 and rate[(4, 0)] < 0.99
    assert rate[(0, 12)] < 0.99 and cost[(0, 12)] < cost[(5, 0)]
    assert rate[(3, 4)] >= 0.99 and cost[(3, 4)] < cost[(5, 0)]
    assert rate[(2, 4)] < 0.99
    assert rate[(4, 4)] >= 0.99 and cost[(4, 4)] > cost[(5, 0)]
