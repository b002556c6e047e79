#!/usr/bin/env python
"""Recommendation-serving scenario: surviving a traffic surge.

The paper's Sec. 4 load-fluctuation story on DIEN (Alibaba's e-commerce
recommender): a service tuned to its optimal diverse pool experiences a
1.5x traffic increase — think a flash-sale event.  Ribbon detects the
change from queue growth + QoS collapse, transfers what it learned from the
old load (set-S estimation and pruning), and re-converges to a new optimum
with a warm-started BO.

The example also contrasts the warm start against a cold restart, the
ablation behind Fig. 16's "<60% of the previous exploration time" claim.

Run:  python examples/recommender_autoscaling.py
"""

from repro import EvaluationBudget, Scenario, WorkloadSpec, make_strategy
from repro.core import LoadAdaptiveRibbon

LOAD_FACTOR = 1.5

# Declare the surge phase; the base-load phase is a fork of it.  Sizing the
# space on the heavier load means both phases share one lattice.
SURGE = Scenario(
    "DIEN",
    workload=WorkloadSpec(n_queries=4000, seed=1, load_factor=LOAD_FACTOR),
    budget=EvaluationBudget(max_samples=45),
)


def run(warm_start: bool):
    runner_hi = SURGE.runner()
    runner_lo = runner_hi.fork(load_factor=1.0)
    adaptive = LoadAdaptiveRibbon(
        lambda: make_strategy("ribbon", max_samples=45, seed=0),
        warm_start=warm_start,
    )
    # Fresh evaluator forks keep the warm and cold runs' accounting apart.
    return adaptive.run(
        runner_lo.materialize().fresh_evaluator(),
        runner_hi.materialize().fresh_evaluator(),
    )


def main() -> None:
    model = SURGE.profile
    print(f"model: {model.name}, QoS p99 <= {model.qos_target_ms:g} ms, "
          f"surge: x{LOAD_FACTOR}")

    outcome = run(warm_start=True)
    before, after = outcome.result_before, outcome.result_after
    deployed = outcome.deployed_on_new_load

    print(f"\nphase 1 (base load): optimum {before.best.pool} "
          f"at ${before.best_cost:.3f}/hr in {before.n_samples} samples")
    print(f"surge hits: deployed pool now satisfies only "
          f"{100 * deployed.qos_rate:.1f}% of queries "
          f"(mean queue {deployed.mean_queue_length:.1f}) -> "
          f"load change detected: {outcome.detected}")
    print(f"phase 2 (warm start, {outcome.n_pseudo} transferred estimates): "
          f"new optimum {after.best.pool} at ${after.best_cost:.3f}/hr "
          f"in {after.n_samples} samples")
    print(f"new/old optimal cost ratio: "
          f"{outcome.cost_ratio_after_vs_before:.2f}x (load grew {LOAD_FACTOR}x)")

    cold = run(warm_start=False)
    warm_n = after.samples_to_best() or after.n_samples
    cold_n = (
        cold.result_after.samples_to_best() or cold.result_after.n_samples
    )
    print(f"\nre-convergence samples: warm start {warm_n} vs cold restart "
          f"{cold_n}")

    print("\ntimeline (phase 2, per explored configuration):")
    for pt in outcome.timeline():
        if pt.phase != "after":
            continue
        bar = "#" * int(pt.violation_percent)
        print(
            f"  t={pt.sample_index:3d} {str(pt.pool):24s} "
            f"cost={pt.cost_normalized:4.2f}x viol={pt.violation_percent:5.1f}% {bar}"
        )


if __name__ == "__main__":
    main()
