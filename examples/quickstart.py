#!/usr/bin/env python
"""Quickstart: find a cost-optimal diverse pool for one model with Ribbon.

Walks the declarative Scenario API on MT-WND (the paper's running example):

1. declare the scenario — model, workload, QoS, pool, and budget — as one
   validated `Scenario` value;
2. ask its runner for the best *homogeneous* deployment — the paper's
   starting point;
3. materialize the diverse search space over the Table 3 pool, with
   per-type bounds measured by simulation;
4. run Ribbon's Bayesian-optimization search by registry name;
5. compare the resulting diverse pool against the homogeneous baseline.

Run:  python examples/quickstart.py
"""

from repro import EvaluationBudget, Scenario, WorkloadSpec


def main() -> None:
    # 1. The whole experiment as one declarative, validated value.
    scenario = Scenario(
        "MT-WND",
        workload=WorkloadSpec(n_queries=4000, seed=1),
        budget=EvaluationBudget(max_samples=40),
    )
    model = scenario.profile
    print(f"model: {model.name} — QoS p99 <= {scenario.qos_target_ms:g} ms, "
          f"load {model.arrival_rate_qps:g} QPS")
    runner = scenario.runner()

    # 2. The incumbent deployment: cheapest homogeneous pool that meets QoS.
    homog = runner.homogeneous_optimum()
    print(f"homogeneous optimum: {homog.pool} at ${homog.cost_per_hour:.3f}/hr "
          f"(QoS rate {homog.qos_rate:.4f})")

    # 3. Materialize once: trace + diverse space over (g4dn, c5, r5n).
    mat = runner.materialize()
    print(f"trace: {len(mat.trace)} queries over {mat.trace.duration_s:.1f} s")
    print(f"search space: {mat.space}")

    # 4. Ribbon's BO search, selected from the strategy registry, starting
    #    from the homogeneous incumbent embedded in the diverse space.
    result = runner.run("ribbon", seed=0, start=runner.default_start())
    print(result.summary())

    # 5. The punchline: diverse pool cost vs homogeneous cost.
    assert result.best is not None, "search did not find a QoS-meeting pool"
    saving = 100.0 * (1.0 - result.best_cost / homog.cost_per_hour)
    print(
        f"diverse pool {result.best.pool} serves the same trace within QoS "
        f"for ${result.best_cost:.3f}/hr — {saving:.1f}% cheaper than "
        f"{homog.pool}"
    )


if __name__ == "__main__":
    main()
