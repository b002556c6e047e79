"""Search results: common output format of Ribbon and every baseline.

All the paper's comparison metrics (Figs. 10, 13, 14) are derived from the
ordered evaluation history:

* samples-to-reach a cost-saving level,
* exploration cost in dollars,
* number of QoS-violating samples before the optimum was found.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.evaluator import EvaluationRecord


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one configuration search."""

    method: str
    best: EvaluationRecord | None
    history: tuple[EvaluationRecord, ...]
    exploration_cost_dollars: float
    exhaustive_cost_dollars: float
    converged: bool = True
    metadata: dict = field(default_factory=dict, compare=False)

    @property
    def n_samples(self) -> int:
        """Distinct configurations evaluated."""
        return len(self.history)

    @property
    def n_violating_samples(self) -> int:
        """QoS-violating configurations sampled (Fig. 14 metric)."""
        return sum(1 for r in self.history if not r.meets_qos)

    @property
    def best_cost(self) -> float:
        """Hourly cost of the best QoS-meeting configuration found."""
        if self.best is None:
            return float("inf")
        return self.best.cost_per_hour

    def exploration_cost_fraction(self) -> float:
        """Exploration dollars as a fraction of exhaustive-search dollars."""
        if self.exhaustive_cost_dollars <= 0:
            return 0.0
        return self.exploration_cost_dollars / self.exhaustive_cost_dollars

    # -- convergence curves (Fig. 10) ------------------------------------------
    def samples_to_cost(self, cost_target: float) -> int | None:
        """Samples needed until a QoS-meeting config with cost <= target.

        Returns None when the search never reached the target.
        """
        for i, rec in enumerate(self.history, start=1):
            if rec.meets_qos and rec.cost_per_hour <= cost_target + 1e-12:
                return i
        return None

    def samples_to_saving(
        self, baseline_cost: float, saving_percent: float
    ) -> int | None:
        """Samples until reaching ``saving_percent`` below ``baseline_cost``."""
        if baseline_cost <= 0:
            raise ValueError("baseline_cost must be positive")
        target = baseline_cost * (1.0 - saving_percent / 100.0)
        return self.samples_to_cost(target)

    def violations_before_sample(self, n: int) -> int:
        """QoS-violating samples among the first ``n`` evaluations."""
        return sum(1 for r in self.history[:n] if not r.meets_qos)

    def samples_to_best(self) -> int | None:
        """Samples until the eventual best configuration was first seen."""
        if self.best is None:
            return None
        return self.samples_to_cost(self.best.cost_per_hour)

    def summary(self) -> str:
        """One-line report."""
        best = str(self.best.pool) if self.best is not None else "none"
        return (
            f"{self.method}: best={best} ${self.best_cost:.3f}/hr "
            f"samples={self.n_samples} violations={self.n_violating_samples} "
            f"explore=${self.exploration_cost_dollars:.2f} "
            f"({100 * self.exploration_cost_fraction():.1f}% of exhaustive)"
        )
