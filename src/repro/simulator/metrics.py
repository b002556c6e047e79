"""Simulation results and figures of merit (Sec. 2 of the paper).

The serving metrics Ribbon observes per configuration evaluation:

* **QoS satisfaction rate** :math:`R_{sat}` — the fraction of queries whose
  end-to-end latency (queue wait + service) is within the latency target.
  The QoS is *met* when :math:`R_{sat} \\ge T_{qos}` (e.g. 99% of queries
  within the p99 target).
* **Tail latency** percentiles (p99 by default).
* **Throughput**, per-instance **utilization**, and **queue length**
  statistics (queue growth is the load-change detection signal of Sec. 4).

All figures of merit are array-native — one vectorized pass over the
engine's output arrays — and memoized per result object: a
:class:`SimulationResult` is immutable and (through the simulation-result
memo) shared by every evaluator that re-serves the same configuration, so
the sorted-latency pass behind the percentiles and the QoS counts are paid
once per *distinct simulation*, not once per evaluator fork.  The memo is
an idempotent cache of deterministic values, so concurrent readers (sweep
threads) can at worst recompute the same number.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of serving one trace on one pool configuration.

    All latency arrays are in seconds and aligned with the trace's query
    order.

    .. rubric:: Zero-query windows

    A result over an *empty* window (``len(result) == 0``) reports
    vacuous figures of merit: :meth:`qos_satisfaction_rate` is 1.0 ("no
    query missed the target"), :meth:`latency_percentile_ms` and the mean
    latencies are 0.0 ("no latency was observed").  These are the right
    conventions for *reporting* on an idle window, but they make it look
    QoS-perfect **and** free — a search that compared it against real
    windows could pick it as a winner.  Search-side consumers must not
    feed empty windows into the optimization:
    :class:`~repro.core.evaluator.ConfigurationEvaluator` rejects empty
    traces at construction for exactly this reason.
    """

    latency_s: np.ndarray
    wait_s: np.ndarray
    service_s: np.ndarray
    instance_index: np.ndarray
    instance_family: tuple[str, ...]
    busy_s_per_instance: np.ndarray
    makespan_s: float
    queue_len_at_arrival: np.ndarray = field(default_factory=lambda: np.empty(0))

    #: Stored per-query arrays whose shape must match ``latency_s``.
    _ALIGNED = ("wait_s", "service_s", "instance_index")

    def __post_init__(self) -> None:
        lat = np.asarray(self.latency_s, dtype=float)
        if lat.ndim != 1:
            raise ValueError("latency_s must be 1-D")
        for name in self._ALIGNED:
            arr = np.asarray(getattr(self, name))
            if arr.shape != lat.shape:
                raise ValueError(f"{name} shape {arr.shape} != {lat.shape}")
        if np.any(lat < 0):
            raise ValueError("latencies must be non-negative")
        # Memo for derived statistics (frozen dataclass => set via object).
        object.__setattr__(self, "_derived", {})

    def _memo(self, key, compute):
        derived = self._derived
        hit = derived.get(key)
        if hit is None:
            hit = derived[key] = compute()
        return hit

    def _held_arrays(self) -> tuple[np.ndarray, ...]:
        """The arrays this result stores (what a memo freezes and charges
        for); reading them derives nothing."""
        return (
            self.latency_s,
            self.wait_s,
            self.service_s,
            self.instance_index,
            self.busy_s_per_instance,
            self.queue_len_at_arrival,
        )

    def _latency_s_ascending(self) -> np.ndarray:
        """Latencies in seconds, sorted ascending — the one cached sort
        behind every derived figure (percentiles interpolate in seconds,
        exactly as the uncached path did; QoS counts scale it to ms on
        the fly, which multiplication-by-a-positive keeps order- and
        value-identical to sorting the products)."""
        return self._memo("latency_s_sorted", lambda: np.sort(self.latency_s))

    # -- core figures of merit ----------------------------------------------
    def __len__(self) -> int:
        return int(self.latency_s.size)

    def qos_satisfaction_rate(self, target_ms: float) -> float:
        """Fraction of queries with end-to-end latency <= ``target_ms``.

        Vacuously 1.0 for a zero-query window (see the class docstring:
        reporting convention only — never let an empty window compete in
        a search).
        """
        n = len(self)
        if n == 0:
            if target_ms <= 0:
                raise ValueError(
                    f"target_ms must be positive, got {target_ms!r}"
                )
            return 1.0
        return (n - self.qos_violation_count(target_ms)) / n

    def qos_violation_count(self, target_ms: float) -> int:
        """How many queries exceeded the latency target.

        One ``searchsorted`` over the cached ascending latencies scaled
        to ms — multiplication by 1000 is monotone, so the count equals
        the scalar ``latency * 1000 <= target`` tally exactly.
        """
        if target_ms <= 0:
            raise ValueError(f"target_ms must be positive, got {target_ms!r}")
        target = float(target_ms)
        return self._memo(
            ("violations", target),
            lambda: len(self)
            - int(
                np.searchsorted(
                    self._latency_s_ascending() * 1000.0, target, side="right"
                )
            ),
        )

    def meets_qos(self, target_ms: float, required_rate: float = 0.99) -> bool:
        """True when at least ``required_rate`` of queries meet the target."""
        if not 0.0 < required_rate <= 1.0:
            raise ValueError(f"required_rate must be in (0,1], got {required_rate!r}")
        return self.qos_satisfaction_rate(target_ms) >= required_rate

    def latency_percentile_ms(self, q: float) -> float:
        """q-th percentile of end-to-end latency, in milliseconds.

        Computed on the cached ascending latencies — ``np.percentile``
        selects order statistics and interpolates, a pure function of the
        value multiset, so sorting first changes nothing but the cost of
        repeat calls.  0.0 for a zero-query window — there is no latency
        distribution to take a percentile of (reporting convention; see
        class docstring).
        """
        if len(self) == 0:
            return 0.0
        q = float(q)
        return self._memo(
            ("percentile", q),
            lambda: float(np.percentile(self._latency_s_ascending(), q) * 1000.0),
        )

    @property
    def p99_ms(self) -> float:
        """99th percentile end-to-end latency (the default QoS metric)."""
        return self.latency_percentile_ms(99.0)

    @property
    def mean_latency_ms(self) -> float:
        """Mean end-to-end latency in milliseconds."""
        if len(self) == 0:
            return 0.0
        return self._memo(
            "mean_latency_ms", lambda: float(np.mean(self.latency_s) * 1000.0)
        )

    @property
    def mean_wait_ms(self) -> float:
        """Mean queueing delay in milliseconds."""
        if len(self) == 0:
            return 0.0
        return self._memo(
            "mean_wait_ms", lambda: float(np.mean(self.wait_s) * 1000.0)
        )

    @property
    def throughput_qps(self) -> float:
        """Served queries per second of simulated time."""
        if self.makespan_s <= 0:
            return 0.0
        return len(self) / self.makespan_s

    # -- per-instance accounting ---------------------------------------------
    def utilization(self) -> np.ndarray:
        """Busy-time fraction per instance over the makespan."""
        if self.makespan_s <= 0:
            return np.zeros_like(self.busy_s_per_instance)
        return self.busy_s_per_instance / self.makespan_s

    def queries_per_family(self) -> dict[str, int]:
        """How many queries each instance family served.

        One ``bincount`` over the instance indices, aggregated over the
        (short) expanded-instance list.
        """
        counts: dict[str, int] = {fam: 0 for fam in self.instance_family}
        if len(self):
            per_instance = np.bincount(
                self.instance_index, minlength=len(self.instance_family)
            )
            for fam, n in zip(self.instance_family, per_instance.tolist()):
                counts[fam] += n
        return counts

    def family_share(self) -> dict[str, float]:
        """Fraction of queries served by each family."""
        total = max(len(self), 1)
        return {f: n / total for f, n in self.queries_per_family().items()}

    @property
    def max_queue_length(self) -> int:
        """Largest number of waiting queries observed at any arrival."""
        if self.queue_len_at_arrival.size == 0:
            return 0
        return self._memo(
            "max_queue", lambda: int(self.queue_len_at_arrival.max())
        )

    @property
    def mean_queue_length(self) -> float:
        """Average waiting-queue length sampled at arrivals."""
        if self.queue_len_at_arrival.size == 0:
            return 0.0
        return self._memo(
            "mean_queue", lambda: float(self.queue_len_at_arrival.mean())
        )

    def summary(self, target_ms: float | None = None) -> str:
        """One-line human-readable summary (reporting aid)."""
        parts = [
            f"n={len(self)}",
            f"p99={self.p99_ms:.2f}ms",
            f"mean={self.mean_latency_ms:.2f}ms",
            f"qps={self.throughput_qps:.1f}",
        ]
        if target_ms is not None:
            parts.append(f"Rsat({target_ms:g}ms)={self.qos_satisfaction_rate(target_ms):.4f}")
        return " ".join(parts)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class FamilyDispatchResult(SimulationResult):
    """A :class:`SimulationResult` that stores a family-level dispatch record.

    The FCFS engine decides only which instance *family* serves each query:
    instances of one family share a service row, so which of them serves
    it changes no start time or latency.  This result therefore keeps the
    start times and the per-query family choice (``None`` when one family
    served everything) in place of the per-instance arrays, and derives
    ``instance_index`` and ``busy_s_per_instance`` on first read.
    ``replay(start_s, service_s, family_choice, family_counts)`` returns
    the per-query instance indices.  The derived arrays are memoized with
    the other derived figures (concurrent first readers may each compute
    them; every copy is equal) and are read-only.
    """

    _ALIGNED = ("wait_s", "service_s", "_start_s")

    def __init__(
        self,
        *,
        latency_s: np.ndarray,
        wait_s: np.ndarray,
        service_s: np.ndarray,
        instance_family: tuple[str, ...],
        makespan_s: float,
        queue_len_at_arrival: np.ndarray,
        start_s: np.ndarray,
        family_choice: np.ndarray | None,
        family_counts: tuple[int, ...],
        replay,
    ):
        for name, value in (
            ("latency_s", latency_s),
            ("wait_s", wait_s),
            ("service_s", service_s),
            ("instance_family", instance_family),
            ("makespan_s", makespan_s),
            ("queue_len_at_arrival", queue_len_at_arrival),
            ("_start_s", start_s),
            ("_family_choice", family_choice),
            ("_family_counts", family_counts),
            ("_replay", replay),
        ):
            object.__setattr__(self, name, value)
        self.__post_init__()

    @property
    def instance_index(self) -> np.ndarray:  # type: ignore[override]
        return self._memo(
            "instance_index",
            lambda: _read_only(
                self._replay(
                    self._start_s,
                    self.service_s,
                    self._family_choice,
                    self._family_counts,
                )
            ),
        )

    @property
    def busy_s_per_instance(self) -> np.ndarray:  # type: ignore[override]
        # bincount sums in query order: bit-equal to a running sum.
        return self._memo(
            "busy_s_per_instance",
            lambda: _read_only(
                np.bincount(
                    self.instance_index,
                    weights=self.service_s,
                    minlength=len(self.instance_family),
                )
            ),
        )

    def _held_arrays(self) -> tuple[np.ndarray, ...]:
        held = (
            self.latency_s,
            self.wait_s,
            self.service_s,
            self.queue_len_at_arrival,
            self._start_s,
        )
        if self._family_choice is not None:
            held += (self._family_choice,)
        return held
