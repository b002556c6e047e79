"""Simulation results and figures of merit (Sec. 2 of the paper).

The serving metrics Ribbon observes per configuration evaluation:

* **QoS satisfaction rate** :math:`R_{sat}` — the fraction of queries whose
  end-to-end latency (queue wait + service) is within the latency target.
  The QoS is *met* when :math:`R_{sat} \\ge T_{qos}` (e.g. 99% of queries
  within the p99 target).
* **Tail latency** percentiles (p99 by default).
* **Queue length** seen by each arrival (queue growth is the load-change
  detection signal of Sec. 4).

A result stores only what these read: the per-query latencies and start
times, with the trace's arrival times borrowed.  The figures of merit are
derived from those arrays and memoized per result object: a
:class:`SimulationResult` is immutable and (through the simulation-result
memo) shared by every evaluator that re-serves the same configuration, so
the one sort of the latencies behind the percentiles and the QoS counts is
paid once per *distinct simulation*, not once per evaluator fork.  A
percentile reads two order statistics off that sorted array and
interpolates as ``np.percentile``'s default ``linear`` method does, with
the same float operations, so it equals ``np.percentile`` bit for bit.  The
mean queue length comes from the engine when its compiled loop counted it
(an exact integer total over the query count); otherwise it is the mean of
the queue column, which is derived on first read.  The memo is an
idempotent cache of deterministic values, so concurrent readers (sweep
threads) can at worst recompute the same number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, init=False, eq=False)
class SimulationResult:
    """Outcome of serving one trace on one pool configuration.

    ``latency_s`` (queue wait + service) and ``start_s`` are in seconds
    and aligned with the trace's query order; ``arrival_s`` is the
    trace's own array, borrowed, not copied.  The queue length seen by
    each arrival, ``queue_len_at_arrival``, is derived from the start and
    arrival times on first read, unless the engine counted it itself and
    passed it in.  Either way the column is read-only.  An engine that
    summed the column itself passes its mean as ``mean_queue_length``
    instead, and the column stays underived until something reads it.

    .. rubric:: Zero-query windows

    A result over an *empty* window (``len(result) == 0``) reports
    vacuous figures of merit: :meth:`qos_satisfaction_rate` is 1.0 ("no
    query missed the target"), :meth:`latency_percentile_ms` is 0.0 ("no
    latency was observed") and so is the mean queue length.  These are the
    right conventions for *reporting* on an idle window, but they make it look
    QoS-perfect **and** free — a search that compared it against real
    windows could pick it as a winner.  Search-side consumers must not
    feed empty windows into the optimization:
    :class:`~repro.core.evaluator.ConfigurationEvaluator` rejects empty
    traces at construction for exactly this reason.
    """

    latency_s: np.ndarray
    start_s: np.ndarray
    arrival_s: np.ndarray = field(repr=False)

    def __init__(
        self,
        *,
        latency_s: np.ndarray,
        start_s: np.ndarray,
        arrival_s: np.ndarray,
        queue_len_at_arrival: np.ndarray | None = None,
        mean_queue_length: float | None = None,
    ):
        lat = np.asarray(latency_s, dtype=float)
        if lat.ndim != 1:
            raise ValueError("latency_s must be 1-D")
        for name, arr in (
            ("start_s", start_s),
            ("arrival_s", arrival_s),
            ("queue_len_at_arrival", queue_len_at_arrival),
        ):
            if arr is not None and np.shape(arr) != lat.shape:
                raise ValueError(f"{name} shape {np.shape(arr)} != {lat.shape}")
        if not np.all(lat >= 0):  # NaN included
            raise ValueError("latencies must be non-negative")
        object.__setattr__(self, "latency_s", latency_s)
        object.__setattr__(self, "start_s", start_s)
        object.__setattr__(self, "arrival_s", arrival_s)
        # Memo for derived statistics (frozen dataclass => set via object).
        derived: dict = {}
        if queue_len_at_arrival is not None:
            derived["queue_len_at_arrival"] = _read_only(
                np.asarray(queue_len_at_arrival)
            )
        if mean_queue_length is not None:
            derived["mean_queue"] = float(mean_queue_length)
        object.__setattr__(self, "_derived", derived)

    def _memo(self, key, compute):
        derived = self._derived
        hit = derived.get(key)
        if hit is None:
            hit = derived[key] = compute()
        return hit

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

    def latency_percentile_ms(self, q: float) -> float:
        """q-th percentile of end-to-end latency, in milliseconds.

        ``np.percentile``'s default ``linear`` method, bit for bit, on the
        cached ascending latencies: see :func:`_linear_percentile`.  0.0
        for a zero-query window — there is no latency distribution to take
        a percentile of (reporting convention; see class docstring).

        Raises
        ------
        ValueError
            If ``q`` is outside [0, 100].
        """
        fraction = float(q) / 100
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"percentile must be in [0, 100], got {q!r}")
        if len(self) == 0:
            return 0.0
        return _linear_percentile(self._latency_s_ascending(), fraction) * 1000.0

    @property
    def p99_ms(self) -> float:
        """99th percentile end-to-end latency (the default QoS metric)."""
        return self.latency_percentile_ms(99.0)

    @property
    def queue_len_at_arrival(self) -> np.ndarray:
        """Waiting-queue length seen by each arrival (read-only)."""
        return self._memo(
            "queue_len_at_arrival",
            lambda: _read_only(
                queue_lengths_at_arrival(self.start_s, self.arrival_s)
            ),
        )

    @property
    def mean_queue_length(self) -> float:
        """Average waiting-queue length sampled at arrivals."""
        if len(self) == 0:
            return 0.0
        return self._memo(
            "mean_queue", lambda: float(self.queue_len_at_arrival.mean())
        )


def queue_lengths_at_arrival(
    start_s: np.ndarray, arrival_s: np.ndarray
) -> np.ndarray:
    """Waiting-queue length seen by each arrival of an FCFS run.

    FCFS starts are monotone, so the queries started by ``t_q`` are a
    prefix; the earlier arrivals past it are still queued:
    ``q - min(q, #{j : start_j <= t_q})``.
    """
    q = np.arange(start_s.size)
    started = np.searchsorted(start_s, arrival_s, "right")
    return q - np.minimum(q, started)


def _linear_percentile(ascending: np.ndarray, fraction: float) -> float:
    """The ``fraction`` quantile of a non-empty ascending array, as
    ``np.quantile(ascending, fraction)`` computes it, in scalar float
    operations: the virtual index ``(n - 1) * fraction``, its floor and
    fractional part ``gamma``, and NumPy's two-sided ``_lerp``.  At or
    past the last index NumPy reads the last element twice and measures
    ``gamma`` from index -1; that quirk is kept because it picks the
    ``_lerp`` branch."""
    n = ascending.size
    virtual = (n - 1) * fraction
    if virtual >= n - 1:
        below = above = -1
    else:
        below = math.floor(virtual)
        above = below + 1
    gamma = virtual - below
    a = float(ascending[below])
    b = float(ascending[above])
    diff = b - a
    if gamma >= 0.5:
        return b - diff * (1 - gamma)
    return a + diff * gamma


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr
