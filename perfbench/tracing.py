"""In-memory span recorder and the per-layer patch set of the benchmark.

Spans are recorded from outside the program: :func:`install` wraps the
public functions of each layer (module-level functions where the caller
looks them up, methods on their class) and :class:`Tracer` keeps one tuple
per call — id, parent id, name, start, end, op id, and an optional detail
value — until the run ends.  :func:`layer_metrics` folds spans into the
per-layer metrics named in ``BENCHMARK.json``.

With tracing off the workloads use :data:`NO_TRACER`, whose ``span`` is a
shared no-op context manager, and nothing in the program is patched.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import statistics
import threading
import time

# Span tuple fields.
SID, PARENT, NAME, T0, T1, OP, INFO = range(7)


class Detail:
    """The detail value of the span being recorded."""

    __slots__ = ("info",)

    def __init__(self, info=None) -> None:
        self.info = info


class Tracer:
    """Records nested spans per thread; ``op`` tags spans with the current op."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, info=None):
        """Record one span; the yielded :class:`Detail` may set its info."""
        stack = self._stack()
        parent = stack[-1] if stack else 0
        sid = next(self._ids)
        stack.append(sid)
        detail = Detail(info)
        t0 = time.perf_counter()
        try:
            yield detail
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, t0, t1, self.op, detail.info))

    def wrap(self, owner, attr: str, name: str, info=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``info(args, result)`` may derive a detail value stored with the span.
        """
        orig = getattr(owner, attr)
        span = self.span

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with span(name) as detail:
                result = orig(*args, **kwargs)
                if info is not None:
                    detail.info = info(args, result)
                return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (last wrapped first)."""
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


class _NoTracer:
    """Tracing off: spans cost one call and record nothing."""

    enabled = False
    op = None
    _null = contextlib.nullcontext()

    def span(self, name: str, info=None):
        return self._null


NO_TRACER = _NoTracer()


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    import repro.api.runner as runner_mod
    import repro.core.search_space as space_mod
    import repro.service.jobs as jobs_mod
    import repro.workload.trace as trace_mod
    from repro.core.evaluator import ConfigurationEvaluator
    from repro.gp.proposals import SequentialEI
    from repro.gp.regression import GaussianProcessRegressor
    from repro.service.store import SnapshotStore
    from repro.simulator.engine import InferenceServingSimulator
    from repro.simulator.result_cache import SimulationResultCache
    from repro.simulator.service import ServiceTimeCache

    # runner.py imports these two by name, so patch both lookup sites.
    for mod in (runner_mod, trace_mod):
        tracer.wrap(mod, "trace_for_model", "workload.trace")
    for mod in (runner_mod, space_mod):
        tracer.wrap(mod, "estimate_instance_bounds", "bounds")
    for meth in ("matrix", "rows", "row_means"):
        tracer.wrap(ServiceTimeCache, meth, "service_matrix")
    tracer.wrap(runner_mod.ScenarioRunner, "materialize", "materialize")
    tracer.wrap(runner_mod.ScenarioRunner, "homogeneous_optimum", "homog")
    tracer.wrap(
        InferenceServingSimulator, "simulate", "dispatch",
        info=lambda args, result: len(args[1]),
    )
    tracer.wrap(
        SimulationResultCache, "get", "memo",
        info=lambda args, result: result is not None,
    )
    tracer.wrap(SimulationResultCache, "put", "memo")
    tracer.wrap(ConfigurationEvaluator, "evaluate", "evaluator")
    tracer.wrap(ConfigurationEvaluator, "evaluate_many", "evaluator.many")
    tracer.wrap(
        GaussianProcessRegressor, "fit", "gp.fit",
        info=lambda args, result: len(args[1]),
    )
    tracer.wrap(SequentialEI, "propose", "acquire")
    tracer.wrap(SnapshotStore, "append_result", "store.append")
    # jobs.py imports the serializer by name.
    tracer.wrap(jobs_mod, "search_result_to_dict", "serialize")


def cache_stats() -> dict:
    """Counters of the process-wide caches and dispatch substrates."""
    from repro.simulator.engine import global_dispatch_counters
    from repro.simulator.result_cache import shared_simulation_cache
    from repro.simulator.service import shared_service_cache

    memo = shared_simulation_cache().stats()
    service = shared_service_cache().stats()
    return {
        "memo": {k: memo[k] for k in ("hits", "misses", "evictions", "bytes")},
        "service": {k: service[k] for k in ("hits", "misses")},
        "dispatch": global_dispatch_counters().snapshot(),
    }


#: Per-layer metrics printed by a traced run, with their units, in order.
PER_LAYER_UNITS: dict[str, str] = {
    "workload.trace_s": "s",
    "workload.trace_calls": "count",
    "service_matrix.s": "s",
    "service_matrix.lookups": "count",
    "service_matrix.hit_ratio": "ratio",
    "bounds.s": "s",
    "bounds.sims": "count",
    "materialize.s": "s",
    "homog.s": "s",
    "homog.sims": "count",
    "dispatch.s": "s",
    "dispatch.calls": "count",
    "dispatch.us_per_query": "us",
    "dispatch.linear": "count",
    "dispatch.heap": "count",
    "dispatch.vector": "count",
    "dispatch.vector_hetero": "count",
    "dispatch.vector_fallback": "count",
    "memo.hits": "count",
    "memo.misses": "count",
    "memo.hit_ratio": "ratio",
    "memo.evictions": "count",
    "memo.bytes": "bytes",
    "memo.s": "s",
    "evaluator.calls": "count",
    "evaluator.evaluations": "count",
    "evaluator.cache_hit_ratio": "ratio",
    "gp.fits": "count",
    "gp.fit_s": "s",
    "gp.n_train_mean": "count",
    "acquire.s": "s",
    "acquire.calls": "count",
    "strategy.ribbon.s": "s",
    "strategy.hill-climb.s": "s",
    "strategy.random.s": "s",
    "strategy.rsm.s": "s",
    "experiment.setup_s": "s",
    "http.post_jobs.s": "s",
    "http.stream.s": "s",
    "http.get_result.s": "s",
    "http.post_fork.s": "s",
    "jobs.queue_wait_s": "s",
    "jobs.run_s": "s",
    "jobs.reuse_hits": "count",
    "store.append_s": "s",
    "store.bytes": "bytes",
    "serialize.s": "s",
    "setup.import.repro.gp_s": "s",
    "setup.import.scipy.stats_s": "s",
    "setup.import.numpy_s": "s",
    "trace.spans": "count",
    "trace.op_wall_s": "s",
    "trace.coverage_pct": "%",
    "trace.ops_per_s": "1/s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.overhead_pct": "%",
}


#: Span names that belong to another span name's layer.
_LAYER = {"evaluator.many": "evaluator"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(span_sets: list[list[tuple]], stats: list[dict]) -> dict[str, float]:
    """Fold spans (one list per process) and cache counters into metrics.

    A layer's time is the time covered by its outermost spans (a span
    nested in a span of the same layer is not counted twice); self time is
    a span's duration minus its children's.
    """
    out: dict[str, float] = {}
    totals: dict[str, float] = {}
    selfs: dict[str, float] = {}
    counts: dict[str, int] = {}
    outer: dict[str, int] = {}  # outermost spans per layer
    bounds_sims = homog_sims = 0
    evaluations = evaluator_hits = 0
    dispatch_queries = 0
    fit_sizes: list[int] = []
    for spans in span_sets:
        by_id = {s[SID]: s for s in spans}
        child_time: dict[int, float] = {}
        children: dict[int, list[tuple]] = {}
        for s in spans:
            if s[PARENT]:
                child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) + s[T1] - s[T0]
                children.setdefault(s[PARENT], []).append(s)

        def layers_above(s):
            parent = by_id.get(s[PARENT])
            while parent is not None:
                yield _LAYER.get(parent[NAME], parent[NAME])
                parent = by_id.get(parent[PARENT])

        for s in spans:
            name, dur = s[NAME], s[T1] - s[T0]
            layer = _LAYER.get(name, name)
            counts[name] = counts.get(name, 0) + 1
            selfs[layer] = selfs.get(layer, 0.0) + dur - child_time.get(s[SID], 0.0)
            above = list(layers_above(s))
            if layer not in above:
                totals[layer] = totals.get(layer, 0.0) + dur
                outer[layer] = outer.get(layer, 0) + 1
            if name == "dispatch":
                owner = next((a for a in above if a in ("bounds", "homog")), None)
                bounds_sims += owner == "bounds"
                homog_sims += owner == "homog"
                memo_hit = any(c[NAME] == "memo" and c[INFO] for c in children.get(s[SID], ()))
                if not memo_hit:
                    dispatch_queries += s[INFO] or 0
            elif name == "evaluator":
                evaluations += 1
                evaluator_hits += not any(
                    c[NAME] == "dispatch" for c in children.get(s[SID], ())
                )
            elif name == "gp.fit":
                fit_sizes.append(s[INFO])

    out["workload.trace_s"] = totals.get("workload.trace", 0.0)
    out["workload.trace_calls"] = counts.get("workload.trace", 0)
    service_hits = sum(st["service"]["hits"] for st in stats)
    service_lookups = service_hits + sum(st["service"]["misses"] for st in stats)
    out["service_matrix.s"] = totals.get("service_matrix", 0.0)
    out["service_matrix.lookups"] = service_lookups
    out["service_matrix.hit_ratio"] = _ratio(service_hits, service_lookups)
    out["bounds.s"] = totals.get("bounds", 0.0)
    out["bounds.sims"] = bounds_sims
    out["materialize.s"] = totals.get("materialize", 0.0)
    out["homog.s"] = totals.get("homog", 0.0)
    out["homog.sims"] = homog_sims
    out["dispatch.s"] = selfs.get("dispatch", 0.0)
    out["dispatch.calls"] = counts.get("dispatch", 0)
    out["dispatch.us_per_query"] = 1e6 * _ratio(selfs.get("dispatch", 0.0), dispatch_queries)
    for path in ("linear", "heap", "vector", "vector_hetero", "vector_fallback"):
        out[f"dispatch.{path}"] = sum(st["dispatch"][path] for st in stats)
    memo_hits = sum(st["memo"]["hits"] for st in stats)
    memo_misses = sum(st["memo"]["misses"] for st in stats)
    out["memo.hits"] = memo_hits
    out["memo.misses"] = memo_misses
    out["memo.hit_ratio"] = _ratio(memo_hits, memo_hits + memo_misses)
    out["memo.evictions"] = sum(st["memo"]["evictions"] for st in stats)
    out["memo.bytes"] = sum(st["memo"]["bytes"] for st in stats)
    out["memo.s"] = totals.get("memo", 0.0)
    out["evaluator.calls"] = outer.get("evaluator", 0)
    out["evaluator.evaluations"] = evaluations
    out["evaluator.cache_hit_ratio"] = _ratio(evaluator_hits, evaluations)
    out["gp.fits"] = counts.get("gp.fit", 0)
    out["gp.fit_s"] = totals.get("gp.fit", 0.0)
    out["gp.n_train_mean"] = statistics.fmean(fit_sizes) if fit_sizes else 0.0
    out["acquire.s"] = selfs.get("acquire", 0.0)
    out["acquire.calls"] = counts.get("acquire", 0)
    for route in ("post_jobs", "stream", "get_result", "post_fork"):
        out[f"http.{route}.s"] = totals.get(f"http.{route}", 0.0)
    out["store.append_s"] = totals.get("store.append", 0.0)
    out["serialize.s"] = totals.get("serialize", 0.0)
    out["trace.spans"] = sum(len(spans) for spans in span_sets)
    return out


def write_spans(path, span_sets: list[list[tuple]]) -> None:
    """Write spans as JSON lines; ``process`` 0 is the client, 1 the daemon."""
    fields = ("id", "parent", "name", "start", "end", "op", "info")
    with open(path, "w") as fh:
        for process, spans in enumerate(span_sets):
            for s in spans:
                fh.write(json.dumps(dict(zip(fields, s), process=process)) + "\n")


def coverage(spans: list[tuple]) -> tuple[float, float]:
    """(op wall seconds, share of it covered by the ops' direct children)."""
    ops = {s[SID]: s[T1] - s[T0] for s in spans if s[NAME] == "op"}
    covered = sum(s[T1] - s[T0] for s in spans if s[PARENT] in ops)
    wall = sum(ops.values())
    return wall, _ratio(covered, wall)
