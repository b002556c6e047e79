"""Declarative scenario descriptions: the front door of the reproduction.

A :class:`Scenario` is a frozen, hashable, picklable value object that says
*what* to search — which model, which workload, which QoS contract, which
pool of instance families, and how many evaluations the search may spend —
without saying *how*.  Materializing it into the concrete pipeline objects
(trace, search space, objective, evaluator) is the job of
:class:`repro.api.runner.ScenarioRunner`; choosing the search algorithm is
the job of the strategy registry (:mod:`repro.api.registry`).

Every consumer of the reproduction — the CLI, the service, the analysis
harness, the examples, the benchmarks — goes through this one object, so a
new workload, backend, or optimizer plugs in here instead of growing
another hand-wired ``get_model -> trace -> bounds -> objective ->
evaluator -> search`` chain at a call site.

Validation is front-loaded: constructing a :class:`Scenario` with an
unknown model, an empty or duplicated pool, explicit bounds whose lattice
exceeds :data:`~repro.core.search_space.MAX_LATTICE_CELLS` cells, a
``bound_cap`` above that cap, or a non-positive QoS target raises
:class:`ScenarioError` with an actionable message immediately, instead of
failing deep inside the evaluator half a search later.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

from repro.core.search_space import MAX_LATTICE_CELLS, check_lattice_size
from repro.models.base import ModelProfile
from repro.models.zoo import MODEL_ZOO, get_model

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner imports us)
    from repro.api.runner import ScenarioRunner
    from repro.core.result import SearchResult


class ScenarioError(ValueError):
    """A scenario is malformed; the message says what to fix."""


def _resolve_model(name: Any) -> ModelProfile:
    """Look up a model, converting failure into an actionable error."""
    if not isinstance(name, str) or not name.strip():
        raise ScenarioError(
            f"scenario model must be a non-empty model name string, got "
            f"{name!r}; known models: {', '.join(MODEL_ZOO)}"
        )
    try:
        return get_model(name)
    except KeyError:
        raise ScenarioError(
            f"unknown model {name!r}; known models: {', '.join(MODEL_ZOO)}"
        ) from None


@dataclass(frozen=True)
class WorkloadSpec:
    """The query stream a scenario is evaluated against.

    Parameters
    ----------
    n_queries:
        Trace length (every configuration is evaluated on the same trace —
        common random numbers across strategies).
    seed:
        Trace generation seed.  ``None`` (the default) means "follow the
        run seed": ``Scenario.run(..., seed=s)`` generates the trace with
        seed ``s``.  Pin an integer to hold the workload fixed across
        multi-seed sweeps.
    load_factor:
        Multiplier on the model's calibrated arrival rate (load-change
        scenarios).
    gaussian:
        Use the Gaussian batch-size variant (Fig. 11) instead of the
        default heavy-tail log-normal.
    """

    n_queries: int = 4000
    seed: int | None = None
    load_factor: float = 1.0
    gaussian: bool = False

    def __post_init__(self) -> None:
        if int(self.n_queries) < 1:
            raise ScenarioError(
                f"workload n_queries must be >= 1, got {self.n_queries!r}"
            )
        object.__setattr__(self, "n_queries", int(self.n_queries))
        if self.seed is not None:
            object.__setattr__(self, "seed", int(self.seed))
        if self.load_factor <= 0:
            raise ScenarioError(
                f"workload load_factor must be positive, got {self.load_factor!r}"
            )


@dataclass(frozen=True)
class QoSSpec:
    """The latency contract a configuration must honor.

    Parameters
    ----------
    latency_target_ms:
        Tail-latency target in milliseconds; ``None`` uses the model's
        calibrated Table 1 target.
    rate_target:
        Required fraction of queries meeting the latency target
        (:math:`T_{qos}` of Eq. 2; 0.99 = "p99").
    """

    latency_target_ms: float | None = None
    rate_target: float = 0.99

    def __post_init__(self) -> None:
        if self.latency_target_ms is not None and self.latency_target_ms <= 0:
            raise ScenarioError(
                f"QoS latency_target_ms must be positive, got "
                f"{self.latency_target_ms!r} (drop it to use the model default)"
            )
        if not 0.0 < self.rate_target <= 1.0:
            raise ScenarioError(
                f"QoS rate_target must be in (0, 1], got {self.rate_target!r}"
            )


@dataclass(frozen=True)
class PoolSpec:
    """The instance families the search may deploy, and their count bounds.

    Parameters
    ----------
    families:
        Ordered instance families forming the search dimensions; ``None``
        uses the model's Table 3 diverse pool.  The order is semantic
        (FCFS dispatch preference).
    bounds:
        Per-family count upper bounds.  ``None`` (the default) measures
        them by simulation (the paper's :math:`m_i` saturation rule, via
        :func:`repro.core.search_space.estimate_instance_bounds`).
    bound_cap:
        Hard cap on measured bounds (keeps the lattice tractable); at most
        :data:`~repro.core.search_space.MAX_LATTICE_CELLS`.
    """

    families: tuple[str, ...] | None = None
    bounds: tuple[int, ...] | None = None
    bound_cap: int = 16

    def __post_init__(self) -> None:
        if self.families is not None:
            fams = tuple(self.families)
            if not fams:
                raise ScenarioError(
                    "pool families is empty; list at least one instance "
                    "family (or drop it to use the model's diverse pool)"
                )
            if len(set(fams)) != len(fams):
                dupes = sorted({f for f in fams if fams.count(f) > 1})
                raise ScenarioError(
                    f"pool families contains duplicates: {', '.join(dupes)} "
                    f"(each family is one search dimension and may appear once)"
                )
            object.__setattr__(self, "families", fams)
        if self.bounds is not None:
            bnds = tuple(int(b) for b in self.bounds)
            if not bnds:
                raise ScenarioError("pool bounds is empty; drop it to measure bounds")
            if any(b < 1 for b in bnds):
                raise ScenarioError(f"each pool bound must be >= 1, got {bnds}")
            if self.families is not None and len(bnds) != len(self.families):
                raise ScenarioError(
                    f"pool bounds has {len(bnds)} entries for "
                    f"{len(self.families)} families; they must match 1:1"
                )
            object.__setattr__(self, "bounds", bnds)
        if not 1 <= int(self.bound_cap) <= MAX_LATTICE_CELLS:
            raise ScenarioError(
                f"pool bound_cap must be between 1 and {MAX_LATTICE_CELLS}, "
                f"got {self.bound_cap!r}"
            )
        object.__setattr__(self, "bound_cap", int(self.bound_cap))


@dataclass(frozen=True)
class EvaluationBudget:
    """How much the search may spend.

    Parameters
    ----------
    max_samples:
        Distinct configurations a strategy may evaluate per search.
    eval_duration_hours:
        Wall-clock hours one evaluation is billed for in the exploration
        cost accounting; ``None`` uses the trace duration.
    batch_size:
        Configurations proposed (and deployable concurrently) per search
        iteration.  ``1`` is the paper's sequential schedule; larger
        values switch batch-capable strategies (Ribbon's constant-liar
        q-EI) to batched proposals, one surrogate update per batch.
        Strategies without a ``batch_size`` knob simply ignore it.
    """

    max_samples: int = 40
    eval_duration_hours: float | None = None
    batch_size: int = 1

    def __post_init__(self) -> None:
        if int(self.max_samples) < 1:
            raise ScenarioError(
                f"budget max_samples must be >= 1, got {self.max_samples!r}"
            )
        object.__setattr__(self, "max_samples", int(self.max_samples))
        if self.eval_duration_hours is not None and self.eval_duration_hours <= 0:
            raise ScenarioError(
                f"budget eval_duration_hours must be positive, got "
                f"{self.eval_duration_hours!r}"
            )
        if int(self.batch_size) < 1:
            raise ScenarioError(
                f"budget batch_size must be >= 1, got {self.batch_size!r}"
            )
        object.__setattr__(self, "batch_size", int(self.batch_size))


@dataclass(frozen=True)
class Scenario:
    """One complete, validated search scenario.

    Examples
    --------
    The one-liner (all paper defaults)::

        result = Scenario("MT-WND").run("ribbon", seed=0)

    Every other setting is one spec value; omitted specs keep their
    defaults::

        scenario = Scenario(
            "DIEN",
            workload=WorkloadSpec(n_queries=4000, seed=1, load_factor=1.5),
            qos=QoSSpec(rate_target=0.99),
            pool=PoolSpec(families=("g4dn", "c5", "r5n")),
            budget=EvaluationBudget(max_samples=45),
        )
        results = scenario.run_many("ribbon", seeds=(0, 1, 2))
    """

    model: str
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    qos: QoSSpec = field(default_factory=QoSSpec)
    pool: PoolSpec = field(default_factory=PoolSpec)
    budget: EvaluationBudget = field(default_factory=EvaluationBudget)

    def __post_init__(self) -> None:
        self.validate()

    # -- validation -------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`ScenarioError` on any inconsistency (early, loud)."""
        profile = _resolve_model(self.model)
        object.__setattr__(self, "model", profile.name)  # canonical casing
        for spec, cls in (
            (self.workload, WorkloadSpec),
            (self.qos, QoSSpec),
            (self.pool, PoolSpec),
            (self.budget, EvaluationBudget),
        ):
            if not isinstance(spec, cls):
                raise ScenarioError(
                    f"scenario {cls.__name__.lower().removesuffix('spec')} "
                    f"must be a {cls.__name__}, got {type(spec).__name__}"
                )
        missing = [f for f in self.families if f not in profile.profiles]
        if missing:
            raise ScenarioError(
                f"model {profile.name!r} has no latency profile for "
                f"{', '.join(missing)}; profiled families: "
                f"{', '.join(sorted(profile.profiles))}"
            )
        if self.pool.bounds is not None and len(self.pool.bounds) != len(
            self.families
        ):
            raise ScenarioError(
                f"pool bounds has {len(self.pool.bounds)} entries for "
                f"{len(self.families)} families; they must match 1:1"
            )
        if self.pool.bounds is not None:
            try:
                check_lattice_size(self.pool.bounds)
            except ValueError as exc:
                raise ScenarioError(
                    f"pool bounds: {exc}; lower the bounds or search fewer families"
                ) from None

    # -- resolved views -----------------------------------------------------------
    @property
    def profile(self) -> ModelProfile:
        """The resolved :class:`ModelProfile`."""
        return get_model(self.model)

    @property
    def families(self) -> tuple[str, ...]:
        """The effective pool families (explicit or the Table 3 default)."""
        if self.pool.families is not None:
            return self.pool.families
        return self.profile.diverse_pool

    @property
    def qos_target_ms(self) -> float:
        """The effective latency target in milliseconds."""
        if self.qos.latency_target_ms is not None:
            return self.qos.latency_target_ms
        return self.profile.qos_target_ms

    def trace_seed(self, run_seed: int) -> int:
        """The trace seed a run with ``run_seed`` uses (pinned or follow)."""
        return self.workload.seed if self.workload.seed is not None else int(run_seed)

    # -- JSON round-trip --------------------------------------------------------------
    def to_dict(self) -> dict:
        """The scenario as a JSON-ready nested dict.

        Every field is emitted explicitly (defaults included), so the
        document is self-describing and :meth:`from_dict` round-trips it
        to an equal :class:`Scenario` — the wire format of the
        optimization service and the key material of its snapshot store.
        """
        return {
            "model": self.model,
            "workload": {
                "n_queries": self.workload.n_queries,
                "seed": self.workload.seed,
                "load_factor": self.workload.load_factor,
                "gaussian": self.workload.gaussian,
            },
            "qos": {
                "latency_target_ms": self.qos.latency_target_ms,
                "rate_target": self.qos.rate_target,
            },
            "pool": {
                "families": (
                    list(self.pool.families)
                    if self.pool.families is not None
                    else None
                ),
                "bounds": (
                    list(self.pool.bounds) if self.pool.bounds is not None else None
                ),
                "bound_cap": self.pool.bound_cap,
            },
            "budget": {
                "max_samples": self.budget.max_samples,
                "eval_duration_hours": self.budget.eval_duration_hours,
                "batch_size": self.budget.batch_size,
            },
        }

    @classmethod
    def from_dict(cls, data: Any) -> "Scenario":
        """Build a validated :class:`Scenario` from a :meth:`to_dict` document.

        Accepts partial documents — any omitted (or ``None``) section
        keeps its defaults, as in the constructor.  Every malformation —
        wrong container type, unknown field names, bad field values — is
        surfaced as a :class:`ScenarioError` whose message names the
        offending section and field, so service callers get structured,
        actionable validation errors instead of ``TypeError`` innards.
        """
        if not isinstance(data, Mapping):
            raise ScenarioError(
                f"scenario document must be a JSON object, got "
                f"{type(data).__name__}"
            )
        sections = {
            "workload": WorkloadSpec,
            "qos": QoSSpec,
            "pool": PoolSpec,
            "budget": EvaluationBudget,
        }
        unknown = sorted(set(data) - set(sections) - {"model"})
        if unknown:
            raise ScenarioError(
                f"unknown scenario field(s): {', '.join(unknown)}; "
                f"known: model, {', '.join(sections)}"
            )
        if "model" not in data:
            raise ScenarioError(
                "scenario document is missing the required 'model' field"
            )
        kwargs: dict[str, Any] = {"model": data["model"]}
        for section, spec_cls in sections.items():
            doc = data.get(section)
            if doc is None:
                continue
            if not isinstance(doc, Mapping):
                raise ScenarioError(
                    f"scenario {section!r} must be a JSON object, got "
                    f"{type(doc).__name__}"
                )
            names = [f.name for f in dataclasses.fields(spec_cls)]
            unknown = sorted(set(doc) - set(names))
            if unknown:
                raise ScenarioError(
                    f"unknown {section} field(s): {', '.join(unknown)}; "
                    f"known: {', '.join(names)}"
                )
            values = {k: v for k, v in doc.items() if v is not None}
            for key in ("families", "bounds"):
                if key in values:
                    seq = values[key]
                    if isinstance(seq, str) or not isinstance(seq, Sequence):
                        raise ScenarioError(
                            f"{section} {key} must be a JSON array, got "
                            f"{type(seq).__name__}"
                        )
                    values[key] = tuple(seq)
            try:
                kwargs[section] = spec_cls(**values)
            except TypeError as exc:
                raise ScenarioError(f"bad {section} section: {exc}") from None
        return cls(**kwargs)

    def identity(self) -> str:
        """Stable content hash of this scenario (the snapshot-store key).

        Equal scenarios — including a scenario rebuilt through the
        :meth:`to_dict`/:meth:`from_dict` round-trip, in any process —
        share one identity; any semantic field change produces a new one.
        """
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    # -- functional updates ---------------------------------------------------------
    def with_workload(self, **changes: Any) -> "Scenario":
        """Copy with workload fields replaced (validated)."""
        return replace(self, workload=replace(self.workload, **changes))

    def with_budget(self, **changes: Any) -> "Scenario":
        """Copy with budget fields replaced (validated)."""
        return replace(self, budget=replace(self.budget, **changes))

    # -- execution (delegates to the runner) ----------------------------------------
    def runner(self) -> "ScenarioRunner":
        """The (cached) runner materializing this scenario.

        Scenarios are hashable values; equal scenarios share one runner —
        and therefore one trace/space/objective/evaluator materialization.
        """
        from repro.api.runner import runner_for

        return runner_for(self)

    def run(self, strategy: str = "ribbon", **kwargs: Any) -> "SearchResult":
        """Run one search; see :meth:`repro.api.runner.ScenarioRunner.run`."""
        return self.runner().run(strategy, **kwargs)

    def run_many(
        self, strategy: str = "ribbon", **kwargs: Any
    ) -> "dict[int, SearchResult]":
        """Multi-seed sweep; see :meth:`ScenarioRunner.run_many`."""
        return self.runner().run_many(strategy, **kwargs)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        fams = "+".join(self.families)
        return (
            f"Scenario({self.model} on [{fams}], "
            f"{self.workload.n_queries} queries x{self.workload.load_factor:g}, "
            f"p{100 * self.qos.rate_target:g} <= {self.qos_target_ms:g} ms, "
            f"budget {self.budget.max_samples})"
        )

