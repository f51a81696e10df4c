"""Core workload abstractions: queries, batch query sets, and workloads.

A :class:`Query` is the unit of scheduling: a physical plan plus the derived
resource profile the DBMS substrate executes.  A :class:`BatchQuerySet` is
the paper's set ``S`` of ``n`` queries that can run concurrently without
dependencies.  A :class:`Workload` owns the catalogue, the template
specifications, and the machinery to rebuild queries under different data and
query scales.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence

import numpy as np

from ..exceptions import WorkloadError
from ..plans import Catalog, PhysicalPlan, PlanBuilder, TemplateSpec

__all__ = ["Query", "BatchQuerySet", "Workload"]


@dataclass
class Query:
    """A single schedulable query.

    The resource profile (``cpu_work``, ``io_work``, in abstract
    resource-seconds) is derived from the plan once at construction so the
    discrete-event engine does not re-walk plan trees in its inner loop.
    """

    name: str
    query_id: int
    template_id: int
    plan: PhysicalPlan
    cpu_work: float
    io_work: float
    memory_demand_mb: float
    tables: dict[str, float] = field(default_factory=dict)
    parallel_fraction: float = 0.5
    memory_sensitivity: float = 0.0

    def __post_init__(self) -> None:
        if self.cpu_work < 0 or self.io_work < 0:
            raise WorkloadError(f"query {self.name} has negative work")
        if self.cpu_work + self.io_work <= 0:
            raise WorkloadError(f"query {self.name} has zero total work")

    @property
    def total_work(self) -> float:
        """Total abstract work (CPU + I/O resource-seconds)."""
        return self.cpu_work + self.io_work

    @property
    def io_fraction(self) -> float:
        """Fraction of the query's work that is I/O."""
        return self.io_work / self.total_work

    @property
    def cpu_fraction(self) -> float:
        """Fraction of the query's work that is CPU."""
        return self.cpu_work / self.total_work

    def __repr__(self) -> str:
        return (
            f"Query({self.name}, cpu={self.cpu_work:.2f}, io={self.io_work:.2f}, "
            f"tables={len(self.tables)})"
        )


class BatchQuerySet:
    """The batch query set ``S``: queries indexed ``0 .. n-1``."""

    def __init__(self, queries: Sequence[Query]) -> None:
        if not queries:
            raise WorkloadError("batch query set must not be empty")
        # Re-index without mutating the caller's Query objects: the same query
        # may be a member of several batches (e.g. probing subsets).
        self._queries = [
            query if query.query_id == index else replace(query, query_id=index)
            for index, query in enumerate(queries)
        ]

    def __len__(self) -> int:
        return len(self._queries)

    def __iter__(self) -> Iterator[Query]:
        return iter(self._queries)

    def __getitem__(self, index: int) -> Query:
        return self._queries[index]

    @property
    def queries(self) -> list[Query]:
        return list(self._queries)

    def total_work(self) -> float:
        """Sum of all queries' abstract work; a lower bound proxy on makespan."""
        return sum(q.total_work for q in self._queries)

    def table_footprint(self) -> dict[str, float]:
        """Aggregate rows scanned per table across the whole batch."""
        footprint: dict[str, float] = {}
        for query in self._queries:
            for table, rows in query.tables.items():
                footprint[table] = footprint.get(table, 0.0) + rows
        return footprint

    def subset(self, indices: Sequence[int]) -> "BatchQuerySet":
        """Return a new batch containing only the queries at ``indices``."""
        return BatchQuerySet([self._queries[i] for i in indices])

    def sorted_by_cost(self, descending: bool = True) -> list[Query]:
        """Queries ordered by total work (the MCF heuristic's ordering)."""
        return sorted(self._queries, key=lambda q: q.total_work, reverse=descending)


class Workload:
    """A benchmark instance: catalogue + template specs + generated queries."""

    #: Default normalisation constant mapping plan work units to
    #: resource-seconds so that a median 1x query takes on the order of a
    #: second of work; per-benchmark factories override it.
    WORK_NORMALIZER = 2.5e5

    def __init__(
        self,
        name: str,
        catalog: Catalog,
        specs: Sequence[TemplateSpec],
        seed: int = 0,
        data_scale: float = 1.0,
        query_scale: float = 1.0,
        work_normalizer: float | None = None,
    ) -> None:
        if data_scale <= 0 or query_scale <= 0:
            raise WorkloadError("data_scale and query_scale must be positive")
        self.name = name
        self.base_catalog = catalog
        self.specs = list(specs)
        self.seed = seed
        self.data_scale = data_scale
        self.query_scale = query_scale
        self.work_normalizer = work_normalizer if work_normalizer is not None else self.WORK_NORMALIZER
        if self.work_normalizer <= 0:
            raise WorkloadError("work_normalizer must be positive")
        self.catalog = catalog.scaled(data_scale) if data_scale != 1.0 else catalog
        self._queries = self._build_queries()

    # ------------------------------------------------------------------ #
    # Query construction
    # ------------------------------------------------------------------ #
    def _build_queries(self) -> list[Query]:
        builder = PlanBuilder(self.catalog, seed=self.seed)
        specs = self._scaled_specs()
        queries: list[Query] = []
        for index, (spec, variant) in enumerate(specs):
            plan = builder.build(spec)
            suffix = "" if variant == 0 else f"_v{variant}"
            queries.append(self._query_from_plan(f"{self.name}_q{spec.template_id}{suffix}", index, spec, plan))
        return queries

    def _scaled_specs(self) -> list[tuple[TemplateSpec, int]]:
        """Expand template specs according to ``query_scale``.

        For integer scales >= 1 every template is instantiated ``scale``
        times with perturbed selectivities (the paper's "2x/5x/10x queries").
        Fractional scales below 1 keep the first ``scale * n`` templates
        (the paper's 0.8x/0.9x adaptability variants); fractional parts above
        an integer duplicate a prefix of the templates.
        """
        rng = np.random.default_rng((self.seed, 7919))
        expanded: list[tuple[TemplateSpec, int]] = []
        whole = int(np.floor(self.query_scale))
        fraction = self.query_scale - whole
        for variant in range(max(whole, 1) if whole >= 1 else 1):
            for spec in self.specs:
                expanded.append((self._perturb_spec(spec, variant, rng), variant))
        if whole == 0:
            keep = max(1, int(round(len(self.specs) * self.query_scale)))
            return expanded[:keep]
        if fraction > 1e-9:
            extra = int(round(len(self.specs) * fraction))
            for spec in self.specs[:extra]:
                expanded.append((self._perturb_spec(spec, whole, rng), whole))
        return expanded

    def _perturb_spec(self, spec: TemplateSpec, variant: int, rng: np.random.Generator) -> TemplateSpec:
        if variant == 0:
            return spec
        jitter = rng.uniform(0.8, 1.2)
        selectivities = tuple(float(np.clip(s * rng.uniform(0.7, 1.3), 1e-4, 1.0)) for s in spec.selectivities)
        return TemplateSpec(
            template_id=spec.template_id,
            tables=spec.tables,
            selectivities=selectivities,
            join_count=spec.join_count,
            has_aggregate=spec.has_aggregate,
            has_sort=spec.has_sort,
            has_window=spec.has_window,
            has_union=spec.has_union,
            cpu_intensity=spec.cpu_intensity,
            complexity=spec.complexity * float(jitter),
        )

    def _query_from_plan(self, name: str, index: int, spec: TemplateSpec, plan: PhysicalPlan) -> Query:
        cpu_work = plan.total_cpu_work() / self.work_normalizer
        io_work = plan.total_io_work() / self.work_normalizer
        memory_mb = min(800.0, 16.0 + 8.0 * (cpu_work + io_work))
        return Query(
            name=name,
            query_id=index,
            template_id=spec.template_id,
            plan=plan,
            cpu_work=cpu_work,
            io_work=io_work,
            memory_demand_mb=memory_mb,
            tables=plan.tables(),
            parallel_fraction=plan.parallel_fraction(),
            memory_sensitivity=plan.memory_sensitivity(),
        )

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    @property
    def num_queries(self) -> int:
        return len(self._queries)

    def batch_query_set(self) -> BatchQuerySet:
        """Return the batch query set ``S`` for this workload."""
        return BatchQuerySet(self._queries)

    def with_data_scale(self, data_scale: float) -> "Workload":
        """Return a new workload at a different data scale factor."""
        return Workload(
            name=self.name,
            catalog=self.base_catalog,
            specs=self.specs,
            seed=self.seed,
            data_scale=data_scale,
            query_scale=self.query_scale,
            work_normalizer=self.work_normalizer,
        )

    def with_query_scale(self, query_scale: float) -> "Workload":
        """Return a new workload at a different query scale factor."""
        return Workload(
            name=self.name,
            catalog=self.base_catalog,
            specs=self.specs,
            seed=self.seed,
            data_scale=self.data_scale,
            query_scale=query_scale,
            work_normalizer=self.work_normalizer,
        )

    def __repr__(self) -> str:
        return (
            f"Workload({self.name}, queries={self.num_queries}, "
            f"data_scale={self.data_scale}, query_scale={self.query_scale})"
        )
