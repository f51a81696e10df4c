"""Per-tenant service metrics for event-driven scheduling rounds.

A closed batch is judged by one number (makespan); a multi-tenant service
with streaming arrivals needs per-tenant makespans *and* per-query latency
percentiles (time from arrival to completion), which is what operators of a
shared cluster actually answer for.  Fault-tolerant serving adds the failure
ledger: attempts that died, retries scheduled, straggler timeouts fired,
queries lost for good — and goodput, the completions the service actually
delivered per second of wall clock.

The control plane adds the overload story: arrivals *shed* by admission
control, per-query SLO grading against each tenant class's latency target,
and a per-class rollup (:class:`ClassReport`) so "did the interactive tier
hit its SLO while the batch tier absorbed the shedding?" is one lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import SchedulingError
from .runtime import ExecutionRuntime

__all__ = ["TenantReport", "ClassReport", "ServiceReport"]


def _linear_percentile(ascending: np.ndarray, q: float) -> float:
    """``np.percentile(ascending, q, method="linear")`` of a sorted non-empty array, bit for bit.

    NumPy's percentile imports ``numpy.ma`` on its first call, which a
    serving process would keep resident for three numbers.  This is the same
    arithmetic: the virtual index ``(n - 1) * (q / 100)`` and NumPy's
    ``_lerp`` between its two neighbours, which counts down from the upper
    one when the fraction is at least one half.
    """
    last = ascending.shape[0] - 1
    index = last * (q / 100)
    if index >= last:
        return float(ascending[last])
    below = int(index)
    fraction = index - below
    low, high = float(ascending[below]), float(ascending[below + 1])
    diff = high - low
    return high - diff * (1 - fraction) if fraction >= 0.5 else low + diff * fraction


@dataclass(frozen=True)
class TenantReport:
    """Completion metrics of one tenant's round.

    ``num_queries`` counts *successful* completions; a tenant whose queries
    all failed (or never arrived) reports zeroed latency fields rather than
    NaN — see :meth:`ServiceReport.from_runtime`.

    ``num_shed`` counts arrivals refused by admission control (shed queries
    are also included in ``num_failed``: they were never served).
    ``num_slo_met`` / ``num_slo_eligible`` grade the tenant against its
    class's latency SLO — eligible work is every graded completion plus
    every shed arrival (a query the user never got an answer to cannot have
    met its SLO); both stay zero for classless tenants or classes without a
    latency target.
    """

    tenant: str
    num_queries: int
    makespan: float
    mean_latency: float
    p50_latency: float
    p90_latency: float
    p99_latency: float
    num_failed: int = 0
    num_failed_attempts: int = 0
    num_retries: int = 0
    num_timeouts: int = 0
    goodput: float = 0.0
    tenant_class: str = ""
    priority: float = 0.0
    num_shed: int = 0
    num_slo_met: int = 0
    num_slo_eligible: int = 0

    @property
    def slo_attainment(self) -> float:
        """Fraction of SLO-eligible work served within the latency target.

        1.0 when nothing was eligible (no class, or no latency SLO): a
        tenant with no target cannot have missed one.
        """
        if self.num_slo_eligible <= 0:
            return 1.0
        return self.num_slo_met / self.num_slo_eligible

    def as_dict(self) -> dict:
        return {
            "tenant": self.tenant,
            "num_queries": self.num_queries,
            "makespan": self.makespan,
            "mean_latency": self.mean_latency,
            "p50_latency": self.p50_latency,
            "p90_latency": self.p90_latency,
            "p99_latency": self.p99_latency,
            "num_failed": self.num_failed,
            "num_failed_attempts": self.num_failed_attempts,
            "num_retries": self.num_retries,
            "num_timeouts": self.num_timeouts,
            "goodput": self.goodput,
            "tenant_class": self.tenant_class,
            "priority": self.priority,
            "num_shed": self.num_shed,
            "num_slo_met": self.num_slo_met,
            "num_slo_eligible": self.num_slo_eligible,
            "slo_attainment": self.slo_attainment,
        }


@dataclass(frozen=True)
class ClassReport:
    """One tenant class's rollup across every tenant assigned to it."""

    tenant_class: str
    priority: float
    num_tenants: int
    num_queries: int
    num_failed: int
    num_shed: int
    num_slo_met: int
    num_slo_eligible: int
    goodput: float
    worst_p99_latency: float

    @property
    def slo_attainment(self) -> float:
        if self.num_slo_eligible <= 0:
            return 1.0
        return self.num_slo_met / self.num_slo_eligible

    @property
    def shed_rate(self) -> float:
        """Fraction of the class's offered work that was shed."""
        offered = self.num_queries + self.num_failed
        return self.num_shed / offered if offered > 0 else 0.0

    def as_dict(self) -> dict:
        return {
            "tenant_class": self.tenant_class,
            "priority": self.priority,
            "num_tenants": self.num_tenants,
            "num_queries": self.num_queries,
            "num_failed": self.num_failed,
            "num_shed": self.num_shed,
            "num_slo_met": self.num_slo_met,
            "num_slo_eligible": self.num_slo_eligible,
            "slo_attainment": self.slo_attainment,
            "shed_rate": self.shed_rate,
            "goodput": self.goodput,
            "worst_p99_latency": self.worst_p99_latency,
        }


@dataclass(frozen=True)
class ServiceReport:
    """Service-level summary across every tenant of a runtime round."""

    strategy: str
    total_time: float
    tenants: tuple[TenantReport, ...] = field(default_factory=tuple)
    #: Per-class rollups; empty when no tenant carries a class.
    classes: tuple[ClassReport, ...] = field(default_factory=tuple)

    @classmethod
    def from_runtime(cls, runtime: ExecutionRuntime, strategy: str = "service") -> "ServiceReport":
        """Summarise a finished runtime round.

        Well-formed for *every* tenant, including one with zero completed
        queries (all failed, or an empty stream): latency fields are zeroed
        instead of the NaN mean and the percentile of no latencies.
        """
        if not runtime.is_done:
            raise SchedulingError("the runtime round has not finished yet")
        total_time = runtime.current_time
        reports = []
        for name, session in runtime.sessions().items():
            latencies = np.array(sorted(session.latencies().values()), dtype=np.float64)
            if latencies.size:
                mean_latency = float(latencies.mean())
                # NumPy's "linear" (its historical default) interpolation:
                # baselines depend on bit-stable percentiles.
                p50, p90, p99 = (_linear_percentile(latencies, q) for q in (50, 90, 99))
            else:
                mean_latency = p50 = p90 = p99 = 0.0
            completed = len(session.finished)
            tenant_class = session.tenant_class
            num_shed = session.num_shed
            slo_met = session.num_slo_met
            slo_misses = session.num_slo_misses
            if tenant_class is not None and tenant_class.latency_slo is not None:
                slo_eligible = slo_met + slo_misses + num_shed
            else:
                slo_met = 0
                slo_eligible = 0
            reports.append(
                TenantReport(
                    tenant=name,
                    num_queries=completed,
                    makespan=session.makespan,
                    mean_latency=mean_latency,
                    p50_latency=p50,
                    p90_latency=p90,
                    p99_latency=p99,
                    num_failed=len(session.failed),
                    num_failed_attempts=session.num_failed_attempts,
                    num_retries=session.num_retries,
                    num_timeouts=session.num_timeouts,
                    goodput=completed / total_time if total_time > 0 else 0.0,
                    tenant_class=tenant_class.name if tenant_class is not None else "",
                    priority=tenant_class.priority if tenant_class is not None else 0.0,
                    num_shed=num_shed,
                    num_slo_met=slo_met,
                    num_slo_eligible=slo_eligible,
                )
            )
        return cls(
            strategy=strategy,
            total_time=total_time,
            tenants=tuple(reports),
            classes=cls._rollup_classes(reports),
        )

    @staticmethod
    def _rollup_classes(tenants: "list[TenantReport]") -> tuple[ClassReport, ...]:
        """Aggregate tenant reports per tenant class, in first-seen order."""
        order: list[str] = []
        grouped: dict[str, list[TenantReport]] = {}
        for tenant in tenants:
            if not tenant.tenant_class:
                continue
            if tenant.tenant_class not in grouped:
                order.append(tenant.tenant_class)
                grouped[tenant.tenant_class] = []
            grouped[tenant.tenant_class].append(tenant)
        rollups = []
        for name in order:
            members = grouped[name]
            rollups.append(
                ClassReport(
                    tenant_class=name,
                    priority=members[0].priority,
                    num_tenants=len(members),
                    num_queries=sum(t.num_queries for t in members),
                    num_failed=sum(t.num_failed for t in members),
                    num_shed=sum(t.num_shed for t in members),
                    num_slo_met=sum(t.num_slo_met for t in members),
                    num_slo_eligible=sum(t.num_slo_eligible for t in members),
                    goodput=sum(t.goodput for t in members),
                    worst_p99_latency=max(t.p99_latency for t in members),
                )
            )
        return tuple(rollups)

    def class_report(self, name: str) -> ClassReport:
        """The rollup of one tenant class by name."""
        for rollup in self.classes:
            if rollup.tenant_class == name:
                return rollup
        raise SchedulingError(f"no tenant class {name!r} in this report")

    @property
    def max_makespan(self) -> float:
        return max((tenant.makespan for tenant in self.tenants), default=0.0)

    @property
    def total_completed(self) -> int:
        """Successful completions across every tenant."""
        return sum(tenant.num_queries for tenant in self.tenants)

    @property
    def total_failed(self) -> int:
        """Terminally failed queries across every tenant (shed included)."""
        return sum(tenant.num_failed for tenant in self.tenants)

    @property
    def total_shed(self) -> int:
        """Arrivals refused by admission control across every tenant."""
        return sum(tenant.num_shed for tenant in self.tenants)

    @property
    def total_failed_attempts(self) -> int:
        """Failed/killed attempts across every tenant (incl. retried ones)."""
        return sum(tenant.num_failed_attempts for tenant in self.tenants)

    @property
    def total_retries(self) -> int:
        return sum(tenant.num_retries for tenant in self.tenants)

    @property
    def total_timeouts(self) -> int:
        return sum(tenant.num_timeouts for tenant in self.tenants)

    @property
    def goodput(self) -> float:
        """Service-wide successful completions per second of wall clock."""
        return self.total_completed / self.total_time if self.total_time > 0 else 0.0

    @property
    def max_p99_latency(self) -> float:
        return max((tenant.p99_latency for tenant in self.tenants), default=0.0)

    def as_dict(self) -> dict:
        document = {
            "strategy": self.strategy,
            "total_time": self.total_time,
            "total_completed": self.total_completed,
            "total_failed": self.total_failed,
            "total_failed_attempts": self.total_failed_attempts,
            "total_retries": self.total_retries,
            "total_timeouts": self.total_timeouts,
            "goodput": self.goodput,
            "tenants": [tenant.as_dict() for tenant in self.tenants],
        }
        if self.classes:
            document["total_shed"] = self.total_shed
            document["classes"] = [rollup.as_dict() for rollup in self.classes]
        return document

    def __str__(self) -> str:
        lines = [f"ServiceReport(strategy={self.strategy}, total_time={self.total_time:.2f}s)"]
        for tenant in self.tenants:
            line = (
                f"  {tenant.tenant:<12} n={tenant.num_queries:<4} makespan={tenant.makespan:7.2f}s  "
                f"latency mean={tenant.mean_latency:6.2f}s p50={tenant.p50_latency:6.2f}s "
                f"p90={tenant.p90_latency:6.2f}s p99={tenant.p99_latency:6.2f}s"
            )
            if tenant.num_failed_attempts or tenant.num_failed:
                line += (
                    f"  faults: failed={tenant.num_failed} attempts={tenant.num_failed_attempts} "
                    f"retries={tenant.num_retries} timeouts={tenant.num_timeouts}"
                )
            if tenant.num_shed or tenant.num_slo_eligible:
                line += (
                    f"  slo: attainment={tenant.slo_attainment:.0%} shed={tenant.num_shed}"
                )
            lines.append(line)
        for rollup in self.classes:
            lines.append(
                f"  class {rollup.tenant_class:<10} (prio {rollup.priority:g}): "
                f"completed={rollup.num_queries} shed={rollup.num_shed} "
                f"slo_attainment={rollup.slo_attainment:.0%} goodput={rollup.goodput:.3f}/s"
            )
        return "\n".join(lines)
