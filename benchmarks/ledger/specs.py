"""The ledger's four workloads and their fixed constants.

Constants live here, not on the command line: a number in the ledger means
the same thing on every commit only if nobody can pass a different size.
They were sized on the 2-core reference box (BLAS pinned to one thread) so a
whole run of a workload fits the driver's per-run and total time caps; the
README records how long each phase takes there.

Nothing in this module imports ``repro``: the serve keyword builders receive
the imported package, so a facade name that disappears fails the run loudly
at the call site.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

#: ``--seconds`` the round counts below were sized for; another value scales
#: the number of decision-loop rounds proportionally (training budgets are
#: whole updates and do not scale).
RUN_SECONDS = 30

#: Facade constructions per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    #: ``make_workload`` arguments.
    benchmark: str
    query_scale: float
    #: Profile short-names of the fleet; empty = one DBMS-X ``DatabaseEngine``.
    fleet: tuple[str, ...]
    #: ``prepare(history_rounds=)`` and ``train(num_updates=, pretrain_updates=)``.
    history_rounds: int
    num_updates: int
    pretrain_updates: int
    #: Rounds of the decision loop at ``--seconds == RUN_SECONDS``.
    rounds: int
    #: Builds the ``serve()`` keywords from the ``repro`` package; ``None``
    #: makes the decision loop greedy ``schedule()`` rounds.
    serve: "Callable[[Any], dict] | None" = None
    #: Ceiling on (policy mean makespan / FIFO mean makespan) over the
    #: decision-loop rounds; ``None`` skips the comparison (FIFO is
    #: placement-oblivious and refuses fleets).
    fifo_ceiling: "float | None" = None

    def scaled_rounds(self, seconds: float) -> int:
        return max(1, round(self.rounds * seconds / RUN_SECONDS))


def _closed_service(repro: Any) -> dict:
    return {"num_tenants": 4, "arrivals": "closed"}


def _faulty_fleet_service(repro: Any) -> dict:
    return {
        "num_tenants": 8,
        # 8 tenants x 4/s = 32 arrivals/s against a 12/s bucket: the batch
        # tier sheds a few percent, the interactive tier is exempt.
        "arrivals": repro.PoissonArrivals(4.0),
        "faults": repro.FailureProfile(
            error_rate=0.05,
            hang_rate=0.03,
            outages=(repro.OutageWindow(instance=1, start=5.0, duration=4.0),),
        ),
        "retry": repro.RetryPolicy(max_attempts=3, timeout=20.0),
        "tenant_classes": (
            repro.TenantClass("interactive", priority=2.0, latency_slo=15.0, deadline=60.0),
            repro.TenantClass("batch", priority=0.0, latency_slo=60.0),
        ),
        "admission": repro.AdmissionPolicy(rate=12.0, burst=16.0, exempt_priority=1.0),
        "autoscale": repro.AutoscalePolicy(initial_instances=2),
    }


WORKLOADS: tuple[WorkloadSpec, ...] = (
    WorkloadSpec(
        name="train_tpcds",
        why=(
            "ROADMAP train scenario at paper size (99 queries): forward/backward/optimizer, simulator fit and "
            "simulated rollouts do the work; runtime events and the control plane do almost none"
        ),
        benchmark="tpcds",
        query_scale=1.0,
        fleet=(),
        history_rounds=3,
        num_updates=1,
        pretrain_updates=1,
        rounds=11,
        fifo_ceiling=1.30,
    ),
    WorkloadSpec(
        name="train_large_clustered",
        why=(
            "large-query-set path (158 queries, clustering turns on by itself): gain-model and simulator fit, "
            "clustering, cluster-level actions, attention over 158 rows; a win tuned for n=99 that costs n=158 shows"
        ),
        benchmark="tpcds",
        query_scale=1.6,
        fleet=(),
        history_rounds=2,
        num_updates=0,
        pretrain_updates=0,
        rounds=8,
        fifo_ceiling=1.30,
    ),
    WorkloadSpec(
        name="serve_closed_tpcds",
        why=(
            "pure decision path: 4 closed tenants on one engine, no faults, no control plane; ~94% of wall is "
            "select_action over 99 rows, so runtime/control-plane changes must predict no change here"
        ),
        benchmark="tpcds",
        query_scale=1.0,
        fleet=(),
        history_rounds=1,
        num_updates=0,
        pretrain_updates=0,
        rounds=6,
        serve=_closed_service,
    ),
    WorkloadSpec(
        name="serve_fleet_faults",
        why=(
            "ROADMAP serve scenario: 3-engine fleet, Poisson arrivals, faults, retries, admission, autoscale; cheap "
            "decisions give runtime/control-plane/session work its largest share; only workload that sheds"
        ),
        benchmark="tpch",
        query_scale=1.0,
        fleet=("x", "x", "z"),
        history_rounds=3,
        num_updates=0,
        pretrain_updates=0,
        rounds=32,
        serve=_faulty_fleet_service,
    ),
)

BY_NAME = {spec.name: spec for spec in WORKLOADS}
