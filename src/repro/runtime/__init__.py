"""Event-driven execution runtime: multi-tenant sessions, streaming arrivals.

The runtime turns the repo's engine↔scheduler coupling from a pull-style
single-batch loop into an event-queue architecture:

* :class:`EventQueue` orders future events (streaming query arrivals).
* :class:`ExecutionRuntime` advances the shared backend session (fluid
  engine or learned simulator) to the next completion-or-arrival event and
  dispatches it to the tenant that owns the query.
* :class:`RuntimeTenant` / :class:`TenantSession` give each tenant a
  session-protocol view scoped to its own query ids, so
  :class:`~repro.core.env.SchedulingEnv` drives a shared round exactly the
  way it drives a private one.
* :class:`ControlPlane` (with :class:`TenantClass`,
  :class:`AdmissionController` and :class:`FleetController`) layers SLO
  classes, token-bucket admission / load shedding and elastic fleet
  autoscaling on top of the same event loop — all opt-in.
* :class:`ServiceReport` summarises per-tenant makespan and latency
  percentiles once a round drains; :class:`ClassReport` rolls the ledger up
  per tenant class (SLO attainment, shed rate, goodput).
"""

from ..config import AdmissionPolicy, AutoscalePolicy, RetryPolicy
from .controlplane import (
    AdmissionController,
    ControlPlane,
    FleetController,
    ScaleEvent,
    TenantClass,
    TokenBucket,
)
from .events import (
    InstanceRecovery,
    QueryArrival,
    QueryCompletion,
    QueryFailure,
    QueryRetry,
    QueryShed,
    QueryTimeout,
    RuntimeEvent,
)
from .queue import EventQueue
from .report import ClassReport, ServiceReport, TenantReport
from .runtime import ExecutionRuntime, RuntimeTenant, TenantSession

__all__ = [
    "InstanceRecovery",
    "QueryArrival",
    "QueryCompletion",
    "QueryFailure",
    "QueryRetry",
    "QueryShed",
    "QueryTimeout",
    "AdmissionPolicy",
    "AutoscalePolicy",
    "RetryPolicy",
    "RuntimeEvent",
    "EventQueue",
    "AdmissionController",
    "ControlPlane",
    "FleetController",
    "ScaleEvent",
    "TenantClass",
    "TokenBucket",
    "ClassReport",
    "ServiceReport",
    "TenantReport",
    "ExecutionRuntime",
    "RuntimeTenant",
    "TenantSession",
]
