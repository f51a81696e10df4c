"""The serving control plane: tenant classes, admission control, elastic fleets.

Production serving separates the *problem* — who is asking for work, how
urgent it is, and how much capacity the fleet currently has — from the
*policy* that decides what to run where.  This module owns the problem side:

* :class:`TenantClass` describes a tenant's service tier: a priority used
  by admission exemption and fairness shaping, an optional per-query
  latency SLO the report grades attainment against, and an optional
  deadline after which retrying a failed query is pointless.
* :class:`AdmissionController` enforces an
  :class:`~repro.config.AdmissionPolicy`: a token bucket refilled in
  simulated time decides whether each open arrival is admitted or *shed*
  (marked failed immediately so the round drains), with per-tenant shed and
  admitted ledgers for the report.
* :class:`FleetController` enforces an
  :class:`~repro.config.AutoscalePolicy` by parking and unparking cluster
  instances mid-service.  A scale-down is a planned outage — the instance's
  running queries die through the existing
  :class:`~repro.dbms.OutageWindow` kill path and are requeued without
  consuming retry budget — and a scale-up is a recovery wakeup: the
  instance's connections simply rejoin the idle pool.
* :class:`ControlPlane` bundles the three with the
  :class:`~repro.config.RetryPolicy` so the
  :class:`~repro.runtime.ExecutionRuntime` routes every arrival, retry and
  scaling decision through one object instead of ad-hoc branches.

Everything here is opt-in: a default-constructed control plane admits every
arrival, never scales, and reproduces the legacy retry arithmetic exactly,
keeping the class-free tree bit-for-bit identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, NamedTuple

from ..config import AdmissionPolicy, AutoscalePolicy, RetryPolicy
from ..dbms.faults import FAILURE_OUTAGE
from ..exceptions import ConfigurationError

__all__ = [
    "TenantClass",
    "TokenBucket",
    "AdmissionController",
    "FleetController",
    "ScaleEvent",
    "RetryDecision",
    "ControlPlane",
]


@dataclass(frozen=True)
class TenantClass:
    """A tenant's service tier: priority, latency SLO, retry deadline.

    ``priority`` orders tenants for admission exemption
    (:attr:`~repro.config.AdmissionPolicy.exempt_priority`); higher is more
    important.  ``latency_slo`` (seconds, per query) grades completions: a
    query whose arrival-to-finish latency exceeds it counts as an SLO miss
    in the :class:`~repro.runtime.ServiceReport`.  ``deadline`` (seconds
    after arrival) caps retries: once a query's deadline has passed, a
    failed attempt is not resubmitted — the answer would be useless anyway.
    Both targets default to ``None`` (ungraded / retry forever).
    """

    name: str
    priority: float = 0.0
    latency_slo: float | None = None
    deadline: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("tenant class name must not be empty")
        if not math.isfinite(self.priority):
            raise ConfigurationError("priority must be finite")
        if self.latency_slo is not None and not self.latency_slo > 0:
            raise ConfigurationError("latency_slo must be positive (or None)")
        if self.deadline is not None and not self.deadline > 0:
            raise ConfigurationError("deadline must be positive (or None)")


class TokenBucket:
    """A continuous-refill token bucket over simulated time.

    Starts full; refills at ``rate`` tokens per second up to ``capacity``.
    ``try_take`` consumes one token if available.  All arithmetic is in the
    runtime's simulated clock, so admission decisions are deterministic.
    """

    def __init__(self, rate: float, capacity: float) -> None:
        self.rate = rate
        self.capacity = capacity
        self._tokens = capacity
        self._last = 0.0

    @property
    def tokens(self) -> float:
        return self._tokens

    def try_take(self, now: float) -> bool:
        """Refill up to ``now`` and take one token if the bucket holds one."""
        if now > self._last:
            self._tokens = min(self.capacity, self._tokens + self.rate * (now - self._last))
            self._last = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


class AdmissionController:
    """Token-bucket admission; each tenant session keeps its own shed ledger."""

    def __init__(self, policy: AdmissionPolicy) -> None:
        self.policy = policy
        self._bucket = TokenBucket(policy.rate, policy.burst)

    def reset(self) -> None:
        """Forget the previous round: a fresh bucket."""
        self._bucket = TokenBucket(self.policy.rate, self.policy.burst)

    def admit(self, tenant_class: TenantClass | None, now: float) -> bool:
        """Decide one open arrival: priority exemption, else a token."""
        policy = self.policy
        if (
            policy.exempt_priority is not None
            and tenant_class is not None
            and tenant_class.priority >= policy.exempt_priority
        ):
            return True
        return self._bucket.try_take(now)


@dataclass(frozen=True)
class ScaleEvent:
    """One elastic-fleet action: ``park`` (scale-down) or ``unpark`` (up)."""

    time: float
    instance: int
    action: str


class FleetController:
    """Backlog-driven elastic sizing over a park-capable cluster session.

    Watches backlog per *up* instance: above
    :attr:`~repro.config.AutoscalePolicy.target_backlog` the lowest-index
    parked instance is unparked, below
    :attr:`~repro.config.AutoscalePolicy.low_water` the highest-index up
    instance is parked, never below :attr:`MIN_INSTANCES`, and
    :attr:`COOLDOWN` seconds pass between actions so the fleet does not
    thrash.  Every action lands in the :attr:`events` ledger.
    """

    #: Instances that stay up whatever the backlog.
    MIN_INSTANCES = 1
    #: Simulated seconds between two scale events.
    COOLDOWN = 2.0

    def __init__(self, policy: AutoscalePolicy) -> None:
        self.policy = policy
        self.events: list[ScaleEvent] = []
        self._last_scale = float("-inf")

    def reset(self) -> None:
        self.events = []
        self._last_scale = float("-inf")

    def on_round_open(self, shared: Any) -> None:
        """Apply the initial fleet size: park everything beyond it.

        ``initial_instances=None`` starts the whole fleet up.
        """
        fleet = int(shared.num_instances)
        start = self.policy.initial_instances if self.policy.initial_instances is not None else fleet
        for instance in range(fleet - 1, start - 1, -1):
            shared.park_instance(instance)
            self.events.append(ScaleEvent(time=0.0, instance=instance, action="park"))

    def tick(self, shared: Any, backlog: int, now: float) -> ScaleEvent | None:
        """One scaling decision; returns the action taken (``None`` if held)."""
        policy = self.policy
        if now - self._last_scale < self.COOLDOWN:
            return None
        fleet = int(shared.num_instances)
        parked = list(shared.parked_instances())
        up = fleet - len(parked)
        per_instance = backlog / up if up > 0 else float("inf")
        if per_instance > policy.target_backlog and parked:
            instance = min(parked)
            shared.unpark_instance(instance)
            event = ScaleEvent(time=now, instance=instance, action="unpark")
        elif per_instance < policy.low_water and up > self.MIN_INSTANCES:
            parked_set = set(parked)
            instance = max(i for i in range(fleet) if i not in parked_set)
            shared.park_instance(instance)
            event = ScaleEvent(time=now, instance=instance, action="park")
        else:
            return None
        self._last_scale = now
        self.events.append(event)
        return event


class RetryDecision(NamedTuple):
    """Whether a failed attempt is resubmitted, and after what delay."""

    will_retry: bool
    delay: float


class ControlPlane:
    """Admission, retry and fleet-sizing decisions behind one interface.

    It is the one owner of each decision: the runtime reads its retry policy
    from here and nowhere else.  The runtime constructs a default control
    plane (``ControlPlane()``: no retry policy) when none is supplied, which
    admits every arrival and never scales — the opt-in controllers only
    exist when their policies do.
    """

    def __init__(
        self,
        retry: RetryPolicy | None = None,
        admission: AdmissionPolicy | None = None,
        autoscale: AutoscalePolicy | None = None,
    ) -> None:
        for value, kind in ((retry, RetryPolicy), (admission, AdmissionPolicy), (autoscale, AutoscalePolicy)):
            if value is not None and not isinstance(value, kind):
                raise ConfigurationError(f"expected a {kind.__name__} (or None), got {value!r}")
        self.retry = retry
        self.admission: AdmissionController | None = (
            AdmissionController(admission) if admission is not None else None
        )
        self.fleet: FleetController | None = (
            FleetController(autoscale) if autoscale is not None else None
        )

    # -- lifecycle ------------------------------------------------------- #
    def reset_round(self) -> None:
        """Forget per-round state (ledgers, buckets, cooldowns)."""
        if self.admission is not None:
            self.admission.reset()
        if self.fleet is not None:
            self.fleet.reset()

    def on_round_open(self, shared: Any) -> None:
        """Install the initial fleet size on a freshly opened round."""
        if self.fleet is not None:
            self.fleet.on_round_open(shared)

    # -- admission ------------------------------------------------------- #
    @property
    def admits_all(self) -> bool:
        """Fast-path check: no admission policy means every arrival enters."""
        return self.admission is None

    def admit(self, tenant_class: TenantClass | None, now: float) -> bool:
        if self.admission is None:
            return True
        return self.admission.admit(tenant_class, now)

    # -- retry ----------------------------------------------------------- #
    def decide_retry(
        self,
        reason: str,
        attempt: int,
        outage_kills: int,
        time: float = 0.0,
        give_up_at: float | None = None,
    ) -> RetryDecision:
        """Decide one failed attempt's future.

        Outage kills always requeue immediately (the fleet failed, not the
        query).  Otherwise the attempt budget is ``attempt`` minus the
        outage kills that inflated it, exactly the legacy arithmetic; a
        ``give_up_at`` deadline in the past vetoes the retry even when
        budget remains.
        """
        if reason == FAILURE_OUTAGE:
            return RetryDecision(True, 0.0)
        consumed = attempt - outage_kills
        if self.retry is None or consumed >= self.retry.max_attempts:
            return RetryDecision(False, 0.0)
        if give_up_at is not None and time >= give_up_at:
            return RetryDecision(False, 0.0)
        return RetryDecision(True, self.retry.delay_for(max(1, consumed)))

    # -- elastic fleet ---------------------------------------------------- #
    @property
    def has_autoscaler(self) -> bool:
        return self.fleet is not None

    def autoscale(self, shared: Any, backlog: int, now: float) -> ScaleEvent | None:
        """One fleet-sizing tick (no-op without an autoscale policy)."""
        if self.fleet is None:
            return None
        return self.fleet.tick(shared, backlog, now)
