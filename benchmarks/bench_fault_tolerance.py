"""Fault tolerance — failure injection, retries and timeout kills in serving.

Not a paper experiment: this benchmark exercises the fault-recovery runtime
the way an unreliable fleet would stress it.  The TPC-H batch is served by
two tenants on one engine with an injected :class:`~repro.dbms.FailureProfile`
(transient errors, 12x stragglers, a mid-round outage window) under three
policies:

* ``no-retry`` — failures are terminal: queries are lost and stragglers run
  to completion, dominating makespan and p99;
* ``retry`` — exponential-backoff resubmission recovers every retryable
  query but still waits out stragglers;
* ``retry+timeout`` — straggler attempts are killed and requeued after a
  per-attempt timeout, recovering both the lost queries *and* the tail.

The acceptance bar: the retry-enabled runtime completes 100% of retryable
queries and beats the no-retry baseline on makespan and p99 latency.  A
second scenario runs a two-instance cluster through an instance outage with
*no* retry policy at all — outage kills are always requeued, so nothing is
lost and nothing deadlocks.
"""

from __future__ import annotations

from repro import (
    BQSchedConfig,
    Cluster,
    DatabaseEngine,
    DBMSProfile,
    FailureProfile,
    OutageWindow,
    RetryPolicy,
    make_workload,
)
from harness.reporting import print_table, write_json_report
from repro.core import LSchedScheduler

#: Transient errors, heavy stragglers and a mid-round outage: the regime in
#: which retry + timeout-kill pays for itself.
FAULTS = FailureProfile(
    error_rate=0.06,
    error_work_fraction=0.4,
    hang_rate=0.25,
    hang_factor=12.0,
    outages=(OutageWindow(instance=0, start=6.0, duration=2.0),),
)

RETRY = RetryPolicy(max_attempts=5, backoff=0.25)
RETRY_TIMEOUT = RetryPolicy(max_attempts=5, backoff=0.25, timeout=6.0)


def _build_scheduler(engine, num_connections):
    workload = make_workload("tpch", scale_factor=1.0, seed=0)
    config = BQSchedConfig.small(seed=0)
    config.scheduler.num_connections = num_connections
    # The policy runs greedily but untrained: the benchmark measures the
    # runtime's failure handling, not policy quality, and an untrained
    # network keeps the quick profile fast and fully deterministic.
    return LSchedScheduler(workload, engine, config)


def _serve_engine_scenarios():
    engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
    scheduler = _build_scheduler(engine, num_connections=8)
    policies = [
        ("no-retry", None),
        ("retry", RETRY),
        ("retry+timeout", RETRY_TIMEOUT),
    ]
    reports = {}
    for label, retry in policies:
        reports[label] = scheduler.serve(num_tenants=2, arrivals=None, faults=FAULTS, retry=retry)
    return scheduler, reports


def _serve_cluster_outage():
    """A fleet loses one instance mid-round; outage requeue needs no policy."""
    cluster = Cluster.from_names(("x", "x"), seed=0)
    scheduler = _build_scheduler(cluster, num_connections=4)
    faults = FailureProfile(outages=(OutageWindow(instance=1, start=4.0, duration=4.0),))
    return scheduler, scheduler.serve(num_tenants=2, arrivals=None, faults=faults, retry=None)


def _run(profile):
    scheduler, reports = _serve_engine_scenarios()
    expected = 2 * len(scheduler.batch)
    rows = []
    payload = {}
    for label, report in reports.items():
        rows.append(
            [
                label,
                f"{report.total_completed}/{expected}",
                str(report.total_failed),
                str(report.total_failed_attempts),
                str(report.total_timeouts),
                f"{report.max_makespan:.2f}",
                f"{report.max_p99_latency:.2f}",
                f"{report.goodput:.3f}",
            ]
        )
        payload[label] = {
            "completed": report.total_completed,
            "failed": report.total_failed,
            "failed_attempts": report.total_failed_attempts,
            "retries": report.total_retries,
            "timeouts": report.total_timeouts,
            "makespan": report.max_makespan,
            "p99_latency": report.max_p99_latency,
            "goodput": report.goodput,
        }
    print_table(
        ["policy", "completed", "lost", "failed attempts", "timeouts", "makespan (s)", "p99 (s)", "goodput (q/s)"],
        rows,
        title="Fault tolerance — injected errors, stragglers and an outage (TPC-H, 2 tenants)",
    )

    cluster_scheduler, outage_report = _serve_cluster_outage()
    payload["cluster_outage"] = {
        "completed": outage_report.total_completed,
        "expected": 2 * len(cluster_scheduler.batch),
        "failed": outage_report.total_failed,
        "requeued": outage_report.total_failed_attempts,
        "makespan": outage_report.max_makespan,
    }
    print(
        f"cluster outage: {outage_report.total_completed}/{2 * len(cluster_scheduler.batch)} completed, "
        f"{outage_report.total_failed_attempts} in-flight queries requeued, no retry policy needed"
    )

    write_json_report("fault_tolerance", {"expected_per_engine": expected, **payload})
    return expected, reports, outage_report, payload


def test_fault_tolerance(benchmark, profile):
    expected, reports, outage_report, payload = benchmark.pedantic(
        lambda: _run(profile), rounds=1, iterations=1
    )
    no_retry = reports["no-retry"]
    retry = reports["retry"]
    timeout = reports["retry+timeout"]

    # Without retries, transient errors lose queries for good.
    assert no_retry.total_failed > 0
    assert no_retry.total_completed < expected

    # Retry-enabled runtimes complete 100% of retryable queries.
    assert retry.total_completed == expected and retry.total_failed == 0
    assert timeout.total_completed == expected and timeout.total_failed == 0

    # The acceptance bar: retry + timeout beats the no-retry baseline on
    # makespan AND p99 while completing strictly more work.
    assert timeout.max_makespan < no_retry.max_makespan
    assert timeout.max_p99_latency < no_retry.max_p99_latency
    assert timeout.goodput > no_retry.goodput
    # Killing stragglers beats waiting them out.
    assert timeout.max_makespan < retry.max_makespan
    assert timeout.total_timeouts > 0

    # Instance outage on a fleet strands nothing, even without a RetryPolicy.
    assert outage_report.total_completed == payload["cluster_outage"]["expected"]
    assert outage_report.total_failed == 0
    assert payload["cluster_outage"]["requeued"] > 0
