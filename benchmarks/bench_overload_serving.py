"""Overload serving — admission control and elastic fleets under a flash crowd.

Not a paper experiment: this benchmark stresses the serving control plane the
way a production overload does.  Four tenants (two ``interactive`` with a
latency SLO and priority, two best-effort ``batch``) submit the TPC-H batch
through a 100x flash-crowd arrival process: a steady trickle until the burst
window opens, then the arrival rate multiplies by 100 and the entire backlog
lands at once.  Two control regimes face the same crowd:

* ``uncontrolled`` — every query is admitted the moment it arrives; the
  connection pool saturates, interactive queries queue behind batch work and
  the interactive SLO collapses;
* ``controlled`` — an :class:`~repro.AdmissionPolicy` token bucket paces
  batch admissions and sheds the excess, while ``exempt_priority`` lets the
  interactive tier bypass the bucket entirely; interactive attainment stays
  near 100% at the cost of shed batch work.

A second pair exercises the elastic-fleet half of the control plane: the same
flash crowd against a fleet pinned at one instance versus a three-instance
fleet that starts with two instances parked and lets the
:class:`~repro.AutoscalePolicy` unpark them when the burst backlog builds.

The acceptance bar: controlled beats uncontrolled on interactive SLO
attainment AND interactive goodput while shedding only batch work, and the
elastic fleet completes everything the pinned fleet does, faster and with
higher attainment.
"""

from __future__ import annotations

from repro import (
    AdmissionPolicy,
    AutoscalePolicy,
    BQSchedConfig,
    Cluster,
    DatabaseEngine,
    DBMSProfile,
    FlashCrowdArrivals,
    TenantClass,
    make_workload,
)
from harness.reporting import print_table, write_json_report
from repro.core import LSchedScheduler

#: Two interactive tenants with a hard latency SLO and two best-effort batch
#: tenants; ``serve`` assigns classes round-robin, so tenants 0/2 are
#: interactive and 1/3 are batch.
CLASSES = (
    TenantClass("interactive", priority=2.0, latency_slo=20.0, deadline=120.0),
    TenantClass("batch", priority=0.0, latency_slo=60.0),
)

#: A steady 0.8 q/s trickle until t=2, then a 100x flash crowd: the window
#: compresses every remaining arrival into ~1.5 simulated seconds.
ARRIVALS = FlashCrowdArrivals(rate=0.8, burst_factor=100.0, burst_start=2.0, burst_duration=1.5)

#: Batch admissions are paced at ~1 q/s with a small burst allowance; the
#: interactive tier (priority 2.0 >= exempt_priority) bypasses the bucket.
ADMISSION = AdmissionPolicy(rate=1.0, burst=3.0, exempt_priority=1.0)

#: The elastic fleet starts with one instance live and two parked, unparking
#: when the per-instance backlog passes ``target_backlog``.
AUTOSCALE = AutoscalePolicy(target_backlog=6.0, low_water=1.0, initial_instances=1)

NUM_TENANTS = 4
NUM_CONNECTIONS = 4


def _build_scheduler(engine):
    workload = make_workload("tpch", scale_factor=1.0, seed=0)
    config = BQSchedConfig.small(seed=0)
    config.scheduler.num_connections = NUM_CONNECTIONS
    # The policy runs greedily but untrained: the benchmark measures the
    # control plane's overload behaviour, not policy quality, and an
    # untrained network keeps the quick profile fast and fully deterministic.
    return LSchedScheduler(workload, engine, config)


def _serve_engine(admission):
    engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
    scheduler = _build_scheduler(engine)
    report = scheduler.serve(
        num_tenants=NUM_TENANTS,
        arrivals=ARRIVALS,
        tenant_classes=CLASSES,
        admission=admission,
    )
    return scheduler, report


def _serve_fleet(names, autoscale):
    cluster = Cluster.from_names(names, seed=0)
    scheduler = _build_scheduler(cluster)
    report = scheduler.serve(
        num_tenants=NUM_TENANTS,
        arrivals=ARRIVALS,
        tenant_classes=CLASSES,
        autoscale=autoscale,
    )
    return scheduler, report


def _scenario_payload(report):
    interactive = report.class_report("interactive")
    batch = report.class_report("batch")
    return {
        "completed": report.total_completed,
        "failed": report.total_failed,
        "shed": report.total_shed,
        "goodput": report.goodput,
        "makespan": report.max_makespan,
        "interactive_slo_attainment": interactive.slo_attainment,
        "interactive_goodput": interactive.goodput,
        "interactive_p99_latency": interactive.worst_p99_latency,
        "batch_slo_attainment": batch.slo_attainment,
        "batch_shed": batch.num_shed,
        "interactive_shed": interactive.num_shed,
    }


def _run(profile):
    scheduler, uncontrolled = _serve_engine(admission=None)
    _, controlled = _serve_engine(admission=ADMISSION)
    _, pinned = _serve_fleet(("x",), autoscale=None)
    _, elastic = _serve_fleet(("x", "x", "x"), autoscale=AUTOSCALE)

    expected = NUM_TENANTS * len(scheduler.batch)
    scenarios = {
        "uncontrolled": uncontrolled,
        "controlled": controlled,
        "pinned_fleet": pinned,
        "elastic_fleet": elastic,
    }
    rows = []
    payload = {"expected_total": expected}
    for label, report in scenarios.items():
        entry = _scenario_payload(report)
        payload[label] = entry
        rows.append(
            [
                label,
                f"{entry['completed']}/{expected}",
                str(entry["shed"]),
                f"{entry['interactive_slo_attainment']:.2f}",
                f"{entry['interactive_p99_latency']:.2f}",
                f"{entry['interactive_goodput']:.3f}",
                f"{entry['batch_slo_attainment']:.2f}",
                f"{entry['goodput']:.3f}",
            ]
        )
    print_table(
        [
            "scenario",
            "completed",
            "shed",
            "int SLO att",
            "int p99 (s)",
            "int goodput",
            "batch SLO att",
            "goodput (q/s)",
        ],
        rows,
        title="Overload serving — 100x flash crowd (TPC-H, 2 interactive + 2 batch tenants)",
    )

    write_json_report("overload_serving", payload)
    return expected, scenarios, payload


def test_overload_serving(benchmark, profile):
    expected, scenarios, payload = benchmark.pedantic(lambda: _run(profile), rounds=1, iterations=1)
    uncontrolled = payload["uncontrolled"]
    controlled = payload["controlled"]
    pinned = payload["pinned_fleet"]
    elastic = payload["elastic_fleet"]

    # The uncontrolled service admits everything and the interactive SLO
    # collapses under the flash crowd.
    assert uncontrolled["completed"] == expected and uncontrolled["shed"] == 0
    assert uncontrolled["interactive_slo_attainment"] < 0.75

    # Admission control sheds only batch work and keeps the interactive tier
    # near-perfect on attainment — the headline acceptance bar.
    assert controlled["interactive_shed"] == 0
    assert controlled["batch_shed"] > 0
    assert controlled["interactive_slo_attainment"] >= 0.9
    assert (
        controlled["interactive_slo_attainment"]
        > uncontrolled["interactive_slo_attainment"] + 0.15
    )
    assert controlled["interactive_goodput"] > uncontrolled["interactive_goodput"]
    assert controlled["interactive_p99_latency"] < uncontrolled["interactive_p99_latency"]

    # Elastic fleet: autoscaling unparks capacity during the burst, so the
    # fleet matches the pinned instance on completions while finishing faster
    # and holding the interactive SLO.
    assert pinned["completed"] == expected and pinned["failed"] == 0
    assert elastic["completed"] == expected and elastic["failed"] == 0
    assert elastic["makespan"] < pinned["makespan"]
    assert elastic["goodput"] > pinned["goodput"]
    assert elastic["interactive_slo_attainment"] > pinned["interactive_slo_attainment"]
