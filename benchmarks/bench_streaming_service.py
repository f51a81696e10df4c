"""Streaming service — multi-tenant, open-arrival serving on one engine.

Not a paper experiment: this benchmark exercises the event-driven runtime
the way a shared cluster would be operated.  N tenants run the TPC-H batch
concurrently on one engine (shared connections, buffer pool and contention
model); the closed scenario measures pure multi-tenancy, the Poisson and
bursty scenarios additionally stream each tenant's queries in over time.
Reported per tenant: makespan and latency percentiles.
"""

from __future__ import annotations

from harness.harness import Scenario, evaluate_service
from harness.reporting import print_table, write_json_report
from repro.core import LSchedScheduler


def _build_scheduler(profile):
    scenario = Scenario(benchmark="tpch", dbms="x", profile=profile)
    workload, engine, config = scenario.build()
    scheduler = LSchedScheduler(workload, engine, config)
    scheduler.train(num_updates=max(1, profile.train_updates // 2))
    return scheduler


def _run(profile):
    scheduler = _build_scheduler(profile)
    scenarios = [
        ("closed", 2),
        ("poisson", 2),
        ("bursty", 2),
    ]
    if profile.name == "full":
        scenarios += [("poisson", 4)]
    rows = []
    reports = {}
    for process, tenants in scenarios:
        report = evaluate_service(
            scheduler,
            num_tenants=tenants,
            arrival_process=process,
            arrival_rate=3.0,
        )
        reports[f"{process}/{tenants}"] = report.as_dict()
        for tenant in report.tenants:
            rows.append(
                [
                    f"{process} x{tenants}",
                    tenant.tenant,
                    f"{tenant.makespan:.2f}",
                    f"{tenant.p50_latency:.2f}",
                    f"{tenant.p90_latency:.2f}",
                    f"{tenant.p99_latency:.2f}",
                ]
            )
    print_table(
        ["scenario", "tenant", "makespan (s)", "p50 lat (s)", "p90 lat (s)", "p99 lat (s)"],
        rows,
        title="Streaming service — per-tenant completion metrics",
    )
    write_json_report("streaming_service", {"rows": rows, "reports": reports})
    return reports


def test_streaming_service(benchmark, profile):
    reports = benchmark.pedantic(lambda: _run(profile), rounds=1, iterations=1)
    # Every scenario must drain every tenant's full batch.
    for report in reports.values():
        for tenant in report["tenants"]:
            assert tenant["num_queries"] > 0
            assert tenant["makespan"] > 0
