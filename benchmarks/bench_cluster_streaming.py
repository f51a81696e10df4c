"""Streaming service on a heterogeneous cluster (mixed X/Y/Z fleet).

The event-driven serving scenario of PR 2, scaled out: two tenants stream
Poisson arrivals into one shared *fleet* of mixed-profile engine instances
declared through ``ServiceConfig.cluster_instances``.  A briefly trained
policy serves placements and orderings jointly; a round-robin placement
service over the same fleet provides the reference point.  Reported per
tenant: makespan and latency percentiles (what a shared-cluster operator
answers for).
"""

from __future__ import annotations

from repro import BQSchedConfig, Cluster, LSchedScheduler, make_workload
from repro.bench import heuristic_env, print_table, write_json_report
from repro.core import RoundRobinPlacementScheduler
from repro.core.env import drive_service
from repro.runtime import ExecutionRuntime, ServiceReport
from repro.workloads import PoissonArrivals

_NUM_TENANTS = 2
_ARRIVAL_RATE = 3.0


def _baseline_service(workload, config, seed: int) -> ServiceReport:
    """Round-robin placement service over the declared fleet."""
    cluster = Cluster.from_service_config(config.service, seed=seed)
    template = heuristic_env(workload, cluster, config)
    runtime = ExecutionRuntime(cluster)
    envs = []
    for index in range(_NUM_TENANTS):
        tenant = runtime.register(f"tenant-{index}", template.batch, arrivals=PoissonArrivals(_ARRIVAL_RATE))
        envs.append(
            type(template)(
                batch=template.batch,
                backend=tenant,
                scheduler_config=config.scheduler,
                config_space=template.config_space,
                knowledge=template.knowledge,
                mask=template.mask,
                strategy_name="rr-service",
            )
        )
    for env in envs:
        env.reset(round_id=config.service.base_round_id)
    schedulers = {id(env): RoundRobinPlacementScheduler() for env in envs}
    drive_service(
        runtime, envs, lambda env: schedulers[id(env)].select_action(env, env.snapshot())
    )
    return ServiceReport.from_runtime(runtime, strategy="RR-placement")


def _run(profile):
    seed = 0
    workload = make_workload("tpch", scale_factor=1.0, seed=0)
    config = BQSchedConfig.small(seed=seed)
    config.scheduler.num_connections = 2
    config.service.cluster_instances = ("x", "y", "z")
    config.service.arrival_process = "poisson"
    config.service.arrival_rate = _ARRIVAL_RATE

    fleet = Cluster.from_service_config(config.service, seed=seed)
    scheduler = LSchedScheduler(workload, fleet, config)
    scheduler.train(num_updates=max(2, profile.train_updates // 2), history_rounds=profile.history_rounds)
    policy_report = scheduler.serve(num_tenants=_NUM_TENANTS)
    baseline_report = _baseline_service(workload, config, seed)

    rows = []
    for report in (policy_report, baseline_report):
        for tenant in report.tenants:
            rows.append(
                [
                    report.strategy,
                    tenant.tenant,
                    f"{tenant.makespan:.2f}",
                    f"{tenant.p50_latency:.2f}",
                    f"{tenant.p90_latency:.2f}",
                    f"{tenant.p99_latency:.2f}",
                ]
            )
    print_table(
        ["strategy", "tenant", "makespan (s)", "p50 (s)", "p90 (s)", "p99 (s)"],
        rows,
        title=f"Streaming service on fleet {config.service.cluster_instances} — Poisson {_ARRIVAL_RATE}/s",
    )
    write_json_report(
        "cluster_streaming",
        {
            "fleet": list(config.service.cluster_instances),
            "arrival_rate": _ARRIVAL_RATE,
            "num_tenants": _NUM_TENANTS,
            "policy": policy_report.as_dict(),
            "round_robin": baseline_report.as_dict(),
        },
    )
    return policy_report, baseline_report


def test_cluster_streaming_service(benchmark, profile):
    policy_report, baseline_report = benchmark.pedantic(lambda: _run(profile), rounds=1, iterations=1)
    for report in (policy_report, baseline_report):
        assert len(report.tenants) == _NUM_TENANTS
        for tenant in report.tenants:
            assert tenant.num_queries == 22
            assert tenant.p50_latency <= tenant.p90_latency <= tenant.p99_latency
    assert policy_report.total_time > 0
    # the learned service should stay competitive with blind rotation
    assert policy_report.max_makespan <= baseline_report.max_makespan * 1.1
