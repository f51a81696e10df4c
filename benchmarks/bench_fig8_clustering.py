"""Figure 8 — parameter sensitivity of scheduling-gain based query clustering.

Paper: with 5x / 10x query sets, clustering improves the learned strategy by
9-13 % and the best cluster count is around 100.  We sweep the cluster count
on an enlarged TPC-DS query set and compare against BQSched without
clustering.
"""

from __future__ import annotations

from harness import paper_values
from harness.harness import Scenario
from harness.reporting import print_table, write_json_report
from repro.core import BQSched


def _train_and_eval(scenario, profile, num_clusters):
    workload, engine, config = scenario.build()
    if num_clusters is not None:
        config.clustering.num_clusters = num_clusters
    scheduler = BQSched(workload, engine, config)
    scheduler.use_clustering = num_clusters is not None
    scheduler.train(
        num_updates=max(1, profile.train_updates // 2),
        pretrain_updates=max(1, profile.pretrain_updates // 2),
        history_rounds=profile.history_rounds,
    )
    return scheduler.evaluate_policy(rounds=max(2, profile.evaluation_rounds - 1)).mean


def _run(profile):
    query_scale = 2.0 if profile.name == "quick" else 5.0
    cluster_counts = [12, 25] if profile.name == "quick" else [25, 50, 100, 200]
    scenario = Scenario(benchmark="tpcds", dbms="x", query_scale=query_scale, profile=profile)

    measured = {"w/o clustering": _train_and_eval(scenario, profile, None)}
    for count in cluster_counts:
        measured[f"n_c={count}"] = _train_and_eval(scenario, profile, count)

    rows = [[name, f"{value:.2f}"] for name, value in measured.items()]
    print_table(
        ["configuration", "measured t_ov (s)"],
        rows,
        title=(
            f"Figure 8 — query clustering at {query_scale}x queries "
            f"(paper improvement over no clustering: {paper_values.FIG8_CLUSTERING_IMPROVEMENT})"
        ),
    )
    write_json_report("fig8_clustering", {"measured": measured, "query_scale": query_scale})
    return measured


def test_fig8_query_clustering(benchmark, profile):
    measured = benchmark.pedantic(lambda: _run(profile), rounds=1, iterations=1)
    baseline = measured["w/o clustering"]
    best_clustered = min(value for name, value in measured.items() if name != "w/o clustering")
    # Shape check: at least one clustered configuration is competitive with
    # (not dramatically worse than) scheduling at query granularity.
    assert best_clustered <= baseline * 1.15
