"""Figure 5 — scalability over data scale and query scale.

Paper: makespans of all strategies as data grows (1x–10x on DBMS-X,
50x–200x on DBMS-Z) and as the query set grows (1x–10x).  The quick profile
runs a reduced grid (RL only at the smallest point of each axis).
"""

from __future__ import annotations

from harness.harness import Scenario, evaluate_heuristics, evaluate_rl
from harness.reporting import print_table, write_json_report
from repro.core import BQSched


def _sweep(profile, axis, points, dbms, benchmark_name, rl_points):
    rows = []
    shapes = []
    for point in points:
        scenario = Scenario(
            benchmark=benchmark_name,
            dbms=dbms,
            data_scale=point if axis == "data" else 1.0,
            query_scale=point if axis == "query" else 1.0,
            profile=profile,
        )
        workload, engine, config = scenario.build()
        rounds = profile.evaluation_rounds
        results = evaluate_heuristics(workload, engine, config, rounds=rounds)
        if point in rl_points:
            evaluation, _ = evaluate_rl(workload, engine, config, BQSched, profile, rounds)
            results["BQSched"] = evaluation
            shapes.append(results["BQSched"].mean <= results["FIFO"].mean * 1.05)
        for strategy, evaluation in results.items():
            rows.append([f"{benchmark_name}/{dbms} {axis} {point}x", strategy, f"{evaluation.mean:.2f}"])
    return rows, shapes


def test_fig5_scalability(benchmark, profile):
    def run():
        all_rows, all_shapes = [], []
        if profile.name == "quick":
            grids = [
                ("data", [1.0, 2.0], "x", "tpcds", [1.0]),
                ("query", [1.0, 2.0], "x", "tpcds", [1.0]),
                ("data", [50.0], "z", "tpch", []),
            ]
        else:
            grids = [
                ("data", [1.0, 2.0, 5.0, 10.0], "x", "tpcds", [1.0, 2.0]),
                ("query", [1.0, 2.0, 5.0], "x", "tpcds", [1.0, 2.0]),
                ("data", [50.0, 100.0, 200.0], "z", "tpcds", [50.0]),
                ("data", [50.0, 100.0, 200.0], "z", "tpch", [50.0]),
            ]
        for axis, points, dbms, bench_name, rl_points in grids:
            rows, shapes = _sweep(profile, axis, points, dbms, bench_name, rl_points)
            all_rows.extend(rows)
            all_shapes.extend(shapes)
        print_table(
            ["scale point", "strategy", "measured t_ov (s)"],
            all_rows,
            title="Figure 5 — scalability (paper: BQSched improves FIFO by 13-61% across scales)",
        )
        write_json_report("fig5_scalability", {"rows": all_rows, "shape_checks": all_shapes})
        return all_shapes

    shapes = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(shapes) or sum(shapes) >= len(shapes) - 1


def test_fig5_heuristic_makespan_grows_with_data(benchmark, profile):
    def run():
        scenario_small = Scenario(benchmark="tpcds", dbms="x", data_scale=1.0, profile=profile)
        scenario_large = Scenario(benchmark="tpcds", dbms="x", data_scale=5.0, profile=profile)
        results = []
        for scenario in (scenario_small, scenario_large):
            workload, engine, config = scenario.build()
            results.append(evaluate_heuristics(workload, engine, config, rounds=2)["FIFO"].mean)
        return results

    small, large = benchmark.pedantic(run, rounds=1, iterations=1)
    assert large > small
