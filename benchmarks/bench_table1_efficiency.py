"""Table I — efficiency (mean makespan) and stability (std) of all strategies.

Paper: Random / FIFO / MCF / LSched / BQSched over TPC-DS, TPC-H and JOB on
DBMS-X, Y and Z.  The quick profile runs the RL schedulers on DBMS-X only and
evaluates the heuristics on all three DBMSs; the full profile covers the
whole grid.
"""

from __future__ import annotations

from harness import paper_values
from harness.harness import Scenario, run_strategy_comparison
from harness.reporting import print_table, write_json_report


def _run(profile, dbms_list, include_rl):
    rows = []
    ordering_ok = []
    for dbms in dbms_list:
        for benchmark in ("tpcds", "tpch", "job"):
            scenario = Scenario(benchmark=benchmark, dbms=dbms, profile=profile)
            results = run_strategy_comparison(scenario, include_rl=include_rl)
            paper = paper_values.TABLE1_MAKESPAN[f"DBMS-{dbms.upper()}"][benchmark]
            for strategy, evaluation in results.items():
                rows.append(
                    [
                        f"DBMS-{dbms.upper()}",
                        benchmark,
                        strategy,
                        f"{evaluation.mean:.2f} ± {evaluation.std:.2f}",
                        f"{paper[strategy]:.2f}",
                    ]
                )
            if include_rl and "BQSched" in results:
                fifo, bq = results["FIFO"].mean, results["BQSched"].mean
                ordering_ok.append(bq <= fifo * 1.05)
    print_table(
        ["DBMS", "benchmark", "strategy", "measured t_ov (s)", "paper t_ov (s)"],
        rows,
        title="Table I — efficiency and stability",
    )
    name = "table1_efficiency" if include_rl else "table1_heuristics"
    write_json_report(name, {"rows": rows, "ordering_ok": ordering_ok, "dbms": list(dbms_list)})
    return ordering_ok


def test_table1_efficiency_and_stability(benchmark, profile):
    dbms_list = ["x"] if profile.name == "quick" else ["x", "y", "z"]
    ordering_ok = benchmark.pedantic(lambda: _run(profile, dbms_list, include_rl=True), rounds=1, iterations=1)
    # Shape check: BQSched should not lose to FIFO on any cell it was trained for.
    assert ordering_ok and sum(ordering_ok) >= len(ordering_ok) - 1


def test_table1_heuristics_all_dbms(benchmark, profile):
    benchmark.pedantic(lambda: _run(profile, ["x", "y", "z"], include_rl=False), rounds=1, iterations=1)
