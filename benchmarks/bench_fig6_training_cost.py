"""Figure 6 — RL training cost: simulator pre-training vs training from scratch.

Paper: pre-training BQSched on the learned simulator plus a short fine-tuning
phase costs a small fraction of training from scratch on the DBMS, and far
less than training LSched.  We measure wall-clock seconds of each phase.
"""

from __future__ import annotations

from harness import paper_values
from harness.harness import Scenario
from harness.reporting import print_table, write_json_report
from repro.core import BQSched, LSchedScheduler


def _run(profile):
    benchmark_name = "tpch" if profile.name == "quick" else "tpcds"
    scenario = Scenario(benchmark=benchmark_name, dbms="x", profile=profile)
    rows = {}

    phase_rows = {}

    # BQSched with simulator pre-training: most updates happen on the simulator,
    # only a short fine-tuning phase touches the DBMS.
    workload, engine, config = scenario.build()
    with_sim = BQSched(workload, engine, config)
    with_sim.train(num_updates=max(1, profile.train_updates // 2), pretrain_updates=profile.pretrain_updates)
    rows["BQSched (pretrain + finetune)"] = dict(with_sim.timings)
    phase_rows["BQSched (pretrain + finetune)"] = with_sim.trainer.timers.as_dict()

    # BQSched trained from scratch on the DBMS (no simulator).
    workload, engine, config = scenario.build()
    from_scratch = BQSched(workload, engine, config)
    from_scratch.use_simulator = False
    from_scratch.train(num_updates=profile.train_updates)
    rows["BQSched (from scratch)"] = dict(from_scratch.timings)
    phase_rows["BQSched (from scratch)"] = from_scratch.trainer.timers.as_dict()

    # LSched trained from scratch on the DBMS.
    workload, engine, config = scenario.build()
    lsched = LSchedScheduler(workload, engine, config)
    lsched.train(num_updates=profile.train_updates)
    rows["LSched (from scratch)"] = dict(lsched.timings)
    phase_rows["LSched (from scratch)"] = lsched.trainer.timers.as_dict()

    table = []
    for name, timings in rows.items():
        table.append(
            [
                name,
                f"{timings.get('pretrain', 0.0):.1f}",
                f"{timings.get('finetune', 0.0):.1f}",
                f"{timings.get('train_total', 0.0):.1f}",
            ]
        )
    print_table(
        ["configuration", "pretrain (s)", "finetune on DBMS (s)", "total (s)"],
        table,
        title=(
            "Figure 6 — training cost (paper: pretrain+finetune uses ~10% of LSched's "
            f"time; ratios: {paper_values.FIG6_TRAINING_COST})"
        ),
    )
    # Trainer-internal phase breakdown (SectionTimers): where each final
    # trainer's wall clock went — rollout collection vs the update/aux
    # optimisation phases (and the optimizer slice inside those).
    phases = sorted({phase for timers in phase_rows.values() for phase in timers})
    breakdown = [
        [name] + [f"{timers.get(phase, {}).get('seconds', 0.0):.2f}" for phase in phases]
        for name, timers in phase_rows.items()
    ]
    print_table(
        ["configuration"] + [f"{phase} (s)" for phase in phases],
        breakdown,
        title="Trainer phase breakdown (SectionTimers, final training phase)",
    )
    write_json_report("fig6_training_cost", {"timings": rows, "trainer_phases": phase_rows})
    return rows


def test_fig6_training_cost(benchmark, profile):
    rows = benchmark.pedantic(lambda: _run(profile), rounds=1, iterations=1)
    # Shape check: the DBMS-facing fine-tuning time of the pretrained BQSched is
    # smaller than training LSched from scratch on the DBMS.
    assert rows["BQSched (pretrain + finetune)"]["finetune"] < rows["LSched (from scratch)"]["train_total"]
