"""Figure 7 — ablation of the RL scheduler and adaptive masking.

Variants of BQSched: full (IQ-PPO), plain PPO, PPG, without the attention
state representation, and without adaptive masking.  The paper reports the
masking ablation as the largest regression (~44 % worse), followed by PPO,
attention and PPG.
"""

from __future__ import annotations

from harness import paper_values
from harness.harness import Scenario
from harness.reporting import print_table, write_json_report
from repro.core import BQSched


class BQSchedWithPPO(BQSched):
    name = "BQSched w/ PPO"
    algorithm = "ppo"


class BQSchedWithPPG(BQSched):
    name = "BQSched w/ PPG"
    algorithm = "ppg"


class BQSchedNoMask(BQSched):
    name = "BQSched w/o masking"
    use_masking = False


class BQSchedNoAttention(BQSched):
    name = "BQSched w/o attention"
    use_attention_state = False


def _run(profile):
    benchmark_name = "tpch" if profile.name == "quick" else "tpcds"
    scenario = Scenario(benchmark=benchmark_name, dbms="x", profile=profile)
    rounds = profile.evaluation_rounds
    variants = [BQSched, BQSchedWithPPO, BQSchedWithPPG, BQSchedNoAttention, BQSchedNoMask]
    measured = {}
    for cls in variants:
        workload, engine, config = scenario.build()
        scheduler = cls(workload, engine, config)
        pretrain = profile.pretrain_updates if scheduler.use_simulator else 0
        scheduler.prepare(history_rounds=profile.history_rounds)
        scheduler.train(num_updates=profile.train_updates, pretrain_updates=pretrain)
        measured[scheduler.name] = scheduler.evaluate_policy(rounds=rounds).mean

    base = measured["BQSched"]
    rows = []
    paper_relative = {
        "BQSched": 1.0,
        "BQSched w/ PPO": paper_values.FIG7_ABLATION_RELATIVE["w/ PPO"],
        "BQSched w/ PPG": paper_values.FIG7_ABLATION_RELATIVE["w/ PPG"],
        "BQSched w/o attention": paper_values.FIG7_ABLATION_RELATIVE["w/o attention state"],
        "BQSched w/o masking": paper_values.FIG7_ABLATION_RELATIVE["w/o adaptive masking"],
    }
    for name, value in measured.items():
        rows.append([name, f"{value:.2f}", f"{value / base:.2f}", f"{paper_relative[name]:.2f}"])
    print_table(
        ["variant", "measured t_ov (s)", "measured relative", "paper relative"],
        rows,
        title="Figure 7 — ablation of state representation, IQ-PPO and masking",
    )
    write_json_report("fig7_ablation", {"measured": measured, "relative": {k: v / base for k, v in measured.items()}})
    return measured


def test_fig7_ablation(benchmark, profile):
    measured = benchmark.pedantic(lambda: _run(profile), rounds=1, iterations=1)
    # Shape check: the full system is at least as good as the worst ablation,
    # and all variants complete scheduling successfully.
    assert all(value > 0 for value in measured.values())
    assert measured["BQSched"] <= max(measured.values()) + 1e-9
