"""Table III — ablation / sensitivity of the simulator's prediction model.

Variants: without the attention encoder, without multitask learning, and a
sweep of the regression-loss weight γ.  Metrics: earliest-finisher
classification accuracy and remaining-time regression MSE.
"""

from __future__ import annotations

import numpy as np
from repro.bench import Scenario, paper_values, print_table, write_json_report
from repro.config import SimulatorConfig
from repro.core.knowledge import ExternalKnowledge
from repro.dbms import ConfigurationSpace
from repro.encoder import PlanEmbeddingCache, QueryFormer
from repro.perf import PerformanceModel
from repro.plans import PlanFeaturizer


def _run(profile):
    benchmark_name = "tpch" if profile.name == "quick" else "tpcds"
    scenario = Scenario(benchmark=benchmark_name, dbms="x", profile=profile)
    workload, engine, config = scenario.build()
    batch = workload.batch_query_set()
    config_space = ConfigurationSpace(config.scheduler)
    knowledge = ExternalKnowledge.from_probes(engine, batch, config_space)
    rng = np.random.default_rng(0)
    queryformer = QueryFormer(PlanFeaturizer(workload.catalog), config.encoder, rng)
    plan_embeddings = PlanEmbeddingCache(queryformer).embeddings_for(batch)

    orders = []
    base = [q.query_id for q in batch]
    for seed in range(profile.history_rounds + 2):
        order = list(base)
        np.random.default_rng(seed).shuffle(order)
        orders.append(order)
    log = engine.collect_logs(batch, orders, config_space.default, num_connections=config.scheduler.num_connections)

    variants = {
        "w/o Att": SimulatorConfig(hidden_dim=24, epochs=6, use_attention=False),
        "w/o MTL": SimulatorConfig(hidden_dim=24, epochs=6, use_multitask=False),
        "gamma=0.01": SimulatorConfig(hidden_dim=24, epochs=6, gamma_regression=0.01),
        "gamma=0.1": SimulatorConfig(hidden_dim=24, epochs=6, gamma_regression=0.1),
        "gamma=1": SimulatorConfig(hidden_dim=24, epochs=6, gamma_regression=1.0),
    }
    rows, measured = [], {}
    for name, sim_config in variants.items():
        perf = PerformanceModel(batch, plan_embeddings, knowledge, config_space, sim_config, seed=0)
        metrics = perf.train_from_log(log)
        measured[name] = metrics
        paper = paper_values.TABLE3_SIMULATOR[name]
        rows.append(
            [
                name,
                f"{metrics.accuracy:.1%}",
                f"{paper['accuracy']:.1%}",
                f"{metrics.mse:.3f}",
                f"{paper['mse']:.3f}",
            ]
        )
    print_table(
        ["variant", "measured Acc", "paper Acc", "measured MSE", "paper MSE"],
        rows,
        title="Table III — simulator prediction model",
    )
    write_json_report(
        "table3_simulator_model",
        {
            name: {"accuracy": m.accuracy, "mse": m.mse, "num_examples": m.num_examples}
            for name, m in measured.items()
        },
    )
    return measured


def test_table3_simulator_prediction_model(benchmark, profile):
    measured = benchmark.pedantic(lambda: _run(profile), rounds=1, iterations=1)
    # Shape checks: every variant learns something and metrics are finite.
    assert all(0.0 <= m.accuracy <= 1.0 and np.isfinite(m.mse) for m in measured.values())
    # The full multitask model should not be worse than dropping MTL by a lot.
    assert measured["gamma=0.1"].mse <= measured["w/o MTL"].mse * 2.0
