"""Cluster-scale learned simulation: fidelity and pre-training pay-off.

Two measurements on a heterogeneous 3-instance fleet (DBMS-X/Y/Z):

* **Per-instance sim fidelity** (Table-III style): one
  :class:`~repro.perf.PerformanceModel` is trained from instance-tagged
  fleet logs and evaluated on held-out rounds, reporting earliest-finisher
  accuracy and remaining-time MSE *per engine instance* — the model must
  track a fast and a slow instance side by side.

* **Real-episodes-to-target**: the point of fleet pre-training is sample
  efficiency on the real cluster.  Two identical BQSched schedulers train
  towards the greedy-cost placement baseline's makespan (the strongest
  myopic heuristic); one pre-trains against the
  :class:`~repro.perf.SimulatedCluster` first — simulated episodes cost
  zero real-fleet rounds, so the pre-training budget is deliberately
  generous — the other starts from scratch and can only learn from real
  rollouts.  The benchmark reports how many real-cluster rollout episodes
  each needs before a greedy evaluation beats the target.
"""

from __future__ import annotations

import numpy as np

from repro import BQSched, BQSchedConfig, Cluster, make_workload
from repro.bench import heuristic_env, print_table, write_json_report
from repro.core import GreedyCostPlacementScheduler
from repro.core.knowledge import ExternalKnowledge
from repro.dbms import ConfigurationSpace
from repro.encoder import PlanEmbeddingCache, QueryFormer
from repro.perf import PerformanceModel
from repro.plans import PlanFeaturizer

_FLEET = ("x", "y", "z")
#: Real-update chunks the from-scratch variant may spend chasing the target.
_MAX_CHUNKS = 6
#: Simulated pre-training updates per profile pretrain unit (simulated
#: episodes are cheap — the whole point of the learned fleet).
_PRETRAIN_MULTIPLIER = 6


def _orders(batch, count: int, start_seed: int = 0) -> list[list[int]]:
    base = [q.query_id for q in batch]
    orders = []
    for seed in range(start_seed, start_seed + count):
        order = list(base)
        np.random.default_rng(seed).shuffle(order)
        orders.append(order)
    return orders


def _fidelity(profile, workload, fleet, config):
    """Train the fleet performance model and measure per-instance fidelity."""
    batch = workload.batch_query_set()
    config_space = ConfigurationSpace(config.scheduler)
    knowledge = ExternalKnowledge.from_probes(fleet, batch, config_space)
    rng = np.random.default_rng(0)
    queryformer = QueryFormer(PlanFeaturizer(workload.catalog), config.encoder, rng)
    plan_embeddings = PlanEmbeddingCache(queryformer).embeddings_for(batch)

    train_rounds = profile.history_rounds + 2
    train_log = fleet.collect_logs(
        batch, _orders(batch, train_rounds), config_space.default,
        num_connections=config.scheduler.num_connections,
    )
    holdout_log = fleet.collect_logs(
        batch, _orders(batch, 2, start_seed=100), config_space.default,
        num_connections=config.scheduler.num_connections,
    )
    perf = PerformanceModel(
        batch=batch,
        plan_embeddings=plan_embeddings,
        knowledge=knowledge,
        config_space=config_space,
        config=config.simulator,
        seed=0,
        instance_speeds=fleet.speed_factors(),
    )
    overall = perf.train_from_log(train_log)
    per_instance = perf.metrics_by_instance(holdout_log)
    return overall, per_instance


def _episodes_to_target(workload, config, pretrain_updates: int, target: float, seed: int):
    """Real-cluster rollout episodes until a greedy evaluation beats ``target``."""
    fleet = Cluster.from_names(list(_FLEET), seed=seed)
    scheduler = BQSched(workload, fleet, config)
    scheduler.train(num_updates=0, pretrain_updates=pretrain_updates, keep_best=False)
    episodes_per_update = config.ppo.rollouts_per_update
    real_episodes = 0
    curve = []
    for chunk in range(_MAX_CHUNKS + 1):
        evaluation = scheduler.evaluate_policy(rounds=2, base_round_id=60_000 + 10 * chunk)
        curve.append(evaluation.mean)
        if evaluation.mean <= target:
            return real_episodes, curve
        if chunk == _MAX_CHUNKS:
            break
        scheduler.train(num_updates=1, pretrain_updates=0, keep_best=False)
        real_episodes += episodes_per_update
    return real_episodes, curve


def _run(profile):
    workload = make_workload("tpch", scale_factor=1.0, seed=0)
    fleet = Cluster.from_names(list(_FLEET), seed=0)
    config = BQSchedConfig.small(seed=0)
    config.scheduler.num_connections = 2  # per instance: 6 fleet-wide

    overall, per_instance = _fidelity(profile, workload, fleet, config)

    target_env = heuristic_env(workload, fleet, config)
    target = GreedyCostPlacementScheduler().evaluate(target_env, rounds=2, base_round_id=60_000).mean

    pretrain_updates = profile.pretrain_updates * _PRETRAIN_MULTIPLIER
    pretrained_episodes, pretrained_curve = _episodes_to_target(
        workload, config, pretrain_updates=pretrain_updates, target=target, seed=0
    )
    scratch_episodes, scratch_curve = _episodes_to_target(
        workload, config, pretrain_updates=0, target=target, seed=0
    )

    rows = [["overall", f"{overall.accuracy:.1%}", f"{overall.mse:.3f}", str(overall.num_examples)]]
    for instance, metrics in per_instance.items():
        rows.append(
            [f"instance {instance} ({_FLEET[instance]})", f"{metrics.accuracy:.1%}",
             f"{metrics.mse:.3f}", str(metrics.num_examples)]
        )
    print_table(
        ["scope", "earliest-finisher Acc", "remaining-time MSE", "examples"],
        rows,
        title="Fleet performance model — per-instance fidelity on held-out rounds",
    )
    print_table(
        ["variant", "real-cluster episodes to target", "eval curve (makespan)"],
        [
            [f"with fleet pre-training ({pretrain_updates} sim updates)", str(pretrained_episodes),
             " ".join(f"{m:.2f}" for m in pretrained_curve)],
            ["from scratch", str(scratch_episodes),
             " ".join(f"{m:.2f}" for m in scratch_curve)],
        ],
        title=f"Episodes to reach the GreedyCost-placement target makespan ({target:.2f}s)",
    )
    write_json_report(
        "cluster_sim_pretrain",
        {
            "fleet": list(_FLEET),
            "sim_fidelity": {
                "overall": {
                    "accuracy": overall.accuracy,
                    "mse": overall.mse,
                    "num_examples": overall.num_examples,
                },
                "per_instance": {
                    str(instance): {
                        "accuracy": metrics.accuracy,
                        "mse": metrics.mse,
                        "num_examples": metrics.num_examples,
                    }
                    for instance, metrics in per_instance.items()
                },
            },
            "target_makespan": target,
            "episodes_to_target": {
                "with_pretrain": pretrained_episodes,
                "from_scratch": scratch_episodes,
            },
            "eval_curves": {"with_pretrain": pretrained_curve, "from_scratch": scratch_curve},
        },
    )
    return overall, per_instance, target, pretrained_episodes, scratch_episodes


def test_cluster_sim_pretraining(benchmark, profile):
    overall, per_instance, target, pretrained, scratch = benchmark.pedantic(
        lambda: _run(profile), rounds=1, iterations=1
    )
    # Fidelity: the model learned something on every instance of the fleet.
    assert overall.num_examples > 0 and np.isfinite(overall.mse)
    assert set(per_instance) == {0, 1, 2}
    for metrics in per_instance.values():
        assert metrics.num_examples > 0
        assert 0.0 <= metrics.accuracy <= 1.0 and np.isfinite(metrics.mse)
    # Sample efficiency (the acceptance bar): fleet pre-training reaches the
    # greedy-cost target makespan in fewer real-cluster episodes than
    # training from scratch — simulated episodes are free, real ones are not.
    assert pretrained < scratch
