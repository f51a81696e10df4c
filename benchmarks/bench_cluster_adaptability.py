"""Cross-configuration cluster adaptability (Table-II-style, heterogeneous fleet).

The cluster analogue of the paper's adaptability experiment: the policy is
trained on a *homogeneous* 3-instance fleet (three DBMS-X servers), then
confronted with a *skewed* fleet — same profiles except the hardware speeds
now span fast/stock/slow — in two regimes:

* **zero-shot**: the trained policy is applied without retraining (plan
  embeddings, knowledge and masks are rebuilt for the new fleet; the network
  is reused as-is);
* **adapted**: the policy is fine-tuned briefly on the skewed fleet, the
  cross-configuration adaptation a periodic batch workload affords.

Both are compared against the placement heuristics: round-robin, least
outstanding work (speed-blind load balancing — the classic heuristic a
heterogeneous fleet defeats), and greedy expected-completion cost (the
strongest myopic baseline, reported for context).  The acceptance bar is the
adapted policy beating round-robin *and* least-outstanding-work.
"""

from __future__ import annotations

from dataclasses import replace

from repro import BQSchedConfig, Cluster, DBMSProfile, LSchedScheduler, make_workload
from harness.harness import evaluate_placement_baselines
from harness.reporting import print_table, write_json_report

_SKEW_SPEEDS = {"X-fast": 1.6, "X-stock": 1.0, "X-slow": 0.45}


def _fleets(seed: int) -> tuple[Cluster, Cluster]:
    base = DBMSProfile.dbms_x()
    homogeneous = Cluster.homogeneous(base, 3, seed=seed, name="train-fleet")
    skewed = Cluster.from_profiles(
        [replace(base, name=name, speed=speed) for name, speed in _SKEW_SPEEDS.items()],
        seed=seed,
        name="eval-fleet",
    )
    return homogeneous, skewed


def _run(profile):
    seed = 0
    workload = make_workload("tpch", scale_factor=1.0, seed=0)
    config = BQSchedConfig.small(seed=seed)
    config.scheduler.num_connections = 2  # per instance: 6 fleet-wide
    rounds = profile.evaluation_rounds
    train_updates = profile.train_updates
    homogeneous, skewed = _fleets(seed)

    results = evaluate_placement_baselines(workload, skewed, config, rounds=rounds)

    trained = LSchedScheduler(workload, homogeneous, config)
    trained.prepare(history_rounds=profile.history_rounds)
    trained.train(num_updates=train_updates)
    results["LSched (zero-shot)"] = trained.evaluate_on(workload, skewed, rounds=rounds)

    adapted = LSchedScheduler(workload, skewed, config)
    adapted.policy.load_state_dict(trained.policy.state_dict())
    adapted.prepare(history_rounds=profile.history_rounds)
    adapted.train(num_updates=train_updates)
    results["LSched (adapted)"] = adapted.evaluate_policy(rounds=rounds)

    rows = [
        [name, f"{evaluation.mean:.2f} ± {evaluation.std:.2f}"]
        for name, evaluation in results.items()
    ]
    print_table(
        ["strategy", "makespan on skewed fleet (s)"],
        rows,
        title="Cluster adaptability — trained on homogeneous, evaluated on skewed 3-instance fleet",
    )
    write_json_report(
        "cluster_adaptability",
        {
            "fleet_speeds": _SKEW_SPEEDS,
            "rounds": rounds,
            "train_updates": train_updates,
            "makespans": {name: evaluation.mean for name, evaluation in results.items()},
            "stds": {name: evaluation.std for name, evaluation in results.items()},
        },
    )
    return results


def test_cluster_adaptability(benchmark, profile):
    results = benchmark.pedantic(lambda: _run(profile), rounds=1, iterations=1)
    adapted = results["LSched (adapted)"].mean
    # Acceptance: the trained policy beats blind rotation and speed-blind
    # load balancing on the heterogeneous fleet.
    assert adapted <= results["RR-placement"].mean
    assert adapted <= results["LOW-placement"].mean
    # The zero-shot transfer should at least stay within the ballpark of the
    # speed-blind balancer even without seeing the skew during training.
    assert results["LSched (zero-shot)"].mean <= results["LOW-placement"].mean * 1.25
