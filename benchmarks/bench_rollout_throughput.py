"""Rollout-collection scaling curve: steps/sec across ``num_envs``.

Measures steps/second of simulator-backed rollout collection — the dominant
cost of BQSched's pre-training phase — across the vectorized execution spine
at ``num_envs ∈ {1, 4, 8, 16, 32, 64}`` (quick profile: ``{1, 8}``), against
a *seed-equivalent scalar baseline*: ``num_envs=1`` with the legacy AoS
snapshot path forced (no :class:`~repro.encoder.SnapshotArrays`) and the
simulator's cross-session feature-row cache bypassed, i.e. the env/simulator
hot path as it stood before the structure-of-arrays overhaul.  Those two are
all that separates ``legacy_scalar`` from ``envs_1``: both cells are the one
lock-step collector at width 1, and every sampling forward, one snapshot
included, runs the tape-free float32 kernel — which made the reference cell
~1.5x faster (631 -> 973 steps/s on the reference container) and shrank
every ratio against it accordingly.

Methodology: the host this runs on is shared and noisy, so every repeat
measures *all* cells back to back (interleaved) and each cell reports the
median of its trials — machine-speed drift then shifts whole repeats, not
individual cells, and the speedup ratio stays meaningful.

Run directly::

    PYTHONPATH=src python benchmarks/bench_rollout_throughput.py
    REPRO_BENCH_PROFILING=1 PYTHONPATH=src python benchmarks/bench_rollout_throughput.py

The issue target for the overhaul was >= 10x the seed scalar baseline at
``num_envs=64`` (7.3x was measured against the tensor-forward scalar cell);
the measured curve is recorded honestly either way, and the
exit code only gates on the regression floor (a level the curve clears with
margin on the reference container) so CI stays stable under machine noise.
"""

from __future__ import annotations

import argparse
import time
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from repro import BQSchedConfig, DatabaseEngine, DBMSProfile, make_workload
from repro.bench import (
    SectionTimers,
    get_profile,
    print_table,
    profile_call,
    profiling_enabled,
    write_json_report,
    write_profile_json,
)
from repro.core import BQSched

#: Scaling grid per effort profile (quick keeps CI smoke runs short).
ENV_GRID = {"quick": [1, 8], "full": [1, 4, 8, 16, 32, 64]}

#: Regression floor on the top-cell speedup vs the scalar reference cell
#: (exit-code gate; deliberately below the measured median so CI does not
#: flap on shared-host noise).  Base, BLAS pinned to one thread on the
#: reference container: quick ``envs_8`` 3492 / 1249 steps/s = 2.8x, full
#: ``envs_64`` 4081 / 973 steps/s = 4.2x (``envs_32`` 4.4x).
REGRESSION_FLOOR = {"quick": 1.5, "full": 2.5}

#: The tentpole goal from the issue, reported against the measured curve.
ISSUE_TARGET = 10.0


def build_scheduler(seed: int = 0) -> BQSched:
    """A TPC-H BQSched instance with a trained simulator to roll out against."""
    workload = make_workload("tpch", scale_factor=1.0, seed=seed)
    engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=seed)
    config = BQSchedConfig(seed=seed)  # paper-default encoder (state_dim=48, 2 layers)
    config.simulator.epochs = 5
    scheduler = BQSched(workload, engine, config)
    scheduler.prepare(history_rounds=2)
    return scheduler


@contextmanager
def seed_equivalent_feature_rows(scheduler: BQSched) -> Iterator[None]:
    """Bypass the cross-session feature-row cache (absent in the seed tree)."""
    simulator = scheduler.simulator

    def uncached(instance, query_id, parameters):
        return simulator.perf.featurizer.rows([query_id], [parameters], [0.0], instance=instance)[0]

    simulator.feature_row = uncached
    try:
        yield
    finally:
        del simulator.__dict__["feature_row"]


def build_trainer(scheduler: BQSched, num_envs: int, legacy: bool = False):
    """A rollout trainer; ``legacy`` forces the seed's AoS snapshot path."""
    sim_env = scheduler._build_env(backend=scheduler.simulator)
    if legacy:
        sim_env._snapshot_arrays = lambda: None
    return scheduler._make_trainer(sim_env, num_envs=num_envs)


def run_trial(scheduler: BQSched, trainer, episodes: int, legacy: bool) -> tuple[float, int]:
    """One timed ``collect_rollouts`` pass; returns (steps/sec, steps)."""
    if legacy:
        with seed_equivalent_feature_rows(scheduler):
            started = time.perf_counter()
            buffer = trainer.collect_rollouts(episodes)
            elapsed = time.perf_counter() - started
    else:
        started = time.perf_counter()
        buffer = trainer.collect_rollouts(episodes)
        elapsed = time.perf_counter() - started
    assert len(buffer.episodes) == episodes
    return len(buffer) / elapsed, len(buffer)


def main() -> int:
    profile = get_profile()
    grid = ENV_GRID.get(profile.name, ENV_GRID["full"])
    floor = REGRESSION_FLOOR.get(profile.name, REGRESSION_FLOOR["full"])
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3 if profile.name == "quick" else 5,
                        help="interleaved timed trials per cell (median)")
    parser.add_argument("--min-episodes", type=int, default=4 if profile.name == "quick" else 8,
                        help="episodes per trial for small env counts")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    timers = SectionTimers()
    with timers.section("prepare"):
        scheduler = build_scheduler(seed=args.seed)

    cells: dict[str, dict] = {"legacy_scalar": {"num_envs": 1, "legacy": True}}
    for num_envs in grid:
        cells[f"envs_{num_envs}"] = {"num_envs": num_envs, "legacy": False}
    with timers.section("warmup"):
        for cell in cells.values():
            cell["episodes"] = max(cell["num_envs"], args.min_episodes)
            cell["trainer"] = build_trainer(scheduler, cell["num_envs"], legacy=cell["legacy"])
            run_trial(scheduler, cell["trainer"], max(2, cell["num_envs"]), cell["legacy"])
            cell["rates"] = []

    with timers.section("measure"):
        for _ in range(args.repeats):
            for cell in cells.values():
                rate, steps = run_trial(scheduler, cell["trainer"], cell["episodes"], cell["legacy"])
                cell["rates"].append(rate)
                cell["steps"] = steps

    baseline = float(np.median(cells["legacy_scalar"]["rates"]))
    payload_cells: dict[str, dict] = {}
    rows = []
    for key, cell in cells.items():
        rate = float(np.median(cell["rates"]))
        speedup = rate / baseline
        payload_cells[key] = {
            "num_envs": cell["num_envs"],
            "episodes": cell["episodes"],
            "steps": cell["steps"],
            "steps_per_sec": rate,
            "speedup_vs_legacy": speedup,
        }
        rows.append([key, str(cell["num_envs"]), f"{rate:.0f}", f"{speedup:.2f}x"])

    top_key = f"envs_{grid[-1]}"
    speedup = payload_cells[top_key]["speedup_vs_legacy"]
    steps_per_episode = cells[top_key]["steps"] / cells[top_key]["episodes"]
    print_table(
        ["cell", "num_envs", "steps/sec", "speedup"],
        rows,
        title=(
            f"Simulator-backed rollout scaling (TPC-H, {steps_per_episode:.0f} steps/episode, "
            f"median of {args.repeats} interleaved trials, profile={profile.name})"
        ),
    )
    verdict = "PASS" if speedup >= floor else "BELOW FLOOR"
    print(
        f"top cell {top_key}: {speedup:.2f}x vs seed-equivalent scalar "
        f"(issue target >= {ISSUE_TARGET:.0f}x, regression floor >= {floor:.1f}x): {verdict}"
    )
    if profiling_enabled():
        trainer = cells[top_key]["trainer"]
        episodes = cells[top_key]["episodes"]
        with timers.section("cprofile"):
            _, summary = profile_call(lambda: trainer.collect_rollouts(episodes))
        write_profile_json(
            "rollout_profile",
            summary,
            sections=timers,
            extra={"cell": top_key, "num_envs": grid[-1], "episodes": episodes},
        )

    write_json_report(
        "rollout_scaling",
        {
            "steps_per_episode": steps_per_episode,
            "cells": payload_cells,
            "top_cell_speedup": speedup,
            "issue_target_speedup": ISSUE_TARGET,
            "regression_floor_speedup": floor,
            "verdict": verdict,
        },
    )
    return 0 if speedup >= floor else 1


if __name__ == "__main__":
    raise SystemExit(main())
