"""Training-step micro-benchmark: ms/update, tape vs fused analytic kernels.

Times one PPO optimizer update — minibatch forward, loss, backward, gradient
clip and Adam step — through both training paths: the define-by-run autograd
tape and the tape-free fused kernels of :mod:`repro.nn.fastgrad`, over a
``(minibatch_size, num_envs)`` grid at paper-default encoder sizes
(state_dim=48, two attention layers, 22 TPC-H-sized queries).

Minibatches are assembled outside the timed region from synthetic snapshot
streams (an evolving-session generator, :class:`_SyntheticSession`) with
``old_log_probs`` taken from the policy itself, so the clipped-surrogate
ratios sit near 1 as they do early in real training.  Each timed pass is one
full update: ``zero_grad``, forward+backward, ``clip_grad_norm``,
``Adam.step``.  ``timeit`` repeats are interleaved across cells and paths,
with per-cell medians, to keep shared-host noise out of the ratios.

Run directly::

    PYTHONPATH=src python benchmarks/bench_training_step.py
    REPRO_BENCH_PROFILE=full PYTHONPATH=src python benchmarks/bench_training_step.py
"""

from __future__ import annotations

import argparse
import timeit

import numpy as np

from repro.bench import get_profile, print_table, write_json_report
from repro.config import EncoderConfig
from repro.core.policy import ActorCriticNetwork
from repro.encoder import RunStateFeaturizer, StateEncoder
from repro.encoder.run_state import SnapshotArrays
from repro.nn import Adam, Tensor, clip_grad_norm, fastgrad, no_grad, where

#: (minibatch_size, num_envs) cells per effort profile.  The minibatch is
#: drawn across the envs' decision steps, so num_envs controls snapshot
#: diversity (distinct running sets) at a fixed stacked-batch height.
GRID = {
    "quick": [(8, 8), (32, 8)],
    "full": [(8, 1), (8, 8), (32, 8), (32, 64), (64, 64)],
}

NUM_QUERIES = 22
NUM_CONFIGS = 3
PLAN_DIM = 32

#: Concurrent-query cap of the synthetic round (mirrors the TPC-H scenarios:
#: 4 connections over ~22 queries).
MAX_RUNNING = 4


class _SyntheticSession:
    """Evolving per-query state for one env: queries start, run and finish."""

    def __init__(self, num_queries: int, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.status = np.zeros(num_queries, dtype=np.int64)  # 0 pending
        self.started_at = np.zeros(num_queries, dtype=np.float64)
        self.time = 0.0

    def step(self) -> None:
        """Advance one decision step: start/finish queries, move the clock."""
        self.time += float(self.rng.uniform(0.3, 0.8))
        running = np.flatnonzero(self.status == 1)
        if running.size and self.rng.uniform() < 0.35:
            row = int(running[np.argmin(self.started_at[running])])
            self.status[row] = 2
            running = np.flatnonzero(self.status == 1)
        pending = np.flatnonzero(self.status == 0)
        if pending.size and running.size < MAX_RUNNING:
            row = int(pending[0])
            self.status[row] = 1
            self.started_at[row] = self.time

    def snapshot(self, num_configs: int) -> SnapshotArrays:
        n = self.status.shape[0]
        running = self.status == 1
        return SnapshotArrays(
            time=self.time,
            status=self.status.copy(),
            config_index=np.where(running, np.arange(n) % num_configs, -1),
            elapsed=np.where(running, self.time - self.started_at, 0.0),
            expected_time=1.0 + (np.arange(n) % 7).astype(np.float64),
            available=np.ones(n, dtype=bool),
            time_to_available=np.zeros(n, dtype=np.float64),
            attempts=np.zeros(n, dtype=np.int64),
        )
CLIP_EPSILON = 0.2
VALUE_COEF = 0.5
ENTROPY_COEF = 0.01
MAX_GRAD_NORM = 0.5


def build_policy(seed: int):
    """A paper-default policy (state_dim=48, 2 attention layers) + embeddings."""
    rng = np.random.default_rng(seed)
    featurizer = RunStateFeaturizer(num_configs=NUM_CONFIGS)
    encoder = StateEncoder(PLAN_DIM, featurizer, EncoderConfig(), rng)
    policy = ActorCriticNetwork(encoder, NUM_CONFIGS, rng)
    plan = np.random.default_rng(seed + 1).normal(size=(NUM_QUERIES, PLAN_DIM))
    return policy, plan


def build_minibatch(policy, plan, minibatch_size: int, num_envs: int, seed: int):
    """A PPO minibatch sampled from evolving synthetic sessions.

    Snapshots come from ``num_envs`` independent sessions advanced a few
    decision steps each; actions are sampled from the masked policy and
    ``old_log_probs`` are the policy's own, so ratios start near 1.
    """
    rng = np.random.default_rng(seed)
    sessions = [_SyntheticSession(NUM_QUERIES, seed + 1 + index) for index in range(num_envs)]
    snapshots = []
    for index in range(minibatch_size):
        session = sessions[index % num_envs]
        session.step()
        snapshots.append(session.snapshot(NUM_CONFIGS))
    masks = np.ones((minibatch_size, NUM_QUERIES * NUM_CONFIGS), dtype=bool)
    actions = rng.integers(0, NUM_QUERIES * NUM_CONFIGS, size=minibatch_size, dtype=np.int64)
    with no_grad():
        log_probs, _, _, _ = policy.evaluate_actions_batch(plan, snapshots, actions, masks)
    return {
        "snapshots": snapshots,
        "actions": actions,
        "masks": masks,
        "old_log_probs": np.array(log_probs.data, copy=True),
        "advantages": rng.normal(size=minibatch_size),
        "value_targets": rng.normal(size=minibatch_size),
    }


def tape_update(policy, plan, batch, optimizer) -> None:
    """One update on the autograd tape: this benchmark's own reference cell (no trainer runs it)."""
    optimizer.zero_grad()
    log_probs, entropies, values, _ = policy.evaluate_actions_batch(
        plan, batch["snapshots"], batch["actions"], batch["masks"]
    )
    ratio = (log_probs - Tensor(batch["old_log_probs"])).exp()
    advantages = Tensor(batch["advantages"])
    surrogate1 = ratio * advantages
    surrogate2 = ratio.clip(1.0 - CLIP_EPSILON, 1.0 + CLIP_EPSILON) * advantages
    clipped = where(surrogate1.data <= surrogate2.data, surrogate1, surrogate2)
    policy_loss = (clipped * -1.0).mean()
    value_error = values - Tensor(batch["value_targets"])
    value_loss = (value_error * value_error).mean() * 0.5
    loss = policy_loss + VALUE_COEF * value_loss - ENTROPY_COEF * entropies.mean()
    loss.backward()
    clip_grad_norm(policy.parameters(), MAX_GRAD_NORM)
    optimizer.step()


def fused_update(policy, plan, batch, optimizer, arena) -> None:
    """One fused-path update via :func:`fastgrad.ppo_minibatch_step`."""
    optimizer.zero_grad()
    fastgrad.ppo_minibatch_step(
        policy,
        plan,
        batch["snapshots"],
        batch["actions"],
        batch["masks"],
        old_log_probs=batch["old_log_probs"],
        advantages=batch["advantages"],
        value_targets=batch["value_targets"],
        clip_epsilon=CLIP_EPSILON,
        value_coef=VALUE_COEF,
        entropy_coef=ENTROPY_COEF,
        arena=arena,
    )
    clip_grad_norm(policy.parameters(), MAX_GRAD_NORM)
    optimizer.step()
    arena.reset()


def measure(repeats: int, seed: int):
    """Interleaved ``timeit`` over the grid; per-cell medians."""
    profile = get_profile()
    grid = GRID.get(profile.name, GRID["full"])
    cells: dict[str, dict] = {}
    for minibatch_size, num_envs in grid:
        policy, plan = build_policy(seed)
        reason = fastgrad.fused_training_reason(policy)
        if reason is not None:
            raise RuntimeError(f"fused path unsupported for the benchmark policy: {reason}")
        batch = build_minibatch(policy, plan, minibatch_size, num_envs, seed + 17)
        optimizer = Adam(policy.parameters(), lr=3e-4)
        arena = fastgrad.Arena()
        timers = {
            "tape": timeit.Timer(
                lambda p=policy, e=plan, b=batch, o=optimizer: tape_update(p, e, b, o)
            ),
            "fused": timeit.Timer(
                lambda p=policy, e=plan, b=batch, o=optimizer, a=arena: fused_update(
                    p, e, b, o, a
                )
            ),
        }
        for path, timer in timers.items():
            timer.timeit(number=1)  # warmup
            cells[f"{path}_mb{minibatch_size}_envs_{num_envs}"] = {
                "path": path,
                "minibatch_size": minibatch_size,
                "num_envs": num_envs,
                "_timer": timer,
                "_times": [],
            }
    for _ in range(repeats):
        for cell in cells.values():
            cell["_times"].append(cell["_timer"].timeit(number=1))
    for cell in cells.values():
        seconds = float(np.median(cell.pop("_times")))
        cell.pop("_timer")
        cell["ms_per_update"] = seconds * 1000.0
        cell["updates_per_sec"] = 1.0 / seconds
    return cells, grid


def main() -> int:
    profile = get_profile()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5 if profile.name == "quick" else 9,
                        help="interleaved timed passes per cell (median)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    cells, grid = measure(args.repeats, args.seed)

    rows = []
    speedups = {}
    for key, cell in cells.items():
        tape_key = f"tape_mb{cell['minibatch_size']}_envs_{cell['num_envs']}"
        speedup = cells[tape_key]["ms_per_update"] / cell["ms_per_update"]
        cell["speedup_vs_tape"] = speedup
        if cell["path"] == "fused":
            speedups[key] = speedup
        rows.append(
            [
                cell["path"],
                str(cell["minibatch_size"]),
                str(cell["num_envs"]),
                f"{cell['ms_per_update']:.3f}",
                f"{speedup:.2f}x",
            ]
        )
    print_table(
        ["path", "minibatch", "envs", "ms/update", "vs tape"],
        rows,
        title=(
            f"PPO update phase, tape vs fused (median of {args.repeats} interleaved "
            f"updates, profile={profile.name})"
        ),
    )
    if speedups:
        worst = min(speedups.values())
        best = max(speedups.values())
        print(f"\nfused speedup vs tape: min {worst:.2f}x, max {best:.2f}x "
              f"(target: >= 2x on the update phase)")

    write_json_report(
        "training_step",
        {
            "grid": [list(cell) for cell in grid],
            "num_queries": NUM_QUERIES,
            "num_configs": NUM_CONFIGS,
            "cells": cells,
        },
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
