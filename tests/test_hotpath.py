"""Digest-pinned parity suite for the hot-path overhaul (ISSUE 7).

The structure-of-arrays snapshot fast path, the bulk-scheduling event queue
and the vectorized featurizer must be *bit-identical* to the original
AoS/heapq implementations.  This module pins sha256 digests of four
reference scenarios (closed batch, streaming arrivals, cluster placement, fault-injected rounds)
captured from the pre-refactor tree: each digest hashes, per decision step,
the snapshot time, the reward, the full feature matrix bytes, the action
mask bytes and the instance context/health — plus the final round log.

The feature matrix hashed is the per-query oracle's (``tests/snapshot_oracle.py``)
in the PR 5/6 layout, which also carried each query's arrival wait and failed
attempts; every step asserts that the library's rows are exactly the oracle's
columns the policy still observes, so the pins keep checking the library.

Run ``PYTHONPATH=src python tests/test_hotpath.py`` to (re)print the digests
from whatever tree is checked out; the constants below were captured from the
PR 5/6 tree and must never change.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterator

import numpy as np
import pytest

import repro.core.bqsched as facade_module
from repro import (
    AdmissionPolicy,
    AutoscalePolicy,
    BQSched,
    BQSchedConfig,
    DatabaseEngine,
    DBMSProfile,
    FailureProfile,
    OutageWindow,
    PoissonArrivals,
    RetryPolicy,
    TenantClass,
    make_workload,
)
from repro.core import (
    AdaptiveMask,
    BaseScheduler,
    ExternalKnowledge,
    FIFOScheduler,
    RoundRobinPlacementScheduler,
    SchedulingEnv,
)
from repro.dbms import Cluster, ConfigurationSpace
from repro.encoder import RunStateFeaturizer, SnapshotArrays
from repro.runtime import ControlPlane, EventQueue, ExecutionRuntime, QueryArrival
from snapshot_oracle import featurize_aos, kept, kept_columns, snapshot_aos, to_snapshot

# --------------------------------------------------------------------------- #
# Reference scenarios
# --------------------------------------------------------------------------- #


def _base() -> tuple:
    workload = make_workload("tpch", scale_factor=1.0, seed=0)
    batch = workload.batch_query_set()
    config = BQSchedConfig.small(seed=0)
    config.scheduler.num_connections = 4
    space = ConfigurationSpace(config.scheduler)
    return batch, config, space


def _make_closed() -> tuple[SchedulingEnv, BaseScheduler, RunStateFeaturizer, tuple[int, ...]]:
    batch, config, space = _base()
    engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
    knowledge = ExternalKnowledge.from_probes(engine, batch, space)
    env = SchedulingEnv(
        batch=batch,
        backend=engine,
        scheduler_config=config.scheduler,
        config_space=space,
        knowledge=knowledge,
        mask=AdaptiveMask.unmasked(len(batch), len(space)),
    )
    featurizer = RunStateFeaturizer(num_configs=len(space))
    return env, FIFOScheduler(), featurizer, (0, 1)


def _make_streaming() -> tuple[SchedulingEnv, BaseScheduler, RunStateFeaturizer, tuple[int, ...]]:
    batch, config, space = _base()
    engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
    knowledge = ExternalKnowledge.from_probes(engine, batch, space)
    arrivals = [(i % 7) * 0.9 for i in range(len(batch))]
    env = SchedulingEnv(
        batch=batch,
        backend=engine,
        scheduler_config=config.scheduler,
        config_space=space,
        knowledge=knowledge,
        mask=AdaptiveMask.unmasked(len(batch), len(space)),
        arrivals=arrivals,
    )
    featurizer = RunStateFeaturizer(num_configs=len(space))
    return env, FIFOScheduler(), featurizer, (0, 1)


def _make_cluster() -> tuple[SchedulingEnv, BaseScheduler, RunStateFeaturizer, tuple[int, ...]]:
    batch, config, space = _base()
    cluster = Cluster.from_names(["x", "y", "z"], seed=0)
    knowledge = ExternalKnowledge.from_probes(cluster, batch, space)
    env = SchedulingEnv(
        batch=batch,
        backend=cluster,
        scheduler_config=config.scheduler,
        config_space=space,
        knowledge=knowledge,
        mask=AdaptiveMask.unmasked(len(batch), len(space)),
    )
    featurizer = RunStateFeaturizer(num_configs=3 * len(space), instance_context_dim=3 * 4)
    return env, RoundRobinPlacementScheduler(), featurizer, (0, 1)


def _make_faulted() -> tuple[SchedulingEnv, BaseScheduler, RunStateFeaturizer, tuple[int, ...]]:
    batch, config, space = _base()
    probe_engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
    knowledge = ExternalKnowledge.from_probes(probe_engine, batch, space)
    engine = DatabaseEngine(
        DBMSProfile.dbms_x(),
        seed=0,
        faults=FailureProfile(error_rate=0.25, outages=(OutageWindow(0, 4.0, 2.0),)),
    )
    runtime = ExecutionRuntime(engine, control=ControlPlane(retry=RetryPolicy(max_attempts=3, backoff=0.5)))
    env = SchedulingEnv(
        batch=batch,
        backend=runtime.register("env", batch),
        scheduler_config=config.scheduler,
        config_space=space,
        knowledge=knowledge,
        mask=AdaptiveMask.unmasked(len(batch), len(space)),
    )
    featurizer = RunStateFeaturizer(num_configs=len(space))
    return env, FIFOScheduler(), featurizer, (0, 1)


_SCENARIOS: dict[str, Callable[[], tuple]] = {
    "closed": _make_closed,
    "streaming": _make_streaming,
    "cluster": _make_cluster,
    "faulted": _make_faulted,
}


# --------------------------------------------------------------------------- #
# Digest machinery
# --------------------------------------------------------------------------- #


def _digest_records(log) -> str:
    sha = hashlib.sha256()
    for r in log.records:
        sha.update(
            f"{r.query_id}|{r.connection}|{r.parameters.workers}|"
            f"{r.parameters.memory_mb}|{r.submit_time!r}|{r.finish_time!r};".encode()
        )
    return sha.hexdigest()


#: The PR 5/6 layout's extra channels, which the pinned digests hash.
_PINNED_CHANNELS = {"arrival": True, "failure": True}


def _absorb(sha, env: SchedulingEnv, featurizer: RunStateFeaturizer, snapshot, reward: float) -> None:
    reference = snapshot_aos(env)
    rows = featurize_aos(featurizer, reference, **_PINNED_CHANNELS)
    library = featurizer.featurize_arrays_stack([snapshot])[0]
    assert library.tobytes() == np.ascontiguousarray(rows[:, kept_columns(featurizer, **_PINNED_CHANNELS)]).tobytes()
    sha.update(f"{snapshot.time!r}|{reward!r}|".encode())
    sha.update(rows.tobytes())
    sha.update(np.asarray(env.action_mask(), dtype=np.uint8).tobytes())
    sha.update(repr(to_snapshot(snapshot).instance_context).encode())
    health = env.session.instance_health()
    sha.update(repr(() if all(health) else tuple(bool(up) for up in health)).encode())


def _round_steps(env: SchedulingEnv, scheduler: BaseScheduler, round_id: int) -> Iterator[tuple]:
    """Drive one full round, yielding ``(snapshot, reward)`` per decision step."""
    snapshot = env.reset(round_id=round_id, strategy=scheduler.name)
    scheduler.on_round_start(env)
    yield snapshot, 0.0
    done = False
    while not done:
        action = scheduler.select_action(env, snapshot)
        step = env.step(action)
        snapshot = step.snapshot
        yield snapshot, step.reward
        done = step.done


def _run_round_digest(
    env: SchedulingEnv,
    scheduler: BaseScheduler,
    featurizer: RunStateFeaturizer,
    round_id: int,
) -> tuple[str, str]:
    sha = hashlib.sha256()
    for snapshot, reward in _round_steps(env, scheduler, round_id):
        _absorb(sha, env, featurizer, snapshot, reward)
    return sha.hexdigest(), _digest_records(env.session.log)


# --------------------------------------------------------------------------- #
# Pinned digests — captured from the pre-refactor (PR 5/6) tree.  DO NOT
# regenerate after behaviour-affecting changes; the fast path must reproduce
# these bit-for-bit.
# --------------------------------------------------------------------------- #

_PINNED: dict[tuple[str, int], tuple[str, str]] = {
    ("closed", 0): (
        "26f2d3331d4c4487a021d8f2aa6982c2cfd92f47e0a8a742c15a1874142a0789",
        "0b624001a42f4fca04ac3d0e35cba535f3577af4bf95f48380249474d9d37a9a",
    ),
    ("closed", 1): (
        "6f02cbb2d96d426c5e8a3ecb89ca95652745d4c003aebcf40f86df2e02201d8f",
        "3297ad965992d508ee6ab43d61fc01b8c7ed906cacf67a8b59c99b8f88173eab",
    ),
    ("streaming", 0): (
        "24c429959eb1d61d81be34ff3fa981050ccf3a72bfb9d3f6342e98a7d0931c2e",
        "07bb53fa0e93de276e962c7d64841b11176dc9f84921d364ba411a740541315f",
    ),
    ("streaming", 1): (
        "4b8e30dcdb281a4774db5108671dc7005d91aca90af0c352cbca86d43344a028",
        "0cca739c50cbec37a21399edbf0afc134f91f25da770a49fee82d3272774f2a7",
    ),
    ("cluster", 0): (
        "45f35beb73b13a660f17623e6760ad692c86697058ae512080a67c39a0774c9d",
        "a35befb590fe9ee2f03d31bc780bb908a6b2c04d595424a831484d1680dafa3f",
    ),
    ("cluster", 1): (
        "222ba456cb54e721c07739a179a31277a8c8908e2c20fc3423af71b45bf9062b",
        "bdf4476230e580f8d644595d3b8bba2c2695087756e5ac0b437538fddcd00653",
    ),
    ("faulted", 0): (
        "5a48678d6a4ea984c3b2be440e73b0f5cff45739a10e3ad9903f93d4d90229c4",
        "53c936ee4b67d2ba621e04a0306bfde6d03828bed49c3df9bd71430eb97cf042",
    ),
    ("faulted", 1): (
        "98b501a716b130df8c419346b6dcfd15e40c188b7df692585f5e60f4a417c097",
        "ebed580365247401c373848ef091ba74c24f6be074618ba25e43b4036ac884af",
    ),
}


@pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
def test_pinned_digests(scenario: str) -> None:
    env, scheduler, featurizer, rounds = _SCENARIOS[scenario]()
    for round_id in rounds:
        step_digest, log_digest = _run_round_digest(env, scheduler, featurizer, round_id)
        assert (step_digest, log_digest) == _PINNED[(scenario, round_id)], (
            f"{scenario} round {round_id} diverged from the pinned pre-refactor digest"
        )


# --------------------------------------------------------------------------- #
# Multi-tenant fleet serve() pin — peers, faults, retries, admission and
# autoscale all meet in ``drive_service``.  Per round: the shared round log's
# digest and per-tenant (completed, failed, shed).  Captured before the serve
# loop's fleet idle check, input-pass and next-event-memo changes.
# --------------------------------------------------------------------------- #

_FLEET_SERVE_PINNED: dict[int, tuple[str, list[tuple[int, int, int]]]] = {
    0: (
        "5c3f84da3cbcf741be3840a3f8b1674d64445d39b643b1e343afe0588da86f85",
        [(22, 0, 0), (18, 4, 4), (22, 0, 0), (18, 4, 3)],
    ),
    1: (
        "69875441c683e43f83a8dea71cc30ebc7c436d76d9802f7efd2cb726c20ea7d5",
        [(22, 0, 0), (21, 1, 1), (22, 0, 0), (21, 1, 0)],
    ),
}


def test_pinned_multi_tenant_fleet_serve(monkeypatch) -> None:
    runtimes = []
    drive = facade_module.drive_service

    def keep_runtime(runtime, envs, select_action):
        runtimes.append(runtime)
        drive(runtime, envs, select_action)

    monkeypatch.setattr(facade_module, "drive_service", keep_runtime)
    workload = make_workload("tpch", scale_factor=1.0, seed=0)
    scheduler = BQSched(workload, Cluster.from_names(("x", "x", "z"), seed=0), BQSchedConfig.small(seed=0))
    for round_id, (log_digest, counts) in _FLEET_SERVE_PINNED.items():
        report = scheduler.serve(
            num_tenants=4,
            arrivals=PoissonArrivals(4.0),
            round_id=round_id,
            faults=FailureProfile(error_rate=0.05, hang_rate=0.03, outages=(OutageWindow(1, 5.0, 4.0),)),
            retry=RetryPolicy(max_attempts=3, timeout=6.0),
            tenant_classes=(
                TenantClass("interactive", priority=2.0, latency_slo=15.0, deadline=60.0),
                TenantClass("batch", priority=0.0, latency_slo=60.0),
            ),
            admission=AdmissionPolicy(rate=6.0, burst=6.0, exempt_priority=1.0),
            autoscale=AutoscalePolicy(initial_instances=2),
        )
        observed = [(t.num_queries, t.num_failed, t.num_shed) for t in report.tenants]
        assert (_digest_records(runtimes[-1].shared_session.log), observed) == (log_digest, counts), (
            f"fleet serve round {round_id} diverged from the pinned digest"
        )
    assert report.total_timeouts > 0 and report.total_shed > 0


# --------------------------------------------------------------------------- #
# SoA vs AoS parity — the fast snapshot must agree with the reference
# object-level snapshot at every decision step, field for field and byte for
# byte, in every scenario.
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
def test_soa_snapshot_matches_aos(scenario: str) -> None:
    env, scheduler, featurizer, rounds = _SCENARIOS[scenario]()
    steps = 0
    for round_id in rounds:
        for snapshot, _reward in _round_steps(env, scheduler, round_id):
            assert isinstance(snapshot, SnapshotArrays), (
                f"{scenario}: expected the SoA fast path, got {type(snapshot).__name__}"
            )
            reference = snapshot_aos(env)
            assert to_snapshot(snapshot) == kept(reference)
            assert snapshot.pending_ids == reference.pending_ids
            assert snapshot.running_ids == reference.running_ids
            assert np.flatnonzero(snapshot.status == 2).tolist() == reference.finished_ids
            assert snapshot.unarrived_ids == reference.unarrived_ids
            fast = featurizer.featurize_arrays_stack([snapshot])[0]
            assert fast.tobytes() == featurize_aos(featurizer, reference).tobytes()
            steps += 1
    assert steps > 2 * len(env.batch)  # at least one decision per query per round


# --------------------------------------------------------------------------- #
# Event-queue parity — bulk extend and pop_due must reproduce the exact
# (time, insertion order) pop sequence of repeated push/pop.
# --------------------------------------------------------------------------- #


def _synthetic_events(count: int, seed: int) -> list[QueryArrival]:
    rng = np.random.default_rng(seed)
    # Quantized times force plenty of exact same-timestamp ties.
    times = np.round(rng.uniform(0.0, 20.0, size=count), 1)
    return [
        QueryArrival(time=float(times[i]), tenant=f"t{i % 3}", query_id=i) for i in range(count)
    ]


def test_event_queue_extend_matches_push() -> None:
    events = _synthetic_events(200, seed=1)
    pushed = EventQueue()
    for event in events:
        pushed.push(event)
    extended = EventQueue()
    extended.extend(events[:50])
    extended.extend(events[50:])
    assert len(pushed) == len(extended) == len(events)
    while pushed:
        head_time = extended.peek_time()
        assert extended.pop_due(head_time - 1e-9) is None  # earliest event still in the future
        assert extended.pop_due(head_time) is pushed.pop()
    assert not extended and extended.pop_due(1e9) is None


if __name__ == "__main__":
    for name, make in _SCENARIOS.items():
        env, scheduler, featurizer, rounds = make()
        for round_id in rounds:
            step_d, log_d = _run_round_digest(env, scheduler, featurizer, round_id)
            print(f'    ("{name}", {round_id}): (\n        "{step_d}",\n        "{log_d}",\n    ),')
