"""The single-snapshot sampling forward: the batched tape-free kernel at B=1.

``ActorCriticNetwork.act`` no longer runs an autograd forward; the tape
(``evaluate_action``) is the parity oracle here, not a fallback.
"""

from __future__ import annotations

from functools import partial
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest

from repro import (
    BQSched,
    BQSchedConfig,
    Cluster,
    DatabaseEngine,
    DBMSProfile,
    FailureProfile,
    OutageWindow,
    PoissonArrivals,
    RetryPolicy,
    TenantClass,
    make_workload,
)
from repro.config import EncoderConfig
from repro.core import policy as policy_module
from repro.core.clustering import cluster_queries
from repro.core.policy import DECISION_KERNEL, ActorCriticNetwork, _cluster_member_indices
from repro.encoder import RunStateFeaturizer, StateEncoder
from repro.encoder.run_state import SnapshotArrays
from repro.nn import Adam, BatchNorm, fastgrad, fastinfer, no_grad
from snapshot_oracle import snapshot_arrays


def build_scheduler(
    workload_name: str, num_clusters: int | None, query_scale: float = 1.0
) -> tuple[BQSched, object]:
    config = BQSchedConfig(seed=0)
    workload = make_workload(workload_name, scale_factor=1.0, query_scale=query_scale, seed=0)
    scheduler = BQSched(workload, DatabaseEngine(DBMSProfile.dbms_x(), seed=0), config)
    if num_clusters is not None:
        n = len(scheduler.batch)
        gains = np.random.default_rng(7).random((n, n))
        scheduler.clusters = cluster_queries(scheduler.batch, gains, num_clusters, knowledge=scheduler.knowledge)
    return scheduler, scheduler._build_env(backend=scheduler.engine)


def mid_episode(env, steps: int):
    """``(snapshot, mask)`` pairs along one episode driven by a fixed, policy-free rule."""
    snapshot = env.reset(round_id=3)
    pairs = []
    for step in range(steps):
        mask = env.action_mask()
        pairs.append((snapshot, mask))
        allowed = np.flatnonzero(mask)
        result = env.step(int(allowed[step % len(allowed)]))
        if result.done:
            break
        snapshot = result.snapshot
    return pairs


class Case(NamedTuple):
    """A policy plus the ``(snapshots, (B, action_dim) masks)`` stacks to decide on."""

    policy: ActorCriticNetwork
    plan: np.ndarray
    clusters: object
    stacks: list


def facade_case(workload_name: str, num_clusters: int | None, query_scale: float = 1.0) -> Case:
    """Mid-episode snapshots of a full-size workload, each a stack of one."""
    scheduler, env = build_scheduler(workload_name, num_clusters, query_scale)
    sizes = {("tpch", 1.0): 22, ("tpcds", 1.0): 99, ("tpcds", 1.6): 158}
    assert len(scheduler.batch) == sizes[workload_name, query_scale]
    pairs = mid_episode(env, steps=len(scheduler.batch) // 2)
    stacks = [([snapshot], mask[None, :]) for snapshot, mask in pairs[len(pairs) // 3 :: 3]]
    return Case(scheduler.policy, scheduler.plan_embeddings, env.clusters, stacks)


TOY_CONFIGS = 3


def toy_arrays(status: list[int], time: float) -> SnapshotArrays:
    """A hand-built SoA snapshot (status codes: 0 pending, 1 running, 2 finished)."""
    running = np.asarray(status) == 1
    n = running.shape[0]
    return snapshot_arrays(
        status,
        time=time,
        config_index=np.where(running, np.arange(n) % TOY_CONFIGS, -1),
        elapsed=np.where(running, 0.5 * time, 0.0),
        expected_time=1.0 + np.arange(n),
    )


def edge_case(
    stacks: list[list[SnapshotArrays]], allowed: list[int] | slice = slice(None), use_attention: bool = True
) -> Case:
    """A small fresh policy over hand-built stacks; ``allowed`` indexes the unmasked actions (default all)."""
    num_queries = stacks[0][0].num_queries
    rng = np.random.default_rng(7)
    config = EncoderConfig(state_dim=24, state_heads=2, state_layers=2)
    encoder = StateEncoder(16, RunStateFeaturizer(num_configs=TOY_CONFIGS), config, rng, use_attention=use_attention)
    policy = ActorCriticNetwork(encoder, TOY_CONFIGS, rng)
    plan = np.random.default_rng(8).normal(size=(num_queries, 16))
    mask = np.zeros(num_queries * TOY_CONFIGS, dtype=bool)
    mask[allowed] = True
    return Case(policy, plan, None, [(stack, np.stack([mask] * len(stack))) for stack in stacks])


#: Factor on the packed Q columns (the query projections) that pushes the second block's real
#: attention scores to ~+105..+118, past ``fastinfer._EXP_SAFE`` and past float32 ``exp``'s overflow.
HOT_Q_SCALE = 25.0


def hot_attention_case() -> Case:
    """An edge case whose attention scores cross the softmax gate's limit in a real forward."""
    case = edge_case([[toy_arrays([1, 0, 2, 0, 1], 2.0)], [toy_arrays([0, 0, 0, 0, 0], 0.0)]])
    for block in case.policy.state_encoder.attention._modules.values():
        for param in (block.attention.query_proj.weight, block.attention.query_proj.bias):
            param.data = param.data * HOT_Q_SCALE
    return case


#: Shapes the full-size episodes never reach; each is one ``edge_case(...)`` call.
EDGE_SHAPES = {
    "single-query-batch": lambda: edge_case([[toy_arrays([0], 0.0)], [toy_arrays([1], 1.0)], [toy_arrays([2], 2.5)]]),
    "single-pending-among-finished": lambda: edge_case(
        [[toy_arrays([2, 2, 0, 2], 4.0)], [toy_arrays([2, 2, 1, 2], 5.0)]]
    ),
    "no-attention-encoder": lambda: edge_case(
        [[toy_arrays([0, 0, 0], 0.0)], [toy_arrays([1, 0, 0], 1.0)]], use_attention=False
    ),
    "every-action-allowed-mask": lambda: edge_case([[toy_arrays([0, 1, 0, 2], 1.0)]]),
    "single-allowed-action-mask": lambda: edge_case([[toy_arrays([0, 1, 0, 2], 1.0)]], allowed=[7]),
    "fresh-and-mid-episode-stack": lambda: edge_case(
        [[toy_arrays([1, 0, 0], 1.0), toy_arrays([1, 1, 2], 4.0), toy_arrays([0, 0, 0], 0.0)]]
    ),
    "hot-attention": hot_attention_case,
}


def kernel_logits(policy: ActorCriticNetwork, plan: np.ndarray, snapshots: list, clusters) -> np.ndarray:
    """``(B, action_dim)`` logits of the decision kernel over one stack."""
    per_query, global_input = DECISION_KERNEL.encode_batch(policy.state_encoder, plan, snapshots)
    return DECISION_KERNEL.heads_batch(policy, per_query, global_input, snapshots, clusters=clusters)[0]


class TestTapeParity:
    @pytest.mark.parametrize(
        "build_case",
        [
            pytest.param(
                partial(facade_case, workload, num_clusters, query_scale),
                id=f"{workload}{'' if query_scale == 1.0 else f'@{query_scale}'}-{num_clusters}",
            )
            for workload, num_clusters, query_scale in (
                ("tpch", None, 1.0), ("tpch", 8, 1.0), ("tpcds", None, 1.0), ("tpcds", 40, 1.0), ("tpcds", 100, 1.6)
            )
        ]
        + [pytest.param(build, id=name) for name, build in EDGE_SHAPES.items()],
    )
    def test_act_matches_the_tape_oracle(self, build_case):
        """From logits within 1e-5 of the tape's, relative to the largest: ``greedy_action`` picks
        the tape's argmax, and ``act`` (B=1) and ``act_batch`` (the whole stack) sample an allowed
        action with the tape's log-probability and value."""
        policy, plan, clusters, stacks = build_case()
        for snapshots, masks in stacks:
            stacked = policy.act_batch(plan, snapshots, masks, np.random.default_rng(0), clusters=clusters)
            stacked_logits = kernel_logits(policy, plan, snapshots, clusters)
            for snapshot, mask, from_stack, row_logits in zip(snapshots, masks, stacked, stacked_logits):
                single = policy.act(plan, snapshot, mask, np.random.default_rng(0), clusters=clusters)
                with no_grad():
                    tape_logits = policy.action_logits(policy.representation(plan, snapshot), snapshot, clusters).data
                for logits in (kernel_logits(policy, plan, [snapshot], clusters)[0], row_logits):
                    assert np.max(np.abs(logits - tape_logits)) <= 1e-5 * np.max(np.abs(tape_logits))
                for decision in (single, from_stack):
                    assert mask[decision.action]
                    with no_grad():
                        log_prob, _, value, full = policy.evaluate_action(
                            plan, snapshot, decision.action, mask, clusters=clusters
                        )
                    assert decision.log_prob == pytest.approx(float(log_prob.data), abs=1e-4)
                    assert decision.value == pytest.approx(float(value.data[0]), abs=1e-4)
                assert policy.greedy_action(plan, snapshot, mask, clusters=clusters) == int(np.argmax(full.data))

    def test_deciding_writes_no_batch_norm_statistics(self):
        """A token norm's statistics are its tokens' own: ``act`` and ``act_batch`` add no attribute to a norm
        and rebind or change none of its parameters."""
        scheduler, env = build_scheduler("tpch", None)
        policy, plan = scheduler.policy, scheduler.plan_embeddings
        blocks = policy.state_encoder.attention._modules.values()
        norms = [norm for block in blocks for norm in (block.norm1, block.norm2)]
        assert norms and all(isinstance(norm, BatchNorm) for norm in norms)
        before = [(dict(vars(n)), [(p.data, p.data.copy()) for p in n.parameters()]) for n in norms]
        pairs = mid_episode(env, steps=6)
        for snapshot, mask in pairs:
            policy.act(plan, snapshot, mask, np.random.default_rng(0))
        policy.act_batch(plan, [s for s, _ in pairs], np.stack([m for _, m in pairs]), np.random.default_rng(0))
        for norm, (attributes, arrays) in zip(norms, before):
            assert vars(norm).keys() == attributes.keys()
            assert all(vars(norm)[name] is value for name, value in attributes.items())
            for param, (array, values) in zip(norm.parameters(), arrays):
                assert param.data is array and np.array_equal(array, values)

    def test_sampled_act_is_a_one_row_act_batch(self):
        """Same forward, same draw: ``act`` consumes the RNG like ``act_batch`` with B=1."""
        scheduler, env = build_scheduler("tpch", None)
        policy, plan = scheduler.policy, scheduler.plan_embeddings
        for snapshot, mask in mid_episode(env, steps=6):
            single = policy.act(plan, snapshot, mask, np.random.default_rng(11))
            row = policy.act_batch(plan, [snapshot], mask[None, :], np.random.default_rng(11))[0]
            assert single == row
            assert mask[single.action]


class TestClusterPooling:
    def reference(self, clusters, per_query, snapshot):
        """The per-cluster loop the tape path still runs."""
        return np.stack([per_query[members].mean(axis=0) for members in _cluster_member_indices(clusters, snapshot)])

    def test_vectorised_pooling_matches_the_per_cluster_loop(self):
        _, env = build_scheduler("tpcds", 40)
        clusters = env.clusters
        assert max(clusters.sizes()) > 1
        per_query = np.random.default_rng(1).normal(size=(99, 48)).astype(np.float32)
        pairs = mid_episode(env, steps=30)
        snapshots = [pairs[0][0], pairs[len(pairs) // 2][0], pairs[-1][0]]
        pending = np.zeros((len(snapshots), 99), dtype=bool)
        for row, snapshot in zip(pending, snapshots):
            row[snapshot.pending_ids] = True
        pooled = clusters.pool(np.stack([per_query] * len(snapshots)), pending)
        assert pooled.shape == (len(snapshots), clusters.num_clusters, 48)
        for index, snapshot in enumerate(snapshots):
            np.testing.assert_allclose(pooled[index], self.reference(clusters, per_query, snapshot), atol=1e-5)

    def test_drained_and_single_pending_clusters(self):
        _, env = build_scheduler("tpch", 8)
        clusters = env.clusters
        big = int(np.argmax(clusters.sizes()))
        other = next(c for c in range(clusters.num_clusters) if c != big and len(clusters.members(c)) > 1)
        pending = np.ones((1, 22), dtype=bool)
        pending[0, clusters.members(big)] = False  # fully drained: pools every member
        pending[0, clusters.members(other)[1:]] = False  # one pending member left: pools only it
        per_query = np.random.default_rng(2).normal(size=(1, 22, 48)).astype(np.float32)
        pooled = clusters.pool(per_query, pending)[0]
        np.testing.assert_allclose(pooled[big], per_query[0][clusters.members(big)].mean(axis=0), atol=1e-6)
        np.testing.assert_allclose(pooled[other], per_query[0][clusters.members(other)[0]], atol=1e-6)

        snapshot = SimpleNamespace(pending_ids=np.flatnonzero(pending[0]).tolist())
        np.testing.assert_allclose(pooled, self.reference(clusters, per_query[0], snapshot), atol=1e-5)


class TestParameterRefresh:
    """The float32 parameter casts follow the installed arrays; a stale cast fails these."""

    def setup_case(self):
        scheduler, env = build_scheduler("tpch", None)
        snapshot, mask = mid_episode(env, steps=5)[-1]
        return scheduler, snapshot, mask

    def assert_tracks_tape(self, scheduler, snapshot, mask):
        policy, plan = scheduler.policy, scheduler.plan_embeddings
        decision = policy.act(plan, snapshot, mask, np.random.default_rng(0))
        with no_grad():
            log_prob, _, value, full = policy.evaluate_action(plan, snapshot, decision.action, mask)
        assert decision.log_prob == pytest.approx(float(log_prob.data), abs=1e-4)
        assert decision.value == pytest.approx(float(value.data[0]), abs=1e-4)
        assert policy.greedy_action(plan, snapshot, mask) == int(np.argmax(full.data))
        return decision, assert_plan_term_current(scheduler.state_encoder, plan)

    def test_refreshes_after_adam_step(self):
        scheduler, snapshot, mask = self.setup_case()
        policy, plan = scheduler.policy, scheduler.plan_embeddings
        before, term = self.assert_tracks_tape(scheduler, snapshot, mask)
        optimizer = Adam(policy.parameters(), lr=0.05)
        log_prob, _, value, _ = policy.evaluate_action(plan, snapshot, before.action, mask)
        optimizer.zero_grad()
        ((value * value).sum() - log_prob).backward()
        optimizer.step()
        after, new_term = self.assert_tracks_tape(scheduler, snapshot, mask)
        assert abs(after.value - before.value) > 1e-3
        assert not np.array_equal(new_term, term)

    def test_refreshes_after_load_state_dict(self):
        scheduler, snapshot, mask = self.setup_case()
        before, term = self.assert_tracks_tape(scheduler, snapshot, mask)
        state = {name: value * 1.5 for name, value in scheduler.policy.state_dict().items()}
        scheduler.policy.load_state_dict(state)
        after, new_term = self.assert_tracks_tape(scheduler, snapshot, mask)
        assert abs(after.value - before.value) > 1e-3
        assert not np.array_equal(new_term, term)

    def test_refreshes_after_the_keep_best_restore(self):
        """``train`` ends by loading the best validated weights; ``act`` must then decide
        exactly what a fresh network loaded with those weights decides."""

        def small_scheduler() -> BQSched:
            workload = make_workload("tpch", scale_factor=1.0, seed=0)
            return BQSched(workload, DatabaseEngine(DBMSProfile.dbms_x(), seed=0), BQSchedConfig.small(seed=0))

        scheduler = small_scheduler()
        validate, states = scheduler.evaluate, []
        scores = iter([3.0, 1.0, 2.0, 2.0])  # initial, then after each of three fine-tune chunks

        def scripted_validation(*args, **kwargs):
            validate(*args, **kwargs)  # the real greedy round: acts with the weights of the moment
            states.append(scheduler.policy.state_dict())
            return SimpleNamespace(mean=next(scores))

        scheduler.evaluate = scripted_validation
        scheduler.prepare(history_rounds=2)
        scheduler.train(num_updates=3, pretrain_updates=0)
        assert len(states) == 4
        best, last = states[1], states[-1]
        assert any(not np.array_equal(best[name], last[name]) for name in best)

        fresh = small_scheduler()
        fresh.policy.load_state_dict(best)
        plan = scheduler.plan_embeddings
        for snapshot, mask in mid_episode(scheduler._build_env(backend=scheduler.engine), steps=6):
            assert scheduler.policy.greedy_action(plan, snapshot, mask) == fresh.policy.greedy_action(plan, snapshot, mask)
            assert scheduler.policy.act(plan, snapshot, mask, np.random.default_rng(0)) == fresh.policy.act(
                plan, snapshot, mask, np.random.default_rng(0)
            )
            assert_plan_term_current(scheduler.state_encoder, plan)
            assert scheduler.state_encoder._plan_term_cache[2].tobytes() == fresh.state_encoder._plan_term_cache[2].tobytes()


def served_snapshots(engine, **serve_kwargs) -> tuple[BQSched, list, list]:
    """The facade, every snapshot one two-tenant ``serve()`` round decides on, and per
    decision the deciding session's unarrived ids and failed attempts."""
    scheduler = BQSched(make_workload("tpch", scale_factor=1.0, seed=0), engine, BQSchedConfig.small(seed=0))
    seen, sessions, decide = [], [], scheduler.select_action

    def keep(env, snapshot):
        seen.append(snapshot)
        sessions.append((env.session.unarrived_ids(), env.session.failure_counts()))
        return decide(env, snapshot)

    scheduler.select_action = keep
    scheduler.serve(num_tenants=2, round_id=0, **serve_kwargs)
    return scheduler, seen, sessions


SERVED = {
    "closed": lambda: served_snapshots(DatabaseEngine(DBMSProfile.dbms_x(), seed=0), arrivals="closed"),
    "streaming": lambda: served_snapshots(DatabaseEngine(DBMSProfile.dbms_x(), seed=0), arrivals=PoissonArrivals(4.0)),
    "fleet": lambda: served_snapshots(
        Cluster.from_names(("x", "x", "z"), seed=0),
        arrivals=PoissonArrivals(4.0),
        faults=FailureProfile(error_rate=0.15, outages=(OutageWindow(1, 2.0, 3.0),)),
        retry=RetryPolicy(max_attempts=3),
        tenant_classes=(TenantClass("interactive", priority=2.0, deadline=30.0), TenantClass("batch")),
    ),
}

INPUT_NAMES = ("run32", "pooled_all", "pooled_running")


def full_row_pools(features: np.ndarray, status: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``pooled_all`` and the sampling path's masked full-row ``pooled_running``, spelled out in NumPy."""
    pooled_all = np.concatenate([features.mean(axis=1), features.max(axis=1)], axis=1)
    running = (np.asarray(status) == 1)[None, :, None]
    counts = running.sum(axis=1)
    means = (features * running).sum(axis=1) / np.maximum(counts, 1)
    pooled_running = np.concatenate([means, np.where(running, features, -np.inf).max(axis=1)], axis=1)
    pooled_running[counts[:, 0] == 0] = 0.0
    return pooled_all, pooled_running


def all_channel_encoder(scheduler: BQSched, snapshots: list) -> StateEncoder:
    """A fresh encoder whose featurizer reads every channel the served snapshots carry."""
    context = snapshots[0].instance_context_array
    featurizer = RunStateFeaturizer(
        num_configs=scheduler.num_instances * len(scheduler.config_space),
        instance_context_dim=0 if context is None else context.size,
    )
    return StateEncoder(
        scheduler.plan_embeddings.shape[1],
        featurizer,
        EncoderConfig(state_dim=24, state_heads=2, state_layers=1),
        np.random.default_rng(3),
    )


def assert_reaches_every_channel(kind: str, snapshots: list, sessions: list) -> None:
    """Every branch and channel the kind is meant to reach was reached: decisions with and
    without running queries, and (read off the deciding session) arrivals still to come on
    the streaming kinds and failed attempts on the fleet."""
    assert any(not snapshot.running_ids for snapshot in snapshots)
    assert any(snapshot.running_ids for snapshot in snapshots)
    if kind != "closed":
        assert any(unarrived for unarrived, _ in sessions)
        assert any(snapshot.unarrived_ids for snapshot in snapshots)
    if kind == "fleet":
        assert any(failures for _, failures in sessions)
        assert any(snapshot.instance_context_array is not None for snapshot in snapshots)


class TestSamplingInputs:
    """``_sampling_inputs``: float32 run-state features with no plan columns, plus the two pools."""

    @pytest.mark.parametrize("kind", sorted(SERVED))
    def test_single_snapshot_is_a_plane_of_the_stack(self, kind):
        """At B=1 each output is plane 0 of the same snapshot stacked twice, byte for byte,
        and equals the features and pools spelled out in NumPy."""
        scheduler, snapshots, sessions = SERVED[kind]()
        encoder = all_channel_encoder(scheduler, snapshots)
        plan = scheduler.plan_embeddings
        for snapshot in snapshots:
            single = encoder._sampling_inputs(plan, [snapshot])
            stacked = encoder._sampling_inputs(plan, [snapshot, snapshot])
            for name, one, two in zip(INPUT_NAMES, single, stacked):
                assert one.shape == (1, *two.shape[1:]), name
                assert one[0].tobytes() == two[0].tobytes() == two[1].tobytes(), name
            run32, pooled_all, pooled_running = single
            features = encoder.run_state_featurizer.featurize_arrays_stack([snapshot])
            assert run32.dtype == np.float32 and run32.shape == features.shape
            assert run32.tobytes() == features.astype(np.float32).tobytes()
            expected_all, expected_running = full_row_pools(features, snapshot.status)
            assert pooled_all.tobytes() == expected_all.tobytes()
            assert pooled_running.tobytes() == expected_running.tobytes()
        assert_reaches_every_channel(kind, snapshots, sessions)

    def test_plan_row_mismatch_raises(self):
        scheduler, env = build_scheduler("tpch", None)
        snapshot = env.reset(round_id=0)
        for inputs in (scheduler.state_encoder._sampling_inputs, scheduler.state_encoder._batch_inputs):
            with pytest.raises(ValueError, match="cover the same queries"):
                inputs(scheduler.plan_embeddings[:-1], [snapshot])


class TestDecisionProgram:
    """The float32 program that shares layer-1 terms across rows, against the tape and itself."""

    @pytest.mark.parametrize("kind", sorted(SERVED))
    def test_matches_the_tape_encoder(self, kind):
        """``per_query`` and ``global_state`` (the packed global MLP over ``global_input``) within 1e-5
        of the tape ``encode_batch``, relative to the largest."""
        scheduler, snapshots, sessions = SERVED[kind]()
        encoder = all_channel_encoder(scheduler, snapshots)
        plan = scheduler.plan_embeddings
        global_mlp = fastinfer.Float32Pack(lambda pack: pack.mlp(encoder.global_mlp)).weights
        for snapshot in snapshots:
            per_query, global_input = encoder.encode_batch_arrays(plan, [snapshot])
            global_state = fastinfer.mlp32(global_mlp, global_input)
            with no_grad():
                tape = encoder.encode_batch(plan, [snapshot])
            for fast, slow in ((per_query, tape.per_query.data), (global_state, tape.global_state.data)):
                assert fast.dtype == np.float32 and fast.shape == slow.shape
                assert np.max(np.abs(fast - slow)) <= 1e-5 * np.max(np.abs(slow))
        assert_reaches_every_channel(kind, snapshots, sessions)

    @pytest.mark.parametrize("kind", sorted(SERVED))
    def test_a_stack_of_two_is_two_single_decisions(self, kind):
        scheduler, snapshots, _ = SERVED[kind]()
        encoder = all_channel_encoder(scheduler, snapshots)
        plan = scheduler.plan_embeddings
        for first, second in zip(snapshots[::2], snapshots[1::2]):
            stacked = encoder.encode_batch_arrays(plan, [first, second])
            for plane, snapshot in enumerate((first, second)):
                for both, one in zip(stacked, encoder.encode_batch_arrays(plan, [snapshot])):
                    np.testing.assert_allclose(both[plane], one[0], rtol=1e-6, atol=1e-6 * np.max(np.abs(one)))


def assert_plan_term_current(encoder: StateEncoder, plan: np.ndarray) -> np.ndarray:
    """The cached plan term is ``plan @ W_plan + b1`` for ``plan`` and the weights installed now."""
    embeddings, _, term = encoder._plan_term_cache
    assert embeddings is plan
    first = next(iter(encoder.query_mlp.net))
    expected = plan @ first.weight.data[: plan.shape[1]] + first.bias.data
    np.testing.assert_allclose(term, expected, rtol=1e-5, atol=1e-5)
    return term


class TestPlanTerm:
    def test_computed_once_per_read_only_array(self):
        scheduler, env = build_scheduler("tpch", None)
        plan, encoder = scheduler.plan_embeddings, scheduler.state_encoder
        with pytest.raises(ValueError, match="read-only"):
            plan[0, 0] = 1.0
        snapshot = env.reset(round_id=0)
        encoder.encode_batch_arrays(plan, [snapshot])
        term = assert_plan_term_current(encoder, plan)
        encoder.encode_batch_arrays(plan, [snapshot, snapshot])
        assert encoder._plan_term_cache[2] is term

        shifted = plan + 1.0  # another read-only array gets its own term
        shifted.flags.writeable = False
        encoder.encode_batch_arrays(shifted, [snapshot])
        assert_plan_term_current(encoder, shifted)

        writable = plan.copy()  # never cached: an in-place write shows up in the next decision
        before = encoder.encode_batch_arrays(writable, [snapshot])[0]
        assert encoder._plan_term_cache[0] is shifted
        writable += 1.0
        after = encoder.encode_batch_arrays(writable, [snapshot])[0]
        assert encoder._plan_term_cache[0] is shifted
        assert after.tobytes() == encoder.encode_batch_arrays(shifted, [snapshot])[0].tobytes() != before.tobytes()


def deciders(policy: ActorCriticNetwork) -> tuple:
    """The sampling and the greedy decision, each as ``decide(plan, snapshot, mask)``."""
    return (
        lambda plan, snapshot, mask: policy.act(plan, snapshot, mask, np.random.default_rng(0)),
        policy.greedy_action,
    )


class TestDegenerateInputsAreLoud:
    def test_all_false_mask_raises(self):
        scheduler, env = build_scheduler("tpch", None)
        snapshot = env.reset(round_id=0)
        nothing_allowed = np.zeros(env.action_dim, dtype=bool)
        for decide in deciders(scheduler.policy):
            with pytest.raises(ValueError, match="at least one unmasked entry; row 0 of 1 has none"):
                decide(scheduler.plan_embeddings, snapshot, nothing_allowed)

    def test_mask_shape_mismatch_raises(self):
        scheduler, env = build_scheduler("tpch", None)
        snapshot = env.reset(round_id=0)
        for decide in deciders(scheduler.policy):
            with pytest.raises(ValueError, match="mask shape"):
                decide(scheduler.plan_embeddings, snapshot, env.action_mask()[:-1])

    def test_all_false_mask_row_is_named(self):
        logits = np.zeros((3, 4), dtype=np.float32)
        mask = np.ones((3, 4), dtype=bool)
        mask[1] = False
        for masked in (fastinfer.masked_log_softmax_array, fastgrad.masked_log_softmax_forward, fastinfer.masked_argmax):
            with pytest.raises(ValueError, match="at least one unmasked entry; row 1 of 3 has none"):
                masked(logits, mask)

    def test_plan_embedding_row_mismatch_raises(self):
        scheduler, env = build_scheduler("tpch", None)
        snapshot = env.reset(round_id=0)
        for decide in deciders(scheduler.policy):
            with pytest.raises(ValueError, match="cover the same queries"):
                decide(scheduler.plan_embeddings[:-1], snapshot, env.action_mask())


class TestGreedyAction:
    """``greedy_action``: the tape's argmax on every decision of a round, and nothing but the action."""

    @staticmethod
    def check_against_the_tape(monkeypatch) -> list:
        """Check every facade decision against the tape's masked log-probs; returns the checked actions."""
        decide, checked = BQSched.select_action, []

        def checked_decide(scheduler, env, snapshot):
            action = decide(scheduler, env, snapshot)
            with no_grad():
                *_, full = scheduler.policy.evaluate_action(
                    scheduler.plan_embeddings, snapshot, action, env.action_mask(), clusters=env.clusters
                )
            assert action == int(np.argmax(full.data))
            checked.append(action)
            return action

        monkeypatch.setattr(BQSched, "select_action", checked_decide)
        return checked

    @pytest.mark.parametrize("kind", sorted(SERVED))
    def test_every_served_decision_is_the_tape_argmax(self, monkeypatch, kind):
        checked = self.check_against_the_tape(monkeypatch)
        _, snapshots, _ = SERVED[kind]()
        assert len(checked) == len(snapshots) > 0

    def test_every_clustered_decision_is_the_tape_argmax(self, monkeypatch):
        scheduler, env = build_scheduler("tpch", 8)
        assert env.clusters is not None
        checked = self.check_against_the_tape(monkeypatch)
        scheduler.env = env
        scheduler.schedule(round_id=0)
        assert len(checked) == env.clusters.num_clusters  # each decision drains one cluster

    def test_greedy_decisions_run_no_value_path(self, monkeypatch):
        """``schedule()``, ``serve()`` and a keep-best validation never run the global MLP, the value
        head, the masked log-softmax or a ``PolicyDecision``."""
        scheduler = BQSched(
            make_workload("tpch", scale_factor=1.0, seed=0),
            DatabaseEngine(DBMSProfile.dbms_x(), seed=0),
            BQSchedConfig.small(seed=0),
        )
        policy, mlp32, policy_head_runs = scheduler.policy, fastinfer.mlp32, []

        def guarded_mlp32(layers, x):
            pack = getattr(policy, "_float32_pack", None)
            if pack is not None:  # the live pack: [policy head, global MLP, value head]
                policy_head, *value_path = pack.weights
                if any(layers is path for path in value_path):
                    raise AssertionError("a greedy decision ran the value path")
                policy_head_runs.append(layers is policy_head)
            return mlp32(layers, x)

        def forbidden(*args, **kwargs):
            raise AssertionError("a greedy decision built log-probabilities or a PolicyDecision")

        monkeypatch.setattr(fastinfer, "mlp32", guarded_mlp32)
        monkeypatch.setattr(fastinfer, "masked_log_softmax_array", forbidden)
        monkeypatch.setattr(policy_module, "PolicyDecision", forbidden)
        scheduler.schedule(round_id=0)
        scheduler.serve(num_tenants=2, round_id=0)
        scheduler.prepare(history_rounds=2)
        before = len(policy_head_runs)
        scheduler.evaluate(scheduler.env, rounds=1, base_round_id=90_001)  # a keep-best validation's own call
        assert sum(policy_head_runs[before:]) >= len(scheduler.batch)
        validations = []
        validate = scheduler._validate_and_keep_best
        monkeypatch.setattr(scheduler, "_validate_and_keep_best", lambda: validations.append(validate()))
        scheduler.train(num_updates=0, pretrain_updates=0)  # a start that trains nothing validates nothing
        assert validations == [] and sum(policy_head_runs) >= 3 * len(scheduler.batch)


def packed_qkv(queries: np.ndarray, keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``(tokens, [Q | K | V,1 per head])`` float32 rows from ``(heads, tokens, head_dim)`` blocks."""
    heads, tokens, _ = queries.shape
    ones = np.ones((heads, tokens, 1))
    columns = [block.transpose(1, 0, 2).reshape(tokens, -1) for block in (queries, keys)]
    columns.append(np.concatenate([values, ones], axis=2).transpose(1, 0, 2).reshape(tokens, -1))
    return np.concatenate(columns, axis=1).astype(np.float32)


def shifted_softmax_attention(queries: np.ndarray, keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """float64 shift-by-max reference, out as ``(tokens, heads * head_dim)``."""
    scores = queries.astype(np.float64) @ keys.astype(np.float64).transpose(0, 2, 1)
    weights = np.exp(scores - scores.max(axis=2, keepdims=True))
    weights /= weights.sum(axis=2, keepdims=True)
    mixed = weights @ values.astype(np.float64)
    return mixed.transpose(1, 0, 2).reshape(queries.shape[1], -1)


def gate_case(name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(queries, keys, values)`` as float32-exact ``(heads, tokens, head_dim)`` blocks."""
    rng = np.random.default_rng(5)
    heads, tokens, head_dim = 2, 7, 4
    queries, keys, values = (rng.normal(size=(heads, tokens, head_dim)).astype(np.float32) for _ in range(3))
    direction = np.array([1.0, 2.0, -1.0, 0.5], dtype=np.float32)
    if name == "a-score-above-the-limit":  # one query-key pair scores +135
        queries[1, 3], keys[1, 5] = 6.0 * direction, 3.6 * direction
    elif name == "a-column-below-the-limit":  # every key scores about -150 for head 0, query 2
        keys[0] = direction + 0.1 * keys[0]
        queries[0, 2] = -24.0 * direction
    return queries, keys, values


def record_gate(monkeypatch) -> list:
    """Every verdict of the softmax gate, in call order (one per attention block)."""
    taken, needs_shift = [], fastinfer._needs_shift

    def recording(scores):
        taken.append(needs_shift(scores))
        return taken[-1]

    monkeypatch.setattr(fastinfer, "_needs_shift", recording)
    return taken


class TestSoftmaxGate:
    """``_attention32`` shifts scores by their column max only when one lies outside ±``_EXP_SAFE``."""

    @pytest.mark.parametrize(
        ("name", "shifted"),
        [("every-score-inside", False), ("a-score-above-the-limit", True), ("a-column-below-the-limit", True)],
    )
    def test_matches_the_float64_shifted_softmax(self, monkeypatch, name, shifted):
        queries, keys, values = gate_case(name)
        heads, tokens, head_dim = queries.shape
        scores = queries.astype(np.float64) @ keys.astype(np.float64).transpose(0, 2, 1)
        if name == "every-score-inside":
            assert np.abs(scores).max() < fastinfer._EXP_SAFE
        elif name == "a-score-above-the-limit":
            assert scores.max() > 100.0  # float32 exp overflows past ~88.7
        else:
            assert scores[0, 2].max() < -120.0  # the whole column underflows float32 exp
        taken = record_gate(monkeypatch)
        out =fastinfer._attention32(packed_qkv(queries, keys, values), heads, 1, tokens, heads * head_dim)
        assert taken == [shifted]
        assert out.dtype == np.float32 and np.isfinite(out).all()
        expected = shifted_softmax_attention(queries, keys, values)
        np.testing.assert_allclose(out, expected, rtol=1e-5, atol=1e-5 * np.abs(expected).max())

    def test_hot_attention_case_takes_both_branches(self, monkeypatch):
        """The ``hot-attention`` edge case crosses the limit in a real decision forward."""
        policy, plan, _, stacks = hot_attention_case()
        taken = record_gate(monkeypatch)
        snapshots, masks = stacks[0]
        policy.greedy_action(plan, snapshots[0], masks[0])
        assert taken == [False, True]
