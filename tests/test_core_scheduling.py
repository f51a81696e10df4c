"""Tests for knowledge, masking, the environment, heuristics and result types."""

from __future__ import annotations

import pytest

from repro.config import MaskingConfig
from repro.core import (
    AdaptiveMask,
    FIFOScheduler,
    MCFScheduler,
    RandomScheduler,
    SchedulingEnv,
    SchedulingResult,
    StrategyEvaluation,
)
from repro.exceptions import SchedulingError


class TestExternalKnowledge:
    def test_probes_cover_all_queries_and_configs(self, tpch_knowledge, tpch_batch, config_space):
        for query in tpch_batch:
            for index in range(len(config_space)):
                assert tpch_knowledge.expected_time(query.query_id, index) > 0

    def test_more_resources_never_hurt_isolated_probes(self, tpch_knowledge, tpch_batch, config_space):
        default = config_space.index_of(config_space.default)
        best = len(config_space) - 1  # the most resource-hungry configuration
        for query in tpch_batch:
            assert tpch_knowledge.expected_time(query.query_id, best) <= tpch_knowledge.expected_time(
                query.query_id, default
            ) * 1.001

    def test_unknown_query_raises(self, tpch_knowledge):
        with pytest.raises(SchedulingError):
            tpch_knowledge.expected_time(10_000, 0)

    def test_update_from_log_overrides_averages(self, tpch_knowledge, tpch_batch, engine_x, config_space):
        log = engine_x.collect_logs(
            tpch_batch, [[q.query_id for q in tpch_batch]], config_space.default, num_connections=4
        )
        before = dict(tpch_knowledge.average_times)
        tpch_knowledge.update_from_log(log)
        after = tpch_knowledge.average_times
        assert any(abs(after[qid] - before[qid]) > 1e-9 for qid in after)

    def test_improvement_profile_baseline_zero(self, tpch_knowledge, tpch_batch):
        profile = tpch_knowledge.improvement_profile(tpch_batch[0].query_id)
        assert profile[0] == (0.0, 0.0)


class TestAdaptiveMask:
    def test_build_keeps_default_config(self, tpch_batch, tpch_knowledge, config_space):
        mask = AdaptiveMask.build(tpch_batch, tpch_knowledge, config_space, MaskingConfig())
        for query in tpch_batch:
            assert 0 in mask.allowed_configs(query.query_id)

    def test_build_prunes_some_configs(self, tpch_batch, tpch_knowledge, config_space):
        mask = AdaptiveMask.build(tpch_batch, tpch_knowledge, config_space, MaskingConfig())
        assert 0.0 < mask.masked_fraction() < 1.0

    def test_disabled_masking_allows_everything(self, tpch_batch, tpch_knowledge, config_space):
        """Masking off is the ``use_masking = False`` arm, which builds the unmasked mask."""
        mask = AdaptiveMask.unmasked(len(tpch_batch), len(config_space))
        assert mask.masked_fraction() == 0.0
        assert mask.allowed_matrix.all()

    def test_strict_thresholds_mask_more(self, tpch_batch, tpch_knowledge, config_space):
        lenient = AdaptiveMask.build(tpch_batch, tpch_knowledge, config_space, MaskingConfig(min_absolute_gain=0.0, min_relative_gain=0.0))
        strict = AdaptiveMask.build(
            tpch_batch, tpch_knowledge, config_space, MaskingConfig(min_absolute_gain=10.0, min_relative_gain=0.9)
        )
        assert strict.masked_fraction() >= lenient.masked_fraction()

    def test_action_mask_only_selects_pending(self, tpch_batch, config_space):
        mask = AdaptiveMask.unmasked(len(tpch_batch), len(config_space))
        assert mask.allowed_matrix.shape == (len(tpch_batch), len(config_space))
        assert mask.allowed_matrix[[0, 3]].sum() == 2 * len(config_space)

    def test_empty_allowed_configs_rejected(self):
        with pytest.raises(SchedulingError):
            AdaptiveMask(num_queries=1, num_configs=2, allowed={0: []})

    @pytest.mark.parametrize("allowed, bad", [({5: [0]}, 5), ({-1: [0], 0: [0]}, -1)])
    def test_query_ids_outside_the_mask_rejected(self, allowed, bad):
        """An id ``action_mask`` would drop must not be counted by ``masked_fraction`` either."""
        with pytest.raises(SchedulingError, match=f"query {bad} is outside the mask's 2 queries"):
            AdaptiveMask(num_queries=2, num_configs=2, allowed=allowed)
        assert AdaptiveMask(num_queries=2, num_configs=2, allowed={0: [0]}).masked_fraction() == 0.25


class TestSchedulingEnv:
    def test_reset_returns_all_pending(self, tpch_env, tpch_batch):
        snapshot = tpch_env.reset(round_id=0)
        assert len(snapshot.pending_ids) == len(tpch_batch)
        assert snapshot.time == 0.0

    def test_action_encoding_roundtrip(self, tpch_env):
        action = tpch_env.encode_action(5, 2)
        assert tpch_env.decode_action(action) == (5, 2)
        with pytest.raises(SchedulingError):
            tpch_env.encode_action(10_000, 0)
        with pytest.raises(SchedulingError):
            tpch_env.decode_action(tpch_env.action_dim)

    def test_step_requires_reset(self, tpch_batch, engine_x, small_config, config_space, tpch_knowledge):
        env = SchedulingEnv(tpch_batch, engine_x, small_config.scheduler, config_space, tpch_knowledge)
        with pytest.raises(SchedulingError):
            env.step(0)

    def test_rewards_sum_to_negative_makespan(self, tpch_env):
        scheduler = FIFOScheduler()
        result = scheduler.run_round(tpch_env, round_id=0)
        assert result.total_reward == pytest.approx(-result.makespan, rel=1e-6)

    def test_submitting_non_pending_query_fails(self, tpch_env):
        tpch_env.reset(round_id=0)
        action = tpch_env.encode_action(0, 0)
        tpch_env.step(action)
        with pytest.raises(SchedulingError):
            tpch_env.step(action)

    def test_masked_configuration_rejected(self, tpch_batch, engine_x, small_config, config_space, tpch_knowledge):
        allowed = {q.query_id: [0] for q in tpch_batch}
        mask = AdaptiveMask(len(tpch_batch), len(config_space), allowed)
        env = SchedulingEnv(tpch_batch, engine_x, small_config.scheduler, config_space, tpch_knowledge, mask=mask)
        env.reset(round_id=0)
        with pytest.raises(SchedulingError):
            env.step(env.encode_action(0, len(config_space) - 1))

    def test_action_mask_shrinks_as_queries_submit(self, tpch_env, config_space):
        tpch_env.reset(round_id=0)
        before = tpch_env.action_mask().sum()
        tpch_env.step(tpch_env.encode_action(0, 0))
        after = tpch_env.action_mask().sum()
        assert after == before - len(config_space)

    def test_episode_completes_and_result_available(self, tpch_env, tpch_batch):
        scheduler = FIFOScheduler()
        result = scheduler.run_round(tpch_env, round_id=1)
        assert isinstance(result, SchedulingResult)
        assert result.num_queries == len(tpch_batch)
        assert result.makespan > 0
        assert set(result.query_finish_times()) == {q.query_id for q in tpch_batch}

    def test_result_before_completion_fails(self, tpch_env):
        tpch_env.reset(round_id=0)
        with pytest.raises(SchedulingError):
            tpch_env.result()

    def test_connection_timeline_respects_connection_count(self, tpch_env, small_config):
        result = FIFOScheduler().run_round(tpch_env, round_id=2)
        timeline = result.connection_timeline()
        assert len(timeline) <= small_config.scheduler.num_connections
        for bars in timeline.values():
            for (_, start, end), (_, next_start, _) in zip(bars, bars[1:]):
                assert next_start >= start
                assert next_start >= end - 1e-9  # no overlap on one connection


class TestHeuristics:
    def test_fifo_is_deterministic_given_round(self, tpch_env):
        a = FIFOScheduler().run_round(tpch_env, round_id=3).makespan
        b = FIFOScheduler().run_round(tpch_env, round_id=3).makespan
        assert a == pytest.approx(b)

    def test_random_differs_by_seed(self, tpch_env):
        a = RandomScheduler(seed=1).run_round(tpch_env, round_id=4).makespan
        b = RandomScheduler(seed=2).run_round(tpch_env, round_id=4).makespan
        assert a != pytest.approx(b)

    def test_mcf_submits_heaviest_first(self, tpch_env, tpch_knowledge):
        result = MCFScheduler().run_round(tpch_env, round_id=5)
        records = sorted(result.round_log, key=lambda r: (r.submit_time, -tpch_knowledge.average_time(r.query_id)))
        first_submitted = [r.query_id for r in records if r.submit_time == 0.0]
        mcf_order = sorted((q.query_id for q in tpch_env.batch), key=tpch_knowledge.average_time, reverse=True)
        heaviest = set(mcf_order[: len(first_submitted)])
        assert set(first_submitted) == heaviest

    def test_evaluate_collects_requested_rounds(self, tpch_env):
        evaluation = FIFOScheduler().evaluate(tpch_env, rounds=3)
        assert len(evaluation.makespans) == 3
        assert evaluation.mean > 0
        assert evaluation.std >= 0
        assert max(evaluation.makespans) >= min(evaluation.makespans) > 0

    def test_evaluate_rejects_zero_rounds(self, tpch_env):
        with pytest.raises(SchedulingError):
            FIFOScheduler().evaluate(tpch_env, rounds=0)

    def test_strategy_evaluation_statistics(self):
        evaluation = StrategyEvaluation(strategy="test")
        for value in (2.0, 4.0, 6.0):
            evaluation.add(value)
        assert evaluation.mean == pytest.approx(4.0)
        assert "test" in repr(evaluation)
