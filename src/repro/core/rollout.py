"""Rollout storage and generalised advantage estimation.

The buffer stores complete scheduling episodes.  After an episode finishes it
is annotated twice:

* GAE advantages / returns for the PPO objective, and
* the IQ-PPO auxiliary targets: for every decision state, which of the then
  running queries finished first and how much longer it ran — extracted from
  the round's execution log, i.e. the "rich signals of individual query
  completion" the paper exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..dbms import RoundLog
from ..encoder import SnapshotArrays
from ..exceptions import SchedulingError

__all__ = ["Transition", "RolloutBuffer"]


@dataclass
class Transition:
    """One decision step of one episode."""

    snapshot: SnapshotArrays
    action: int
    log_prob: float
    value: float
    reward: float
    done: bool
    mask: np.ndarray
    time: float
    advantage: float = 0.0
    value_target: float = 0.0
    aux_query_id: int = -1
    aux_target: float = 0.0

    @property
    def has_aux_target(self) -> bool:
        return self.aux_query_id >= 0


@dataclass
class EpisodeRecord:
    """All transitions of one episode plus its outcome."""

    transitions: list[Transition] = field(default_factory=list)
    makespan: float = 0.0
    total_reward: float = 0.0


class RolloutBuffer:
    """Episode-structured storage shared by PPO, PPG and IQ-PPO.

    Transitions from several environments may be collected concurrently: each
    in-flight episode is keyed by ``env_index``, so a vectorized rollout can
    interleave steps from N lockstep envs and still get per-episode GAE and
    auxiliary annotation when each episode closes.  The default
    ``env_index=0`` preserves the original single-env interface.
    """

    def __init__(self, gamma: float = 0.99, gae_lambda: float = 0.95) -> None:
        self.gamma = gamma
        self.gae_lambda = gae_lambda
        self._episodes: list[EpisodeRecord] = []
        self._current: dict[int, list[Transition]] = {}

    # ------------------------------------------------------------------ #
    # Collection
    # ------------------------------------------------------------------ #
    def add(self, transition: Transition, env_index: int = 0) -> None:
        self._current.setdefault(env_index, []).append(transition)

    def finish_episode(self, round_log: RoundLog, makespan: float, env_index: int = 0) -> None:
        """Close the in-flight episode of ``env_index``: GAE + auxiliary targets."""
        transitions = self._current.pop(env_index, [])
        if not transitions:
            raise SchedulingError("finish_episode called with no transitions collected")
        self._compute_gae(transitions)
        self._annotate_auxiliary(transitions, round_log)
        self._episodes.append(
            EpisodeRecord(
                transitions=transitions,
                makespan=makespan,
                total_reward=float(sum(t.reward for t in transitions)),
            )
        )

    def _compute_gae(self, transitions: list[Transition]) -> None:
        advantage = 0.0
        for index in reversed(range(len(transitions))):
            transition = transitions[index]
            next_value = 0.0 if transition.done or index == len(transitions) - 1 else transitions[index + 1].value
            delta = transition.reward + self.gamma * next_value - transition.value
            advantage = delta + self.gamma * self.gae_lambda * (0.0 if transition.done else advantage)
            transition.advantage = advantage
            transition.value_target = advantage + transition.value

    def _annotate_auxiliary(self, transitions: list[Transition], round_log: RoundLog) -> None:
        """Fill in the earliest-finishing running query and its remaining time."""
        finish_times = {record.query_id: record.finish_time for record in round_log}
        for transition in transitions:
            # Single pass over the (tiny) running set; identical to taking
            # min() over the eligible (finish, qid) pairs, without building
            # the intermediate candidate lists on the hot episode-close path.
            best_finish, best_qid = None, -1
            for qid in transition.snapshot.running_ids:
                finish = finish_times.get(qid)
                if finish is None or finish <= transition.time:
                    continue
                if best_finish is None or finish < best_finish or (finish == best_finish and qid < best_qid):
                    best_finish, best_qid = finish, qid
            if best_finish is None:
                continue
            transition.aux_query_id = best_qid
            transition.aux_target = best_finish - transition.time

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    @property
    def episodes(self) -> list[EpisodeRecord]:
        return list(self._episodes)

    def transitions(self) -> list[Transition]:
        return [t for episode in self._episodes for t in episode.transitions]

    def __len__(self) -> int:
        return sum(len(e.transitions) for e in self._episodes)

    def episode_rewards(self) -> list[float]:
        return [e.total_reward for e in self._episodes]

    def episode_makespans(self) -> list[float]:
        return [e.makespan for e in self._episodes]

    def normalized_advantages(self) -> None:
        """Standardise advantages across the whole buffer (in place)."""
        transitions = self.transitions()
        if not transitions:
            return
        values = np.array([t.advantage for t in transitions])
        mean, std = float(values.mean()), float(values.std())
        for transition in transitions:
            transition.advantage = (transition.advantage - mean) / (std + 1e-8)

    def sample(self, batch_size: int, rng: np.random.Generator) -> list[Transition]:
        """Sample ``batch_size`` transitions uniformly without replacement."""
        transitions = self.transitions()
        if not transitions:
            raise SchedulingError("cannot sample from an empty rollout buffer")
        count = min(batch_size, len(transitions))
        indices = rng.choice(len(transitions), size=count, replace=False)
        return [transitions[i] for i in indices]

    def sample_with_aux(self, batch_size: int, rng: np.random.Generator) -> list[Transition]:
        """Sample transitions that carry an auxiliary target."""
        transitions = [t for t in self.transitions() if t.has_aux_target]
        if not transitions:
            return []
        count = min(batch_size, len(transitions))
        indices = rng.choice(len(transitions), size=count, replace=False)
        return [transitions[i] for i in indices]

    def num_in_flight(self) -> int:
        """Number of episodes currently being collected (vectorized rollouts)."""
        return sum(1 for transitions in self._current.values() if transitions)

    def clear(self) -> None:
        self._episodes.clear()
        self._current.clear()
