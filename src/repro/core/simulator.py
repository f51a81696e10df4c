"""Learned incremental simulator for concurrent query execution (Section IV-C).

Sampling scheduling episodes against a real DBMS is slow, so BQSched trains a
simulator from historical logs and pre-trains the RL policy against it.  The
simulator answers one question: *given the current set of concurrent queries
(and how long each has been running), which finishes first and when?*

The prediction stack itself — feature pipeline, multitask model, training
and continual fine-tuning — lives in the :mod:`repro.perf` layer;
:class:`LearnedSimulator` is the single-engine wrapper that additionally
speaks the ``SessionBackend`` protocol (its fleet counterpart is
:class:`repro.perf.SimulatedCluster`).  Online logs produced during
deployment can be fed back through :meth:`LearnedSimulator.update_from_log`
to fine-tune the prediction model incrementally (hence *incremental*
simulator).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..config import SimulatorConfig
from ..dbms import ConfigurationSpace, ExecutionLog, QueryExecutionRecord, RunningParameters
from ..dbms.engine import CompletionEvent, RunningQueryState
from ..dbms.soa import BackendSession
from ..exceptions import SimulationError
from ..nn import Adam
from ..perf import ConcurrentPredictionModel, PerformanceModel, SimulatorMetrics
from ..perf.features import MIN_REMAINING as _MIN_REMAINING
from ..perf.features import TIME_SCALE as _TIME_SCALE
from ..workloads import BatchQuerySet
from .knowledge import ExternalKnowledge

__all__ = ["ConcurrentPredictionModel", "LearnedSimulator", "SimulatedSession", "SimulatorMetrics"]


class LearnedSimulator:
    """The single-engine DBMS stand-in the scheduler pre-trains against.

    A thin backend facade over a :class:`repro.perf.PerformanceModel`
    (exposed as :attr:`perf`): featurisation, training, fine-tuning and
    evaluation all delegate to it, and :meth:`new_session` opens simulated
    rounds that consume its predictions.
    """

    def __init__(
        self,
        batch: BatchQuerySet,
        plan_embeddings: np.ndarray,
        knowledge: ExternalKnowledge,
        config_space: ConfigurationSpace,
        config: SimulatorConfig,
        seed: int = 0,
    ) -> None:
        self.batch = batch
        self.plan_embeddings = plan_embeddings
        self.knowledge = knowledge
        self.config_space = config_space
        self.config = config
        self.seed = seed
        self.perf = PerformanceModel(
            batch=batch,
            plan_embeddings=plan_embeddings,
            knowledge=knowledge,
            config_space=config_space,
            config=config,
            seed=seed,
        )
        # Fresh-submission feature rows keyed (query_id, config_index),
        # shared across the sessions of every episode.  A row bakes in the
        # knowledge-estimated expected time, so entries are dropped whenever
        # the knowledge version moves.
        self._row_cache: dict[tuple[int, int], np.ndarray] = {}
        self._row_cache_version = -1

    # ------------------------------------------------------------------ #
    # Delegation to the performance-model layer
    # ------------------------------------------------------------------ #
    @property
    def model(self) -> ConcurrentPredictionModel:
        return self.perf.model

    @property
    def optimizer(self) -> Adam:
        return self.perf.optimizer

    @property
    def elapsed_column(self) -> int:
        """Index of the ``tanh(elapsed)`` entry in a feature row."""
        return self.perf.featurizer.elapsed_column

    def _features(
        self,
        query_ids: Sequence[int],
        parameters: Sequence[RunningParameters],
        elapsed: Sequence[float],
    ) -> np.ndarray:
        return self.perf.featurizer.rows(query_ids, parameters, elapsed)

    def cached_feature_row(self, query_id: int, parameters: RunningParameters) -> np.ndarray:
        """Feature row of a fresh submission (``elapsed = 0``), cached.

        Rows depend only on the frozen plan embedding, the configuration
        one-hot and the knowledge-estimated expected time, so they stay valid
        across sessions until the knowledge is refreshed from new logs.  The
        returned array is shared — callers must copy before mutating.
        """
        version = self.knowledge.version
        if version != self._row_cache_version:
            self._row_cache.clear()
            self._row_cache_version = version
        key = (query_id, self.config_space.index_of(parameters))
        row = self._row_cache.get(key)
        if row is None:
            row = self._features([query_id], [parameters], [0.0])[0]
            self._row_cache[key] = row
        return row

    def train_from_log(
        self, log: ExecutionLog, epochs: int | None = None, validation_fraction: float = 0.2
    ) -> SimulatorMetrics:
        """Train the prediction model from historical logs.

        A held-out fraction of the snapshots is used to report the
        classification accuracy and regression MSE of Table III.
        """
        return self.perf.train_from_log(log, epochs=epochs, validation_fraction=validation_fraction)

    def update_from_log(self, log: ExecutionLog) -> SimulatorMetrics:
        """Incrementally fine-tune on freshly collected (online) logs."""
        return self.perf.update_from_log(log)

    def evaluate_on_log(self, log: ExecutionLog) -> SimulatorMetrics:
        """Evaluate on all snapshots of ``log`` without training."""
        return self.perf.evaluate_on_log(log)

    # ------------------------------------------------------------------ #
    # Backend protocol
    # ------------------------------------------------------------------ #
    def new_session(
        self,
        batch: BatchQuerySet,
        num_connections: int | None = None,
        strategy: str = "",
        round_id: int | None = None,
    ) -> "SimulatedSession":
        """Open a simulated scheduling round (mirrors :class:`DatabaseEngine`)."""
        return SimulatedSession(
            simulator=self,
            batch=batch,
            num_connections=num_connections or 8,
            strategy=strategy,
            round_id=round_id or 0,
        )


class SimulatedSession(BackendSession):
    """A scheduling round served entirely by the learned simulator.

    Speaks the same session dialect as the fluid-engine
    :class:`~repro.dbms.engine.ExecutionSession`, including the event-driven
    extensions (``defer``/``release`` for streaming arrivals and a bounded
    ``advance(limit)``), so the :class:`repro.runtime.ExecutionRuntime` can
    host multi-tenant rounds on either backend.
    """

    error = SimulationError
    supports_lockstep = True
    running: dict[int, RunningQueryState]

    def __init__(
        self,
        simulator: LearnedSimulator,
        batch: BatchQuerySet,
        num_connections: int,
        strategy: str = "",
        round_id: int = 0,
    ) -> None:
        if num_connections < 1:
            raise SimulationError("num_connections must be >= 1")
        super().__init__(batch, round_id, strategy or "simulated")
        self.simulator = simulator
        self.num_connections = num_connections
        self.running = {}
        self._idle = num_connections
        self._feature_rows: dict[int, np.ndarray] = {}
        # Live-query model input, maintained incrementally: row i of
        # ``_live_matrix`` is the feature row of the i-th entry of
        # ``running`` (submission order), with only the elapsed column
        # rewritten per advance.  Capacity is bounded by the connection pool.
        self._live_states: list[RunningQueryState] = []
        self._live_matrix = np.zeros(
            (num_connections, simulator.perf.featurizer.feature_dim), dtype=np.float64
        )
        self._live_submit = np.zeros(num_connections, dtype=np.float64)

    # -- protocol ------------------------------------------------------- #
    @property
    def has_idle_connection(self) -> bool:
        return self._idle > 0

    @property
    def num_running(self) -> int:
        return len(self.running)

    def submit(self, query_id: int, parameters: RunningParameters) -> int:
        if query_id not in self.pending:
            raise SimulationError(f"query {query_id} is not pending in the simulator")
        if self._idle <= 0:
            raise SimulationError("no idle connection in the simulated session")
        self._idle -= 1
        connection = self.num_connections - self._idle - 1
        self.pending.remove(query_id)
        state = RunningQueryState(
            query=self.batch[query_id],
            parameters=parameters,
            connection=connection,
            submit_time=self.current_time,
            remaining_work=1.0,
            total_work=1.0,
        )
        self.running[query_id] = state
        slot = len(self._live_states)
        self._live_matrix[slot] = self._feature_row(state)
        self._live_submit[slot] = self.current_time
        self._live_states.append(state)
        self.state_arrays.mark_running(query_id, self.current_time)
        return connection

    def cancel(self, query_id: int) -> int:
        """Kill a running query: free its connection, return it to pending.

        Returns the freed connection id.
        """
        state = self.running.pop(query_id, None)
        if state is None:
            raise SimulationError(f"query {query_id} is not running and cannot be cancelled")
        self._drop_live(query_id)
        self._feature_rows.pop(query_id, None)
        self._idle += 1
        self.pending.append(query_id)
        self.state_arrays.mark_pending(query_id)
        return state.connection

    def _drop_live(self, query_id: int) -> None:
        """Splice a query's row out of the live-query model input."""
        for slot, live in enumerate(self._live_states):
            if live.query.query_id == query_id:
                del self._live_states[slot]
                k = len(self._live_states)
                if slot < k:
                    self._live_matrix[slot:k] = self._live_matrix[slot + 1 : k + 1]
                    self._live_submit[slot:k] = self._live_submit[slot + 1 : k + 1]
                break

    def _feature_row(self, state: RunningQueryState) -> np.ndarray:
        """Per-query feature row with everything but the elapsed slot filled in.

        A query's plan embedding, configuration one-hot and expected time are
        fixed from submission to completion, so the row is built once per
        round and only the ``tanh(elapsed)`` entry is rewritten per advance.
        """
        query_id = state.query.query_id
        row = self._feature_rows.get(query_id)
        if row is None:
            row = self.simulator.cached_feature_row(query_id, state.parameters)
            self._feature_rows[query_id] = row
        return row

    def advance_features(self) -> tuple[list[RunningQueryState], np.ndarray]:
        """Current running states and their ``(k, feature_dim)`` model input.

        Exposed separately from :meth:`advance` so the vectorized engine can
        stack the features of many sessions into one batched prediction.  The
        feature matrix is a view of the live-query buffer, valid until the
        next ``submit``/``apply_advance`` on this session.
        """
        if not self.running:
            raise SimulationError("cannot advance: no query running in the simulator")
        k = len(self._live_states)
        features = self._live_matrix[:k]
        elapsed = self.current_time - self._live_submit[:k]
        features[:, self.simulator.elapsed_column] = np.tanh(elapsed / _TIME_SCALE)
        return list(self._live_states), features

    def advance(self, limit: float | None = None) -> CompletionEvent | None:
        """Predict the earliest finisher and move the clock to its finish time.

        With a ``limit`` the clock stops there when the predicted completion
        falls beyond it (returning ``None``); with nothing running, a
        ``limit`` idles the clock forward to it.
        """
        if not self.running:
            if limit is None:
                raise SimulationError("cannot advance: no query running in the simulator")
            self.current_time = max(self.current_time, limit)
            return None
        states, features = self.advance_features()
        logits, times = self.simulator.model.predict(features)
        return self.apply_advance(states, logits, times, limit=limit)

    def apply_advance(
        self,
        states: list[RunningQueryState],
        logits: np.ndarray,
        times: np.ndarray,
        limit: float | None = None,
    ) -> CompletionEvent | None:
        """Finish the predicted earliest query and move the clock accordingly."""
        index = int(np.argmax(logits))
        remaining = max(_MIN_REMAINING, float(times[index]) * _TIME_SCALE)
        if limit is not None and self.current_time + remaining > limit:
            self.current_time = limit
            return None
        self.current_time += remaining
        state = states[index]
        query_id = state.query.query_id
        del self.running[query_id]
        self._drop_live(query_id)
        self._idle += 1
        self.finished[query_id] = self.current_time
        self.state_arrays.mark_finished(query_id)
        self.log.add(
            QueryExecutionRecord(
                query_id=query_id,
                query_name=state.query.name,
                template_id=state.query.template_id,
                connection=state.connection,
                parameters=state.parameters,
                submit_time=state.submit_time,
                finish_time=self.current_time,
            )
        )
        return CompletionEvent(query_id=query_id, finish_time=self.current_time, connection=state.connection)
