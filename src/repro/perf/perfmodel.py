"""The unified performance-model layer.

:class:`PerformanceModel` owns the whole prediction stack: the feature
pipeline (:class:`~repro.perf.features.PerformanceFeaturizer`), the
multitask :class:`~repro.perf.model.ConcurrentPredictionModel`, training
from historical logs, continual fine-tuning from online logs, and the
isolated-cost estimates the masking / placement layers consume through the
:class:`~repro.perf.features.PerformanceEstimator` protocol.

One model serves a whole fleet: training examples are reconstructed *per
engine instance* from instance-tagged
:class:`~repro.dbms.logs.QueryExecutionRecord` entries, and every example's
rows carry the instance-context channel, so the same network learns the
dynamics of a fast and a slow instance side by side (fine-grained
performance prediction on concurrent queries, arXiv:2501.16256).  At
``num_instances == 1`` the entire pipeline — rng stream, feature layout,
fit order — is the historical single-engine simulator's, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..config import SimulatorConfig
from ..dbms import ConfigurationSpace, ExecutionLog
from ..exceptions import SimulationError
from ..workloads import BatchQuerySet
from .features import MIN_REMAINING, PerformanceEstimator, PerformanceFeaturizer, TIME_SCALE
from .fit import FitProgram
from .model import ConcurrentPredictionModel, SimulatorMetrics

__all__ = ["PerformanceModel", "PredictionExample"]


@dataclass
class PredictionExample:
    """One training example derived from a concurrency snapshot."""

    features: np.ndarray
    earliest_index: int
    earliest_remaining: float
    instance: int = 0


class PerformanceModel:
    """Learned concurrent-query performance prediction over logs.

    ``instance_speeds`` declares the fleet the model predicts for (empty or
    length-1 keeps the single-engine pipeline).  The model also satisfies the
    :class:`~repro.perf.features.PerformanceEstimator` protocol: isolated
    expected times are read off the regressor at zero elapsed time, so
    consumers like the greedy-cost placement baseline can price queries from
    the learned model instead of private engine estimates.
    """

    def __init__(
        self,
        batch: BatchQuerySet,
        plan_embeddings: np.ndarray,
        knowledge: PerformanceEstimator,
        config_space: ConfigurationSpace,
        config: SimulatorConfig,
        seed: int = 0,
        instance_speeds: Sequence[float] = (),
    ) -> None:
        self.batch = batch
        self.knowledge = knowledge
        self.config_space = config_space
        self.config = config
        self.seed = seed
        self.featurizer = PerformanceFeaturizer(
            plan_embeddings=plan_embeddings,
            config_space=config_space,
            estimator=knowledge,
            instance_speeds=instance_speeds,
        )
        rng = np.random.default_rng(seed)
        self.model = ConcurrentPredictionModel(
            feature_dim=self.featurizer.feature_dim,
            hidden_dim=config.hidden_dim,
            rng=rng,
            use_attention=config.use_attention,
        )
        self._rng = rng
        self._program = FitProgram(self.model, lr=config.learning_rate)
        #: Estimate version (:class:`PerformanceEstimator`): bumped per fit.
        self.version = 0

    # ------------------------------------------------------------------ #
    # Topology
    # ------------------------------------------------------------------ #
    @property
    def num_instances(self) -> int:
        return self.featurizer.num_instances

    @property
    def per_instance(self) -> bool:
        """Whether examples and predictions are scoped per engine instance."""
        return self.featurizer.instance_channel_dim > 0

    # ------------------------------------------------------------------ #
    # Example construction
    # ------------------------------------------------------------------ #
    def examples_from_log(self, log: ExecutionLog) -> list[PredictionExample]:
        """Training examples from (possibly instance-tagged) execution logs.

        On fleets every concurrency snapshot is reconstructed within one
        instance's records (queries on different instances do not share
        resources); single-engine logs keep the historical single stream.
        """
        examples = []
        for snapshot in log.concurrency_snapshots(per_instance=self.per_instance):
            features = self.featurizer.rows(
                snapshot.running_query_ids, snapshot.parameters, snapshot.elapsed, instance=snapshot.instance
            )
            examples.append(
                PredictionExample(
                    features=features,
                    earliest_index=snapshot.earliest_index,
                    earliest_remaining=snapshot.earliest_remaining,
                    instance=snapshot.instance,
                )
            )
        return examples

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def train_from_log(
        self, log: ExecutionLog, epochs: int | None = None, validation_fraction: float = 0.2
    ) -> SimulatorMetrics:
        """Train the prediction model from historical logs.

        A held-out fraction of the snapshots is used to report the
        classification accuracy and regression MSE of Table III.
        """
        examples = self.examples_from_log(log)
        if len(examples) < 4:
            raise SimulationError("not enough concurrency snapshots in the log to train the simulator")
        self._rng.shuffle(examples)  # type: ignore[arg-type]
        split = max(1, int(len(examples) * validation_fraction))
        validation, training = examples[:split], examples[split:]
        self.fit(training, epochs or self.config.epochs)
        return self.evaluate_examples(validation)

    def update_from_log(self, log: ExecutionLog) -> SimulatorMetrics:
        """Incrementally fine-tune on freshly collected (online) logs."""
        examples = self.examples_from_log(log)
        if not examples:
            raise SimulationError("online log contains no concurrency snapshots")
        self.fit(examples, self.config.incremental_epochs)
        return self.evaluate_examples(examples)

    def fit(self, examples: list[PredictionExample], epochs: int) -> None:
        """``epochs`` shuffled passes over ``examples``, one Adam step each.

        The fit program (:class:`~repro.perf.fit.FitProgram`) keeps the
        weights, gradients and Adam moments in flat slabs for the length of
        the fit; the moments and step count carry over to the next fit.
        """
        self.version += 1
        multitask = self.config.use_multitask
        self._program.fit(
            [example.features for example in examples],
            [example.earliest_index for example in examples],
            [example.earliest_remaining / TIME_SCALE if multitask else None for example in examples],
            self.config.gamma_regression,
            epochs,
            self._rng,
        )

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def evaluate_examples(self, examples: list[PredictionExample]) -> SimulatorMetrics:
        """Accuracy / MSE of the model on a set of examples."""
        if not examples:
            return SimulatorMetrics(accuracy=float("nan"), mse=float("nan"), num_examples=0)
        correct = 0
        squared_errors = []
        for example in examples:
            logits, times = self.model.predict(example.features)
            predicted_index = int(np.argmax(logits))
            correct += int(predicted_index == example.earliest_index)
            predicted_time = float(times[predicted_index])
            squared_errors.append((predicted_time - example.earliest_remaining / TIME_SCALE) ** 2)
        return SimulatorMetrics(
            accuracy=correct / len(examples),
            mse=float(np.mean(squared_errors)),
            num_examples=len(examples),
        )

    def metrics_by_instance(self, log: ExecutionLog) -> dict[int, SimulatorMetrics]:
        """Per-engine-instance fidelity of the model on ``log``.

        The Table-III metrics, broken out by the instance each concurrency
        snapshot was reconstructed on — the per-instance sim-fidelity report
        of ``benchmarks/bench_cluster_sim_pretrain.py``.
        """
        by_instance: dict[int, list[PredictionExample]] = {}
        for example in self.examples_from_log(log):
            by_instance.setdefault(example.instance, []).append(example)
        return {
            instance: self.evaluate_examples(examples)
            for instance, examples in sorted(by_instance.items())
        }

    # ------------------------------------------------------------------ #
    # PerformanceEstimator protocol (learned cost estimates)
    # ------------------------------------------------------------------ #
    def isolated_estimate(self, query_id: int, config_index: int, instance: int = 0) -> float:
        """Model-predicted isolated execution time on ``instance`` (seconds)."""
        features = self.featurizer.rows(
            [query_id], [self.config_space[config_index]], [0.0], instance=instance
        )
        _, times = self.model.predict(features)
        return max(MIN_REMAINING, float(times[0]) * TIME_SCALE)

    def expected_time(self, query_id: int, config_index: int) -> float:
        """Learned expected execution time (reference instance 0)."""
        return self.isolated_estimate(query_id, config_index)

    def average_time(self, query_id: int) -> float:
        """Learned expected time under the default configuration."""
        return self.expected_time(query_id, 0)

    def improvement_profile(self, query_id: int) -> dict[int, tuple[float, float]]:
        """Absolute / relative gain of each configuration over the cheapest one."""
        baseline = self.expected_time(query_id, 0)
        profile: dict[int, tuple[float, float]] = {}
        for index in range(len(self.config_space)):
            absolute = baseline - self.expected_time(query_id, index)
            relative = absolute / baseline if baseline > 0 else 0.0
            profile[index] = (absolute, relative)
        return profile
