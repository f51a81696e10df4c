"""The unified performance-model layer.

:class:`PerformanceModel` owns the whole prediction stack: the feature
pipeline (:class:`~repro.perf.features.PerformanceFeaturizer`), the
multitask :class:`~repro.perf.model.ConcurrentPredictionModel`, training
from historical logs and continual fine-tuning from online logs.  Its
inputs read the cost estimates of a
:class:`~repro.perf.features.PerformanceEstimator` (the log/probe-derived
knowledge); the model is no estimator itself.

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
from .features import PerformanceEstimator, PerformanceFeaturizer, TIME_SCALE
from .fit import FitProgram, LEARNING_RATE
from .model import ConcurrentPredictionModel, SimulatorMetrics

__all__ = ["PerformanceModel", "PredictionExample"]

#: Share of a history log's snapshots :meth:`PerformanceModel.train_from_log` holds out for its metrics.
VALIDATION_FRACTION = 0.2


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
    length-1 keeps the single-engine pipeline).
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
        self._program = FitProgram(self.model, lr=LEARNING_RATE)

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
    def train_from_log(self, log: ExecutionLog) -> SimulatorMetrics:
        """Train the prediction model from historical logs for ``config.epochs`` epochs.

        A held-out :data:`VALIDATION_FRACTION` of the snapshots is used to
        report the classification accuracy and regression MSE of Table III.
        """
        examples = self.examples_from_log(log)
        if len(examples) < 4:
            raise SimulationError("not enough concurrency snapshots in the log to train the simulator")
        self._rng.shuffle(examples)  # type: ignore[arg-type]
        split = max(1, int(len(examples) * VALIDATION_FRACTION))
        validation, training = examples[:split], examples[split:]
        self.fit(training, self.config.epochs)
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
