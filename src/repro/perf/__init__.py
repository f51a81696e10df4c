"""The unified performance-model layer (paper Section IV-C, cluster-capable).

``repro.perf`` owns everything that *predicts* query performance:

* :class:`PerformanceFeaturizer` — the shared feature pipeline (plan
  embedding ‖ configuration one-hot ‖ elapsed ‖ expected time, plus the
  instance-context channel on fleets);
* :class:`ConcurrentPredictionModel` — the multitask earliest-finisher /
  remaining-time network;
* :class:`PerformanceModel` — training from (instance-tagged) logs,
  continual fine-tuning from online logs, per-instance fidelity metrics and
  learned cost estimates; its fits run :class:`~repro.perf.fit.FitProgram`,
  per-example Adam over flat parameter slabs;
* :class:`SimulatedCluster` / :class:`SimulatedClusterSession` — the learned
  incremental simulator the RL policy pre-trains against: a simulated fleet,
  of one on a single engine;
* :class:`PerformanceEstimator` — the protocol adaptive masking and the
  greedy-cost placement baseline type against (satisfied by both the
  log-derived external knowledge and the learned model).
"""

from .features import MIN_REMAINING, PerformanceEstimator, PerformanceFeaturizer, TIME_SCALE
from .model import ConcurrentPredictionModel, SimulatorMetrics
from .perfmodel import PerformanceModel, PredictionExample
from .simcluster import SimulatedCluster, SimulatedClusterSession

__all__ = [
    "MIN_REMAINING",
    "TIME_SCALE",
    "PerformanceEstimator",
    "PerformanceFeaturizer",
    "ConcurrentPredictionModel",
    "SimulatorMetrics",
    "PerformanceModel",
    "PredictionExample",
    "SimulatedCluster",
    "SimulatedClusterSession",
]
