"""BQSched core: environment, RL algorithms, optimisations, facade, baselines."""

from .types import SchedulingResult, StrategyEvaluation
from .knowledge import ExternalKnowledge
from .masking import AdaptiveMask
from .env import SchedulingEnv, SchedulingSession, SessionBackend, StepResult, cluster_instance_count, drive_service
from .vecenv import VectorSchedulingEnv
from .baselines import (
    BaseScheduler,
    FIFOScheduler,
    GreedyCostPlacementScheduler,
    LeastOutstandingWorkScheduler,
    MCFScheduler,
    RandomScheduler,
    RoundRobinPlacementScheduler,
)
from .policy import ActorCriticNetwork, PolicyDecision
from .rollout import RolloutBuffer, Transition
from .ppo import PPOTrainer, TrainingHistory
from .ppg import PPGTrainer
from .iq_ppo import IQPPOTrainer
from .gain import GainModel, build_gain_matrix, compute_scheduling_gains
from .clustering import QueryClusters, cluster_queries
from ..perf import ConcurrentPredictionModel, SimulatorMetrics
from .bqsched import BQSched, LSchedScheduler, RLSchedulerBase

__all__ = [
    "SchedulingResult",
    "StrategyEvaluation",
    "ExternalKnowledge",
    "AdaptiveMask",
    "SchedulingEnv",
    "cluster_instance_count",
    "drive_service",
    "SchedulingSession",
    "SessionBackend",
    "StepResult",
    "VectorSchedulingEnv",
    "BaseScheduler",
    "FIFOScheduler",
    "MCFScheduler",
    "RandomScheduler",
    "RoundRobinPlacementScheduler",
    "LeastOutstandingWorkScheduler",
    "GreedyCostPlacementScheduler",
    "ActorCriticNetwork",
    "PolicyDecision",
    "RolloutBuffer",
    "Transition",
    "PPOTrainer",
    "TrainingHistory",
    "PPGTrainer",
    "IQPPOTrainer",
    "GainModel",
    "build_gain_matrix",
    "compute_scheduling_gains",
    "QueryClusters",
    "cluster_queries",
    "ConcurrentPredictionModel",
    "SimulatorMetrics",
    "BQSched",
    "LSchedScheduler",
    "RLSchedulerBase",
]
