"""Configuration dataclasses for every component of the reproduction.

Every setting a caller may choose is grouped into small dataclasses so
experiments can be described declaratively (the benchmark harness builds
these from per-figure presets); a value the paper fixes is a constant where
it is used, not a field.  Each dataclass validates itself on construction
and raises :class:`repro.exceptions.ConfigurationError` for out-of-range
values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .seeding import SeedSpawner

__all__ = [
    "TIME_SCALE",
    "EncoderConfig",
    "PPOConfig",
    "SchedulerConfig",
    "SimulatorConfig",
    "ClusteringConfig",
    "RetryPolicy",
    "AdmissionPolicy",
    "AutoscalePolicy",
    "BQSchedConfig",
]


#: Growth of :class:`RetryPolicy`'s backoff per consumed attempt.
BACKOFF_FACTOR = 2.0

#: Normalisation scale (seconds) of every time-valued feature and prediction:
#: the run-state rows' ``tanh(t / TIME_SCALE)``, the simulator's rows and
#: targets, and IQ-PPO's auxiliary completion-time targets.
TIME_SCALE = 10.0


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


@dataclass
class EncoderConfig:
    """Hyper-parameters of the QueryFormer plan encoder and the state encoder.

    Attributes
    ----------
    plan_embedding_dim:
        Output width of the QueryFormer plan embedding ``e_i``.
    node_hidden_dim:
        Width of node features inside the tree Transformer.
    tree_heads / tree_layers:
        Multi-head attention configuration of the tree Transformer.
    state_dim:
        Width of per-query tokens ``x_i`` fed to the batch-level attention.
    state_heads / state_layers:
        Multi-head attention configuration of the batch-level encoder.

    Both attention stacks normalise with the paper's per-state batch norm;
    layer norm is the learned simulator's, not a policy option.  The depth
    ``m`` of the per-query MLP is ``repro.encoder.state.MLP_LAYERS`` and the
    deepest plan tree the height encoding tells apart is
    ``repro.encoder.queryformer.MAX_HEIGHT``: the paper fixes both.
    """

    plan_embedding_dim: int = 32
    node_hidden_dim: int = 32
    tree_heads: int = 4
    tree_layers: int = 2
    state_dim: int = 48
    state_heads: int = 4
    state_layers: int = 2

    def __post_init__(self) -> None:
        _require(self.plan_embedding_dim > 0, "plan_embedding_dim must be positive")
        _require(self.node_hidden_dim > 0 and self.state_dim > 0, "node_hidden_dim and state_dim must be positive")
        _require(self.tree_heads >= 1 and self.state_heads >= 1, "attention stacks need >= 1 head")
        _require(self.node_hidden_dim % self.tree_heads == 0, "node_hidden_dim must divide tree_heads")
        _require(self.state_dim % self.state_heads == 0, "state_dim must divide state_heads")
        _require(self.tree_layers >= 1 and self.state_layers >= 1, "attention stacks need >= 1 layer")


@dataclass
class PPOConfig:
    """Hyper-parameters shared by PPO, PPG and IQ-PPO.

    ``aux_every`` is the number of PPO iterations between auxiliary phases
    (``N_ppo`` in Algorithm 1).  The settings the paper fixes are constants
    where they are used: the clipped objective's ``CLIP_EPSILON``,
    ``VALUE_COEF``, ``ENTROPY_COEF``, ``MAX_GRAD_NORM`` and ``LEARNING_RATE``
    and the auxiliary phases' ``AUX_EPOCHS`` and behaviour-cloning weight
    ``BETA_CLONE`` in :mod:`repro.core.ppo`, and GAE's gamma and lambda as
    :class:`~repro.core.rollout.RolloutBuffer`'s defaults.

    ``epochs_per_update`` is the number of optimizer steps of one ``update()``,
    each on *one* freshly sampled minibatch of at most ``minibatch_size``
    transitions (``RolloutBuffer.sample``), not a pass over the buffer: at the
    defaults an update draws 4 x 64 of the 396 transitions four 99-query
    rollouts hold.

    ``num_envs`` is the width of the rollout: episodes are collected from
    that many lockstep environments (the trainer's own plus ``num_envs - 1``
    clones), driven by one batched policy forward per decision round.  Any
    width is seed-for-seed reproducible; ``1`` (default) visits one episode
    at a time, which is what fine-tuning on the real DBMS wants.  The facade's
    *simulator pre-training* collects from at least 4 lockstep environments
    (capped by ``rollouts_per_update``) whatever this is set to, since
    simulated steps cost nothing on the DBMS; direct ``PPOTrainer`` use
    honours ``num_envs`` exactly.
    """

    epochs_per_update: int = 4
    minibatch_size: int = 64
    rollouts_per_update: int = 4
    num_envs: int = 1
    aux_every: int = 10

    def __post_init__(self) -> None:
        _require(self.epochs_per_update >= 1, "epochs_per_update must be >= 1")
        _require(self.minibatch_size >= 1, "minibatch_size must be >= 1")
        _require(self.rollouts_per_update >= 1, "rollouts_per_update must be >= 1")
        _require(self.num_envs >= 1, "num_envs must be >= 1")
        _require(self.aux_every >= 1, "aux_every must be >= 1")


@dataclass
class ClusteringConfig:
    """Scheduling-gain based query clustering (Section IV-B).

    Whether a scheduler clusters at all is its ``use_clustering`` arm, not a
    field here: ``BQSched`` switches it on for batches of more than 150
    queries.  Members within a cluster are always released
    most-costly-first (MCF) by the knowledge base's average times; there is
    no intra-cluster order to choose.  The gain model's width is
    :data:`repro.core.gain.GAIN_HIDDEN`.
    """

    num_clusters: int = 100

    def __post_init__(self) -> None:
        _require(self.num_clusters >= 1, "num_clusters must be >= 1")


@dataclass
class SimulatorConfig:
    """Learned incremental simulator (Section IV-C).

    Every fit steps Adam at ``repro.perf.fit.LEARNING_RATE``; an online
    update runs ``repro.perf.perfmodel.INCREMENTAL_EPOCHS`` passes.
    """

    hidden_dim: int = 48
    epochs: int = 20
    gamma_regression: float = 0.1
    use_attention: bool = True
    use_multitask: bool = True

    def __post_init__(self) -> None:
        _require(self.hidden_dim > 0, "hidden_dim must be positive")
        _require(self.epochs >= 1, "epochs must be >= 1")
        _require(self.gamma_regression >= 0, "gamma_regression must be >= 0")


@dataclass
class SchedulerConfig:
    """Scheduling-problem level settings.

    ``num_connections`` is ``|C|``.  The running-parameter configurations
    ``R`` are fixed: :class:`~repro.dbms.params.ConfigurationSpace` crosses
    ``repro.dbms.params.WORKER_OPTIONS`` with ``MEMORY_OPTIONS``.
    """

    num_connections: int = 6

    def __post_init__(self) -> None:
        _require(self.num_connections >= 1, "num_connections must be >= 1")


@dataclass(frozen=True)
class RetryPolicy:
    """How the event-driven runtime reacts to failed query attempts.

    A query attempt can die three ways: the engine errors out, the runtime's
    straggler ``timeout`` kills it, or its instance goes down mid-flight.
    Errors and timeouts consume one of ``max_attempts`` submissions and are
    retried after an exponential backoff (``backoff * BACKOFF_FACTOR**(k-1)``
    seconds after the ``k``-th failure); once the budget is exhausted the
    query is marked terminally failed so the round can still drain.  Outage
    kills are requeued immediately and never consume an attempt — the query
    did nothing wrong, its instance did.

    ``timeout`` (seconds per attempt, ``None`` disables) is the
    kill-and-requeue defence against stragglers/hangs: a fresh attempt on a
    healthy connection is usually cheaper than waiting out a hung one.
    """

    max_attempts: int = 3
    backoff: float = 0.5
    timeout: float | None = None

    def __post_init__(self) -> None:
        _require(self.max_attempts >= 1, "max_attempts must be >= 1")
        _require(self.backoff >= 0, "backoff must be >= 0")
        _require(self.timeout is None or self.timeout > 0, "timeout must be positive (or None)")

    def delay_for(self, failed_attempt: int) -> float:
        """Backoff delay after the ``failed_attempt``-th failed submission."""
        _require(failed_attempt >= 1, "failed_attempt must be >= 1")
        return self.backoff * BACKOFF_FACTOR ** (failed_attempt - 1)


@dataclass(frozen=True)
class AdmissionPolicy:
    """Token-bucket admission control for the serving control plane.

    Every open (non-time-zero) arrival asks the
    :class:`~repro.runtime.controlplane.AdmissionController` for a token.
    The bucket holds at most ``burst`` tokens and refills continuously at
    ``rate`` tokens per second of simulated time; an arrival that finds the
    bucket empty is *shed* — marked failed immediately so the round still
    drains, and recorded in the per-tenant shed ledger.

    ``exempt_priority`` protects important traffic: arrivals from tenant
    classes with ``priority >= exempt_priority`` bypass the bucket and are
    always admitted.  ``None`` exempts nobody.
    """

    rate: float = 8.0
    burst: float = 16.0
    exempt_priority: float | None = None

    def __post_init__(self) -> None:
        _require(self.rate > 0, "admission rate must be positive")
        _require(self.burst >= 1, "admission burst must be >= 1")


@dataclass(frozen=True)
class AutoscalePolicy:
    """Elastic fleet sizing for the serving control plane.

    The :class:`~repro.runtime.controlplane.FleetController` watches the
    runtime backlog and parks/unparks cluster instances mid-service:
    a scale-down is a planned outage (the instance's running queries are
    killed and requeued exactly like an
    :class:`~repro.dbms.OutageWindow` hit, consuming no retry budget), a
    scale-up is a recovery wakeup (the instance's connections rejoin the
    idle pool immediately).

    Scaling triggers on backlog per *up* instance: above
    ``target_backlog`` an instance is unparked, below ``low_water`` one is
    parked, never leaving fewer than
    :attr:`~repro.runtime.controlplane.FleetController.MIN_INSTANCES` up;
    :attr:`~repro.runtime.controlplane.FleetController.COOLDOWN` seconds of
    simulated time pass between scale events so the fleet does not thrash.
    ``initial_instances`` starts the round with only that many instances up
    (``None`` starts the full fleet).
    """

    target_backlog: float = 8.0
    low_water: float = 2.0
    initial_instances: int | None = None

    def __post_init__(self) -> None:
        _require(self.target_backlog > 0, "target_backlog must be positive")
        _require(0 <= self.low_water < self.target_backlog,
                 "low_water must be in [0, target_backlog)")
        _require(
            self.initial_instances is None or self.initial_instances >= 1,
            "initial_instances must be >= 1 (or None)",
        )


@dataclass
class BQSchedConfig:
    """Top-level configuration aggregating every component."""

    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    ppo: PPOConfig = field(default_factory=PPOConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    clustering: ClusteringConfig = field(default_factory=ClusteringConfig)
    simulator: SimulatorConfig = field(default_factory=SimulatorConfig)
    seed: int = 0

    def seed_spawner(self) -> "SeedSpawner":
        """Root of the experiment's deterministic entropy tree.

        Every stochastic component (engines, cluster instances, simulator,
        arrival processes, rollout sampling) derives its generator from this
        spawner, so identical configs reproduce identical results on the
        env, vec-env and runtime paths (see :mod:`repro.seeding`).
        """
        from .seeding import SeedSpawner

        return SeedSpawner(self.seed)

    @classmethod
    def small(cls, seed: int = 0) -> "BQSchedConfig":
        """A reduced-size configuration used by tests and CI-scale benchmarks."""
        return cls(
            encoder=EncoderConfig(
                plan_embedding_dim=16,
                node_hidden_dim=16,
                tree_heads=2,
                tree_layers=1,
                state_dim=24,
                state_heads=2,
                state_layers=1,
            ),
            ppo=PPOConfig(rollouts_per_update=2, epochs_per_update=2, minibatch_size=32, aux_every=4),
            scheduler=SchedulerConfig(num_connections=4),
            simulator=SimulatorConfig(hidden_dim=24, epochs=5),
            seed=seed,
        )
