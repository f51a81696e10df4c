"""The BQSched facade and the adapted LSched baseline.

:class:`BQSched` wires every component of the paper together behind a small
API:

1. build the QueryFormer plan embeddings and the external knowledge
   (isolated-probe execution times per configuration);
2. :meth:`prepare` — run ``history_rounds`` fault-free historical rounds
   against the DBMS (the one place that count is set; :meth:`train` prepares
   with the default when nothing did), refresh the knowledge and derive the
   scheduling-gain clusters (for large query sets) from their logs;
3. :meth:`train` — fit the learned simulator on those logs and pre-train the
   IQ-PPO policy against it, then fine-tune it against the real DBMS,
   validating candidates on it (with no pre-training updates nothing is
   fitted; with no updates at all nothing is validated either);
4. :meth:`schedule` / :meth:`evaluate` — run the learned policy greedily
   (:meth:`evaluate_on` does so on another workload or fleet: one env built
   from that batch's context, then :meth:`evaluate`);
5. :meth:`serve` — run the policy as a continuous event-driven scheduler
   over multi-tenant, streaming-arrival rounds on a shared engine.  Its
   arguments are the service's only settings: arrivals and faults enter the
   round through the :class:`~repro.runtime.ExecutionRuntime` it opens,
   never through the config or the engine.

The facade accepts either a single :class:`~repro.dbms.DatabaseEngine` or a
:class:`~repro.dbms.Cluster` of heterogeneous instances: on a cluster the
action space (and the policy's placement-aware head) widens to joint
(query, instance, configuration) choices (a single engine is the fleet of one
instance every :class:`~repro.core.env.SchedulingEnv` reduces to).  Simulator
pre-training and gain clustering work on fleets too: :meth:`train` fits
one :class:`~repro.perf.PerformanceModel` from instance-tagged logs and
pre-trains against its fault-free :class:`~repro.perf.SimulatedCluster` twin,
so fleet policies reach a target makespan with far fewer real-cluster
episodes.

:class:`LSchedScheduler` is the paper's adapted baseline: the same state
representation but plain PPO, no adaptive masking, no clustering and no
simulator pre-training.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from ..config import AdmissionPolicy, AutoscalePolicy, BQSchedConfig, RetryPolicy
from ..dbms import Cluster, ConfigurationSpace, DatabaseEngine, ExecutionLog, FailureProfile, INSTANCE_FEATURE_DIM
from ..encoder import PlanEmbeddingCache, QueryFormer, RunStateFeaturizer, SnapshotArrays, StateEncoder
from ..exceptions import SchedulingError
from ..nn import fastgrad
from ..perf import PerformanceModel, SimulatedCluster
from ..plans import PlanFeaturizer
from ..runtime import ControlPlane, ExecutionRuntime, ServiceReport, TenantClass
from ..workloads import ArrivalProcess, BatchQuerySet, ClosedArrivals, Workload, make_arrival_process
from .baselines import BaseScheduler
from .clustering import QueryClusters, cluster_queries
from .env import SchedulingEnv, cluster_instance_count, drive_service
from .gain import build_gain_matrix
from .iq_ppo import IQPPOTrainer
from .knowledge import ExternalKnowledge
from .masking import AdaptiveMask
from .policy import DECISION_KERNEL, ActorCriticNetwork
from .ppg import PPGTrainer
from .ppo import PPOTrainer, TrainingHistory
from .types import SchedulingResult, StrategyEvaluation

__all__ = ["RLSchedulerBase", "BQSched", "LSchedScheduler"]

_ALGORITHMS = {"ppo": PPOTrainer, "ppg": PPGTrainer, "iq-ppo": IQPPOTrainer}

#: Simulator pre-training steps cost nothing on the real DBMS, so it collects
#: from at least this many lockstep envs (capped by the per-update episode
#: budget: extra envs beyond that would never start an episode).
_PRETRAIN_NUM_ENVS = 4

#: First round id of :meth:`RLSchedulerBase.evaluate_on`'s rounds.
EVALUATE_ON_BASE_ROUND_ID = 70_000


class RLSchedulerBase(BaseScheduler):
    """Shared machinery of the RL-based schedulers (BQSched and LSched)."""

    name = "RL"
    algorithm = "ppo"
    use_masking = False
    use_clustering = False
    use_simulator = False
    use_attention_state = True

    def __init__(
        self,
        workload: Workload,
        engine: "DatabaseEngine | Cluster",
        config: BQSchedConfig | None = None,
    ) -> None:
        self.workload = workload
        self.engine = engine
        self.config = config or BQSchedConfig()
        self.batch: BatchQuerySet = workload.batch_query_set()
        self.seeds = self.config.seed_spawner()
        self.rng = self.seeds.generator()

        # A Cluster backend switches the action space to joint
        # (query, instance, configuration) choices; the policy heads widen
        # accordingly, as does every environment's action space.
        # The learned simulator and gain clustering work on fleets too: the
        # performance model trains per instance from instance-tagged logs and
        # pre-training runs against a SimulatedCluster twin of the fleet.
        self.num_instances = engine.num_instances if isinstance(engine, Cluster) else 1

        self.config_space = ConfigurationSpace()
        featurizer = PlanFeaturizer(workload.catalog)
        self.queryformer = QueryFormer(featurizer, self.config.encoder, self.rng)
        self.plan_embeddings, self.knowledge, self.mask = self._batch_context(self.batch, engine)
        self.clusters: QueryClusters | None = None
        #: The fitted simulator behind :attr:`simulator` / :attr:`perf_model`,
        #: built on first read after :meth:`prepare` (which clears it).
        self._simulator: SimulatedCluster | None = None
        self.history_log = ExecutionLog()

        run_featurizer = RunStateFeaturizer(
            num_configs=self.num_instances * len(self.config_space),
            instance_context_dim=(
                self.num_instances * INSTANCE_FEATURE_DIM if isinstance(engine, Cluster) else 0
            ),
        )
        self.state_encoder = StateEncoder(
            plan_embedding_dim=self.config.encoder.plan_embedding_dim,
            run_state_featurizer=run_featurizer,
            config=self.config.encoder,
            rng=self.rng,
            use_attention=self.use_attention_state,
        )
        self.policy = ActorCriticNetwork(
            state_encoder=self.state_encoder,
            num_configs=self.num_instances * len(self.config_space),
            rng=self.rng,
        )
        self.env = self._build_env(backend=self.engine)
        #: The decision kernel every sampling forward runs (a plain attribute
        #: the performance ledger reads; not a knob).
        self.inference_backend = DECISION_KERNEL
        self.trainer: PPOTrainer | None = None
        #: One pool for the update temporaries of every trainer this scheduler
        #: builds: the pre-trainer and the fine-tune trainer run one after the
        #: other over the same minibatch shapes.  ``train()`` empties it.
        self._update_arena = fastgrad.Arena()
        self.timings: dict[str, float] = {}
        self._prepared = False

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def _batch_context(
        self, batch: BatchQuerySet, engine: "DatabaseEngine | Cluster"
    ) -> tuple[np.ndarray, ExternalKnowledge, AdaptiveMask]:
        """A batch's plan embeddings, probe knowledge and adaptive mask on ``engine``."""
        plan_embeddings = PlanEmbeddingCache(self.queryformer).embeddings_for(batch)
        knowledge = ExternalKnowledge.from_probes(engine, batch, self.config_space)
        mask = (
            AdaptiveMask.build(batch, knowledge, self.config_space)
            if self.use_masking
            else AdaptiveMask.unmasked(len(batch), len(self.config_space))
        )
        return plan_embeddings, knowledge, mask

    def _build_env(self, backend, **overrides) -> SchedulingEnv:
        """The one place an environment is built.  ``overrides`` replace the
        scheduler's own components (another batch with its plan embeddings,
        knowledge and mask, a strategy label)."""
        components = dict(
            batch=self.batch,
            plan_embeddings=self.plan_embeddings,
            scheduler_config=self.config.scheduler,
            config_space=self.config_space,
            knowledge=self.knowledge,
            mask=self.mask,
            clusters=self.clusters,
            strategy_name=self.name,
        )
        components.update(overrides)
        return SchedulingEnv(backend=backend, **components)

    def _make_trainer(self, env: SchedulingEnv, num_envs: int | None = None) -> PPOTrainer:
        trainer_cls = _ALGORITHMS[self.algorithm]
        ppo_config = self.config.ppo
        if num_envs is not None and num_envs != ppo_config.num_envs:
            ppo_config = replace(ppo_config, num_envs=num_envs)
        return trainer_cls(
            policy=self.policy,
            env=env,
            config=ppo_config,
            seed=self.config.seed,
            arena=self._update_arena,
        )

    # ------------------------------------------------------------------ #
    # Preparation: historical logs, knowledge refresh, clustering
    # ------------------------------------------------------------------ #
    def prepare(self, history_rounds: int = 3) -> "RLSchedulerBase":
        """Collect historical logs and build the log-derived components.

        The learned simulator is not fitted here but on the first read of
        :attr:`simulator` after this call, so a start that only fine-tunes or
        serves never fits it.
        """
        started = time.perf_counter()
        orders = []
        base_order = [q.query_id for q in self.batch]
        for round_index in range(history_rounds):
            order = list(base_order)
            shuffler = np.random.default_rng((self.config.seed, round_index))
            shuffler.shuffle(order)
            orders.append(order)
        log = self.engine.collect_logs(
            self.batch,
            orders,
            self.config_space.default,
            num_connections=self.config.scheduler.num_connections,
            strategy="history",
        )
        self.history_log.extend(log)
        self.knowledge.update_from_log(self.history_log)

        if self.use_clustering:
            gain_matrix = build_gain_matrix(
                self.history_log,
                self.batch,
                plan_embeddings=self.plan_embeddings,
                seed=self.config.seed,
            )
            num_clusters = min(self.config.clustering.num_clusters, len(self.batch))
            self.clusters = cluster_queries(self.batch, gain_matrix, num_clusters, knowledge=self.knowledge)
            self.env = self._build_env(backend=self.engine)

        # The log changed: the next read of ``simulator`` fits a fresh model.
        self._simulator = None
        self.timings["prepare"] = time.perf_counter() - started
        self._prepared = True
        return self

    @property
    def simulator(self) -> SimulatedCluster | None:
        """The pre-training backend: the simulated twin of the engine (a fleet
        of one) or of the fleet, over :attr:`perf_model`.  Its rounds open
        fault-free, like the history rounds the model is fitted on.

        ``None`` before :meth:`prepare` and on arms without the simulator.
        The first read after :meth:`prepare` fits the performance model on
        :attr:`history_log`; a start that never pre-trains never pays for it.
        """
        if self._simulator is None and self._prepared and self.use_simulator:
            # One performance model covers the engine or the whole fleet: on a
            # fleet, examples are reconstructed per instance from the
            # instance-tagged history log and every row carries the
            # instance-context channel.  A single engine is a fleet of one.
            fleet = isinstance(self.engine, Cluster)
            perf_model = PerformanceModel(
                batch=self.batch,
                plan_embeddings=self.plan_embeddings,
                knowledge=self.knowledge,
                config_space=self.config_space,
                config=self.config.simulator,
                seed=self.config.seed,
                instance_speeds=self.engine.speed_factors() if fleet else (),
            )
            perf_model.train_from_log(self.history_log)
            self._simulator = (
                SimulatedCluster.for_cluster(perf_model, self.engine)
                if fleet
                else SimulatedCluster(perf_model, [self.engine.profile.default_connections])
            )
        return self._simulator

    @property
    def perf_model(self) -> PerformanceModel | None:
        """The prediction stack behind :attr:`simulator` (and the learned cost
        estimates): ``simulator.perf``, fitted on the same first read."""
        simulator = self.simulator
        return simulator.perf if simulator is not None else None

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def train(
        self,
        num_updates: int = 10,
        pretrain_updates: int | None = None,
        keep_best: bool = True,
    ) -> TrainingHistory:
        """Train the policy (optionally pre-training against the simulator first).

        A scheduler not yet prepared runs :meth:`prepare` with its default
        history first; call :meth:`prepare` before to choose the history.
        ``pretrain_updates=None`` pre-trains for ``num_updates``.
        Pre-training (``pretrain_updates`` above 0 on an arm with the
        simulator) reads :attr:`simulator`, so the simulator fit, if not done
        yet, runs here and counts toward ``timings["pretrain"]``.

        Following Section IV-C, intermediate models are validated against the
        real DBMS and the best one is kept (``keep_best``), which is also what
        protects deployment from a late policy collapse.  A validation round
        exists only to choose between policies: the initialisation is
        validated only when pre-training or at least one fine-tuning update
        follows, so a start that trains nothing runs no DBMS round and leaves
        every parameter array as it was.  Without a fine-tuning update no
        fine-tune trainer is built either: :attr:`trainer` is then ``None``.
        """
        if not self._prepared:
            self.prepare()

        pretrain_updates = num_updates if pretrain_updates is None else pretrain_updates
        pretrain = self.use_simulator and pretrain_updates > 0
        if pretrain:
            # The first read of ``simulator`` fits the model.  Fitting after the
            # first validation instead left the trained policy's decisions ~5%
            # slower at n=99 in ledger pairs.  ``pretrain`` times the fit: a new
            # ``timings`` key would move the validation round ids.
            started = time.perf_counter()
            simulator = self.simulator
            fit_s = time.perf_counter() - started

        self._best_score = float("inf")
        self._best_state = None
        keep_best = keep_best and (pretrain or num_updates > 0)
        if keep_best:
            self._validate_and_keep_best()

        if pretrain:
            started = time.perf_counter()
            sim_env = self._build_env(backend=simulator)
            pretrain_envs = max(
                self.config.ppo.num_envs,
                min(_PRETRAIN_NUM_ENVS, self.config.ppo.rollouts_per_update),
            )
            # No name holds the pre-trainer: with the env deleted, its optimizer
            # slabs, simulated envs and rollouts are freed before fine-tuning.
            self._make_trainer(sim_env, num_envs=pretrain_envs).train(pretrain_updates)
            del sim_env
            self.timings["pretrain"] = fit_s + time.perf_counter() - started
            if keep_best:
                self._validate_and_keep_best()

        started = time.perf_counter()
        self.trainer = self._make_trainer(self.env) if num_updates > 0 else None
        checkpoint_every = max(1, num_updates // 3)
        history = TrainingHistory()
        for start in range(0, num_updates, checkpoint_every):
            chunk = min(checkpoint_every, num_updates - start)
            history = self.trainer.train(chunk)
            if keep_best:
                self._validate_and_keep_best()
        self.timings["finetune"] = time.perf_counter() - started
        self.timings["train_total"] = self.timings.get("pretrain", 0.0) + self.timings["finetune"]

        if keep_best and self._best_state is not None:
            # load_state_dict copies, so the snapshot is only a second copy now.
            self.policy.load_state_dict(self._best_state)
            self._best_state = None
        # The update buffers are sized for training; a later update refills them.
        self._update_arena.clear()
        return history

    def _validate_and_keep_best(self) -> float:
        """Run a greedy validation round on the real DBMS and snapshot the best policy."""
        evaluation = self.evaluate(self.env, rounds=1, base_round_id=90_000 + len(self.timings))
        if evaluation.mean < self._best_score:
            self._best_score = evaluation.mean
            self._best_state = self.policy.state_dict()
        return evaluation.mean

    # ------------------------------------------------------------------ #
    # Scheduling with the learned policy
    # ------------------------------------------------------------------ #
    def select_action(self, env: SchedulingEnv, snapshot: SnapshotArrays) -> int:
        """Greedy action from the learned policy (BaseScheduler interface)."""
        return self.policy.greedy_action(env.plan_embeddings, snapshot, env.action_mask(), clusters=env.clusters)

    def schedule(self, round_id: int | None = None) -> SchedulingResult:
        """Run one greedy scheduling round on the real DBMS."""
        return self.run_round(self.env, round_id=round_id)

    def evaluate_policy(self, rounds: int = 5, base_round_id: int = 50_000) -> StrategyEvaluation:
        """Efficiency / stability of the learned policy over ``rounds`` rounds."""
        return self.evaluate(self.env, rounds=rounds, base_round_id=base_round_id)

    def evaluate_on(
        self,
        workload: Workload,
        engine: "DatabaseEngine | Cluster | None" = None,
        rounds: int = 3,
    ) -> StrategyEvaluation:
        """Apply the already-trained policy to a *different* workload or fleet.

        This is the paper's adaptability experiment (Table II): the policy is
        trained on one data/query scale and evaluated, without retraining, on
        a perturbed workload.  Plan embeddings, external knowledge and the
        adaptive mask are rebuilt for the new batch (:meth:`_batch_context`)
        into one env, which :meth:`evaluate` runs; the policy network is
        reused as-is (the attention-based state supports variable batch
        sizes).  In the cluster setting ``engine`` may be a *different*
        fleet — the cross-configuration scenario: trained on a homogeneous
        cluster, evaluated on a skewed one — as long as the instance count
        matches the policy's placement head.
        """
        engine = engine or self.engine
        if not hasattr(engine, "estimate_isolated_time"):
            raise SchedulingError(
                "evaluate_on rebuilds knowledge from isolated probes and needs a "
                "probe-capable backend (DatabaseEngine or Cluster), not "
                f"{type(engine).__name__}"
            )
        instances = cluster_instance_count(engine) or 1
        if instances != self.num_instances:
            raise SchedulingError(
                f"policy places across {self.num_instances} instances but the evaluation "
                f"backend has {instances}"
            )
        batch = workload.batch_query_set()
        plan_embeddings, knowledge, mask = self._batch_context(batch, engine)
        env = self._build_env(
            engine, batch=batch, plan_embeddings=plan_embeddings, knowledge=knowledge, mask=mask, clusters=None
        )
        return self.evaluate(env, rounds=rounds, base_round_id=EVALUATE_ON_BASE_ROUND_ID)

    # ------------------------------------------------------------------ #
    # Event-driven serving
    # ------------------------------------------------------------------ #
    def serve(
        self,
        num_tenants: int = 2,
        arrivals: "ArrivalProcess | str | None" = None,
        round_id: int = 80_000,
        faults: "FailureProfile | None" = None,
        retry: "RetryPolicy | None" = None,
        tenant_classes: "tuple[TenantClass, ...] | list[TenantClass] | None" = None,
        admission: "AdmissionPolicy | None" = None,
        autoscale: "AutoscalePolicy | None" = None,
    ) -> ServiceReport:
        """Run the trained policy as a continuous scheduler over a shared round.

        ``num_tenants`` independent instances of the batch are registered as
        tenants of one :class:`~repro.runtime.ExecutionRuntime` on the real
        engine, each optionally opened into a stream by ``arrivals`` (an
        :class:`~repro.workloads.ArrivalProcess`, or a process name that
        :func:`~repro.workloads.make_arrival_process` builds at its default
        rate and burst size; ``None`` keeps every batch closed).  Each tenant
        runs ``config.scheduler.num_connections`` connections (per instance
        on a fleet), the width :meth:`schedule` and training use too.  The
        round opens as ``round_id``.  The loop is event-driven: at every completion
        or arrival event, every tenant that can decide submits its next query
        (policy runs greedily) before the clock moves again.  Returns
        per-tenant makespans and latency percentiles.

        ``faults`` is the served round's :class:`~repro.dbms.FailureProfile`
        (the runtime passes it to the engine's ``new_session``; engines and
        fleets hold none of their own), and ``retry`` turns on the runtime's
        failure handling — exponential
        backoff re-arrivals, straggler timeout kills, terminal failure once
        the attempt budget is spent.  Instance outages are always requeued,
        retry policy or not.  The report then carries the failure ledger
        (``num_failed`` / ``num_retries`` / ``num_timeouts`` / goodput).

        The production control plane is opt-in through three further knobs,
        each checked where it lands (:meth:`ExecutionRuntime.register
        <repro.runtime.ExecutionRuntime.register>` and
        :class:`~repro.runtime.ControlPlane`): ``tenant_classes`` assigns
        tenant ``i`` the class ``tenant_classes[i % len(tenant_classes)]``
        (priority, latency SLO, retry deadline — the report then rolls SLO
        attainment up per class); ``admission`` puts a token-bucket
        :class:`~repro.runtime.AdmissionController` in front of streaming
        arrivals, shedding load the bucket refuses; ``autoscale`` runs an
        elastic-fleet :class:`~repro.runtime.FleetController` that parks and
        unparks engine instances against the backlog (requires a
        :class:`~repro.dbms.Cluster` backend — parking the only engine would
        wedge the round).  With all three unset, serving is bit-identical to
        the pre-control-plane tree.
        """
        if self.clusters is not None:
            raise SchedulingError(
                "serve() schedules at query level, but this policy was trained over "
                "gain-clustered (cluster, configuration) actions; set use_clustering = False "
                "before prepare() to serve"
            )
        if num_tenants < 1:
            raise SchedulingError("num_tenants must be >= 1")
        if isinstance(arrivals, str):
            arrivals = make_arrival_process(arrivals)
        if isinstance(arrivals, ClosedArrivals):
            arrivals = None
        if autoscale is not None and cluster_instance_count(self.engine) is None:
            raise SchedulingError(
                "autoscaling parks and unparks engine instances, which needs a "
                "Cluster backend; a single engine has nothing to scale"
            )

        control = ControlPlane(retry=retry, admission=admission, autoscale=autoscale)
        runtime = ExecutionRuntime(self.engine, faults=faults, control=control)
        envs = []
        classes = tuple(tenant_classes) if tenant_classes else ()
        for index in range(num_tenants):
            tenant_class = classes[index % len(classes)] if classes else None
            tenant = runtime.register(
                f"tenant-{index}", self.batch, arrivals=arrivals, tenant_class=tenant_class
            )
            envs.append(self._build_env(tenant, strategy_name=f"{self.name}/serve"))
        for env in envs:
            env.reset(round_id=round_id)
        drive_service(runtime, envs, lambda env: self.select_action(env, env.snapshot()))
        return ServiceReport.from_runtime(runtime, strategy=self.name)

    # ------------------------------------------------------------------ #
    # Online adaptation
    # ------------------------------------------------------------------ #
    def ingest_online_log(self, log: ExecutionLog) -> None:
        """Feed freshly collected logs back into the knowledge base and simulator.

        The continual-adaptation loop of Section IV-C, fleet-capable: the
        knowledge base refreshes its per-query expectations and the
        performance model fine-tunes incrementally — on clusters the
        instance-tagged records route into per-instance concurrency examples,
        so each engine instance's dynamics keep tracking reality during
        :meth:`serve`.
        """
        # Read first: a model not fitted yet fits on the log and knowledge as
        # they stood before this batch, then takes it as an update.
        perf_model = self.perf_model
        self.history_log.extend(log)
        self.knowledge.update_from_log(log)
        if perf_model is not None:
            perf_model.update_from_log(log)


class BQSched(RLSchedulerBase):
    """The full system: IQ-PPO + adaptive masking + clustering + simulator."""

    name = "BQSched"
    algorithm = "iq-ppo"
    use_masking = True
    use_simulator = True
    use_attention_state = True

    def __init__(
        self,
        workload: Workload,
        engine: "DatabaseEngine | Cluster",
        config: BQSchedConfig | None = None,
    ) -> None:
        # Cluster-level scheduling is only worthwhile for large query sets.
        # Like every ablation arm it is an attribute, so the caller's config
        # is left as it was passed.
        self.use_clustering = workload.num_queries > 150
        super().__init__(workload, engine, config)


class LSchedScheduler(RLSchedulerBase):
    """LSched adapted to non-intrusive batch scheduling (the paper's RL baseline)."""

    name = "LSched"
    algorithm = "ppo"
    use_masking = False
    use_clustering = False
    use_simulator = False
    use_attention_state = True
