"""Span tracer of the performance ledger.

The ledger records spans *from its own files*: ``Tracer.patch`` looks a
layer's public function up by name, replaces it with a timing wrapper for the
traced run and puts the original object back afterwards.  Nothing under
``src/`` knows about it, and a target that a later PR renames or deletes is
listed in ``Tracer.missing`` instead of failing the run.

A span's *self time* is its duration minus the durations of the spans opened
directly inside it, so the self times of all spans add up to the wall the
outermost spans covered and a layer is never charged for the layers it calls.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time
from typing import Any, Callable

#: Raw span records kept for ``trace_<workload>.json``; aggregates cover every span.
MAX_RAW_SPANS = 20_000


class Tracer:
    """In-memory span recorder with wrap-and-restore patching."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter, max_raw: int = MAX_RAW_SPANS) -> None:
        self._clock = clock
        self._max_raw = max_raw
        self._ids = itertools.count(1)
        #: Open spans, innermost last: ``[start, child_seconds, span_id, request_id, name]``.
        self._stack: list[list] = []
        #: ``name -> [calls, self_seconds, outermost_calls]``; a call is
        #: outermost when its parent span has another name (``ClusterSession.submit``
        #: calls ``ExecutionSession.submit``: two ``dbms.submit`` spans, one submission).
        self._agg: dict[str, list] = {}
        #: ``(name, start, end, span_id, parent_id, request_id)`` of the first ``max_raw`` spans.
        self.raw: list[tuple] = []
        self.missing: list[str] = []
        self.counts: dict[str, float] = {}
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def wrap(
        self,
        name: str,
        fn: Callable,
        request_root: bool = False,
        after: "Callable[[Any], None] | None" = None,
    ) -> Callable:
        """Return ``fn`` wrapped in a span called ``name``.

        A ``request_root`` span opens a new request id unless one is already
        open, so every span of one decision (or one ``train()`` call) carries
        the same id.  ``after`` sees the return value: counts are taken at the
        same boundary as the time.
        """
        agg = self._agg.setdefault(name, [0, 0.0, 0])
        stack, clock, ids, raw, max_raw = self._stack, self._clock, self._ids, self.raw, self._max_raw

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            request = parent[3] if parent is not None else 0
            if request_root and not request:
                request = span_id
            frame = [clock(), 0.0, span_id, request, name]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                agg[0] += 1
                agg[1] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if parent is None or parent[4] != name:
                    agg[2] += 1
                if len(raw) < max_raw:
                    raw.append((name, frame[0], end, span_id, parent[2] if parent is not None else 0, request))
            if after is not None:
                after(result)
            return result

        return traced

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def calls(self, name: str) -> int:
        return self._agg.get(name, (0, 0.0, 0))[0]

    def self_seconds(self, name: str) -> float:
        return self._agg.get(name, (0, 0.0, 0))[1]

    def outermost_calls(self, name: str) -> int:
        return self._agg.get(name, (0, 0.0, 0))[2]

    def names(self) -> list[str]:
        return sorted(self._agg)

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #
    def patch(
        self,
        name: str,
        module: str,
        path: str,
        request_root: bool = False,
        after: "Callable[[Any], None] | None" = None,
    ) -> bool:
        """Wrap ``module:path`` (``function`` or ``Class.method``) in a span.

        Only the class that *defines* a method is patched, so a subclass
        override needs its own entry.  Module-level functions are also
        replaced wherever another ``repro`` module re-exported the same
        object (``from .gain import build_gain_matrix``).
        """
        label = f"{module}:{path}"
        self._agg.setdefault(name, [0, 0.0, 0])
        try:
            owner: Any = importlib.import_module(module)
        except ImportError:
            self.missing.append(label)
            return False
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
            if owner is None:
                self.missing.append(label)
                return False
        return self._patch_attr(name, owner, attr, label, request_root, after)

    def patch_methods_of(self, name: str, obj: Any, methods: "tuple[str, ...]") -> None:
        """Wrap ``methods`` on whichever class in ``type(obj)``'s MRO defines each."""
        for attr in methods:
            owner = next((cls for cls in type(obj).__mro__ if attr in vars(cls)), None)
            label = f"{type(obj).__module__}:{type(obj).__qualname__}.{attr}"
            if owner is None or owner is object:
                self._agg.setdefault(name, [0, 0.0, 0])
                self.missing.append(label)
            else:
                self._patch_attr(name, owner, attr, label, False, None)

    def _patch_attr(self, name: str, owner: Any, attr: str, label: str, request_root: bool, after) -> bool:
        raw = vars(owner).get(attr)
        if any(o is owner and a == attr for o, a, _ in self._patches):
            return True
        if isinstance(raw, (staticmethod, classmethod)):
            replacement: Any = type(raw)(self.wrap(name, raw.__func__, request_root, after))
        elif callable(raw) and not isinstance(raw, type):
            replacement = self.wrap(name, raw, request_root, after)
        else:
            self.missing.append(label)
            return False
        holders = [(owner, attr)]
        if not isinstance(owner, type):
            holders += [
                (mod, key)
                for mod_name, mod in list(sys.modules.items())
                if mod is not owner and mod is not None and mod_name.split(".")[0] == "repro"
                for key, value in list(vars(mod).items())
                if value is raw
            ]
        for holder, key in holders:
            self._patches.append((holder, key, raw))
            setattr(holder, key, replacement)
        return True

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            holder, key, raw = self._patches.pop()
            setattr(holder, key, raw)

    # ------------------------------------------------------------------ #
    # Output
    # ------------------------------------------------------------------ #
    def document(self) -> dict:
        """The ``trace_<workload>.json`` payload."""
        return {
            "spans": {
                name: {"calls": calls, "self_s": self_s, "outermost_calls": outer}
                for name, (calls, self_s, outer) in sorted(self._agg.items())
            },
            "counts": dict(sorted(self.counts.items())),
            "missing_targets": list(self.missing),
            "raw_span_fields": ["name", "start_s", "end_s", "id", "parent", "request"],
            "raw_spans_truncated_at": self._max_raw,
            "raw_spans": self.raw,
        }


def _count_masked(tracer: Tracer) -> Callable[[Any], None]:
    def after(mask: Any) -> None:
        tracer.add("masking.mask_cells", float(mask.size))
        tracer.add("masking.masked_cells", float(mask.size - mask.sum()))

    return after


def _count_transitions(tracer: Tracer) -> Callable[[Any], None]:
    def after(buffer: Any) -> None:
        tracer.add("rollout.transitions", float(len(buffer.transitions())))

    return after


def _count_events(tracer: Tracer) -> Callable[[Any], None]:
    def after(event: Any) -> None:
        if event is not None:
            tracer.add("runtime.events", 1.0)

    return after


#: ``(span, module, path)``: every layer boundary the ledger attributes time
#: to.  Nothing called more than ~1e5 times per run is listed (no
#: ``Linear.__call__``): a wrapper costs about a microsecond.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("workloads.make_workload", "repro.workloads", "make_workload"),
    ("encoder.plan_embed", "repro.encoder", "PlanEmbeddingCache.embeddings_for"),
    ("knowledge.probe", "repro.core.knowledge", "ExternalKnowledge.from_probes"),
    ("knowledge.update", "repro.core.knowledge", "ExternalKnowledge.update_from_log"),
    ("masking.build", "repro.core.masking", "AdaptiveMask.build"),
    ("masking.action_mask", "repro.core.env", "SchedulingEnv.action_mask"),
    ("masking.action_mask", "repro.core.cluster_env", "ClusterSchedulingEnv.action_mask"),
    ("masking.action_mask", "repro.core.vecenv", "VectorSchedulingEnv.masks_for"),
    ("clustering.gain_fit", "repro.core.gain", "build_gain_matrix"),
    ("clustering.cluster", "repro.core.clustering", "cluster_queries"),
    ("dbms.collect_logs", "repro.dbms.engine", "DatabaseEngine.collect_logs"),
    ("dbms.collect_logs", "repro.dbms.cluster", "Cluster.collect_logs"),
    ("dbms.submit", "repro.dbms.engine", "ExecutionSession.submit"),
    ("dbms.submit", "repro.dbms.cluster", "ClusterSession.submit"),
    ("dbms.advance", "repro.dbms.engine", "ExecutionSession.advance"),
    ("dbms.advance", "repro.dbms.cluster", "ClusterSession.advance"),
    ("perf.fit", "repro.perf.perfmodel", "PerformanceModel.train_from_log"),
    ("perf.fit", "repro.perf.perfmodel", "PerformanceModel.update_from_log"),
    ("perf.sim_advance", "repro.core.simulator", "SimulatedSession.advance"),
    ("perf.sim_advance", "repro.core.simulator", "SimulatedSession.advance_features"),
    ("perf.sim_advance", "repro.core.simulator", "SimulatedSession.apply_advance"),
    ("perf.sim_advance", "repro.perf.simcluster", "SimulatedClusterSession.advance"),
    ("runtime.register", "repro.runtime.runtime", "ExecutionRuntime.register"),
    ("runtime.advance", "repro.runtime.runtime", "ExecutionRuntime.advance"),
    ("runtime.report", "repro.runtime.report", "ServiceReport.from_runtime"),
    ("controlplane.admit", "repro.runtime.controlplane", "ControlPlane.admit"),
    ("controlplane.retry", "repro.runtime.controlplane", "ControlPlane.decide_retry"),
    ("controlplane.autoscale", "repro.runtime.controlplane", "ControlPlane.autoscale"),
    ("env.reset", "repro.core.env", "SchedulingEnv.reset"),
    ("env.snapshot", "repro.core.env", "SchedulingEnv.snapshot"),
    ("env.step", "repro.core.env", "SchedulingEnv.step"),
    ("env.step", "repro.core.env", "SchedulingEnv.begin_step"),
    ("env.step", "repro.core.env", "SchedulingEnv.finish_step"),
    ("env.step_many", "repro.core.vecenv", "VectorSchedulingEnv.step_many"),
    ("encoder.featurize", "repro.encoder.run_state", "RunStateFeaturizer.featurize_snapshot"),
    ("encoder.featurize", "repro.encoder.run_state", "RunStateFeaturizer.featurize_arrays"),
    ("encoder.featurize", "repro.encoder.run_state", "RunStateFeaturizer.featurize_arrays_stack"),
    ("encoder.forward", "repro.encoder.state", "StateEncoder.forward"),
    ("encoder.forward", "repro.encoder.state", "StateEncoder.encode_batch"),
    ("encoder.forward", "repro.encoder.state", "StateEncoder.encode_batch_arrays"),
    ("policy.select_action", "repro.core.bqsched", "RLSchedulerBase.select_action"),
    ("policy.act", "repro.core.policy", "ActorCriticNetwork.act"),
    ("policy.act", "repro.core.policy", "ActorCriticNetwork.act_batch"),
    ("policy.evaluate", "repro.core.policy", "ActorCriticNetwork.evaluate_action"),
    ("policy.evaluate", "repro.core.policy", "ActorCriticNetwork.evaluate_actions_batch"),
    ("policy.evaluate", "repro.core.policy", "ActorCriticNetwork.evaluate_auxiliary"),
    ("policy.evaluate", "repro.core.policy", "ActorCriticNetwork.evaluate_auxiliary_batch"),
    ("rollout.collect", "repro.core.ppo", "PPOTrainer.collect_rollouts"),
    ("rollout.finish_episode", "repro.core.rollout", "RolloutBuffer.finish_episode"),
    ("rollout.sample", "repro.core.rollout", "RolloutBuffer.sample"),
    ("rollout.sample", "repro.core.rollout", "RolloutBuffer.sample_with_aux"),
    ("trainers.update", "repro.core.ppo", "PPOTrainer.update"),
    ("trainers.aux", "repro.core.ppo", "PPOTrainer.auxiliary_phase"),
    ("trainers.aux", "repro.core.ppg", "PPGTrainer.auxiliary_phase"),
    ("trainers.aux", "repro.core.iq_ppo", "IQPPOTrainer.auxiliary_phase"),
    ("trainers.validate", "repro.core.baselines", "BaseScheduler.evaluate"),
    ("nn.backward", "repro.nn.tensor", "Tensor.backward"),
    ("nn.optim_step", "repro.nn.optim", "Adam.step"),
    ("nn.optim_step", "repro.nn.optim", "SGD.step"),
    ("nn.clip_grad", "repro.nn.optim", "clip_grad_norm"),
)

#: Spans opened by the driver around its own facade calls; their self time is
#: the wall no layer span covers.
FACADE_SPANS = ("facade.setup", "facade.prepare", "facade.train", "facade.schedule", "facade.serve")

#: The hooks of the resolved ``InferenceBackend`` (patched on its class once the facade exists).
BACKEND_SPAN = "nn.backend_forward"
BACKEND_METHODS = ("encode_batch", "heads_batch", "scalar_forward")

SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys([t[0] for t in TARGETS] + [BACKEND_SPAN] + list(FACADE_SPANS)))

_REQUEST_ROOTS = {"policy.select_action"}
#: Counts taken where the work happens, keyed by target path (``masks_for``
#: stacks the per-env masks, so counting it too would count every cell twice).
_AFTER = {
    "SchedulingEnv.action_mask": _count_masked,
    "ClusterSchedulingEnv.action_mask": _count_masked,
    "PPOTrainer.collect_rollouts": _count_transitions,
    "ExecutionRuntime.advance": _count_events,
}


def install(tracer: Tracer) -> None:
    """Patch every live target of :data:`TARGETS`."""
    for name, module, path in TARGETS:
        after = _AFTER.get(path)
        tracer.patch(name, module, path, request_root=name in _REQUEST_ROOTS, after=after(tracer) if after else None)
