"""Pluggable inference backends for the sampling forward.

Action *sampling* (rollout collection, validation, greedy serving) never
differentiates, so the forward pass behind it is swappable: anything that
produces the same per-query/global representations and head outputs can
drive the policy.  An :class:`InferenceBackend` packages one such
implementation behind a small protocol, and a registry maps names
(``numpy-ref``, ``numpy-cached``, ``torch``) to factories so the choice
threads through configuration instead of code.  Every sampling forward —
one snapshot or a lock-step stack — runs the resolved backend's tape-free
float32 forward; there is no autograd inference path to fall back to.

The *learning* path (PPO/PPG updates, auxiliary phases) always runs the
autograd tensor forward and is never routed through a backend — backends are
strictly about how fast the policy can be *queried*, not trained.

Hook shape
----------
The protocol hooks at the encoder level to keep the dependency direction
``core -> nn`` intact.  Every hook does the work (none returns ``None``); a
subclass overrides only the stages it accelerates:

``encode_batch(encoder, plan_embeddings, snapshots)``
    The stacked ``(per_query, global_state)`` float32 representations
    (bit-identical to :meth:`StateEncoder.encode_batch_arrays` for the NumPy
    backends).
``heads_batch(policy, per_query, global_state, snapshots, clusters)``
    ``(logits, values)`` from the representations; the base implementation
    is the policy's shared head code (cluster pooling included).
``scalar_forward(policy, plan_embeddings, snapshot, clusters)``
    ``(logits, values)`` for a single snapshot (serving, evaluation,
    sequential rollouts): ``encode_batch`` + ``heads_batch`` at ``B=1``.

Sampling proper — masked log-softmax, greedy argmax, the inverse-CDF draw,
the :class:`~repro.core.policy.PolicyDecision` construction — stays in
``policy.py`` and is shared by every backend, so RNG consumption is
identical no matter which backend runs the forward.
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from ..fastinfer import fast_inference_reason

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (encoder imports nn)
    from ...encoder.state import StateEncoder

__all__ = [
    "BackendUnavailableError",
    "InferenceBackend",
    "NumpyRefBackend",
    "available_backends",
    "fast_inference_reason",
    "register_backend",
    "resolve_backend",
]

DEFAULT_BACKEND = "numpy-ref"


class BackendUnavailableError(RuntimeError):
    """Raised by a backend factory whose runtime dependencies are missing."""


class InferenceBackend:
    """Base class: the reference semantics every backend must preserve.

    The default hook implementations are the shared tape-free NumPy
    forwards, so a subclass only overrides the stages it accelerates.  All
    three hooks are mandatory parts of the protocol: serving and sequential
    sampling call :meth:`scalar_forward`, lock-step rollouts call
    :meth:`encode_batch` + :meth:`heads_batch`.  Implementations may keep
    cross-call caches; :meth:`reset` must drop them (used between unrelated
    workloads and in tests).
    """

    name = "base"

    def supports(self, policy: Any) -> str | None:
        """Why this backend cannot serve ``policy``, or ``None`` if it can.

        The capability check that used to live inside the vectorized rollout
        path (gating on encoder norms alone); backends own it now so a new
        backend can impose additional constraints.
        """
        encoder = policy.state_encoder
        if getattr(encoder, "use_attention", False):
            return fast_inference_reason(encoder.attention)
        return None

    def encode_batch(
        self,
        encoder: "StateEncoder",
        plan_embeddings: np.ndarray,
        snapshots: list[Any],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stacked ``(per_query, global_state)`` float32 representations."""
        return encoder.encode_batch_arrays(plan_embeddings, snapshots)

    def heads_batch(
        self,
        policy: Any,
        per_query: np.ndarray,
        global_state: np.ndarray,
        snapshots: list[Any],
        clusters: Any = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(logits, values)`` from the stacked representations."""
        return policy.heads_arrays(per_query, global_state, snapshots, clusters=clusters)

    def scalar_forward(
        self,
        policy: Any,
        plan_embeddings: np.ndarray,
        snapshot: Any,
        clusters: Any = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(logits, values)`` of shapes ``(1, action_dim)`` and ``(1,)`` for one snapshot.

        The single-snapshot entry point (serving, evaluation, sequential
        rollouts): the batched forward with ``B=1``.
        """
        per_query, global_state = self.encode_batch(policy.state_encoder, plan_embeddings, [snapshot])
        return self.heads_batch(policy, per_query, global_state, [snapshot], clusters=clusters)

    def reset(self) -> None:
        """Drop all cross-call caches (no-op for stateless backends)."""


class NumpyRefBackend(InferenceBackend):
    """The reference backend: exactly the shared tape-free NumPy forwards.

    Every hook keeps its base-class behaviour, so routing sampling through
    this backend is bit-identical to calling the fastinfer paths directly —
    it exists so "no backend" and "numpy-ref" are the same code path.
    """

    name = "numpy-ref"


_REGISTRY: dict[str, Callable[[], InferenceBackend]] = {}


def register_backend(name: str, factory: Callable[[], InferenceBackend]) -> None:
    """Register ``factory`` under ``name`` (last registration wins)."""
    _REGISTRY[name] = factory


def available_backends() -> tuple[str, ...]:
    """Registered backend names (registration order)."""
    return tuple(_REGISTRY)


def resolve_backend(
    name: str | None, policy: Any = None, strict: bool = False
) -> InferenceBackend:
    """Instantiate the backend called ``name``, falling back gracefully.

    Unknown names raise; a registered backend whose runtime dependencies are
    missing (:class:`BackendUnavailableError`, e.g. ``torch`` without torch
    installed) or that reports it cannot serve ``policy`` degrades to
    ``numpy-ref`` with a :class:`RuntimeWarning` — never silently.  With
    ``strict=True`` both conditions raise instead of falling back (used by
    benchmarks and tests that must know whether a backend really ran).
    """
    from ...exceptions import SchedulingError

    if name is None:
        name = DEFAULT_BACKEND
    factory = _REGISTRY.get(name)
    if factory is None:
        raise SchedulingError(
            f"unknown inference backend {name!r}; available: {', '.join(available_backends())}"
        )
    try:
        backend = factory()
    except BackendUnavailableError as exc:
        if strict:
            raise
        warnings.warn(
            f"inference backend {name!r} is unavailable ({exc}); falling back to "
            f"{DEFAULT_BACKEND!r}",
            RuntimeWarning,
            stacklevel=2,
        )
        return _REGISTRY[DEFAULT_BACKEND]()
    if policy is not None and name != DEFAULT_BACKEND:
        reason = backend.supports(policy)
        if reason is not None:
            if strict:
                raise SchedulingError(
                    f"inference backend {name!r} cannot serve this policy ({reason})"
                )
            warnings.warn(
                f"inference backend {name!r} cannot serve this policy ({reason}); "
                f"falling back to {DEFAULT_BACKEND!r}",
                RuntimeWarning,
                stacklevel=2,
            )
            return _REGISTRY[DEFAULT_BACKEND]()
    return backend


register_backend(NumpyRefBackend.name, NumpyRefBackend)
