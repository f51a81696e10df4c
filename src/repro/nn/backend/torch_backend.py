"""Optional compiled inference backend on top of PyTorch (``torch``).

Rebuilds the sampling-path encoder + heads as a small torch module —
``torch.jit.script``-compiled when scripting succeeds, eager otherwise — and
runs the forward in float32 on CPU.  Parity with the NumPy reference path is
*tolerance-level* (same arithmetic at float32, different kernels and
reduction orders), verified by the backend parity suite at ``atol <= 1e-5``
on logits; the NumPy backends remain the bit-exact reference.

torch is an optional dependency (``pip install repro-bqsched[compiled]``):
this module imports it lazily inside the backend factory, so importing
:mod:`repro.nn.backend` — or anything else in the package — never requires
torch.  When torch is missing, resolving the ``torch`` backend degrades to
``numpy-ref`` with a clear warning (see :func:`repro.nn.backend.resolve_backend`).

Training-mode BatchNorm mutates running statistics; the torch forward
returns the per-call batch moments and the backend applies the reference
float64 update expressions to the NumPy module in place, so a policy sampled
through this backend trains on the same statistics trajectory up to float
tolerance.
"""

from __future__ import annotations

import importlib
from typing import Any

import numpy as np

from .. import fastinfer
from ..layers import MLP, Activation, BatchNorm, LayerNorm, Linear
from .base import BackendUnavailableError, InferenceBackend, register_backend

__all__ = ["TorchBackend"]


def _import_torch() -> Any:
    try:
        return importlib.import_module("torch")
    except ImportError as exc:  # pragma: no cover - exercised when torch absent
        raise BackendUnavailableError(f"torch is not installed: {exc}") from None


def _torch_linear(torch: Any, layer: Linear) -> Any:
    nn = torch.nn
    weight = layer.weight.data
    has_bias = layer.bias is not None
    module = nn.Linear(weight.shape[0], weight.shape[1], bias=has_bias)
    with torch.no_grad():
        module.weight.copy_(torch.from_numpy(np.ascontiguousarray(weight.T, dtype=np.float32)))
        if has_bias:
            module.bias.copy_(torch.from_numpy(layer.bias.data.astype(np.float32)))
    return module


_TORCH_ACTIVATIONS = {"tanh": "Tanh", "relu": "ReLU", "sigmoid": "Sigmoid", "identity": "Identity"}


def _torch_mlp(torch: Any, mlp: MLP) -> Any:
    nn = torch.nn
    modules = []
    for module in mlp.net:
        if isinstance(module, Linear):
            modules.append(_torch_linear(torch, module))
        elif isinstance(module, Activation):
            modules.append(getattr(nn, _TORCH_ACTIVATIONS[module.name])())
        else:  # pragma: no cover - MLP only builds the two kinds above
            raise BackendUnavailableError(f"unsupported MLP module: {type(module).__name__}")
    return nn.Sequential(*modules)


def _build_modules(torch: Any) -> tuple[Any, Any, Any, Any]:
    """Define the torch module classes (deferred: torch may be absent)."""
    nn = torch.nn
    Tensor = torch.Tensor
    from typing import List, Tuple  # noqa: F401 - TorchScript type annotations

    class _Norm(nn.Module):
        """LayerNorm / token-axis BatchNorm matching the NumPy semantics.

        The ``batch`` kind normalises over the token axis per (sample,
        channel) — what the NumPy tensor path computes for 3-D inputs — and
        returns the float64 batch moments so the caller can replicate the
        running-statistic update on the NumPy module.
        """

        def __init__(self, kind: str, gamma: Any, beta: Any, eps: float) -> None:
            super().__init__()
            self.kind = kind
            self.eps = eps
            self.register_buffer("gamma", gamma)
            self.register_buffer("beta", beta)
            self.register_buffer("running_mean", torch.zeros_like(gamma))
            self.register_buffer("running_var", torch.ones_like(gamma))

        def forward(self, x: Tensor, training: bool) -> Tuple[Tensor, Tensor, Tensor]:
            empty = torch.zeros(0, dtype=torch.float64)
            if self.kind == "layer":
                mu = x.mean(dim=-1, keepdim=True)
                centered = x - mu
                var = (centered * centered).mean(dim=-1, keepdim=True)
                out = centered / torch.sqrt(var + self.eps) * self.gamma + self.beta
                return out, empty, empty
            if training and x.size(1) > 1:
                mu = x.mean(dim=1, keepdim=True)
                centered = x - mu
                var = (centered * centered).mean(dim=1, keepdim=True)
                batch_mean = mu.reshape(x.size(0), -1).to(torch.float64).mean(dim=0)
                batch_var = var.reshape(x.size(0), -1).to(torch.float64).mean(dim=0)
                out = centered / torch.sqrt(var + self.eps) * self.gamma + self.beta
                return out, batch_mean, batch_var
            mu = self.running_mean.reshape(1, 1, -1)
            var = self.running_var.reshape(1, 1, -1)
            out = (x - mu) / torch.sqrt(var + self.eps) * self.gamma + self.beta
            return out, empty, empty

    class _Block(nn.Module):
        def __init__(
            self, qkv: Any, out_proj: Any, feedforward: Any, norm1: Any, norm2: Any,
            num_heads: int, head_dim: int,
        ) -> None:
            super().__init__()
            self.qkv = qkv
            self.out_proj = out_proj
            self.feedforward = feedforward
            self.norm1 = norm1
            self.norm2 = norm2
            self.num_heads = num_heads
            self.head_dim = head_dim

        def forward(self, x: Tensor, training: bool) -> Tuple[Tensor, List[Tensor]]:
            batch, tokens = x.size(0), x.size(1)
            qkv = self.qkv(x).reshape(batch, tokens, 3, self.num_heads, self.head_dim)
            queries = qkv[:, :, 0].permute(0, 2, 1, 3)
            keys = qkv[:, :, 1].permute(0, 2, 1, 3)
            values = qkv[:, :, 2].permute(0, 2, 1, 3)
            scores = torch.matmul(queries, keys.transpose(-2, -1)) * (
                1.0 / float(self.head_dim) ** 0.5
            )
            weights = torch.softmax(scores, dim=-1)
            mixed = torch.matmul(weights, values).permute(0, 2, 1, 3).reshape(batch, tokens, -1)
            attended = self.out_proj(mixed)
            stats: List[Tensor] = []
            out, mean1, var1 = self.norm1(x + attended, training)
            if mean1.numel() > 0:
                stats.append(mean1)
                stats.append(var1)
            out2, mean2, var2 = self.norm2(out + self.feedforward(out), training)
            if mean2.numel() > 0:
                stats.append(mean2)
                stats.append(var2)
            return out2, stats

    class _Encoder(nn.Module):
        def __init__(
            self, query_mlp: Any, super_query: Any, blocks: Any, global_mlp: Any,
            query_out_mlp: Any,
        ) -> None:
            super().__init__()
            self.query_mlp = query_mlp
            self.register_buffer("super_query", super_query)
            self.blocks = blocks
            self.global_mlp = global_mlp
            self.query_out_mlp = query_out_mlp

        def forward(
            self, inputs: Tensor, pooled_all: Tensor, pooled_running: Tensor, training: bool
        ) -> Tuple[Tensor, Tensor, List[Tensor]]:
            batch, num_queries = inputs.size(0), inputs.size(1)
            tokens = self.query_mlp(inputs)
            super_tokens = self.super_query.expand(batch, 1, self.super_query.size(2))
            sequence = torch.cat([tokens, super_tokens], dim=1)
            stats: List[Tensor] = []
            encoded = sequence
            for block in self.blocks:
                encoded, block_stats = block(encoded, training)
                for stat in block_stats:
                    stats.append(stat)
            encoded_queries = encoded[:, :num_queries]
            encoded_super = encoded[:, num_queries]
            global_state = self.global_mlp(torch.cat([encoded_super, pooled_all], dim=1))
            broadcast_super = encoded_super.unsqueeze(1).expand(
                batch, num_queries, encoded_super.size(1)
            )
            broadcast_pool = pooled_running.unsqueeze(1).expand(
                batch, num_queries, pooled_running.size(1)
            )
            per_query = self.query_out_mlp(
                torch.cat([encoded_queries, broadcast_super, broadcast_pool], dim=2)
            )
            return per_query, global_state, stats

    class _Heads(nn.Module):
        def __init__(self, policy_head: Any, value_head: Any) -> None:
            super().__init__()
            self.policy_head = policy_head
            self.value_head = value_head

        def forward(self, per_query: Tensor, global_state: Tensor) -> Tuple[Tensor, Tensor]:
            batch = per_query.size(0)
            logits = self.policy_head(per_query).reshape(batch, -1)
            values = self.value_head(global_state).reshape(batch)
            return logits, values

    return _Norm, _Block, _Encoder, _Heads


class TorchBackend(InferenceBackend):
    """torch.jit-compiled encoder + heads for the sampling path."""

    name = "torch"

    def __init__(self) -> None:
        self._torch = _import_torch()
        self._classes = _build_modules(self._torch)
        self._encoder_module: Any = None
        self._encoder_key: tuple[int, ...] | None = None
        self._encoder_refs: list[np.ndarray] = []
        self._batch_norms: list[BatchNorm] = []
        self._torch_norms: list[Any] = []
        self._heads_module: Any = None
        self._heads_key: tuple[int, ...] | None = None
        self._heads_refs: list[np.ndarray] = []
        #: Whether torch.jit.script succeeded (eager fallback otherwise).
        self.compiled = False

    def reset(self) -> None:
        self._encoder_module = None
        self._encoder_key = None
        self._heads_module = None
        self._heads_key = None

    # ------------------------------------------------------------------ #
    # Module construction
    # ------------------------------------------------------------------ #
    @staticmethod
    def _mlp_params(mlp: MLP) -> list[np.ndarray]:
        params: list[np.ndarray] = []
        for module in mlp.net:
            if isinstance(module, Linear):
                params.append(module.weight.data)
                if module.bias is not None:
                    params.append(module.bias.data)
        return params

    def _make_norm(self, norm: Any) -> Any:
        torch = self._torch
        norm_cls = self._classes[0]
        kind = "layer" if isinstance(norm, LayerNorm) else "batch"
        gamma = torch.from_numpy(norm.gamma.data.astype(np.float32))
        beta = torch.from_numpy(norm.beta.data.astype(np.float32))
        module = norm_cls(kind, gamma, beta, float(norm.eps))
        self._torch_norms.append(module)
        if isinstance(norm, BatchNorm):
            self._batch_norms.append(norm)
        return module

    def _refresh_encoder(self, encoder: Any) -> None:
        torch = self._torch
        sources: list[np.ndarray] = [encoder.super_query.data]
        sources += self._mlp_params(encoder.query_mlp)
        sources += self._mlp_params(encoder.global_mlp)
        sources += self._mlp_params(encoder.query_out_mlp)
        blocks_np = []
        if getattr(encoder, "use_attention", False):
            for index in range(encoder.attention.num_layers):
                block = encoder.attention._modules[f"block_{index}"]
                blocks_np.append(block)
                attention = block.attention
                for proj in (attention.query_proj, attention.key_proj, attention.value_proj, attention.out_proj):
                    sources.append(proj.weight.data)
                    sources.append(proj.bias.data)
                sources += self._mlp_params(block.feedforward)
                for norm in (block.norm1, block.norm2):
                    sources.append(norm.gamma.data)
                    sources.append(norm.beta.data)
        key = tuple(id(array) for array in sources)
        if key == self._encoder_key and self._encoder_module is not None:
            self._sync_running_stats()
            return
        self._encoder_key = key
        self._encoder_refs = sources
        self._batch_norms = []
        self._torch_norms = []
        _, block_cls, encoder_cls, _ = self._classes
        nn = torch.nn
        torch_blocks = []
        for block in blocks_np:
            attention = block.attention
            qkv_weight, qkv_bias = fastinfer._fused_qkv(attention)
            qkv = nn.Linear(qkv_weight.shape[0], qkv_weight.shape[1])
            with torch.no_grad():
                qkv.weight.copy_(torch.from_numpy(np.ascontiguousarray(qkv_weight.T, dtype=np.float32)))
                qkv.bias.copy_(torch.from_numpy(qkv_bias.astype(np.float32)))
            torch_blocks.append(
                block_cls(
                    qkv,
                    _torch_linear(torch, attention.out_proj),
                    _torch_mlp(torch, block.feedforward),
                    self._make_norm(block.norm1),
                    self._make_norm(block.norm2),
                    int(attention.num_heads),
                    int(attention.head_dim),
                )
            )
        module = encoder_cls(
            _torch_mlp(torch, encoder.query_mlp),
            torch.from_numpy(
                encoder.super_query.data.astype(np.float32).reshape(1, 1, -1)
            ),
            nn.ModuleList(torch_blocks),
            _torch_mlp(torch, encoder.global_mlp),
            _torch_mlp(torch, encoder.query_out_mlp),
        )
        module.eval()
        try:
            module = torch.jit.script(module)
            self.compiled = True
        except Exception:  # pragma: no cover - depends on torch version
            self.compiled = False
        self._encoder_module = module
        self._sync_running_stats()

    def _sync_running_stats(self) -> None:
        """Copy the NumPy running statistics into the torch buffers.

        Needed before every forward that may hit the eval branch: other code
        paths (the tensor forward, NumPy backends) update the NumPy module's
        statistics between our calls.
        """
        torch = self._torch
        batch_kind = [module for module in self._torch_norms if module.kind == "batch"]
        for norm, torch_norm in zip(self._batch_norms, batch_kind):
            with torch.no_grad():
                torch_norm.running_mean.copy_(
                    torch.from_numpy(norm.running_mean.astype(np.float32))
                )
                torch_norm.running_var.copy_(
                    torch.from_numpy(norm.running_var.astype(np.float32))
                )

    def _refresh_heads(self, policy: Any) -> None:
        torch = self._torch
        sources = self._mlp_params(policy.policy_head) + self._mlp_params(policy.value_head)
        key = tuple(id(array) for array in sources)
        if key == self._heads_key and self._heads_module is not None:
            return
        self._heads_key = key
        self._heads_refs = sources
        heads_cls = self._classes[3]
        module = heads_cls(
            _torch_mlp(torch, policy.policy_head), _torch_mlp(torch, policy.value_head)
        )
        module.eval()
        try:
            module = torch.jit.script(module)
        except Exception:  # pragma: no cover - depends on torch version
            pass
        self._heads_module = module

    # ------------------------------------------------------------------ #
    # Backend hooks
    # ------------------------------------------------------------------ #
    def encode_batch(
        self,
        encoder: Any,
        plan_embeddings: np.ndarray,
        snapshots: list[Any],
    ) -> tuple[np.ndarray, np.ndarray]:
        torch = self._torch
        inputs, _, pooled_all, pooled_running = encoder._batch_inputs(
            plan_embeddings, snapshots, input_dtype=np.float32
        )
        self._refresh_encoder(encoder)
        training = bool(self._batch_norms) and bool(getattr(self._batch_norms[0], "training", True))
        with torch.no_grad():
            per_query, global_state, stats = self._encoder_module(
                torch.from_numpy(inputs),
                torch.from_numpy(pooled_all.astype(np.float32)),
                torch.from_numpy(pooled_running.astype(np.float32)),
                training,
            )
        self._apply_running_stats(stats)
        return per_query.numpy(), global_state.numpy()

    def _apply_running_stats(self, stats: list[Any]) -> None:
        """Replicate the reference float64 running-statistic updates."""
        if not stats:
            return
        for index, norm in enumerate(self._batch_norms):
            batch_mean = stats[2 * index].numpy()
            batch_var = stats[2 * index + 1].numpy()
            norm.running_mean = (1 - norm.momentum) * norm.running_mean + norm.momentum * batch_mean
            norm.running_var = (1 - norm.momentum) * norm.running_var + norm.momentum * batch_var

    def heads_batch(
        self,
        policy: Any,
        per_query: np.ndarray,
        global_state: np.ndarray,
        snapshots: list[Any],
        clusters: Any = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        if clusters is not None:
            # Cluster pooling runs on NumPy arrays; the shared head code handles it.
            return super().heads_batch(policy, per_query, global_state, snapshots, clusters=clusters)
        torch = self._torch
        self._refresh_heads(policy)
        with torch.no_grad():
            logits, values = self._heads_module(
                torch.from_numpy(np.ascontiguousarray(per_query, dtype=np.float32)),
                torch.from_numpy(np.ascontiguousarray(global_state, dtype=np.float32)),
            )
        return logits.numpy(), values.numpy()


register_backend(TorchBackend.name, TorchBackend)
