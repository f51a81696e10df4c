"""Incremental cross-step inference caching (the ``numpy-cached`` backend).

Consecutive decision steps of one rollout differ in very few queries: a step
submits one query and completes a handful, so of the ``n`` per-query token
rows the encoder projects, typically ``k << n`` actually changed.  This
backend exploits that locality while staying **bit-identical** to the
reference forward (:meth:`StateEncoder.encode_batch_arrays`):

* **Token projections** (``query_mlp``) and the first attention block's
  **fused-QKV projections** are cached per session row and recomputed only
  for rows whose features may have changed.  Row validity comes from the
  ``row_version`` stamps that :class:`~repro.dbms.soa.SessionStateArrays`
  maintains (every ``mark_*`` transition and out-of-band :meth:`touch`
  bumps the mutated row), plus two snapshot-level rules: a clock change
  dirties every *active* row (running rows see ``elapsed`` move, deferred
  rows see ``time_to_available`` move), and an instance-context change
  dirties everything (the context columns are appended to every token).
* Everything **after** the first QKV projection — attention mixing, norms
  (including BatchNorm's running-statistic side effects), the pooled-feature
  heads — couples all tokens and is recomputed every step with exactly the
  reference operations on exactly the reference inputs, so the training-mode
  BatchNorm statistics evolve identically.
* Featurization runs in full every step (it is cheap and feeds the pooled
  summaries); the static plan-embedding block of the token inputs is packed
  once per parameter version instead of re-broadcast per step, and the
  stacked input / sequence / QKV buffers persist across steps.

Bit-identity of row-wise caching rests on one BLAS property: computing a
GEMM over a *subset* of rows yields the same bits as slicing those rows out
of the full GEMM.  That holds for row-independent kernels but is not
guaranteed by any standard, so :func:`probe_slice_bitness` verifies it at
first use on representative hot-path shapes; if the probe fails on some
exotic BLAS build, the backend degrades to plain delegation (still
bit-identical, no row caching) with a warning.

The learning path never touches this module — caches only ever serve
no-gradient sampling forwards.
"""

from __future__ import annotations

import os
import warnings
from typing import Any

import numpy as np

from .. import fastinfer
from ..layers import Linear
from .base import InferenceBackend, register_backend

__all__ = ["NumpyCachedBackend", "probe_slice_bitness"]

_SnapshotArrays: Any = None


def _snapshot_arrays_type() -> Any:
    # Imported lazily: repro.encoder imports repro.nn, so a module-level
    # import here would be circular.  By the time snapshots exist the
    # encoder package is necessarily initialized.
    global _SnapshotArrays
    if _SnapshotArrays is None:
        from ...encoder.run_state import SnapshotArrays

        _SnapshotArrays = SnapshotArrays
    return _SnapshotArrays


_PROBE_RESULT: bool | None = None


def probe_slice_bitness() -> bool:
    """Whether row-subset GEMMs match row slices of the full GEMM bitwise.

    Checked once per process on representative hot-path shapes (token
    projection ``in->state`` and fused-QKV ``state->3*state``), including
    single rows, scattered gathers and halved M — the exact reuse patterns
    the cache relies on.
    """
    global _PROBE_RESULT
    if _PROBE_RESULT is not None:
        return _PROBE_RESULT
    rng = np.random.default_rng(20240820)
    ok = True
    for m, k_in, k_out in ((1408, 41, 48), (1472, 48, 144)):
        a = rng.standard_normal((m, k_in)).astype(np.float32)
        w = rng.standard_normal((k_in, k_out)).astype(np.float32)
        full = a @ w
        for k in (1, 2, 7, m // 2):
            rows = np.sort(rng.choice(m, size=k, replace=False))
            if not np.array_equal(np.ascontiguousarray(a[rows]) @ w, full[rows]):
                ok = False
        if not np.array_equal(a[:1] @ w, full[:1]):
            ok = False
    _PROBE_RESULT = ok
    return ok


def _context_equal(stored: np.ndarray | None, current: np.ndarray | None) -> bool:
    if stored is None or current is None:
        return stored is None and current is None
    return stored.shape == current.shape and bool(np.array_equal(stored, current))


class NumpyCachedBackend(InferenceBackend):
    """Per-session incremental caching of the row-wise projection stages."""

    name = "numpy-cached"

    def __init__(self) -> None:
        self._row_caching = probe_slice_bitness()
        if not self._row_caching:  # pragma: no cover - depends on BLAS build
            warnings.warn(
                "numpy-cached: this BLAS build does not produce bit-identical "
                "row-subset GEMMs; cross-step row caching is disabled "
                "(falling back to full recomputation per step)",
                RuntimeWarning,
                stacklevel=2,
            )
        self._verify = os.environ.get("REPRO_CACHED_VERIFY", "") == "1"
        self.reset()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        # Session bookkeeping: id(session) -> [session, slot, last_used].
        # The record holds the session reference so a dead session's id can
        # never be reused by a new object while its cache entry survives.
        self._sessions: dict[int, list[Any]] = {}
        self._free_slots: list[int] = []
        self._step = 0
        self._structure: tuple[int, int, int] | None = None
        self._param_key: tuple[int, ...] | None = None
        self._param_refs: list[np.ndarray] = []
        # Slot-indexed stores (capacity grows on demand); row ``n`` of the
        # token/QKV stores holds the constant super-query row.
        self._tok_store = np.empty((0, 0, 0), dtype=np.float32)
        self._qkv_store = np.empty((0, 0, 0), dtype=np.float32)
        self._prev_rv = np.empty((0, 0), dtype=np.int64)
        self._prev_active = np.empty((0, 0), dtype=bool)
        self._prev_time = np.empty(0, dtype=np.float64)
        self._valid = np.empty(0, dtype=bool)
        self._slot_context: list[np.ndarray | None] = []
        # Batch-capacity working buffers, keyed by name.
        self._bufs: dict[str, np.ndarray] = {}
        self._super32: np.ndarray | None = None
        self._super_qkv: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # Buffers and stores
    # ------------------------------------------------------------------ #
    def _buf(self, name: str, batch: int, trailing: tuple[int, ...], dtype: Any) -> np.ndarray:
        buf = self._bufs.get(name)
        if buf is None or buf.shape[0] < batch or buf.shape[1:] != trailing or buf.dtype != dtype:
            capacity = batch if buf is None else max(batch, 2 * buf.shape[0])
            buf = np.empty((capacity,) + trailing, dtype=dtype)
            self._bufs[name] = buf
            if name == "inputs":
                self._pack_plan_block(buf)
            if name in ("seq", "qkvb"):
                self._pack_super_rows(name, buf)
        return buf[:batch]

    def _pack_plan_block(self, inputs_buf: np.ndarray) -> None:
        if self._plan_embeddings is not None:
            inputs_buf[:, :, : self._plan_embeddings.shape[1]] = self._plan_embeddings

    def _pack_super_rows(self, name: str, buf: np.ndarray) -> None:
        n = buf.shape[1] - 1
        if name == "seq" and self._super32 is not None:
            buf[:, n, :] = self._super32
        if name == "qkvb" and self._super_qkv is not None:
            buf[:, n, :] = self._super_qkv

    def _ensure_structure(self, n: int, in_dim: int, plan_dim: int) -> None:
        if self._structure == (n, in_dim, plan_dim):
            return
        self.reset()
        self._structure = (n, in_dim, plan_dim)

    def _grow_slots(self, needed: int) -> None:
        old = self._valid.shape[0]
        new = max(needed, 2 * old, 16)
        n1, d = self._tok_store.shape[1], self._tok_store.shape[2]
        qd = self._qkv_store.shape[2]

        def _grown(store: np.ndarray, trailing: tuple[int, ...], fill: Any = None) -> np.ndarray:
            grown = np.empty((new,) + trailing, dtype=store.dtype)
            grown[:old] = store
            if fill is not None:
                grown[old:] = fill
            return grown

        self._tok_store = _grown(self._tok_store, (n1, d))
        self._qkv_store = _grown(self._qkv_store, (n1, qd))
        if self._super32 is not None:
            self._tok_store[old:, n1 - 1, :] = self._super32
        if self._super_qkv is not None and qd:
            self._qkv_store[old:, n1 - 1, :] = self._super_qkv
        self._prev_rv = _grown(self._prev_rv, (n1 - 1,))
        self._prev_active = _grown(self._prev_active, (n1 - 1,))
        self._prev_time = _grown(self._prev_time, ())
        self._valid = _grown(self._valid, (), fill=False)
        self._slot_context.extend([None] * (new - old))
        self._free_slots.extend(range(old, new))

    def _alloc_slot(self) -> int:
        if not self._free_slots:
            self._grow_slots(self._valid.shape[0] + 1)
        return self._free_slots.pop()

    def _evict_stale(self, batch: int) -> None:
        limit = max(4 * batch, 64)
        if len(self._sessions) <= limit:
            return
        stale = [key for key, rec in self._sessions.items() if rec[2] < self._step]
        for key in stale:
            rec = self._sessions.pop(key)
            self._valid[rec[1]] = False
            self._slot_context[rec[1]] = None
            self._free_slots.append(rec[1])

    # ------------------------------------------------------------------ #
    # Parameter versioning
    # ------------------------------------------------------------------ #
    def _param_sources(self, encoder: Any, plan_embeddings: np.ndarray) -> list[np.ndarray]:
        sources = [plan_embeddings, encoder.super_query.data]
        for module in encoder.query_mlp.net:
            if isinstance(module, Linear):
                sources.append(module.weight.data)
                if module.bias is not None:
                    sources.append(module.bias.data)
        if getattr(encoder, "use_attention", False) and encoder.attention.num_layers >= 1:
            attention = encoder.attention._modules["block_0"].attention
            for proj in (attention.query_proj, attention.key_proj, attention.value_proj):
                sources.append(proj.weight.data)
                sources.append(proj.bias.data)
        return sources

    def _refresh_params(self, encoder: Any, plan_embeddings: np.ndarray) -> None:
        sources = self._param_sources(encoder, plan_embeddings)
        key = tuple(id(array) for array in sources)
        if key == self._param_key:
            return
        self._param_key = key
        self._param_refs = sources  # pin ids against reuse by fresh arrays
        self._plan_embeddings = plan_embeddings
        self._valid[:] = False
        self._super32 = encoder.super_query.data.astype(np.float32).reshape(-1)
        n1 = self._tok_store.shape[1]
        if n1:
            self._tok_store[:, n1 - 1, :] = self._super32
        if getattr(encoder, "use_attention", False) and encoder.attention.num_layers >= 1:
            attention = encoder.attention._modules["block_0"].attention
            qkv_weight, qkv_bias = fastinfer._fused_qkv(attention)
            w32 = fastinfer._float32(qkv_weight)
            b32 = fastinfer._float32(qkv_bias)
            super_qkv = self._super32.reshape(1, -1) @ w32
            super_qkv += b32
            self._super_qkv = super_qkv.reshape(-1)
            if self._qkv_store.shape[2]:
                self._qkv_store[:, n1 - 1, :] = self._super_qkv
        else:
            self._super_qkv = None
        inputs_buf = self._bufs.get("inputs")
        if inputs_buf is not None:
            self._pack_plan_block(inputs_buf)
        seq_buf = self._bufs.get("seq")
        if seq_buf is not None:
            self._pack_super_rows("seq", seq_buf)
        qkv_buf = self._bufs.get("qkvb")
        if qkv_buf is not None:
            self._pack_super_rows("qkvb", qkv_buf)

    _plan_embeddings: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # Forward
    # ------------------------------------------------------------------ #
    def _eligible(self, snapshots: list[Any]) -> bool:
        if not self._row_caching or not snapshots:
            return False
        arrays_type = _snapshot_arrays_type()
        for snapshot in snapshots:
            if not isinstance(snapshot, arrays_type):
                return False
            if snapshot.state_key is None or snapshot.row_version is None:
                return False
        return True

    def encode_batch(
        self,
        encoder: Any,
        plan_embeddings: np.ndarray,
        snapshots: list[Any],
    ) -> tuple[np.ndarray, np.ndarray]:
        if not self._eligible(snapshots):
            return encoder.encode_batch_arrays(plan_embeddings, snapshots)

        featurizer = encoder.run_state_featurizer
        batch = len(snapshots)
        n = snapshots[0].num_queries
        feature_dim = featurizer.feature_dim
        plan_dim = plan_embeddings.shape[1]
        in_dim = plan_dim + feature_dim
        if plan_embeddings.shape[0] != n:
            raise ValueError("plan embeddings and snapshots must cover the same queries")
        self._ensure_structure(n, in_dim, plan_dim)
        state_dim = encoder.super_query.data.shape[1]
        use_attention = getattr(encoder, "use_attention", False)
        blocks = encoder.attention.num_layers if use_attention else 0
        qkv_dim = 3 * state_dim if blocks >= 1 else 0
        if (
            self._tok_store.shape[1] != n + 1
            or self._tok_store.shape[2] != state_dim
            or self._qkv_store.shape[2] != qkv_dim
        ):
            self._tok_store = np.empty((0, n + 1, state_dim), dtype=np.float32)
            self._qkv_store = np.empty((0, n + 1, qkv_dim), dtype=np.float32)
            self._prev_rv = np.empty((0, n), dtype=np.int64)
            self._prev_active = np.empty((0, n), dtype=bool)
            self._prev_time = np.empty(0, dtype=np.float64)
            self._valid = np.empty(0, dtype=bool)
            self._sessions.clear()
            self._free_slots = []
            self._slot_context = []
        self._step += 1
        self._refresh_params(encoder, plan_embeddings)

        # ---- featurize the full stack (reference ops, persistent buffers)
        run_features = self._buf("features", batch, (n, feature_dim), np.float64)
        featurizer.featurize_arrays_stack(snapshots, out=run_features)
        inputs = self._buf("inputs", batch, (n, in_dim), np.float32)
        inputs[:, :, plan_dim:] = run_features
        pooled_all = np.concatenate([run_features.mean(axis=1), run_features.max(axis=1)], axis=1)

        status_stack = self._buf("status", batch, (n,), np.int8)
        avail_stack = self._buf("avail", batch, (n,), bool)
        rv_stack = self._buf("rv", batch, (n,), np.int64)
        times = self._buf("times", batch, (), np.float64)
        slots = self._buf("slots", batch, (), np.int64)
        fresh = self._buf("fresh", batch, (), bool)
        fresh[:] = False
        for index, snapshot in enumerate(snapshots):
            status_stack[index] = snapshot.status
            avail_stack[index] = snapshot.available
            rv_stack[index] = snapshot.row_version
            times[index] = snapshot.time
            record = self._sessions.get(id(snapshot.state_key))
            if record is None or record[0] is not snapshot.state_key:
                slot = self._alloc_slot()
                record = [snapshot.state_key, slot, self._step]
                self._sessions[id(snapshot.state_key)] = record
                self._valid[slot] = False
            record[2] = self._step
            slots[index] = record[1]
            if not self._valid[record[1]]:
                fresh[index] = True
            context = snapshot.instance_context_array
            if not _context_equal(self._slot_context[record[1]], context):
                fresh[index] = True
                self._slot_context[record[1]] = None if context is None else context.copy()

        # Masked pooled-running summary — the reference float32 stack branch.
        running = status_stack == 1
        counts = running.sum(axis=1)
        weights = running[:, :, None]
        means = (run_features * weights).sum(axis=1)
        means /= np.maximum(counts, 1)[:, None]
        maxes = np.where(weights, run_features, -np.inf).max(axis=1)
        pooled_running = np.concatenate([means, maxes], axis=1)
        pooled_running[counts == 0] = 0.0

        # ---- dirty rows: version stamps + clock rule + context/fresh resets
        active = running | ~avail_stack
        dirty = rv_stack != self._prev_rv[slots]
        time_changed = times != self._prev_time[slots]
        dirty |= time_changed[:, None] & (active | self._prev_active[slots])
        dirty |= fresh[:, None]
        self._prev_rv[slots] = rv_stack
        self._prev_active[slots] = active
        self._prev_time[slots] = times
        self._valid[slots] = True

        # ---- recompute dirty token / QKV rows, one gathered GEMM each
        dirty_env, dirty_row = np.nonzero(dirty)
        if dirty_env.size:
            changed = inputs[dirty_env, dirty_row, :]
            tokens = fastinfer.mlp_forward(encoder.query_mlp, changed)
            self._tok_store[slots[dirty_env], dirty_row] = tokens
            if qkv_dim:
                attention = encoder.attention._modules["block_0"].attention
                qkv_weight, qkv_bias = fastinfer._fused_qkv(attention)
                qkv_rows = tokens @ fastinfer._float32(qkv_weight)
                qkv_rows += fastinfer._float32(qkv_bias)
                self._qkv_store[slots[dirty_env], dirty_row] = qkv_rows

        sequence = self._buf("seq", batch, (n + 1, state_dim), np.float32)
        np.take(self._tok_store, slots, axis=0, out=sequence)
        if self._verify:
            self._verify_rows(encoder, inputs, sequence, slots, qkv_dim)

        # ---- attention onwards: exactly the reference operations
        if use_attention:
            if blocks >= 1:
                block0 = encoder.attention._modules["block_0"]
                qkv_flat = self._buf("qkvb", batch, (n + 1, qkv_dim), np.float32)
                np.take(self._qkv_store, slots, axis=0, out=qkv_flat)
                heads = block0.attention.num_heads
                head_dim = block0.attention.head_dim
                qkv = qkv_flat.reshape(batch, n + 1, 3, heads, head_dim)
                queries = qkv[:, :, 0].transpose(0, 2, 1, 3)
                keys = qkv[:, :, 1].transpose(0, 2, 1, 3)
                values = qkv[:, :, 2].transpose(0, 2, 1, 3)
                scores = (queries @ keys.transpose(0, 1, 3, 2)) * (1.0 / float(np.sqrt(head_dim)))
                flat = scores.reshape(batch * heads * (n + 1), n + 1)
                flat -= flat.max(axis=-1, keepdims=True)
                np.exp(flat, out=flat)
                flat /= flat.sum(axis=-1, keepdims=True)
                mixed = (scores @ values).transpose(0, 2, 1, 3).reshape(batch, n + 1, state_dim)
                attended = fastinfer.linear_forward(block0.attention.out_proj, mixed)
                encoded = fastinfer._norm_forward(block0.norm1, sequence + attended)
                encoded = fastinfer._norm_forward(
                    block0.norm2, encoded + fastinfer.mlp_forward(block0.feedforward, encoded)
                )
                for index in range(1, blocks):
                    encoded = fastinfer._block_forward(
                        encoder.attention._modules[f"block_{index}"], encoded, None
                    )
            else:  # pragma: no cover - zero-layer encoders are not built
                encoded = sequence
        else:
            encoded = sequence
        encoded_queries = encoded[:, :n]
        encoded_super = encoded[:, n]

        pooled_all32 = pooled_all.astype(np.float32)
        pooled_running32 = pooled_running.astype(np.float32)
        global_state = fastinfer.mlp_forward(
            encoder.global_mlp, np.concatenate([encoded_super, pooled_all32], axis=1)
        )
        broadcast_super = np.broadcast_to(encoded_super[:, None, :], encoded_queries.shape)
        broadcast_pool = np.broadcast_to(
            pooled_running32[:, None, :], (batch, n, pooled_running32.shape[1])
        )
        per_query = fastinfer.mlp_forward(
            encoder.query_out_mlp,
            np.concatenate([encoded_queries, broadcast_super, broadcast_pool], axis=2),
        )
        self._evict_stale(batch)
        return per_query, global_state

    def _verify_rows(
        self,
        encoder: Any,
        inputs: np.ndarray,
        sequence: np.ndarray,
        slots: np.ndarray,
        qkv_dim: int,
    ) -> None:
        """Debug mode (REPRO_CACHED_VERIFY=1): recompute every row fresh and
        compare with the cache-assembled sequence bitwise — catches any
        missed invalidation immediately instead of as a drifting digest."""
        n = inputs.shape[1]
        fresh_tokens = fastinfer.mlp_forward(encoder.query_mlp, inputs.reshape(-1, inputs.shape[2]))
        fresh_tokens = fresh_tokens.reshape(inputs.shape[0], n, -1)
        if not np.array_equal(fresh_tokens, sequence[:, :n]):
            bad = np.nonzero(~np.all(fresh_tokens == sequence[:, :n], axis=2))
            raise AssertionError(f"numpy-cached: stale token rows at (env, row) = {bad}")
        if qkv_dim:
            attention = encoder.attention._modules["block_0"].attention
            qkv_weight, qkv_bias = fastinfer._fused_qkv(attention)
            fresh_qkv = fresh_tokens.reshape(-1, fresh_tokens.shape[2]) @ fastinfer._float32(qkv_weight)
            fresh_qkv += fastinfer._float32(qkv_bias)
            cached = self._qkv_store[slots][:, :n].reshape(-1, qkv_dim)
            if not np.array_equal(fresh_qkv, cached):
                raise AssertionError("numpy-cached: stale QKV rows")

    # ------------------------------------------------------------------ #
    # Heads (buffer-reusing twin of the shared fastinfer head code)
    # ------------------------------------------------------------------ #
    def heads_batch(
        self,
        policy: Any,
        per_query: np.ndarray,
        global_state: np.ndarray,
        snapshots: list[Any],
        clusters: Any = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        if clusters is not None:
            return super().heads_batch(policy, per_query, global_state, snapshots, clusters=clusters)
        batch, n = per_query.shape[0], per_query.shape[1]
        logits = self._mlp_into("policy_head", policy.policy_head, per_query.reshape(batch * n, -1))
        values = self._mlp_into("value_head", policy.value_head, global_state)
        return logits.reshape(batch, -1), values.reshape(batch)

    def _mlp_into(self, tag: str, mlp: Any, x: np.ndarray) -> np.ndarray:
        """``fastinfer.mlp_forward`` with persistent GEMM output buffers.

        Bit-identical: ``np.matmul(..., out=)`` runs the same GEMM, the bias
        add and tanh are the same elementwise ops (tanh applied in place on
        a buffer this backend owns).
        """
        for index, module in enumerate(mlp.net):
            if isinstance(module, Linear):
                weight = fastinfer._param(module.weight.data, x)
                out = self._buf(f"{tag}:{index}", x.shape[0], (weight.shape[1],), x.dtype)
                np.matmul(x, weight, out=out)
                if module.bias is not None:
                    out += fastinfer._param(module.bias.data, x)
                x = out
            elif module.name == "tanh":
                np.tanh(x, out=x)
            else:
                x = fastinfer._ACTIVATIONS[module.name](x)
        return x


register_backend(NumpyCachedBackend.name, NumpyCachedBackend)
