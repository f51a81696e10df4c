"""Scheduling gain between query pairs (Section IV-B).

The scheduling gain quantifies how much two queries help (or hurt) each
other when executed concurrently.  For every concurrent execution of queries
``i`` and ``j`` observed in the logs, the acceleration of each query over its
own average execution time is weighted by the fraction of its execution that
overlapped the other query, and by the square root of its average time (the
paper weights complex queries more heavily).  Averaging over all such
executions yields a symmetric gain.

Not every pair appears in the logs, so a small MLP over pairs of QueryFormer
plan embeddings is fitted to the observed gains and used to fill in the
missing entries, which is what lets the clustering generalise.  The fit runs
the small-fit optimizer :class:`~repro.nn.optim.AdamSlabs` (the simulator
fit's too): the MLP's weights, gradients and moments live in flat slabs for
the whole fit, and each minibatch's gradients are written straight into
them.
"""

from __future__ import annotations

import numpy as np

from ..dbms import ExecutionLog
from ..dbms.logs import grouped_means
from ..exceptions import SchedulingError
from ..nn import AdamSlabs, MLP, Module, fastgrad
from ..workloads import BatchQuerySet

__all__ = ["compute_scheduling_gains", "GainModel", "build_gain_matrix"]

#: Hidden width of the gain model :func:`build_gain_matrix` fits.
GAIN_HIDDEN = 32

#: Epochs and Adam step size of :meth:`GainModel.fit`.
GAIN_EPOCHS = 30
GAIN_LEARNING_RATE = 1e-2

#: Observed pairs per Adam step of :meth:`GainModel.fit`.
GAIN_BATCH_SIZE = 32

#: Pairs per forward of :meth:`GainModel.predict_pairs`.
COMPLETION_BLOCK = 1024


def compute_scheduling_gains(log: ExecutionLog, batch: BatchQuerySet) -> tuple[np.ndarray, np.ndarray]:
    """Compute observed pairwise scheduling gains from execution logs.

    Returns ``(gains, observed)``: an ``(n, n)`` symmetric gain matrix and a
    boolean matrix marking which pairs were actually observed concurrently.
    Unobserved pairs hold 0.  Every concurrent execution's term is computed
    elementwise over :meth:`~repro.dbms.ExecutionLog.overlapping_pairs`, and
    a pair's gain is ``np.mean`` of its terms in log order
    (:func:`~repro.dbms.logs.grouped_means`).
    """
    n = len(batch)
    gains = np.zeros((n, n), dtype=np.float64)
    observed = np.zeros((n, n), dtype=bool)
    # A positive overlap implies positive execution times, so both times and
    # both average times are positive: no execution or pair is skipped.
    query_i, query_j, overlap, time_i, time_j = log.overlapping_pairs()
    averages = log.average_execution_times()
    average = np.zeros(max(averages, default=-1) + 1)
    average[list(averages)] = list(averages.values())
    avg_i, avg_j = average[query_i], average[query_j]
    weight_i, weight_j = np.sqrt(avg_i), np.sqrt(avg_j)
    acceleration_i = 1.0 - time_i / avg_i
    acceleration_j = 1.0 - time_j / avg_j
    overlap_i = overlap / time_i
    overlap_j = overlap / time_j
    terms = (overlap_i * acceleration_i * weight_i + overlap_j * acceleration_j * weight_j) / (weight_i + weight_j)

    first, values = grouped_means(query_i * len(average) + query_j, terms)
    rows, cols = query_i[first], query_j[first]
    gains[rows, cols] = gains[cols, rows] = values
    observed[rows, cols] = observed[cols, rows] = True
    return gains, observed


class GainModel(Module):
    """Symmetric MLP predicting the scheduling gain of a query pair.

    Symmetry is enforced by evaluating the MLP on both orderings of the pair
    and summing, exactly as in the paper.  Fitting and matrix completion run
    whole batches of pairs through the tape-free ``fastgrad`` MLP kernels,
    with both orderings of every pair stacked as ``2B`` rows.
    """

    def __init__(self, plan_embedding_dim: int, hidden_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.net = MLP([2 * plan_embedding_dim, hidden_dim, 1], rng, activation="tanh")

    def _forward_pairs(
        self, embeddings: np.ndarray, rows: np.ndarray, cols: np.ndarray, arena: fastgrad.Arena
    ) -> tuple[np.ndarray, list]:
        """Gains of the pairs ``(rows[k], cols[k])`` and the MLP backward context."""
        count, dim = len(rows), embeddings.shape[1]
        stacked = arena.empty((2 * count, 2 * dim))
        stacked[:count, :dim] = stacked[count:, dim:] = embeddings[rows]
        stacked[:count, dim:] = stacked[count:, :dim] = embeddings[cols]
        outputs, ctx = fastgrad.mlp_forward(self.net, stacked, arena)
        return outputs[:count, 0] + outputs[count:, 0], ctx

    def minibatch_step(
        self,
        embeddings: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        targets: np.ndarray,
        arena: fastgrad.Arena,
    ) -> float:
        """Put the gradients of the mean squared error over one minibatch through ``arena``.

        Equals the tape gradient of the mean of ``(net([e_i, e_j]) +
        net([e_j, e_i]) - g_ij) ** 2`` over the same pairs; returns that mean
        loss.
        """
        predictions, ctx = self._forward_pairs(embeddings, rows, cols, arena)
        residual = predictions - targets
        g_pair = residual * (2.0 / len(rows))
        fastgrad.mlp_backward(self.net, ctx, np.tile(g_pair, 2)[:, None], arena, need_input_grad=False)
        return float(np.mean(residual * residual))

    def fit(
        self,
        embeddings: np.ndarray,
        gains: np.ndarray,
        observed: np.ndarray,
        seed: int = 0,
    ) -> list[float]:
        """Fit the model to the observed entries of the gain matrix.

        :data:`GAIN_EPOCHS` epochs of shuffled minibatches of
        :data:`GAIN_BATCH_SIZE` pairs, one Adam step each, over slabs
        (:class:`~repro.nn.optim.AdamSlabs`); returns the mean per-pair loss
        of every epoch.
        """
        pairs = np.argwhere(np.triu(observed, k=1))
        if not len(pairs):
            raise SchedulingError("gain model needs at least one observed pair to fit")
        optimizer = AdamSlabs([(param,) for param in self.parameters()], lr=GAIN_LEARNING_RATE)
        arena = optimizer.arena
        rng = np.random.default_rng(seed)
        losses = []
        with optimizer.bound():
            for _ in range(GAIN_EPOCHS):
                rng.shuffle(pairs)
                epoch_loss = 0.0
                for start in range(0, len(pairs), GAIN_BATCH_SIZE):
                    rows, cols = pairs[start : start + GAIN_BATCH_SIZE].T
                    # The ragged last minibatch asks for its own buffer shapes.
                    arena.begin(len(rows))
                    epoch_loss += len(rows) * self.minibatch_step(embeddings, rows, cols, gains[rows, cols], arena)
                    optimizer.step(optimizer.size)
                losses.append(epoch_loss / len(pairs))
        return losses

    def predict_pairs(self, embeddings: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Predicted gains of the pairs ``(rows[k], cols[k])``, tape-free.

        Runs blocks of :data:`COMPLETION_BLOCK` pairs through one recycled
        arena: all O(n^2) pairs of a large batch in a single forward is a
        >15 MB working set, which shows up as the process's peak RSS.
        """
        arena = fastgrad.Arena()
        predictions = np.empty(len(rows))
        for start in range(0, len(rows), COMPLETION_BLOCK):
            block = slice(start, start + COMPLETION_BLOCK)
            predictions[block] = self._forward_pairs(embeddings, rows[block], cols[block], arena)[0]
            arena.reset()
        return predictions


def build_gain_matrix(
    log: ExecutionLog,
    batch: BatchQuerySet,
    plan_embeddings: np.ndarray | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Observed gains completed with model predictions for unobserved pairs.

    When ``plan_embeddings`` is omitted (or no pair was observed concurrently)
    the unobserved entries stay at zero.
    """
    gains, observed = compute_scheduling_gains(log, batch)
    if plan_embeddings is None or not observed.any():
        return gains
    model = GainModel(plan_embeddings.shape[1], GAIN_HIDDEN, np.random.default_rng(seed))
    model.fit(plan_embeddings, gains, observed, seed=seed)
    rows, cols = np.nonzero(np.triu(~observed, k=1))
    completed = gains.copy()
    completed[rows, cols] = completed[cols, rows] = model.predict_pairs(plan_embeddings, rows, cols)
    return completed
