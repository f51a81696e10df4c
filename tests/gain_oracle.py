"""Test-side references for the scheduling gain and its model.

``tape_gain`` is the forward ``GainModel`` carried as a method before its
fit and completion ran whole batches of pairs through the
``repro.nn.fastgrad`` MLP kernels: the MLP on both orderings of the pair,
summed.  The batched kernels are checked against it.

``adam_fit`` is ``GainModel.fit`` as it ran before the small-fit optimizer
(``repro.nn.optim.AdamSlabs``): one ``Adam`` step per minibatch, gathering
``param.grad`` and installing fresh weights every step.  ``loop_overlaps``
and ``loop_scheduling_gains`` are the Python pair loops that
``ExecutionLog.overlapping_pairs`` and ``compute_scheduling_gains`` replaced
with arrays, over the pairwise ``overlap`` of two executions;
``grouped_overlaps`` groups the library's pair arrays the way the loop does.
The library must match all three byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.core import GainModel
from repro.core.gain import GAIN_BATCH_SIZE, GAIN_EPOCHS, GAIN_LEARNING_RATE
from repro.nn import Adam, Tensor, fastgrad, no_grad


def tape_gain(model: GainModel, embedding_i: np.ndarray, embedding_j: np.ndarray) -> Tensor:
    """The ``(1,)`` gain of the pair ``(i, j)``, on the tape."""
    forward_pair = Tensor(np.concatenate([embedding_i, embedding_j]))
    reverse_pair = Tensor(np.concatenate([embedding_j, embedding_i]))
    return (model.net(forward_pair) + model.net(reverse_pair)).reshape(1)


def tape_predict(model: GainModel, embedding_i: np.ndarray, embedding_j: np.ndarray) -> float:
    """:func:`tape_gain` as a float, recording no tape."""
    with no_grad():
        return float(tape_gain(model, embedding_i, embedding_j).data[0])


def adam_fit(
    model: GainModel,
    embeddings: np.ndarray,
    gains: np.ndarray,
    observed: np.ndarray,
    epochs: int = GAIN_EPOCHS,
    seed: int = 0,
) -> list[float]:
    """The ``Adam``-loop fit: same minibatches, losses and update arithmetic as ``GainModel.fit``."""
    pairs = np.argwhere(np.triu(observed, k=1))
    optimizer = Adam(model.parameters(), lr=GAIN_LEARNING_RATE)
    rng = np.random.default_rng(seed)
    arena = fastgrad.Arena()
    losses = []
    for _ in range(epochs):
        rng.shuffle(pairs)
        epoch_loss = 0.0
        for start in range(0, len(pairs), GAIN_BATCH_SIZE):
            rows, cols = pairs[start : start + GAIN_BATCH_SIZE].T
            optimizer.zero_grad()
            epoch_loss += len(rows) * model.minibatch_step(embeddings, rows, cols, gains[rows, cols], arena)
            optimizer.step()
            arena.reset()
        losses.append(epoch_loss / len(pairs))
    return losses


def overlap(rec_a, rec_b) -> float:
    """Wall-clock overlap between two executions (0.0 when they did not overlap)."""
    return max(0.0, min(rec_a.finish_time, rec_b.finish_time) - max(rec_a.submit_time, rec_b.submit_time))


def grouped_overlaps(log) -> dict:
    """``log.overlapping_pairs()`` grouped per unordered query pair, in ``loop_overlaps``' shape."""
    result: dict = {}
    query_i, query_j, overlaps, time_i, time_j = (column.tolist() for column in log.overlapping_pairs())
    for key_i, key_j, entry in zip(query_i, query_j, zip(overlaps, time_i, time_j)):
        result.setdefault((key_i, key_j), []).append(entry)
    return result


def loop_overlaps(log) -> dict:
    """For each unordered query pair, its ``(overlap, time_i, time_j)`` executions in log order."""
    result: dict = {}
    for round_log in log:
        records = round_log.records
        for a in range(len(records)):
            for b in range(a + 1, len(records)):
                rec_a, rec_b = records[a], records[b]
                pair_overlap = overlap(rec_a, rec_b)
                if pair_overlap <= 0:
                    continue
                key = (min(rec_a.query_id, rec_b.query_id), max(rec_a.query_id, rec_b.query_id))
                if rec_a.query_id <= rec_b.query_id:
                    entry = (pair_overlap, rec_a.execution_time, rec_b.execution_time)
                else:
                    entry = (pair_overlap, rec_b.execution_time, rec_a.execution_time)
                result.setdefault(key, []).append(entry)
    return result


def loop_scheduling_gains(log, batch) -> tuple[np.ndarray, np.ndarray]:
    """``compute_scheduling_gains`` as one ``np.mean`` per pair over :func:`loop_overlaps`."""
    n = len(batch)
    averages = log.average_execution_times()
    gains = np.zeros((n, n), dtype=np.float64)
    observed = np.zeros((n, n), dtype=bool)
    for (query_i, query_j), executions in loop_overlaps(log).items():
        avg_i = averages.get(query_i)
        avg_j = averages.get(query_j)
        if not avg_i or not avg_j:
            continue
        weight_i, weight_j = np.sqrt(avg_i), np.sqrt(avg_j)
        terms = []
        for overlap, time_i, time_j in executions:
            if time_i <= 0 or time_j <= 0:
                continue
            acceleration_i = 1.0 - time_i / avg_i
            acceleration_j = 1.0 - time_j / avg_j
            overlap_i = overlap / time_i
            overlap_j = overlap / time_j
            terms.append(
                (overlap_i * acceleration_i * weight_i + overlap_j * acceleration_j * weight_j)
                / (weight_i + weight_j)
            )
        if not terms:
            continue
        value = float(np.mean(terms))
        gains[query_i, query_j] = gains[query_j, query_i] = value
        observed[query_i, query_j] = observed[query_j, query_i] = True
    return gains, observed
