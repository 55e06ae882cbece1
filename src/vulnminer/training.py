"""Seeded mini-batch training for both detector stages."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import TrainingError
from .linearize import EmbeddingTable, Vocabulary
from .nn import (
    AttentionParams,
    DEFAULT_BETA,
    DEFAULT_DIM,
    DEFAULT_HIDDEN,
    GruParams,
    RiskMatrix,
    attention_backward,
    attention_batch,
    gru_backward,
    gru_batch,
    weighted_bce_loss,
)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 8
    dropout: float = 0.1
    epochs: int = 30
    w_pos: float = 1.0
    w_neg: float = 1.0
    seed: int = 0
    hidden: int = DEFAULT_HIDDEN
    dim: int = DEFAULT_DIM
    beta: float = DEFAULT_BETA

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise TrainingError("learning rate must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise TrainingError("dropout must be in [0, 1)")
        if self.epochs < 1:
            raise TrainingError("epochs must be >= 1")
        if self.w_pos <= 0 or self.w_neg <= 0:
            raise TrainingError("class weights must be positive")
        if self.batch_size < 1:
            raise TrainingError("batch size must be >= 1")
        if self.beta < 0:
            raise TrainingError("risk bias beta must be >= 0")


@dataclass
class Sample:
    tokens: list[str]
    label: int
    risky_columns: tuple[int, ...] = field(default_factory=tuple)


class _Adam:
    def __init__(self, learning_rate: float, tensors: dict[str, np.ndarray]):
        self.lr = learning_rate
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in tensors.items()}
        self.v = {k: np.zeros_like(v) for k, v in tensors.items()}

    def step(self, tensors: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        """One update, in place: the same arithmetic as
        ``m = b1*m + (1-b1)*g`` etc., so the same bits, with fewer
        temporaries."""
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        for k, arr in tensors.items():
            g, m, v = grads[k], self.m[k], self.v[k]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            denom = np.sqrt(v / (1 - b2 ** self.t))
            denom += eps
            update = m / (1 - b1 ** self.t)
            update *= self.lr
            update /= denom
            arr -= update


def _fit(samples: list[Sample], vocab: Vocabulary, table: EmbeddingTable,
         cfg: TrainConfig, tensors: dict[str, np.ndarray], seed: int,
         forward, backward, update_table: bool = False) -> list[float]:
    """Train ``tensors`` by seeded mini-batch Adam; returns the loss curve.

    Each mini-batch is one padded, masked kernel call: ``forward(batch, x,
    lengths)`` scores the samples ``batch`` from their dropped-out embedded
    sequences, padded into ``x`` (B, n, d), and returns (scores, cache);
    ``backward(cache, dscores)`` gives (param grads summed over the batch,
    input grads shaped like ``x``). Dropout masks are drawn per sample in
    batch order, so the random stream is that of one sample at a time.
    Batch gradients are per-sample means. With ``update_table`` the
    embedding table is trained too, and its PAD row is reset to zero
    after every step.
    """
    if not samples:
        raise TrainingError("training corpus is empty")
    labels = {s.label for s in samples}
    if labels != {0, 1}:
        raise TrainingError(
            f"corpus must contain both classes, found labels {sorted(labels)}")
    rng = np.random.default_rng(seed)
    if update_table:
        tensors = dict(tensors, emb=table.matrix)
    opt = _Adam(cfg.learning_rate, tensors)
    ids_per_sample = [vocab.ids(s.tokens) for s in samples]

    def batch_gradients(batch):
        """Mean gradients and per-sample losses of one mini-batch; its
        padded arrays and cache are freed on return."""
        lengths = np.array([len(ids_per_sample[si]) for si in batch])
        ids = np.zeros((len(batch), lengths.max()), dtype=np.intp)
        mask = np.zeros(ids.shape + (cfg.dim,))
        for row, si in enumerate(batch):
            n = lengths[row]
            ids[row, :n] = ids_per_sample[si]
            mask[row, :n] = 1.0 if cfg.dropout == 0.0 else (
                rng.random((n, cfg.dim)) >= cfg.dropout) / (1.0 - cfg.dropout)
        scores, cache = forward(batch, table.matrix[ids] * mask, lengths)
        losses, dscores = [], np.empty(len(batch))
        for row, si in enumerate(batch):
            loss, dscores[row] = weighted_bce_loss(
                float(scores[row]), samples[si].label, cfg.w_pos, cfg.w_neg)
            losses.append(float(loss))
        grads, dx = backward(cache, dscores)
        if update_table:
            grads["emb"] = np.zeros_like(table.matrix)
            np.add.at(grads["emb"], ids, dx * mask)
        return {k: g / len(batch) for k, g in grads.items()}, losses

    curve: list[float] = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(samples))
        total = 0.0
        for start in range(0, len(order), cfg.batch_size):
            grads, losses = batch_gradients(order[start:start + cfg.batch_size])
            total = sum(losses, total)
            opt.step(tensors, grads)
            if update_table:
                table.matrix[0, :] = 0.0
        curve.append(total / len(samples))
    return curve


def train_structural(samples: list[Sample], vocab: Vocabulary,
                     table: EmbeddingTable, cfg: TrainConfig):
    """Train the GRU head and the shared embedding table.

    Returns (GruParams, loss curve). The table is updated in place; the
    PAD row stays zero.
    """
    params = GruParams.init(cfg.dim, cfg.hidden, seed=cfg.seed)

    def forward(batch, x, lengths):
        return gru_batch(x, lengths, params)

    curve = _fit(samples, vocab, table, cfg, params.arrays(), cfg.seed,
                 forward, gru_backward, update_table=True)
    params.validate(cfg.dim, cfg.hidden)
    return params, curve


def train_semantic(samples: list[Sample], vocab: Vocabulary,
                   table: EmbeddingTable, cfg: TrainConfig):
    """Train the risk-biased attention head on frozen embeddings."""
    params = AttentionParams.init(cfg.dim, seed=cfg.seed + 1)
    risk = [RiskMatrix.build(len(s.tokens), s.risky_columns, cfg.beta).row
            for s in samples]

    def forward(batch, x, lengths):
        bias = np.zeros((len(batch), 1, x.shape[1]))
        for row, si in enumerate(batch):
            bias[row, 0, :lengths[row]] = risk[si]
        return attention_batch(x, lengths, params, bias)

    curve = _fit(samples, vocab, table, cfg, params.arrays(), cfg.seed + 1,
                 forward, attention_backward)
    params.validate(cfg.dim)
    return params, curve


def stage_configs(seed: int) -> tuple[TrainConfig, TrainConfig]:
    """Per-stage configs: recall-weighted stage one, precision-weighted stage two.

    Stage one is kept deliberately small (it is the cheap high-recall
    sieve); stage two gets the larger budget and carries the precision.
    """
    stage1 = TrainConfig(w_pos=4.0, seed=seed, hidden=16, epochs=20,
                         dropout=0.2)
    stage2 = TrainConfig(w_neg=2.0, seed=seed, epochs=100,
                         learning_rate=2e-3, dropout=0.1)
    return stage1, stage2
