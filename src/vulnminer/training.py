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
    attention_forward,
    gru_backward,
    gru_forward,
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
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        for k, arr in tensors.items():
            g = grads[k]
            self.m[k] = b1 * self.m[k] + (1 - b1) * g
            self.v[k] = b2 * self.v[k] + (1 - b2) * g * g
            mhat = self.m[k] / (1 - b1 ** self.t)
            vhat = self.v[k] / (1 - b2 ** self.t)
            arr -= self.lr * mhat / (np.sqrt(vhat) + eps)


def _fit(samples: list[Sample], vocab: Vocabulary, table: EmbeddingTable,
         cfg: TrainConfig, tensors: dict[str, np.ndarray], seed: int,
         forward, update_table: bool = False) -> list[float]:
    """Train ``tensors`` by seeded mini-batch Adam; returns the loss curve.

    ``forward(i, x)`` scores sample ``i`` on its dropped-out embedded
    sequence ``x`` and returns (score, backward), where ``backward(dscore)``
    gives (param grads, input grads). Batch gradients are per-sample means.
    With ``update_table`` the embedding table is trained too, and its PAD
    row is reset to zero after every step.
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
    curve: list[float] = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(samples))
        total = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            acc = {k: np.zeros_like(v) for k, v in tensors.items()}
            for si in batch:
                ids = ids_per_sample[si]
                emb = table.matrix[ids] if ids else np.zeros((0, cfg.dim))
                mask = np.ones(emb.shape) if cfg.dropout == 0.0 else (
                    rng.random(emb.shape) >= cfg.dropout) / (1.0 - cfg.dropout)
                score, backward = forward(si, emb * mask)
                loss, dscore = weighted_bce_loss(
                    score, samples[si].label, cfg.w_pos, cfg.w_neg)
                total += float(loss)
                grads, dseq = backward(dscore)
                for k in grads:
                    acc[k] += grads[k]
                if update_table and ids:
                    np.add.at(acc["emb"], ids, dseq * mask)
            for k in acc:
                acc[k] /= len(batch)
            opt.step(tensors, acc)
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

    def forward(i, x):
        score, _, cache = gru_forward(x, params)
        return score, lambda dscore: gru_backward(cache, dscore)

    curve = _fit(samples, vocab, table, cfg, params.arrays(), cfg.seed,
                 forward, update_table=True)
    params.validate()
    return params, curve


def train_semantic(samples: list[Sample], vocab: Vocabulary,
                   table: EmbeddingTable, cfg: TrainConfig):
    """Train the risk-biased attention head on frozen embeddings."""
    params = AttentionParams.init(cfg.dim, seed=cfg.seed + 1)
    biases = [RiskMatrix.build(len(s.tokens), s.risky_columns, cfg.beta)
              for s in samples]

    def forward(i, x):
        score, _, _, cache = attention_forward(x, params, biases[i])
        return score, lambda dscore: attention_backward(cache, dscore)

    curve = _fit(samples, vocab, table, cfg, params.arrays(), cfg.seed + 1,
                 forward)
    params.validate()
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
