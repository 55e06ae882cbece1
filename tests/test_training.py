import hashlib
import math

import numpy as np
import pytest

from vulnminer import training
from vulnminer.errors import TrainingError
from vulnminer.linearize import EmbeddingTable, Vocabulary
from vulnminer.nn import attention_forward, gru_forward, RiskMatrix
from vulnminer.training import (
    Sample,
    TrainConfig,
    stage_configs,
    train_semantic,
    train_structural,
)

TOKENS_POS = ["prog", "=", "$v1", "$_GET", "echo", "$v1"]
TOKENS_NEG = ["prog", "=", "$v1", "htmlspecialchars", "$_GET", "echo", "$v1"]


STRUCTURAL_DIGEST = "1700457f3ba9313c612ed0cc41b479aad65825c171c6e6a1759eee06dceed7a9"
SEMANTIC_DIGEST = "eabbb67f9db5a56b8f81b5837f9394147653f7d272dfb7790869083ed535eb36"


def tiny_corpus(n_each=4):
    samples = []
    for i in range(n_each):
        samples.append(Sample(tokens=TOKENS_POS + [f"@{i + 1}"], label=1))
        samples.append(Sample(tokens=TOKENS_NEG + [f"@{i + 1}"], label=0))
    return samples


def build_tables(samples, dim=8, seed=0):
    vocab = Vocabulary.build([s.tokens for s in samples])
    table = EmbeddingTable.init(len(vocab), dim, seed=seed)
    return vocab, table


def test_config_validation():
    with pytest.raises(TrainingError):
        TrainConfig(epochs=0)
    with pytest.raises(TrainingError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(TrainingError):
        TrainConfig(dropout=1.0)
    with pytest.raises(TrainingError):
        TrainConfig(beta=-1.0)


def test_single_class_corpus_refused():
    samples = [Sample(tokens=TOKENS_POS, label=1) for _ in range(4)]
    vocab, table = build_tables(samples)
    cfg = TrainConfig(dim=8, hidden=4, epochs=1, seed=0)
    with pytest.raises(TrainingError, match="both classes"):
        train_structural(samples, vocab, table, cfg)


def test_empty_corpus_refused():
    with pytest.raises(TrainingError):
        train_structural([], Vocabulary.build([["x"]]),
                         EmbeddingTable.init(3, 4, 0),
                         TrainConfig(dim=4, hidden=2, epochs=1))


def test_loss_non_increasing_overall():
    samples = tiny_corpus()
    vocab, table = build_tables(samples)
    cfg = TrainConfig(dim=8, hidden=6, epochs=10, seed=3, dropout=0.0)
    _, curve = train_structural(samples, vocab, table, cfg)
    assert len(curve) == 10
    assert curve[-1] < curve[0]


def test_seeded_training_is_bit_reproducible():
    samples = tiny_corpus()
    cfg = TrainConfig(dim=8, hidden=4, epochs=5, seed=11, dropout=0.2)
    vocab1, table1 = build_tables(samples, seed=1)
    p1, c1 = train_structural(samples, vocab1, table1, cfg)
    vocab2, table2 = build_tables(samples, seed=1)
    p2, c2 = train_structural(samples, vocab2, table2, cfg)
    assert c1 == c2
    for k, arr in p1.arrays().items():
        assert np.array_equal(arr, p2.arrays()[k]), k
    assert np.array_equal(table1.matrix, table2.matrix)


def _digest(arrays: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(arrays):
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(arrays[name]).tobytes())
    return h.hexdigest()


def test_trained_arrays_match_the_recorded_digests():
    # Recorded with numpy 2.4 and one BLAS thread on x86-64. A change that
    # moves a trained bit, on purpose or not, shows here.
    samples = []
    for i in range(12):
        tokens = (TOKENS_POS if i % 2 else TOKENS_NEG) + [
            f"@{k + 1}" for k in range(i % 3)]
        samples.append(Sample(tokens=tokens, label=i % 2, risky_columns=tuple(
            j for j, t in enumerate(tokens) if t in ("$_GET", "echo"))))
    vocab, table = build_tables(samples)
    cfg = TrainConfig(dim=8, hidden=4, epochs=2, seed=0)
    gru, _ = train_structural(samples, vocab, table, cfg)
    attention, _ = train_semantic(samples, vocab, table, cfg)
    assert _digest(dict(gru.arrays(), emb=table.matrix)) == STRUCTURAL_DIGEST
    assert _digest(attention.arrays()) == SEMANTIC_DIGEST


def test_pad_row_stays_zero_through_training():
    samples = tiny_corpus()
    vocab, table = build_tables(samples)
    cfg = TrainConfig(dim=8, hidden=4, epochs=4, seed=2)
    train_structural(samples, vocab, table, cfg)
    assert np.array_equal(table.matrix[0], np.zeros(8))


def test_structural_training_separates_classes():
    samples = tiny_corpus(n_each=6)
    vocab, table = build_tables(samples)
    cfg = TrainConfig(dim=8, hidden=8, epochs=60, seed=5, dropout=0.0,
                      learning_rate=0.02)
    params, _ = train_structural(samples, vocab, table, cfg)
    pos = gru_forward(table.matrix[vocab.ids(TOKENS_POS + ["@1"])], params)[0]
    neg = gru_forward(table.matrix[vocab.ids(TOKENS_NEG + ["@1"])], params)[0]
    assert pos > 0.5 > neg


def test_semantic_training_separates_classes():
    samples = []
    for i in range(6):
        samples.append(Sample(tokens=TOKENS_POS + [f"@{i + 1}"], label=1,
                              risky_columns=(3,)))
        samples.append(Sample(tokens=TOKENS_NEG + [f"@{i + 1}"], label=0,
                              risky_columns=(4,)))
    vocab, table = build_tables(samples)
    cfg = TrainConfig(dim=8, epochs=80, seed=6, dropout=0.0, beta=2.0,
                      learning_rate=0.02)
    params, curve = train_semantic(samples, vocab, table, cfg)
    assert curve[-1] < curve[0]
    pos = attention_forward(
        table.matrix[vocab.ids(TOKENS_POS + ["@1"])], params,
        RiskMatrix.build(len(TOKENS_POS) + 1, (3,), 2.0))[0]
    neg = attention_forward(
        table.matrix[vocab.ids(TOKENS_NEG + ["@1"])], params,
        RiskMatrix.build(len(TOKENS_NEG) + 1, (4,), 2.0))[0]
    assert pos > 0.5 > neg


def test_backward_kernels_are_reached_through_module_globals(monkeypatch):
    # A tracer or probe that rebinds the kernels' names in this module
    # must see every mini-batch backward pass of both heads.
    calls = {"gru_backward": 0, "attention_backward": 0}
    for name in calls:
        kernel = getattr(training, name)

        def counted(*args, _name=name, _kernel=kernel):
            calls[_name] += 1
            return _kernel(*args)

        monkeypatch.setattr(training, name, counted)
    samples = tiny_corpus()
    vocab, table = build_tables(samples)
    cfg = TrainConfig(dim=8, hidden=4, epochs=3, seed=1, batch_size=3)
    train_structural(samples, vocab, table, cfg)
    train_semantic(samples, vocab, table, cfg)
    batches = 3 * math.ceil(len(samples) / cfg.batch_size)
    assert calls == {"gru_backward": batches, "attention_backward": batches}


def test_stage_configs_weighting():
    one, two = stage_configs(seed=9)
    assert one.w_pos == 4.0 and one.seed == 9
    assert two.w_neg == 2.0
    assert one.hidden < two.hidden or one.epochs < two.epochs
