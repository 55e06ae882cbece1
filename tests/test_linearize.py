import numpy as np
import pytest

from vulnminer.errors import ConfigError
from vulnminer.flows import augment_flows
from vulnminer.frontend import ast_equal, normalize, parse_text
from vulnminer.linearize import (
    PAD,
    UNK,
    EmbeddingTable,
    TokenSequence,
    Vocabulary,
    embed_sequence,
    linearize,
)


def seq_of(src, **kw):
    return linearize(augment_flows(parse_text("t.php", src)), **kw)


def test_single_echo_string():
    seq = seq_of("<?php echo 'hi';")
    assert seq.tokens[:2] == ["prog", "echo"]
    assert seq.tokens[2].startswith("str:txt:")
    assert len(seq.tokens) == 3


def test_flow_marker_after_structural_stream():
    seq = seq_of("<?php $a = 1; echo $a;")
    assert seq.tokens == ["prog", "=", "$v1", "num:1", "echo", "$v1",
                          "DF", "@1", "@2"]


def test_node_count_equals_structural_tokens():
    src = "<?php if ($a) { $b = $a . 'x'; } echo $b;"
    ast = parse_text("t.php", src)
    seq = linearize(augment_flows(ast), flow_markers=False)
    assert len(seq.tokens) == sum(1 for _ in ast.walk())


def test_truncation_flag_and_bound():
    src = "<?php " + " ".join(f"$a{i} = {i};" for i in range(300))
    seq = seq_of(src, max_len=64)
    assert seq.truncated
    assert len(seq.tokens) <= 64


def test_risky_names_survive_canonicalization():
    seq = seq_of("<?php system($_GET['c']); custom_helper($x);")
    assert "system" in seq.tokens
    assert "$_GET" in seq.tokens
    assert "f1" in seq.tokens  # custom_helper canonicalized


def test_raw_mode_keeps_names():
    seq = seq_of("<?php $username = 1; custom_helper($username);",
                 canonical=False)
    assert "$username" in seq.tokens
    assert "fn:custom_helper" in seq.tokens


def test_injectivity_over_corpus(corpus_units):
    seen = {}
    for unit in corpus_units:
        normalized = normalize(parse_text(unit.path, unit.text))
        stream = tuple(linearize(augment_flows(normalized)).tokens)
        if stream in seen:
            assert ast_equal(seen[stream], normalized), unit.path
        else:
            seen[stream] = normalized


def test_vocabulary_dense_and_stable():
    vocab = Vocabulary.build([["b", "a"], ["a", "c"]])
    assert vocab.symbols[0] == PAD and vocab.symbols[1] == UNK
    assert vocab.id_of("a") >= 2
    assert len(set(vocab.ids(["a", "b", "c"]))) == 3
    assert vocab.stable_hash() == Vocabulary.build([["c", "b", "a"]]).stable_hash()


def test_unknown_symbol_maps_to_unk():
    vocab = Vocabulary.build([["x"]])
    assert vocab.id_of("never-seen") == 1


def test_unknown_literal_falls_back_to_class_bucket():
    vocab = Vocabulary.build([["str:sql:aaaa"]])
    assert vocab.id_of("str:sql:ffff") == vocab.id_of("str:sql:*")
    assert vocab.id_of("@999") == vocab.id_of("@*")


def test_pad_row_stays_zero_and_lookup_linear():
    vocab = Vocabulary.build([["a", "b"]])
    table = EmbeddingTable.init(len(vocab), 8, seed=1)
    assert np.allclose(table.matrix[0], 0.0)
    seq = TokenSequence(tokens=[PAD, PAD])
    out = embed_sequence(seq, table, vocab)
    assert np.allclose(out, 0.0)


def test_identity_embedding_with_one_hot():
    vocab = Vocabulary.build([["a", "b"]])
    table = EmbeddingTable(matrix=np.eye(len(vocab)))
    seq = TokenSequence(tokens=["a", "b"])
    out = embed_sequence(seq, table, vocab)
    for i, token in enumerate(seq.tokens):
        expected = np.zeros(len(vocab))
        expected[vocab.id_of(token)] = 1.0
        assert np.array_equal(out[i], expected)


def test_determinism():
    seq = seq_of("<?php $x = $_GET['a']; echo $x;")
    vocab = Vocabulary.build([seq.tokens])
    table = EmbeddingTable.init(len(vocab), 16, seed=9)
    first = embed_sequence(seq, table, vocab)
    second = embed_sequence(seq, table, vocab)
    assert np.array_equal(first, second)


def test_size_mismatch_raises():
    vocab = Vocabulary.build([["a"]])
    table = EmbeddingTable.init(len(vocab) + 2, 4, seed=0)
    seq = TokenSequence(tokens=["a"])
    with pytest.raises(ConfigError):
        embed_sequence(seq, table, vocab)
