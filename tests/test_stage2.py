import numpy as np

from vulnminer.analysis import FileAnalysis
from vulnminer.lexicon import DEFAULT_LEXICON
from vulnminer.linearize import embed_sequence
from vulnminer.nn import attention_forward, risky_attention_mass
from vulnminer.source import SourceUnit
from vulnminer.stage2 import build_risk_matrix, risky_columns, verify_semantic


def test_no_risky_tokens_zero_matrix():
    unit = SourceUnit.from_text("t.php", "<?php $a = 1;")
    seq = FileAnalysis(unit).semantic
    bias = build_risk_matrix(seq, DEFAULT_LEXICON, beta=2.0)
    assert np.array_equal(bias.row, np.zeros(len(seq.tokens)))


def test_risky_column_for_sink_token():
    unit = SourceUnit.from_text("t.php", "<?php system($x);")
    seq = FileAnalysis(unit).semantic
    position = seq.tokens.index("system")
    bias = build_risk_matrix(seq, DEFAULT_LEXICON, beta=1.5)
    assert position in bias.risky_columns
    assert bias.row[position] == 1.5


def test_appendix_case_risky_columns(command_injection_unit):
    seq = FileAnalysis(command_injection_unit).semantic
    bias = build_risk_matrix(seq, DEFAULT_LEXICON, beta=2.0)
    expected = {i for i, t in enumerate(seq.tokens) if t in ("$_GET", "system")}
    assert set(bias.risky_columns) == expected
    assert len(expected) == 3  # two superglobal reads plus the call


def test_verifier_separates_vulnerable_from_sanitized(
        bundle, command_injection_unit, command_injection_fixed_unit):
    vulnerable = verify_semantic(FileAnalysis(command_injection_unit), bundle)
    sanitized = verify_semantic(FileAnalysis(command_injection_fixed_unit), bundle)
    assert vulnerable > 0.5
    assert sanitized < vulnerable
    assert sanitized < 0.5


def test_determinism(bundle, command_injection_unit):
    a = verify_semantic(FileAnalysis(command_injection_unit), bundle)
    b = verify_semantic(FileAnalysis(command_injection_unit), bundle)
    assert a == b


def test_clean_invariance_comments_ignored(bundle):
    base = SourceUnit.from_text("a.php", "<?php $x = $_GET['q'];\necho $x;")
    commented = SourceUnit.from_text(
        "b.php", "<?php // reading input\n$x = $_GET['q'];\n"
                 "/* output below */\necho $x;")
    assert verify_semantic(FileAnalysis(base), bundle) \
        == verify_semantic(FileAnalysis(commented), bundle)


def test_rename_invariance(bundle):
    base = SourceUnit.from_text("a.php", "<?php $user = $_GET['q'];\necho $user;")
    renamed = SourceUnit.from_text("b.php", "<?php $visitor_name = $_GET['q'];\n"
                                            "echo $visitor_name;")
    assert verify_semantic(FileAnalysis(base), bundle) \
        == verify_semantic(FileAnalysis(renamed), bundle)


def test_bias_increases_risky_mass_on_vulnerable_fixtures(
        bundle, manifest, labels):
    from vulnminer.source import SourceUnit as SU

    positives = [e.path for e in manifest.entries if e.label == 1][:25]
    for path in positives:
        analysis = FileAnalysis(SU.from_file(path))
        seq = analysis.semantic
        emb = embed_sequence(seq, bundle.embedding, bundle.vocab)
        masses = []
        for beta in (2.0, 0.0):
            bias = build_risk_matrix(seq, analysis.lex, beta)
            _, _, attn, _ = attention_forward(emb, bundle.stage2, bias)
            masses.append(risky_attention_mass(attn, bias.risky_columns))
        if not bias.risky_columns:
            continue
        assert masses[0] > masses[1], path


def test_risky_positions_within_sequence(corpus_units):
    for unit in corpus_units[:20]:
        analysis = FileAnalysis(unit)
        seq = analysis.semantic
        bias = build_risk_matrix(seq, analysis.lex, 2.0)
        assert bias.risky_columns == risky_columns(seq, analysis.lex)
        assert all(0 <= i < len(seq.tokens) for i in bias.risky_columns)

