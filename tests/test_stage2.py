import numpy as np

from vulnminer.analysis import FileAnalysis
from vulnminer.lexicon import DEFAULT_LEXICON
from vulnminer.source import SourceUnit
from vulnminer.stage2 import build_risk_matrix, verify_semantic


def test_no_risky_tokens_zero_matrix():
    unit = SourceUnit.from_text("t.php", "<?php $a = 1;")
    seq = FileAnalysis(unit).semantic
    bias = build_risk_matrix(seq, DEFAULT_LEXICON, beta=2.0)
    assert np.array_equal(bias.matrix, np.zeros((seq.n, seq.n)))


def test_risky_column_for_sink_token():
    unit = SourceUnit.from_text("t.php", "<?php system($x);")
    seq = FileAnalysis(unit).semantic
    position = seq.tokens.index("system")
    bias = build_risk_matrix(seq, DEFAULT_LEXICON, beta=1.5)
    assert position in bias.risky_columns
    assert np.allclose(bias.matrix[:, position], 1.5)


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
    assert vulnerable.score > 0.5
    assert sanitized.score < vulnerable.score
    assert sanitized.score < 0.5


def test_determinism(bundle, command_injection_unit):
    a = verify_semantic(FileAnalysis(command_injection_unit), bundle)
    b = verify_semantic(FileAnalysis(command_injection_unit), bundle)
    assert a.score == b.score


def test_clean_invariance_comments_ignored(bundle):
    base = SourceUnit.from_text("a.php", "<?php $x = $_GET['q'];\necho $x;")
    commented = SourceUnit.from_text(
        "b.php", "<?php // reading input\n$x = $_GET['q'];\n"
                 "/* output below */\necho $x;")
    assert verify_semantic(FileAnalysis(base), bundle).score \
        == verify_semantic(FileAnalysis(commented), bundle).score


def test_rename_invariance(bundle):
    base = SourceUnit.from_text("a.php", "<?php $user = $_GET['q'];\necho $user;")
    renamed = SourceUnit.from_text("b.php", "<?php $visitor_name = $_GET['q'];\n"
                                            "echo $visitor_name;")
    assert verify_semantic(FileAnalysis(base), bundle).score \
        == verify_semantic(FileAnalysis(renamed), bundle).score


def test_bias_increases_risky_mass_on_vulnerable_fixtures(
        bundle, manifest, labels):
    from vulnminer.source import SourceUnit as SU

    positives = [e.path for e in manifest.entries if e.label == 1][:25]
    for path in positives:
        unit = SU.from_file(path)
        biased = verify_semantic(FileAnalysis(unit), bundle, beta=2.0)
        unbiased = verify_semantic(FileAnalysis(unit), bundle, beta=0.0)
        if not biased.risky_positions:
            continue
        assert biased.risky_mass > unbiased.risky_mass, path


def test_risky_positions_within_sequence(bundle, corpus_units):
    for unit in corpus_units[:20]:
        result = verify_semantic(FileAnalysis(unit), bundle)
        seq = FileAnalysis(unit).semantic
        assert all(0 <= i < seq.n for i in result.risky_positions)


def test_handoff_records(bundle, corpus_units, tmp_path):
    import json

    from vulnminer.cli import write_jsonl
    from vulnminer.stage1 import propose_hypotheses

    hset = propose_hypotheses(corpus_units[:30], bundle, tau1=0.2)
    unit_of = {u.path: u for u in corpus_units}
    scores = [verify_semantic(FileAnalysis(unit_of[h.file_id]), bundle)
              for h in hset.hypotheses]
    out = tmp_path / "stage2.jsonl"
    write_jsonl([s.record() for s in scores], out)
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [set(r) for r in rows] == [{"path", "stage2_score"}] * len(scores)
    assert [r["path"] for r in rows] == [h.file_id for h in hset.hypotheses]
