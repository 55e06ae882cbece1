import pytest

from vulnminer.analysis import FileAnalysis
from vulnminer.cli import write_jsonl
from vulnminer.errors import ParseError
from vulnminer.source import SourceUnit
from vulnminer.stage1 import (
    load_hypotheses,
    propose_hypotheses,
    score_structural,
)


def test_vulnerable_fixture_flagged(bundle, command_injection_unit):
    result = score_structural(FileAnalysis(command_injection_unit), bundle, tau1=0.2)
    assert result.score > 0.2
    assert result.passed


def test_pure_literal_program_rejected(bundle):
    unit = SourceUnit.from_text("lit.php", '<?php echo "hi";')
    result = score_structural(FileAnalysis(unit), bundle, tau1=0.2)
    assert result.score <= 0.2
    assert not result.passed


def test_unparseable_file_propagates_error(bundle):
    unit = SourceUnit.from_text("bad.php", "<?php if ($a)")
    with pytest.raises(ParseError):
        score_structural(FileAnalysis(unit), bundle)


def test_threshold_floor_passes_everything(bundle, corpus_units):
    hset = propose_hypotheses(corpus_units[:20], bundle, tau1=0.0)
    assert len(hset.hypotheses) == 20
    assert not hset.skip_log


def test_threshold_monotonicity(bundle, corpus_units):
    sizes = []
    for tau1 in (0.0, 0.2, 0.5, 0.8):
        hset = propose_hypotheses(corpus_units[:60], bundle, tau1=tau1)
        sizes.append(len(hset.hypotheses))
    assert sizes == sorted(sizes, reverse=True)


def test_hypotheses_sorted_descending(bundle, corpus_units):
    hset = propose_hypotheses(corpus_units[:60], bundle, tau1=0.2)
    scores = [h.score for h in hset.hypotheses]
    assert scores == sorted(scores, reverse=True)
    assert all(h.passed for h in hset.hypotheses)


def test_recall_at_low_threshold(bundle, corpus_units, labels):
    hset = propose_hypotheses(corpus_units, bundle, tau1=0.2)
    passed = set(hset.paths())
    positives = [p for p, label in labels.items() if label == 1]
    recall = sum(1 for p in positives if p in passed) / len(positives)
    assert recall >= 0.98


def test_order_independence(bundle, corpus_units):
    forward = propose_hypotheses(corpus_units[:30], bundle, tau1=0.2)
    backward = propose_hypotheses(list(reversed(corpus_units[:30])), bundle,
                                  tau1=0.2)
    assert [(h.file_id, h.score) for h in forward.hypotheses] \
        == [(h.file_id, h.score) for h in backward.hypotheses]


def test_parse_errors_collected_not_fatal(bundle, tmp_path):
    good = SourceUnit.from_text("ok.php", "<?php echo $_GET['x'];")
    bad = SourceUnit.from_text("bad.php", "<?php if (")
    hset = propose_hypotheses([good, bad], bundle, tau1=0.0)
    assert [p for p, _ in hset.errors] == ["bad.php"]
    assert len(hset.hypotheses) == 1


def test_handoff_file_round_trip(bundle, corpus_units, tmp_path):
    hset = propose_hypotheses(corpus_units[:20], bundle, tau1=0.2)
    path = tmp_path / "hypotheses.jsonl"
    write_jsonl([h.record() for h in hset.hypotheses], path)
    loaded = load_hypotheses(path)
    assert [(h.file_id, h.score, h.passed) for h in loaded] \
        == [(h.file_id, h.score, h.passed) for h in hset.hypotheses]


def test_empty_corpus_is_empty_set(bundle):
    hset = propose_hypotheses([], bundle, tau1=0.2)
    assert hset.hypotheses == [] and hset.skip_log == []
