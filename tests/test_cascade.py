import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vulnminer.cascade as cascade_mod
from vulnminer.analysis import FileAnalysis
from vulnminer.cascade import (
    FusionConfig,
    calibrate_lambda,
    fuse_scores,
    run_pipeline,
    search_lambda,
)
from vulnminer.cli import write_jsonl
from vulnminer.errors import TrainingError, VulnMinerError
from vulnminer.metrics import compute_metrics, confusion_from_pairs
from vulnminer.sarif import verdicts_to_sarif
from vulnminer.source import SourceUnit

unit_scores = st.floats(0.0, 1.0)


def test_fusion_endpoints():
    assert fuse_scores(0.8, 0.3, 1.0) == 0.8
    assert fuse_scores(0.8, 0.3, 0.0) == 0.3


def test_fusion_formula_exact():
    assert fuse_scores(0.8, 0.6, 0.5) == pytest.approx(0.7, abs=0)


def test_fusion_rejects_out_of_range():
    with pytest.raises(VulnMinerError):
        fuse_scores(1.2, 0.5, 0.5)
    with pytest.raises(VulnMinerError):
        fuse_scores(0.5, 0.5, -0.1)


@given(unit_scores, unit_scores, unit_scores, unit_scores, unit_scores)
@settings(max_examples=1000, deadline=None)
def test_fusion_monotone_and_bounded(s1, s2, t1, t2, lam):
    base = fuse_scores(s1, s2, lam)
    assert 0.0 <= base <= 1.0
    if t1 >= s1:
        assert fuse_scores(t1, s2, lam) >= base
    if t2 >= s2:
        assert fuse_scores(s1, t2, lam) >= base


def test_fusion_config_validation():
    with pytest.raises(VulnMinerError):
        FusionConfig(lam=0.5, tau=0.5, tau1=1.0)


def test_pipeline_gate_blocks_stage_two(bundle, corpus_units):
    cfg = FusionConfig(lam=bundle.fusion.lam, tau=bundle.fusion.tau,
                       tau1=0.999999)
    verdicts, _ = run_pipeline(corpus_units[:20], bundle, cfg=cfg)
    assert all(v.score2 is None and v.score_final is None for v in verdicts)
    assert not any(v.vulnerable for v in verdicts)


def test_pipeline_covers_every_parseable_file(bundle, corpus_units):
    broken = SourceUnit.from_text("broken.php", "<?php if (")
    verdicts, errors = run_pipeline(corpus_units[:15] + [broken], bundle)
    assert len(verdicts) == 15
    assert [p for p, _ in errors] == ["broken.php"]


def test_chunk_size_never_moves_a_verdict(bundle, corpus_units,
                                          monkeypatch):
    # A file scores the same bits alone and in any batch.
    runs = []
    for chunk in (1, 32, 64):
        monkeypatch.setattr(cascade_mod, "SCORE_CHUNK", chunk)
        verdicts, errors = run_pipeline(corpus_units, bundle)
        runs.append(([v.record() for v in verdicts], errors))
    assert runs[0] == runs[1] == runs[2]


def test_cascade_soundness_verdict_invariants(bundle, corpus_units):
    verdicts, _ = run_pipeline(corpus_units, bundle)
    for v in verdicts:
        if v.score2 is None:
            assert v.score_final is None and v.vulnerable is False
            assert v.score1 <= bundle.fusion.tau1
        else:
            assert v.score1 > bundle.fusion.tau1
            assert 0.0 <= v.score_final <= 1.0
            assert v.vulnerable == (v.score_final > bundle.fusion.tau)


def test_cascade_quality_on_bundled_corpus(bundle, corpus_units, labels):
    verdicts, _ = run_pipeline(corpus_units, bundle)
    pairs = [(labels[v.file_id], int(v.vulnerable)) for v in verdicts]
    report = compute_metrics(confusion_from_pairs(pairs))
    assert report.f1 >= 0.90
    assert report.fnr <= 0.05


def test_verdict_output_round_trip(bundle, corpus_units, tmp_path):
    verdicts, _ = run_pipeline(corpus_units[:10], bundle)
    path = tmp_path / "verdicts.jsonl"
    write_jsonl([v.record() for v in verdicts], path)
    import json

    loaded = [json.loads(line) for line in path.read_text().splitlines()]
    assert [v.record() for v in verdicts] == loaded


def test_sarif_document_shape(bundle, command_injection_unit, clean_unit):
    verdicts, _ = run_pipeline([command_injection_unit, clean_unit], bundle)
    doc = verdicts_to_sarif(verdicts)
    assert doc["version"] == "2.1.0"
    results = doc["runs"][0]["results"]
    assert len(results) == 1
    location = results[0]["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"].endswith("command_injection.php")
    assert location["region"]["startLine"] == 3


def test_calibration_requires_both_classes(bundle, corpus_units):
    with pytest.raises(TrainingError):
        calibrate_lambda([(corpus_units[0], 1)], bundle)


def test_calibration_tie_breaks_toward_smaller_lambda():
    # identical stage scores make every lambda equivalent
    scored = [(1, 0.9, 0.9), (0, 0.1, 0.1), (1, 0.8, 0.8), (0, 0.2, 0.2)]
    lam, f1 = search_lambda(scored, tau=0.5)
    assert lam == 0.0
    assert f1 == 1.0


def test_calibration_prefers_perfect_stage():
    # stage one perfect, stage two anti-correlated: lambda* must be 1
    # borderline pair: only lambda = 1 classifies both correctly
    scored = [(1, 0.95, 0.1), (1, 0.51, 0.0), (0, 0.49, 1.0), (0, 0.1, 0.8)]
    lam, f1 = search_lambda(scored, tau=0.5)
    assert lam == 1.0 and f1 == 1.0


def test_calibrated_lambda_reproducible(bundle, manifest):
    from vulnminer.detector import load_units

    val_units = [(FileAnalysis(u), label)
                 for u, label in load_units(manifest.split("val"))]
    lam1, _ = calibrate_lambda(val_units, bundle)
    lam2, _ = calibrate_lambda(val_units, bundle)
    assert lam1 == lam2 == bundle.fusion.lam


def test_recall_dominance(bundle, corpus_units, labels):
    from vulnminer.stage1 import propose_hypotheses

    hset = propose_hypotheses(corpus_units, bundle, tau1=0.2)
    passed = set(hset.paths())
    verdicts, _ = run_pipeline(corpus_units, bundle)
    positives = {p for p, label in labels.items() if label == 1}
    hyp_recall = len(passed & positives) / len(positives)
    cascade_recall = sum(
        1 for v in verdicts if v.vulnerable and v.file_id in positives
    ) / len(positives)
    assert hyp_recall >= cascade_recall


def test_advisory_finding_is_the_most_severe_first_sink(corpus_units):
    from vulnminer.cascade import _advisory_finding
    from vulnminer.flows import classify_vuln_type

    def reference(analysis):
        findings = analysis.findings
        live = [f for f in findings if not f.sanitized] or findings
        if not live:
            return None, None

        def line(f):
            return analysis.unit.position(f.sink_start)[0]

        best = max(live, key=lambda f: (f.severity, -line(f)))
        return classify_vuln_type(best), line(best)

    for unit in corpus_units:
        analysis = FileAnalysis(unit)
        assert _advisory_finding(analysis) == reference(analysis), unit.path
