import pytest

from vulnminer.bench import ABLATIONS, raw_token_stream, rows_to_csv, run_benchmark
from vulnminer.errors import VulnMinerError
from vulnminer.source import SourceUnit


@pytest.fixture(scope="module")
def rows(manifest, bundle):
    return run_benchmark(
        manifest, bundle,
        ablations=("no-bias", "no-norm-no-bias", "lambda0", "lambda1"),
        split="all")


def test_full_row_present_and_strong(rows):
    by_variant = {r.variant: r.metrics for r in rows}
    assert by_variant["full"].f1 >= 0.90


def test_lambda_rows_are_fusion_endpoints(rows, manifest, bundle, corpus_units,
                                          labels):
    from vulnminer.cascade import FusionConfig, run_pipeline
    from vulnminer.metrics import compute_metrics, confusion_from_pairs

    by_variant = {r.variant: r.metrics for r in rows}
    cfg = FusionConfig(1.0, bundle.fusion.tau, bundle.fusion.tau1)
    verdicts, _ = run_pipeline(corpus_units, bundle, cfg=cfg)
    pairs = [(labels[v.file_id], int(v.vulnerable)) for v in verdicts]
    stage1_only = compute_metrics(confusion_from_pairs(pairs))
    assert by_variant["lambda1"].f1 == pytest.approx(stage1_only.f1)
    assert by_variant["lambda1"].fnr == pytest.approx(stage1_only.fnr)


def test_bias_and_normalization_ablations_direction(rows):
    by_variant = {r.variant: r.metrics for r in rows}
    assert by_variant["stage2-full"].acc > by_variant["stage2-no-bias"].acc
    assert by_variant["stage2-full"].acc > by_variant["stage2-no-norm-no-bias"].acc


def test_raw_code_ablation_raises_fnr(manifest, bundle):
    rows = run_benchmark(manifest, bundle, ablations=("raw-code",),
                         split="all")
    by_variant = {r.variant: r.metrics for r in rows}
    assert by_variant["stage1-raw-code"].fnr > by_variant["stage1-full"].fnr


def test_no_flow_edges_ablation_direction(manifest, bundle):
    rows = run_benchmark(manifest, bundle, ablations=("no-flow-edges",),
                         split="all")
    by_variant = {r.variant: r.metrics for r in rows}
    assert by_variant["stage1-no-flow-edges"].fnr >= by_variant["stage1-full"].fnr


def test_csv_round_trip(rows):
    text = rows_to_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "variant,ACC,PRE,REC,F1,FPR,FNR"
    assert len(lines) == len(rows) + 1
    import csv
    import io

    parsed = list(csv.DictReader(io.StringIO(text)))
    assert parsed[0]["variant"] == "full"
    assert float(parsed[0]["F1"]) == pytest.approx(rows[0].metrics.f1, abs=1e-4)


def test_unknown_ablation_rejected(manifest, bundle):
    with pytest.raises(VulnMinerError):
        run_benchmark(manifest, bundle, ablations=("no-such-knob",))


def test_benchmark_determinism(manifest, bundle):
    one = run_benchmark(manifest, bundle, split="test")
    two = run_benchmark(manifest, bundle, split="test")
    assert [r.csv_fields() for r in one] == [r.csv_fields() for r in two]


def test_raw_token_stream_shape():
    unit = SourceUnit.from_text("t.php", "<?php $a = strlen($_GET['x']);")
    stream = raw_token_stream(unit)
    assert "$v1" in stream and "strlen" in stream and "$_GET" in stream
    assert "prog" not in stream  # no tree tokens in the raw ablation


def test_ablation_names_stable():
    assert set(ABLATIONS) == {"no-flow-edges", "raw-code", "no-bias",
                              "no-normalization", "no-norm-no-bias",
                              "lambda0", "lambda1"}


def test_every_analysis_and_pipeline_uses_the_given_lexicon(
        manifest, bundle, monkeypatch, tmp_path):
    from vulnminer import bench
    from vulnminer.lexicon import DEFAULT_LEXICON, lexicon_entries, load_lexicon

    path = tmp_path / "same.lex"
    path.write_text("\n".join(lexicon_entries(DEFAULT_LEXICON)) + "\n")
    lex = load_lexicon(path)
    seen = []
    analysis, pipeline = bench.FileAnalysis, bench.run_pipeline

    def seen_analysis(unit, lex=None):
        seen.append(("analysis", lex))
        return analysis(unit, lex)

    def seen_pipeline(units, bundle, cfg=None, lex=None):
        seen.append(("pipeline", lex))
        return pipeline(units, bundle, cfg=cfg, lex=lex)

    monkeypatch.setattr(bench, "FileAnalysis", seen_analysis)
    monkeypatch.setattr(bench, "run_pipeline", seen_pipeline)
    run_benchmark(manifest, bundle, ablations=("lambda0", "no-bias",
                                               "raw-code"), lex=lex)
    kinds = {kind for kind, _ in seen}
    assert kinds == {"analysis", "pipeline"}
    n_train = len(manifest.split("train"))
    assert len(seen) == 2 + len(manifest.split("test")) + n_train
    assert all(used is lex for _, used in seen)
