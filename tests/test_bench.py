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


def test_lambda_rows_are_fusion_endpoints(rows, bundle, corpus_units, labels):
    from dataclasses import replace

    from vulnminer.cascade import run_pipeline
    from vulnminer.metrics import compute_metrics, confusion_from_pairs

    by_variant = {r.variant: r.metrics.as_dict() for r in rows}
    for variant, lam in (("full", bundle.fusion.lam), ("lambda0", 0.0),
                         ("lambda1", 1.0)):
        cfg = replace(bundle.fusion, lam=lam)
        verdicts, errors = run_pipeline(corpus_units, bundle, cfg=cfg)
        assert not errors
        pairs = [(labels[v.file_id], int(v.vulnerable)) for v in verdicts]
        expected = compute_metrics(confusion_from_pairs(pairs)).as_dict()
        assert by_variant[variant] == expected, variant


def test_bench_parses_each_benched_file_once(manifest, bundle, parse_count):
    run_benchmark(manifest, bundle, split="all",
                  ablations=("lambda0", "lambda1"))
    assert sorted(parse_count) == sorted(e.path for e in manifest.entries)


def test_stage_two_reference_reuses_cascade_scores(manifest, bundle,
                                                   monkeypatch):
    from vulnminer import bench, cascade

    calls = []

    def count_in(module):
        verify = module.verify_semantic

        def counting(analysis, bundle, **kw):
            calls.append((analysis.path, tuple(sorted(kw.items()))))
            return verify(analysis, bundle, **kw)

        monkeypatch.setattr(module, "verify_semantic", counting)

    count_in(bench)
    count_in(cascade)
    run_benchmark(manifest, bundle, split="all", ablations=("no-bias",))
    paths = sorted(e.path for e in manifest.entries)
    # each file once at the model's settings and once for the ablation
    assert sorted(path for path, kw in calls if not kw) == paths
    assert sorted(path for path, kw in calls if kw) == paths


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


def test_every_analysis_uses_the_given_lexicon(manifest, bundle, monkeypatch,
                                               tmp_path):
    # the lexicon is the model's: an equal copy loaded from a file, so
    # each analysis must get that very object, not the built-in one
    import dataclasses

    from vulnminer import bench
    from vulnminer.lexicon import DEFAULT_LEXICON, lexicon_entries, load_lexicon

    path = tmp_path / "same.lex"
    path.write_text("\n".join(lexicon_entries(DEFAULT_LEXICON)) + "\n")
    lex = load_lexicon(path)
    seen = []
    analysis = bench.FileAnalysis

    def seen_analysis(unit, lex=None):
        seen.append((unit.path, lex))
        return analysis(unit, lex)

    monkeypatch.setattr(bench, "FileAnalysis", seen_analysis)
    run_benchmark(manifest, dataclasses.replace(bundle, lexicon=lex),
                  ablations=("lambda0", "no-bias", "raw-code"))
    expected = manifest.split("test") + manifest.split("train")
    assert sorted(p for p, _ in seen) == sorted(e.path for e in expected)
    assert all(used is lex for _, used in seen)
