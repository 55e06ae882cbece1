"""One analysis per text: parse counts and the lexicon each stage sees."""

import dataclasses
import gc
import sys

import pytest

import vulnminer.analysis as analysis_mod
import vulnminer.cascade as cascade_mod
import vulnminer.localize.engine as engine_mod
from vulnminer.analysis import FileAnalysis
from vulnminer.cascade import fuse_scores, run_pipeline
from vulnminer.corpus import CorpusManifest, generate_synthetic_corpus
from vulnminer.detector import train_bundle
from vulnminer.flows import augment_flows
from vulnminer.frontend import normalize
from vulnminer.lexicon import DEFAULT_LEXICON
from vulnminer.linearize import embed_sequence, linearize
from vulnminer.localize import DeterministicBackend, default_templates, localize
from vulnminer.source import SourceUnit
from vulnminer.stage1 import propose_hypotheses, score_structural
from vulnminer.stage2 import build_risk_matrix, verify_semantic

from conftest import FIXTURES

# Default lexicon plus one extra source name. Sources only mark risky
# attention columns (taint tracing takes sources from the tree), so this
# changes stage-two scores of texts calling escapeshellcmd and nothing else.
CUSTOM_LEXICON = dataclasses.replace(
    DEFAULT_LEXICON, sources=DEFAULT_LEXICON.sources | {"escapeshellcmd"})

# Default lexicon plus the sink run_job, a name no default set knows.
RUN_JOB_LEXICON = dataclasses.replace(
    DEFAULT_LEXICON, sinks={**DEFAULT_LEXICON.sinks, "run_job": "Command"})


@pytest.fixture
def graph_count(monkeypatch):
    roots = []

    def counting(root):
        roots.append(root)
        return augment_flows(root)

    monkeypatch.setattr(analysis_mod, "augment_flows", counting)
    return roots


@pytest.fixture
def embed_count(monkeypatch):
    """Every ``embed_sequence`` call, through any module that imports it."""
    calls = []

    def counting(seq, table, vocab):
        calls.append(seq)
        return embed_sequence(seq, table, vocab)

    for name, module in list(sys.modules.items()):
        if name.startswith("vulnminer") \
                and getattr(module, "embed_sequence", None) is embed_sequence:
            monkeypatch.setattr(module, "embed_sequence", counting)
    return calls


def test_fields_are_computed_once(command_injection_unit, parse_count):
    analysis = FileAnalysis(command_injection_unit)
    assert analysis.structural is analysis.structural
    assert analysis.semantic is analysis.semantic
    assert analysis.findings is analysis.findings
    assert analysis.parents is analysis.parents
    assert parse_count == [command_injection_unit.path]


def test_lexicon_sink_reaches_both_sequences():
    lex = RUN_JOB_LEXICON
    unit = SourceUnit.from_text("t.php", '<?php run_job($_GET["c"]);')
    analysis = FileAnalysis(unit, lex)
    assert [f.sink_class for f in analysis.findings] == ["Command"]
    assert "run_job" in analysis.structural.tokens
    semantic = analysis.semantic.tokens
    assert "run_job" in semantic
    risk = build_risk_matrix(analysis.semantic, lex, beta=2.0)
    assert semantic.index("run_job") in risk.risky_columns


def _normalized_reference(analysis: FileAnalysis) -> list[str]:
    """Stage-two tokens the long way: rename the tree, then a second graph."""
    tree = normalize(analysis.ast, keep=analysis.keep)
    return linearize(augment_flows(tree), flow_markers=False,
                     keep=analysis.keep).tokens


def test_semantic_sequence_matches_the_normalized_tree(corpus_units):
    units = [(u, DEFAULT_LEXICON) for u in corpus_units]
    units.append((SourceUnit.from_text(
        "t.php", '<?php function helper($x){return $x;} $pwd = $_GET["c"]; '
        '$d = "a" . $pwd; run_job(helper($d));'), RUN_JOB_LEXICON))
    for unit, lex in units:
        analysis = FileAnalysis(unit, lex)
        assert analysis.semantic.tokens == _normalized_reference(analysis), \
            unit.path
    assert "run_job" in analysis.semantic.tokens
    assert "$sec1" in analysis.semantic.tokens


def test_one_walk_feeds_both_sequences(corpus_units, monkeypatch):
    walks = []

    def counting(graph, **kwargs):
        walks.append(graph)
        return linearize(graph, **kwargs)

    monkeypatch.setattr(analysis_mod, "linearize", counting)
    units = corpus_units + [SourceUnit.from_file(p)
                            for p in sorted(FIXTURES.glob("*.php"))]
    # a chain of assignments past the length budget: markers are cut
    units.append(SourceUnit.from_text("long.php", "<?php $a0 = $_GET['x'];"
                                      + "".join(f" $a{i} = $a{i - 1};"
                                                for i in range(1, 200))))
    truncated = 0
    for unit in units:
        walks.clear()
        analysis = FileAnalysis(unit)
        structural, semantic = analysis.structural, analysis.semantic
        assert walks == [analysis.graph], unit.path
        n = len(semantic.tokens)
        markers = structural.tokens[n:]
        assert structural.tokens[:n] == semantic.tokens
        assert len(markers) % 3 == 0
        assert all(markers[i] == "DF" and markers[i + 1][0] == "@"
                   and markers[i + 2][0] == "@"
                   for i in range(0, len(markers), 3))
        assert structural.statements == semantic.statements
        reference = linearize(analysis.graph, keep=analysis.keep)
        assert (structural.tokens, structural.statements, structural.truncated) \
            == (reference.tokens, reference.statements, reference.truncated)
        truncated += structural.truncated
    assert truncated >= 1


def test_run_pipeline_parses_each_file_once(bundle, corpus_units,
                                            command_injection_unit,
                                            parse_count, graph_count):
    units = corpus_units[:40] + [command_injection_unit]
    verdicts, errors = run_pipeline(units, bundle)
    assert any(v.score2 is not None for v in verdicts)
    assert any(v.vulnerable for v in verdicts)
    assert not errors
    assert sorted(parse_count) == sorted(u.path for u in units)
    assert len(graph_count) == len(parse_count)


def test_run_pipeline_embeds_only_stage_two_inputs(bundle, corpus_units,
                                                  embed_count):
    verdicts, errors = run_pipeline(corpus_units, bundle)
    assert not errors
    verified = sum(v.score2 is not None for v in verdicts)
    assert 0 < verified < len(verdicts)
    assert len(embed_count) == verified


def test_localize_parses_original_once_and_each_candidate_once(
        bundle, command_injection_unit, parse_count, graph_count,
        monkeypatch):
    generated = []
    generate = engine_mod.generate_candidates

    def counting(*args, **kwargs):
        out = generate(*args, **kwargs)
        generated.extend(out)
        return out

    monkeypatch.setattr(engine_mod, "generate_candidates", counting)
    report = localize(command_injection_unit, bundle, default_templates(),
                      DeterministicBackend())
    assert report.succeeded
    assert generated
    assert len(parse_count) <= 1 + len(generated)
    assert parse_count.count(command_injection_unit.path) == 1
    assert len(graph_count) == len(parse_count)


def test_candidates_scored_with_the_localization_lexicon(
        bundle, command_injection_unit):
    report = localize(command_injection_unit, bundle, default_templates(),
                      DeterministicBackend(), lex=CUSTOM_LEXICON)
    assert report.succeeded and "escapeshellcmd(" in report.candidate_text
    unit = SourceUnit.from_text(command_injection_unit.path + ".candidate",
                                report.candidate_text)
    custom = FileAnalysis(unit, CUSTOM_LEXICON)
    two = verify_semantic(custom, bundle)
    assert two != verify_semantic(FileAnalysis(unit), bundle)
    one = score_structural(custom, bundle).score
    assert report.s_sec == 1.0 - fuse_scores(one, two, bundle.fusion.lam)


def test_entry_points_analyze_with_the_model_lexicon(bundle):
    b2 = dataclasses.replace(bundle, lexicon=RUN_JOB_LEXICON)
    u = SourceUnit.from_text("job.php",
                             "<?php\n$c = $_GET['c'];\nrun_job($c);\n")
    verdicts, errors = run_pipeline([u], b2)
    assert (verdicts, errors) == run_pipeline([u], b2, lex=RUN_JOB_LEXICON)
    (verdict,) = verdicts
    assert (verdict.vuln_type, verdict.sink_line) == ("Injection", 3)
    report = localize(u, b2, default_templates(), DeterministicBackend())
    assert report.status == "ok"
    (hypothesis,) = propose_hypotheses([u], b2, tau1=0.0).hypotheses
    assert hypothesis.score == score_structural(
        FileAnalysis(u, RUN_JOB_LEXICON), b2).score


def test_training_calibrates_with_its_lexicon(tmp_path, monkeypatch):
    manifest = generate_synthetic_corpus(tmp_path, seed=7, size=40)
    assert {e.label for e in manifest.split("val")} == {0, 1}
    seen = []
    verify = cascade_mod.verify_semantic

    def recording(analysis, bundle, **kwargs):
        seen.append(analysis.lex)
        return verify(analysis, bundle, **kwargs)

    monkeypatch.setattr(cascade_mod, "verify_semantic", recording)
    train_bundle(CorpusManifest.load(tmp_path / "manifest.jsonl"),
                 lex=CUSTOM_LEXICON)
    assert seen and all(lex is CUSTOM_LEXICON for lex in seen)


def test_analyses_leave_no_cyclic_garbage(bundle):
    # Reference counting alone must free a dropped analysis and its tree.
    units = [SourceUnit.from_file(p) for p in sorted(FIXTURES.glob("*.php"))]
    gc.collect()
    gc.disable()
    try:
        for unit in units:
            analysis = FileAnalysis(unit)
            analysis.structural, analysis.semantic, analysis.findings
        localize(SourceUnit.from_file(FIXTURES / "command_injection.php"),
                 bundle, default_templates(), DeterministicBackend())
        del analysis
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_paused_pipeline_leaves_no_cyclic_garbage(bundle):
    # run_pipeline pauses the collector, so every analysis it drops, error
    # records and flagged files included, must be freed by reference counts.
    units = [SourceUnit.from_file(p) for p in sorted(FIXTURES.glob("*.php"))]
    units += [
        SourceUnit.from_text("class.php", "<?php class A { }"),
        SourceUnit.from_text(
            "deep.php", "<?php $a = " + "(" * 400 + "1" + ")" * 400 + ";"),
    ]
    gc.collect()
    gc.disable()
    try:
        verdicts, errors = run_pipeline(units, bundle)
        assert not gc.isenabled()
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert any(v.vulnerable and v.vuln_type for v in verdicts)
    assert [path for path, _ in errors] == ["class.php", "deep.php"]
    assert errors[1][1] == "nesting too deep"


def test_pipeline_restores_the_collector_state(bundle):
    units = [SourceUnit.from_file(p) for p in sorted(FIXTURES.glob("*.php"))]

    def failing():
        yield units[0]
        raise RuntimeError("unit stream broke")

    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            run_pipeline(units, bundle)
            assert gc.isenabled() == enabled
            with pytest.raises(RuntimeError, match="unit stream broke"):
                run_pipeline(failing(), bundle)
            assert gc.isenabled() == enabled
    finally:
        gc.enable()
