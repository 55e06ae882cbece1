"""One analysis per text: parse counts and the lexicon each stage sees."""

import dataclasses

import pytest

import vulnminer.cascade as cascade_mod
import vulnminer.localize.engine as engine_mod
from vulnminer.analysis import FileAnalysis
from vulnminer.cascade import fuse_scores, run_pipeline
from vulnminer.corpus import CorpusManifest, generate_synthetic_corpus
from vulnminer.detector import train_bundle
from vulnminer.frontend import parser
from vulnminer.lexicon import DEFAULT_LEXICON
from vulnminer.localize import DeterministicBackend, default_templates, localize
from vulnminer.source import SourceUnit
from vulnminer.stage1 import score_structural
from vulnminer.stage2 import verify_semantic

# Default lexicon plus one extra source name. Sources only mark risky
# attention columns (taint tracing takes sources from the tree), so this
# changes stage-two scores of texts calling escapeshellcmd and nothing else.
CUSTOM_LEXICON = dataclasses.replace(
    DEFAULT_LEXICON, sources=DEFAULT_LEXICON.sources | {"escapeshellcmd"})


@pytest.fixture
def parse_count(monkeypatch):
    calls = []
    program = parser._Parser.program

    def counting(self):
        calls.append(self.unit.path)
        return program(self)

    monkeypatch.setattr(parser._Parser, "program", counting)
    return calls


def test_fields_are_computed_once(command_injection_unit, parse_count):
    analysis = FileAnalysis(command_injection_unit)
    assert analysis.structural is analysis.structural
    assert analysis.semantic is analysis.semantic
    assert analysis.findings is analysis.findings
    assert parse_count == [command_injection_unit.path]


def test_run_pipeline_parses_each_file_once(bundle, corpus_units,
                                            command_injection_unit,
                                            parse_count):
    units = corpus_units[:40] + [command_injection_unit]
    verdicts, errors = run_pipeline(units, bundle)
    assert any(v.score2 is not None for v in verdicts)
    assert any(v.vulnerable for v in verdicts)
    assert not errors
    assert sorted(parse_count) == sorted(u.path for u in units)


def test_localize_parses_original_once_and_each_candidate_once(
        bundle, command_injection_unit, parse_count, monkeypatch):
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


def test_candidates_scored_with_the_localization_lexicon(
        bundle, command_injection_unit):
    report = localize(command_injection_unit, bundle, default_templates(),
                      DeterministicBackend(), lex=CUSTOM_LEXICON)
    assert report.succeeded and "escapeshellcmd(" in report.candidate_text
    unit = SourceUnit.from_text(command_injection_unit.path + ".candidate",
                                report.candidate_text)
    custom = FileAnalysis(unit, CUSTOM_LEXICON)
    two = verify_semantic(custom, bundle).score
    assert two != verify_semantic(FileAnalysis(unit), bundle).score
    one = score_structural(custom, bundle).score
    assert report.s_sec == 1.0 - fuse_scores(one, two, bundle.fusion.lam)


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
