"""Benchmark runner: cascade metrics plus labeled ablation rows."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .analysis import FileAnalysis, analyzed
from .cascade import cascade_metrics, score_cascade
from .corpus import CorpusManifest
from .detector import bucket_rare_symbols, stage_samples, load_units
from .errors import VulnMinerError
from .frontend.lexer import tokenize
from .linearize import EmbeddingTable, Vocabulary
from .metrics import MetricsReport, compute_metrics, confusion_from_pairs
from .nn import gru_input_table, gru_scores
from .source import SourceUnit, read_unit
from .stage2 import verify_semantic
from .training import Sample, train_structural

ABLATIONS = ("no-flow-edges", "raw-code", "no-bias", "no-normalization",
             "no-norm-no-bias", "lambda0", "lambda1")


def raw_token_stream(unit: SourceUnit) -> list[str]:
    """Lexer stream with no tree structure: the raw-code ablation input."""
    symbols: list[str] = []
    names: dict[str, str] = {}
    for tok in tokenize(unit):
        if tok.kind in ("comment", "eof", "open_tag", "close_tag"):
            continue
        if tok.kind == "var":
            if tok.value.startswith("_"):
                symbols.append(f"$_{tok.value[1:]}")
            else:
                names.setdefault(tok.value, f"$v{len(names) + 1}")
                symbols.append(names[tok.value])
        elif tok.kind in ("ident", "keyword", "op"):
            symbols.append(tok.value)
        elif tok.kind == "number":
            symbols.append("num")
        else:
            symbols.append("str")
    return symbols


@dataclass
class BenchRow:
    variant: str
    metrics: MetricsReport

    def csv_fields(self) -> list[str]:
        m = self.metrics
        return [self.variant] + [f"{v:.4f}" for v in
                                 (m.acc, m.pre, m.rec, m.f1, m.fpr, m.fnr)]


def _stage2_row(variant: str, scored, labels, bundle, **kw) -> BenchRow:
    """Semantic verifier alone; bias/normalization ablations act here.

    ``scored`` holds (analysis, stage-two score or None) pairs; a None is
    scored here with ``kw``.
    """
    pairs = []
    for analysis, score in scored:
        if score is None:
            score = verify_semantic(analysis, bundle, **kw)
        pairs.append((labels[analysis.path], int(score > 0.5)))
    return BenchRow(variant, compute_metrics(confusion_from_pairs(pairs)))


def _stage1_retrained_row(variant: str, train, analyses, labels, bundle,
                          stream_fn) -> BenchRow:
    """Retrain the structural stage on alternate streams and score it alone.

    ``train`` holds (FileAnalysis, label) pairs of the train split.
    """
    samples = [Sample(tokens=stream_fn(analysis), label=label)
               for analysis, label in train]
    _, semantic = stage_samples(train, [])
    bucket_rare_symbols(samples, semantic)
    vocab = Vocabulary.build([s.tokens for s in samples]
                             + [s.tokens for s in semantic])
    table = EmbeddingTable.init(len(vocab), bundle.stage1_config.dim,
                                seed=bundle.stage1_config.seed)
    params, _ = train_structural(samples, vocab, table, bundle.stage1_config)
    scores = gru_scores([vocab.ids(stream_fn(a)) for a in analyses], params,
                        gru_input_table(table.matrix, params))
    pairs = [(labels[analysis.path], int(score > 0.5))
             for analysis, score in zip(analyses, scores)]
    return BenchRow(variant, compute_metrics(confusion_from_pairs(pairs)))


# Ablations that retrain stage one on another stream of each file, and
# those that score stage two alone with other settings.
_STAGE1_STREAMS = {"no-flow-edges": lambda a: a.semantic.tokens,
                   "raw-code": lambda a: raw_token_stream(a.unit)}
_STAGE2_SETTINGS = {"no-bias": {"beta": 0.0},
                    "no-normalization": {"normalized": False},
                    "no-norm-no-bias": {"normalized": False, "beta": 0.0}}


def run_benchmark(manifest: CorpusManifest, bundle, ablations=(),
                  split: str = "test", lex=None,
                  skipped: list | None = None) -> list[BenchRow]:
    """Cascade metrics on a split, one extra labeled row per ablation;
    every file is analyzed with ``lex`` (default: the built-in lexicon).
    A train file the stage-one rows cannot use goes to ``skipped``."""
    skipped = [] if skipped is None else skipped
    entries = manifest.split(split) if split != "all" else manifest.entries
    if not entries:
        raise VulnMinerError(f"manifest has no {split} entries")
    errors: list[tuple[str, str]] = []
    analyses = [FileAnalysis(unit, lex) for e in entries
                if (unit := read_unit(e.path, errors)) is not None]
    labels = {e.path: e.label for e in entries}
    fusion = bundle.fusion
    # One cascade pass scores the split; the full and lambda rows read it,
    # and the stage-two reference row reuses its stage-two scores.
    scored = list(score_cascade(analyses, bundle, fusion.tau1, errors))
    table = [(labels[analysis.path], s1, s2) for analysis, s1, s2 in scored]
    # Every row must cover the same files, so a file that could not be read,
    # or that the cascade could not score, stops the bench before any row.
    if errors:
        raise VulnMinerError(
            f"{len(errors)} labeled file(s) cannot be scored (split: "
            f"{split}): {'; '.join(f'{p}: {m}' for p, m in errors)}")

    rows = [BenchRow("full", cascade_metrics(table, fusion.lam, fusion.tau))]

    def add_stage2_reference():
        if all(row.variant != "stage2-full" for row in rows):
            rows.append(_stage2_row(
                "stage2-full", [(a, s2) for a, _, s2 in scored], labels,
                bundle))

    train: list[tuple[FileAnalysis, int]] = []
    if _STAGE1_STREAMS.keys() & set(ablations):
        pairs = ((FileAnalysis(unit, lex), label) for unit, label
                 in load_units(manifest.split("train"), skipped))
        train = [(analysis, label) for analysis, label in pairs
                 if analyzed(analysis, skipped, "structural")]

    def retrained(variant: str, stream_fn) -> BenchRow:
        return _stage1_retrained_row(variant, train, analyses, labels,
                                     bundle, stream_fn)

    def add_stage1_reference():
        if all(row.variant != "stage1-full" for row in rows):
            rows.append(retrained("stage1-full",
                                  lambda a: a.structural.tokens))

    for ablation in ablations:
        if ablation in _STAGE2_SETTINGS:
            add_stage2_reference()
            rows.append(_stage2_row(
                f"stage2-{ablation}", [(a, None) for a in analyses], labels,
                bundle, **_STAGE2_SETTINGS[ablation]))
        elif ablation in ("lambda0", "lambda1"):
            rows.append(BenchRow(ablation, cascade_metrics(
                table, float(ablation == "lambda1"), fusion.tau)))
        elif ablation in _STAGE1_STREAMS:
            add_stage1_reference()
            rows.append(retrained(f"stage1-{ablation}",
                                  _STAGE1_STREAMS[ablation]))
        else:
            raise VulnMinerError(f"unknown ablation {ablation!r}")
    return rows


def rows_to_csv(rows: list[BenchRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["variant", "ACC", "PRE", "REC", "F1", "FPR", "FNR"])
    for row in rows:
        writer.writerow(row.csv_fields())
    return buf.getvalue()
