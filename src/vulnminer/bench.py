"""Benchmark runner: cascade metrics plus labeled ablation rows."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .analysis import FileAnalysis
from .cascade import FusionConfig, run_pipeline
from .corpus import CorpusManifest
from .detector import _bucket_rare_symbols, _stage_samples, load_units
from .errors import VulnMinerError
from .frontend.lexer import tokenize
from .linearize import EmbeddingTable, Vocabulary, linearize
from .metrics import MetricsReport, compute_metrics, confusion_from_pairs
from .nn import gru_forward
from .source import SourceUnit
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


def _cascade_row(variant: str, units, labels, bundle, cfg=None) -> BenchRow:
    verdicts, _ = run_pipeline(units, bundle, cfg=cfg)
    pairs = [(labels[v.file_id], int(v.vulnerable)) for v in verdicts]
    return BenchRow(variant, compute_metrics(confusion_from_pairs(pairs)))


def _stage2_row(variant: str, analyses, labels, bundle, **kw) -> BenchRow:
    """Semantic verifier alone; bias/normalization ablations act here."""
    pairs = []
    for analysis in analyses:
        score = verify_semantic(analysis, bundle, **kw).score
        pairs.append((labels[analysis.path], int(score > 0.5)))
    return BenchRow(variant, compute_metrics(confusion_from_pairs(pairs)))


def _stage1_retrained_row(variant: str, train, analyses, labels, bundle,
                          stream_fn) -> BenchRow:
    """Retrain the structural stage on alternate streams and score it alone.

    ``train`` holds (FileAnalysis, label) pairs of the train split.
    """
    samples = [Sample(tokens=stream_fn(analysis), label=label,
                      path=analysis.path) for analysis, label in train]
    _, semantic = _stage_samples(train)
    _bucket_rare_symbols(samples, semantic)
    vocab = Vocabulary.build([s.tokens for s in samples]
                             + [s.tokens for s in semantic])
    table = EmbeddingTable.init(len(vocab), bundle.stage1_config.dim,
                                seed=bundle.stage1_config.seed)
    params, _ = train_structural(samples, vocab, table, bundle.stage1_config)
    pairs = []
    for analysis in analyses:
        emb = table.matrix[vocab.ids(stream_fn(analysis))]
        score, _, _ = gru_forward(emb, params)
        pairs.append((labels[analysis.path], int(score > 0.5)))
    return BenchRow(variant, compute_metrics(confusion_from_pairs(pairs)))


def _full_stream(analysis: FileAnalysis) -> list[str]:
    return analysis.structural.tokens


def _no_marker_stream(analysis: FileAnalysis) -> list[str]:
    return linearize(analysis.graph, flow_markers=False).tokens


def _raw_stream(analysis: FileAnalysis) -> list[str]:
    return raw_token_stream(analysis.unit)


def run_benchmark(manifest: CorpusManifest, bundle, ablations=(),
                  split: str = "test") -> list[BenchRow]:
    """Cascade metrics on a split, one extra labeled row per ablation."""
    entries = manifest.split(split) if split != "all" else manifest.entries
    if not entries:
        raise VulnMinerError(f"manifest has no {split} entries")
    units = [SourceUnit.from_file(e.path) for e in entries]
    labels = {e.path: e.label for e in entries}
    analyses = [FileAnalysis(unit) for unit in units]
    train: list[tuple[FileAnalysis, int]] = []

    rows = [_cascade_row("full", units, labels, bundle)]
    stage2_ref_added = False

    def add_stage2_reference():
        nonlocal stage2_ref_added
        if not stage2_ref_added:
            rows.append(_stage2_row("stage2-full", analyses, labels, bundle))
            stage2_ref_added = True

    def retrained(variant: str, stream_fn) -> BenchRow:
        if not train:
            train.extend((FileAnalysis(unit), label) for unit, label
                         in load_units(manifest.split("train")))
        return _stage1_retrained_row(variant, train, analyses, labels,
                                     bundle, stream_fn)

    for ablation in ablations:
        if ablation == "no-bias":
            add_stage2_reference()
            rows.append(_stage2_row("stage2-no-bias", analyses, labels, bundle,
                                    beta=0.0))
        elif ablation == "no-normalization":
            add_stage2_reference()
            rows.append(_stage2_row("stage2-no-normalization", analyses,
                                    labels, bundle, normalized=False))
        elif ablation == "no-norm-no-bias":
            add_stage2_reference()
            rows.append(_stage2_row("stage2-no-norm-no-bias", analyses,
                                    labels, bundle, normalized=False,
                                    beta=0.0))
        elif ablation == "lambda0":
            cfg = FusionConfig(0.0, bundle.fusion.tau, bundle.fusion.tau1)
            rows.append(_cascade_row(ablation, units, labels, bundle, cfg=cfg))
        elif ablation == "lambda1":
            cfg = FusionConfig(1.0, bundle.fusion.tau, bundle.fusion.tau1)
            rows.append(_cascade_row(ablation, units, labels, bundle, cfg=cfg))
        elif ablation == "no-flow-edges":
            rows.append(retrained("stage1-full", _full_stream))
            rows.append(retrained("stage1-no-flow-edges", _no_marker_stream))
        elif ablation == "raw-code":
            rows.append(retrained("stage1-full", _full_stream))
            rows.append(retrained("stage1-raw-code", _raw_stream))
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
