"""End-to-end model training: both stages plus fusion calibration."""

from __future__ import annotations

import dataclasses

from .analysis import FileAnalysis, analyzed
from .corpus import CorpusManifest
from .errors import TrainingError
from .lexicon import DEFAULT_LEXICON, TaintLexicon
from .linearize import EmbeddingTable, Vocabulary, fallback_symbol
from .model_store import FusionSettings, ModelBundle
from .cascade import calibrate_lambda
from .source import SourceUnit, read_unit
from .stage2 import risky_columns
from .training import Sample, stage_configs, train_semantic, train_structural

_MIN_COUNT = 2


def load_units(entries, skipped: list | None = None
               ) -> list[tuple[SourceUnit, int]]:
    """(unit, label) of each entry whose file reads as UTF-8; the
    (path, message) of each other file goes to ``skipped``."""
    skipped = [] if skipped is None else skipped
    return [(unit, e.label) for e in entries
            if (unit := read_unit(e.path, skipped)) is not None]


def stage_samples(labeled, skipped: list):
    """Stage-one and stage-two samples from (FileAnalysis, label) pairs;
    (path, message) of each file that does not parse goes to ``skipped``."""
    structural: list[Sample] = []
    semantic: list[Sample] = []
    for analysis, label in labeled:
        if not analyzed(analysis, skipped, "structural"):
            continue
        seq1, seq2 = analysis.structural, analysis.semantic
        structural.append(Sample(tokens=seq1.tokens, label=label))
        semantic.append(Sample(
            tokens=seq2.tokens, label=label,
            risky_columns=risky_columns(seq2, analysis.lex)))
    bucket_rare_symbols(structural, semantic)
    return structural, semantic


def bucket_rare_symbols(*sample_sets: list[Sample]):
    """Replace one-off literal/ordinal symbols with their class bucket.

    Buckets therefore get trained, and unseen symbols at inference time
    (which resolve to the same buckets) land on trained rows.
    """
    counts: dict[str, int] = {}
    for samples in sample_sets:
        for sample in samples:
            for tok in sample.tokens:
                counts[tok] = counts.get(tok, 0) + 1
    for samples in sample_sets:
        for sample in samples:
            sample.tokens = [
                fallback_symbol(t) or t
                if counts[t] < _MIN_COUNT and fallback_symbol(t) else t
                for t in sample.tokens
            ]


def train_bundle(manifest: CorpusManifest, seed: int = 0,
                 lex: TaintLexicon | None = None,
                 tau: float = 0.5, tau1: float = 0.2,
                 skipped: list | None = None) -> ModelBundle:
    """Train stage one (with embeddings), then stage two, then pick lambda;
    files that are not UTF-8 or do not parse are skipped and listed in
    ``skipped``."""
    skipped = [] if skipped is None else skipped
    lex = lex or DEFAULT_LEXICON
    train_units = load_units(manifest.split("train"), skipped)
    if not train_units:
        raise TrainingError("manifest has no train entries")
    structural, semantic = stage_samples(
        ((FileAnalysis(unit, lex), label) for unit, label in train_units),
        skipped)

    cfg1, cfg2 = stage_configs(seed)
    vocab = Vocabulary.build([s.tokens for s in structural]
                             + [s.tokens for s in semantic])
    table = EmbeddingTable.init(len(vocab), cfg1.dim, seed=seed)

    stage1, curve1 = train_structural(structural, vocab, table, cfg1)
    stage2, curve2 = train_semantic(semantic, vocab, table, cfg2)

    fusion = FusionSettings(lam=0.5, tau=tau, tau1=tau1, beta=cfg2.beta)
    bundle = ModelBundle(
        vocab=vocab, embedding=table, stage1=stage1, stage2=stage2,
        fusion=fusion, stage1_config=cfg1, stage2_config=cfg2,
        curves={"stage1": curve1, "stage2": curve2},
        lexicon=lex,
    )
    val = [(FileAnalysis(unit, lex), label)
           for unit, label in load_units(manifest.split("val"), skipped)]
    if val and {label for _, label in val} == {0, 1}:
        lam, _ = calibrate_lambda(val, bundle, errors=skipped)
        bundle.fusion = dataclasses.replace(bundle.fusion, lam=lam)
    bundle.validate()
    return bundle
