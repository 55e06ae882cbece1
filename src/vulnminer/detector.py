"""End-to-end model training: both stages plus fusion calibration."""

from __future__ import annotations

from .analysis import FileAnalysis
from .corpus import CorpusManifest
from .errors import ParseError, TrainingError
from .lexicon import TaintLexicon
from .linearize import EmbeddingTable, Vocabulary, fallback_symbol
from .model_store import FusionSettings, ModelBundle
from .cascade import calibrate_lambda
from .source import SourceUnit
from .training import Sample, stage_configs, train_semantic, train_structural


def load_units(entries) -> list[tuple[SourceUnit, int]]:
    out = []
    for entry in entries:
        out.append((SourceUnit.from_file(entry.path), entry.label))
    return out


def _stage_samples(labeled):
    """Stage-one and stage-two samples from (FileAnalysis, label) pairs."""
    structural: list[Sample] = []
    semantic: list[Sample] = []
    for analysis, label in labeled:
        try:
            seq1 = analysis.structural
            seq2 = analysis.semantic
        except ParseError:
            continue
        risky = analysis.lex.risky_names()
        structural.append(Sample(tokens=seq1.tokens, label=label,
                                 path=analysis.path))
        cols = tuple(i for i, t in enumerate(seq2.tokens) if t in risky)
        semantic.append(Sample(tokens=seq2.tokens, label=label,
                               risky_columns=cols, path=analysis.path))
    _bucket_rare_symbols(structural, semantic)
    return structural, semantic


def _bucket_rare_symbols(*sample_sets: list[Sample], min_count: int = 2):
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
                if counts[t] < min_count and fallback_symbol(t) else t
                for t in sample.tokens
            ]


def train_bundle(manifest: CorpusManifest, seed: int = 0,
                 profile: str = "desk", lex: TaintLexicon | None = None,
                 tau: float = 0.5, tau1: float = 0.2,
                 calibrate: bool = True) -> ModelBundle:
    """Train stage one (with embeddings), then stage two, then pick lambda."""
    train_units = load_units(manifest.split("train"))
    if not train_units:
        raise TrainingError("manifest has no train entries")
    structural, semantic = _stage_samples(
        (FileAnalysis(unit, lex), label) for unit, label in train_units)

    cfg1, cfg2 = stage_configs(seed, profile)
    vocab = Vocabulary.build([s.tokens for s in structural]
                             + [s.tokens for s in semantic])
    table = EmbeddingTable.init(len(vocab), cfg1.dim, seed=seed)

    stage1, curve1 = train_structural(structural, vocab, table, cfg1,
                                      train_embeddings=True)
    stage2, curve2 = train_semantic(semantic, vocab, table, cfg2)

    fusion = FusionSettings(lam=0.5, tau=tau, tau1=tau1, beta=cfg2.beta)
    bundle = ModelBundle(
        vocab=vocab, embedding=table, stage1=stage1, stage2=stage2,
        fusion=fusion, stage1_config=cfg1, stage2_config=cfg2,
        curves={"stage1": curve1, "stage2": curve2},
    )
    if calibrate:
        val = [(FileAnalysis(unit, lex), label)
               for unit, label in load_units(manifest.split("val"))]
        if val and {label for _, label in val} == {0, 1}:
            lam, _ = calibrate_lambda(val, bundle, tau=tau, tau1=tau1)
            bundle.fusion = FusionSettings(lam=lam, tau=tau, tau1=tau1,
                                           beta=cfg2.beta)
    bundle.validate()
    return bundle
