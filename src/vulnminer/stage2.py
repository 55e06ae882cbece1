"""Semantic verification stage: normalization plus risk-biased attention."""

from __future__ import annotations

from .analysis import FileAnalysis
from .lexicon import TaintLexicon
from .linearize import TokenSequence, embed_sequence, linearize
from .nn import RiskMatrix, attention_forward


def risky_columns(seq: TokenSequence, lex: TaintLexicon) -> tuple[int, ...]:
    """Positions of ``seq`` whose symbol is a known source or sink."""
    risky = lex.risky
    return tuple(i for i, tok in enumerate(seq.tokens) if tok in risky)


def build_risk_matrix(seq: TokenSequence, lex: TaintLexicon,
                      beta: float) -> RiskMatrix:
    """Bias every row toward columns whose symbol is a known source or sink."""
    return RiskMatrix.build(len(seq.tokens), risky_columns(seq, lex), beta)


def verify_semantic(analysis: FileAnalysis, bundle, beta: float | None = None,
                    normalized: bool = True, emb=None) -> float:
    """Attention score for one stage-one hypothesis.

    ``normalized=False`` scores the raw-identifier sequence instead, for
    the normalization ablation. ``emb`` is the scored sequence's
    ``embed_sequence`` when the caller already holds it.
    """
    beta = bundle.fusion.beta if beta is None else beta
    seq = analysis.semantic if normalized else linearize(
        analysis.graph, canonical=False, flow_markers=False,
        keep=analysis.keep)
    bias = build_risk_matrix(seq, analysis.lex, beta)
    if emb is None:
        emb = embed_sequence(seq, bundle.embedding, bundle.vocab)
    return attention_forward(emb, bundle.stage2, bias)[0]
