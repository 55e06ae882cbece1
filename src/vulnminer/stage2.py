"""Semantic verification stage: normalization plus risk-biased attention."""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import FileAnalysis
from .lexicon import TaintLexicon
from .linearize import TokenSequence, embed_sequence, linearize
from .nn import RiskMatrix, attention_forward, risky_attention_mass


@dataclass(frozen=True)
class StageTwoScore:
    file_id: str
    score: float
    risky_positions: tuple[int, ...]
    risky_mass: float

    def record(self) -> dict:
        return {"path": self.file_id, "stage2_score": self.score}


def build_risk_matrix(seq: TokenSequence, lex: TaintLexicon,
                      beta: float) -> RiskMatrix:
    """Bias every row toward columns whose symbol is a known source or sink."""
    risky = lex.risky_names()
    columns = tuple(i for i, tok in enumerate(seq.tokens) if tok in risky)
    return RiskMatrix.build(len(seq.tokens), columns, beta)


def verify_semantic(analysis: FileAnalysis, bundle, beta: float | None = None,
                    normalized: bool = True) -> StageTwoScore:
    """Attention score for one stage-one hypothesis.

    ``normalized=False`` scores the raw-identifier sequence instead, for
    the normalization ablation.
    """
    beta = bundle.fusion.beta if beta is None else beta
    seq = analysis.semantic if normalized else linearize(
        analysis.graph, canonical=False, flow_markers=False)
    bias = build_risk_matrix(seq, analysis.lex, beta)
    emb = embed_sequence(seq, bundle.embedding, bundle.vocab)
    score, _, attn, _ = attention_forward(emb, bundle.stage2, bias)
    return StageTwoScore(
        file_id=analysis.path,
        score=score,
        risky_positions=bias.risky_columns,
        risky_mass=risky_attention_mass(attn, bias.risky_columns),
    )
