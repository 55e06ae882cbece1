"""Dual scoring and best-candidate selection."""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field

import numpy as np

from ..analysis import FileAnalysis
from ..cascade import fuse_scores
from ..linearize import embed_sequence
from ..source import SourceUnit
from ..stage1 import score_structural
from ..stage2 import verify_semantic
from .constraints import CandidateContext, ConstraintSet, evaluate_constraint
from .ir import IntermediateRepresentation


@dataclass
class Candidate:
    candidate_id: str
    template_id: str
    variant: str
    text: str
    backend: str
    parse_ok: bool = True
    s_sec: float = 0.0
    s_sem: float = 0.0
    utility: float = 0.0
    edit_distance: float = 1.0
    constraint_results: dict[str, bool] = field(default_factory=dict)
    failure: str | None = None
    context: CandidateContext | None = None
    analysis: FileAnalysis | None = None

    def passes_hard(self, constraints: ConstraintSet) -> bool:
        return all(self.constraint_results.get(c.cid, False)
                   for c in constraints.hard())

    def analyze(self, ir: IntermediateRepresentation) -> FileAnalysis:
        """The candidate text's analysis, made on first use and kept."""
        if self.analysis is None:
            unit = SourceUnit.from_text(ir.unit.path + ".candidate", self.text)
            self.analysis = FileAnalysis(unit, ir.lex)
        return self.analysis


def edit_distance(original: str, candidate: str) -> float:
    """Normalized in [0, 1]; 0 means identical text."""
    ratio = difflib.SequenceMatcher(None, original, candidate).ratio()
    return 1.0 - ratio


def score_candidate(candidate: Candidate, ir: IntermediateRepresentation,
                    bundle, constraints: ConstraintSet,
                    alpha: float = 0.6, query_built: bool = False) -> Candidate:
    """Security score from the frozen cascade, semantic score from embeddings.

    The candidate must parse (``generate_candidates`` sets ``parse_ok``).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    analysis = candidate.analyze(ir)
    one = score_structural(analysis, bundle)
    two = verify_semantic(analysis, bundle)
    fused = fuse_scores(one.score, two.score, bundle.fusion.lam)
    candidate.s_sec = 1.0 - fused

    # mean token embeddings; an empty sequence gives zeros, similarity 0
    if ir.origin_embedding is None:
        emb = embed_sequence(ir.analysis.semantic, bundle.embedding,
                             bundle.vocab)
        ir.origin_embedding = emb.sum(axis=0) / max(len(emb), 1)
    origin_vec = ir.origin_embedding
    emb = embed_sequence(analysis.semantic, bundle.embedding, bundle.vocab)
    cand_vec = emb.sum(axis=0) / max(len(emb), 1)
    denom = float(np.linalg.norm(origin_vec) * np.linalg.norm(cand_vec))
    sim = float(origin_vec @ cand_vec / denom) if denom > 0 else 0.0
    candidate.s_sem = min(1.0, max(0.0, sim))

    candidate.utility = alpha * candidate.s_sec + (1 - alpha) * candidate.s_sem
    candidate.edit_distance = edit_distance(ir.unit.text, candidate.text)

    ctx = CandidateContext.build(analysis, ir, query_built)
    candidate.context = ctx
    for constraint in constraints.constraints:
        candidate.constraint_results[constraint.cid] = evaluate_constraint(
            constraint, ctx)
    return candidate


def select_best(candidates: list[Candidate],
                constraints: ConstraintSet,
                enforce_constraints: bool = True) -> Candidate | None:
    """Max utility among hard-constraint survivors; edit distance breaks ties."""
    pool = [c for c in candidates if c.parse_ok]
    if enforce_constraints:
        pool = [c for c in pool if c.passes_hard(constraints)]
    if not pool:
        return None
    return min(pool, key=lambda c: (-c.utility, c.edit_distance, c.template_id))
