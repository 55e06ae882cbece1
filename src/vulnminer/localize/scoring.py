"""Dual scoring and best-candidate selection."""

from __future__ import annotations

import difflib
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ..analysis import FileAnalysis
from ..cascade import fuse_scores
from ..linearize import embed_sequence
from ..source import SourceUnit
from ..stage1 import stage_one_scores
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
    s_sec: float = 0.0
    s_sem: float = 0.0
    utility: float = 0.0
    edit_distance: float = 1.0       # computed on a utility tie only
    constraint_results: dict[str, bool] = field(default_factory=dict)
    failure: str | None = None
    analysis: FileAnalysis | None = None

    @property
    def parse_ok(self) -> bool:
        """The plan rewrote and the text parses."""
        return self.failure is None

    def analyze(self, ir: IntermediateRepresentation) -> FileAnalysis:
        """The candidate text's analysis, made on first use and kept."""
        if self.analysis is None:
            unit = SourceUnit.from_text(ir.unit.path + ".candidate", self.text)
            self.analysis = FileAnalysis(unit, ir.lex)
        return self.analysis


def edit_distance(original: str, candidate: str) -> float:
    """Normalized in [0, 1]; 0 means identical text."""
    return 1.0 - difflib.SequenceMatcher(None, original, candidate).ratio()


def check_constraints(candidates: list[Candidate],
                      ir: IntermediateRepresentation,
                      constraints: ConstraintSet) -> list[Candidate]:
    """Record each candidate's result on every constraint.

    A SQL finding whose query the original builds by concatenation holds
    each candidate to a static prepared query.
    """
    query_built = ir.facts.query_built and ir.finding.sink_class == "Sql"
    for candidate in candidates:
        ctx = CandidateContext.build(candidate.analyze(ir), ir, query_built)
        for constraint in constraints.constraints:
            candidate.constraint_results[constraint.cid] = evaluate_constraint(
                constraint, ctx)
    return candidates


def score_candidates(candidates: list[Candidate],
                     ir: IntermediateRepresentation, bundle,
                     alpha: float = 0.6) -> list[Candidate]:
    """Security score from the frozen cascade, semantic score from embeddings.

    Every candidate must parse. When fusion weighs stage one (λ > 0), stage
    one scores the batch in one ``stage_one_scores`` call, whose rows score
    the same bits alone as in any batch; at λ = 0 it is not run. Each
    candidate's stage-two sequence is embedded once, for its attention
    score and its mean. Only candidates whose utility ties get an edit
    distance: ``select_best`` reads it only there.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    analyses = [candidate.analyze(ir) for candidate in candidates]
    lam = bundle.fusion.lam
    # fusion multiplies s1 by λ, so at λ = 0 a zero stands in for stage one
    stage_one = (stage_one_scores([a.structural for a in analyses], bundle)
                 if lam > 0 else [0.0] * len(analyses))

    # mean token embeddings; an empty sequence gives zeros, similarity 0
    emb = embed_sequence(ir.analysis.semantic, bundle.embedding, bundle.vocab)
    origin_vec = emb.sum(axis=0) / max(len(emb), 1)
    for candidate, analysis, one in zip(candidates, analyses, stage_one):
        emb = embed_sequence(analysis.semantic, bundle.embedding, bundle.vocab)
        two = verify_semantic(analysis, bundle, emb=emb)
        candidate.s_sec = 1.0 - fuse_scores(float(one), two, lam)
        cand_vec = emb.sum(axis=0) / max(len(emb), 1)
        denom = float(np.linalg.norm(origin_vec) * np.linalg.norm(cand_vec))
        sim = float(origin_vec @ cand_vec / denom) if denom > 0 else 0.0
        candidate.s_sem = min(1.0, max(0.0, sim))
        candidate.utility = (alpha * candidate.s_sec
                             + (1 - alpha) * candidate.s_sem)

    ties = Counter(c.utility for c in candidates)
    for c in candidates:
        if ties[c.utility] > 1:
            c.edit_distance = edit_distance(ir.unit.text, c.text)
    return candidates


def score_candidate(candidate: Candidate, ir: IntermediateRepresentation,
                    bundle, constraints: ConstraintSet,
                    alpha: float = 0.6) -> Candidate:
    """``check_constraints`` and ``score_candidates`` on a batch of one."""
    check_constraints([candidate], ir, constraints)
    return score_candidates([candidate], ir, bundle, alpha)[0]


def select_best(scored: list[Candidate]) -> Candidate | None:
    """The highest utility, then the smallest edit distance, then the
    template id; the caller passes only candidates it may choose."""
    return min(scored, key=lambda c: (-c.utility, c.edit_distance,
                                      c.template_id), default=None)
