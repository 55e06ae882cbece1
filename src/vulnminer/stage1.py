"""Structural detector stage: recall-first hypothesis generation."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .analysis import FileAnalysis
from .errors import VulnMinerError
from .linearize import embed_sequence
from .nn import gru_forward

DEFAULT_TAU1 = 0.2


@dataclass(frozen=True)
class StageOneScore:
    file_id: str
    score: float
    passed: bool
    tokens: int = 0
    truncated: bool = False

    def record(self) -> dict:
        return {"path": self.file_id, "score": self.score, "passed": self.passed}


@dataclass
class HypothesisSet:
    """Stage-one survivors, strongest first, plus the rejects for the log."""

    hypotheses: list[StageOneScore]
    corpus: str = ""
    skip_log: list[StageOneScore] = field(default_factory=list)
    errors: list[tuple[str, str]] = field(default_factory=list)

    def paths(self) -> list[str]:
        return [h.file_id for h in self.hypotheses]


def score_structural(analysis: FileAnalysis, bundle,
                     tau1: float | None = None) -> StageOneScore:
    """GRU score over the linearized flow-enhanced tree."""
    tau1 = bundle.fusion.tau1 if tau1 is None else tau1
    seq = analysis.structural
    emb = embed_sequence(seq, bundle.embedding, bundle.vocab)
    score, _, _ = gru_forward(emb, bundle.stage1)
    return StageOneScore(file_id=analysis.path, score=score,
                         passed=score > tau1, tokens=seq.n,
                         truncated=seq.truncated)


def propose_hypotheses(units, bundle, tau1: float | None = None,
                       corpus: str = "") -> HypothesisSet:
    """Score every parseable file; keep those above the low bar."""
    from .cascade import score_files  # the cascade builds on this module

    tau1 = bundle.fusion.tau1 if tau1 is None else tau1
    if not 0.0 <= tau1 < 1.0:
        raise VulnMinerError("tau1 must be in [0, 1)")
    passed: list[StageOneScore] = []
    skipped: list[StageOneScore] = []
    errors: list[tuple[str, str]] = []
    analyses = (FileAnalysis(unit) for unit in units)
    for _, result in score_files(analyses, bundle, tau1, errors):
        (passed if result.passed else skipped).append(result)
    passed.sort(key=lambda h: (-h.score, h.file_id))
    return HypothesisSet(hypotheses=passed, corpus=corpus,
                         skip_log=skipped, errors=errors)


def load_hypotheses(path: str | Path) -> list[StageOneScore]:
    out = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            obj = json.loads(line)
            out.append(StageOneScore(file_id=obj["path"], score=obj["score"],
                                     passed=bool(obj["passed"])))
    return out
