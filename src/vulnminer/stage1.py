"""Structural detector stage: recall-first hypothesis generation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import FileAnalysis
from .errors import VulnMinerError
from .linearize import TokenSequence
from .nn import gru_scores


@dataclass(frozen=True)
class StageOneScore:
    file_id: str
    score: float
    passed: bool


@dataclass
class HypothesisSet:
    """Stage-one survivors, strongest first, and the files that errored."""

    hypotheses: list[StageOneScore]
    errors: list[tuple[str, str]] = field(default_factory=list)

    def paths(self) -> list[str]:
        return [h.file_id for h in self.hypotheses]


def stage_one_score(analysis: FileAnalysis, score: float,
                    tau1: float) -> StageOneScore:
    """The stage-one record of a GRU score over ``analysis.structural``."""
    score = float(score)
    return StageOneScore(file_id=analysis.path, score=score,
                         passed=score > tau1)


def stage_one_scores(sequences: list[TokenSequence], bundle) -> np.ndarray:
    """GRU scores of flow-enhanced token sequences, one per input, in order.

    Stage one reads vocabulary ids: each token's input is its row of the
    model's ``stage1_table``, and one ``gru_scores`` call scores the lot.
    """
    return gru_scores([bundle.vocab.ids(seq.tokens) for seq in sequences],
                      bundle.stage1, bundle.stage1_table)


def score_structural(analysis: FileAnalysis, bundle,
                     tau1: float | None = None) -> StageOneScore:
    """GRU score over the linearized flow-enhanced tree, a batch of one."""
    tau1 = bundle.fusion.tau1 if tau1 is None else tau1
    score = stage_one_scores([analysis.structural], bundle)[0]
    return stage_one_score(analysis, score, tau1)


def propose_hypotheses(units, bundle,
                       tau1: float | None = None) -> HypothesisSet:
    """Score every parseable file; keep those above the low bar."""
    from .cascade import score_files  # the cascade builds on this module

    tau1 = bundle.fusion.tau1 if tau1 is None else tau1
    if not 0.0 <= tau1 < 1.0:
        raise VulnMinerError("tau1 must be in [0, 1)")
    errors: list[tuple[str, str]] = []
    scored = score_files(map(FileAnalysis, units), bundle, tau1, errors)
    passed = sorted((one for _, one in scored if one.passed),
                    key=lambda h: (-h.score, h.file_id))
    return HypothesisSet(hypotheses=passed, errors=errors)
