"""Couples the two stages: weighted score fusion and final thresholding."""

from __future__ import annotations

import gc
from dataclasses import dataclass

from .analysis import FileAnalysis, analyzed
from .errors import TrainingError, VulnMinerError
from .flows import classify_vuln_type, primary_finding
from .lexicon import TaintLexicon
from .metrics import MetricsReport, compute_metrics, confusion_from_pairs
from .model_store import FusionSettings
from .stage1 import score_files
from .stage2 import verify_semantic


# The one fusion-settings type, also under the name benchmark and test
# code use: FusionConfig(lam, tau, tau1).
FusionConfig = FusionSettings

_LAMBDA_STEP = 0.05


@dataclass(frozen=True, slots=True)
class DetectionVerdict:
    file_id: str
    score1: float
    score2: float | None
    score_final: float | None
    vulnerable: bool
    vuln_type: str | None = None
    sink_line: int | None = None

    def record(self) -> dict:
        return {
            "path": self.file_id,
            "score_I": self.score1,
            "score_II": self.score2,
            "score_final": self.score_final,
            "vulnerable": self.vulnerable,
            "vuln_type": self.vuln_type,
            "sink_line": self.sink_line,
        }


def fuse_scores(s1: float, s2: float, lam: float) -> float:
    """Affine fusion lam*s1 + (1-lam)*s2, all inputs in [0, 1]."""
    for name, v in (("stage-one score", s1), ("stage-two score", s2),
                    ("lambda", lam)):
        if not 0.0 <= v <= 1.0:
            raise VulnMinerError(f"{name} {v} outside [0, 1]")
    return lam * s1 + (1.0 - lam) * s2


def _advisory_finding(analysis: FileAnalysis):
    findings = analysis.findings
    best = primary_finding([f for f in findings if not f.sanitized]
                           or findings)
    if best is None:
        return None, None
    return (classify_vuln_type(best),
            analysis.unit.position(best.sink_start)[0])


def score_cascade(analyses, bundle, tau1: float, errors: list):
    """Yield (analysis, stage-one score, stage-two score or None) per file.

    The one cascade pass of scan, calibration and bench, built on
    ``score_files``: stage two runs only on files whose stage-one score
    passes ``tau1`` and is None for the rest. Its input, ``semantic``, is
    computed whenever ``structural`` is, since ``structural`` is built from it.
    """
    for analysis, one in score_files(analyses, bundle, tau1, errors):
        yield analysis, one.score, (verify_semantic(analysis, bundle)
                                    if one.passed else None)


def cascade_verdict(s1: float, s2: float | None, lam: float,
                    tau: float) -> tuple[float | None, bool]:
    """(fused score, vulnerable): the cascade's one verdict rule.

    A stage-one reject (``s2`` None) is a negative with no fused score;
    any other file is positive when its fused score exceeds ``tau``.
    """
    if s2 is None:
        return None, False
    final = fuse_scores(s1, s2, lam)
    return final, final > tau


def cascade_metrics(scored, lam: float, tau: float) -> MetricsReport:
    """Metrics of the verdicts at (lam, tau) over (label, s1, s2) triples."""
    return compute_metrics(confusion_from_pairs(
        (label, int(cascade_verdict(s1, s2, lam, tau)[1]))
        for label, s1, s2 in scored))


def run_pipeline(units, bundle, cfg: FusionSettings | None = None,
                 lex: TaintLexicon | None = None):
    """Stage two runs only on stage-one passers; rejects are final negatives.

    Returns (verdicts, errors); every file gets a verdict or a per-file
    error record (parse error or nesting too deep), never a raise. Units are
    taken in chunks of ``stage1.SCORE_CHUNK``, and each chunk's analyses
    are dropped with it. ``cfg`` defaults to the model's own fusion
    settings and ``lex`` to the model's lexicon.

    Analyses are acyclic, so reference counting frees each one: the cyclic
    collector is paused for the call, and turned back on at the end only if
    it was on at the start.
    """
    fusion = cfg or bundle.fusion
    verdicts: list[DetectionVerdict] = []
    errors: list[tuple[str, str]] = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        analyses = (FileAnalysis(u, lex or bundle.lexicon) for u in units)
        for analysis, s1, s2 in score_cascade(analyses, bundle, fusion.tau1,
                                              errors):
            final, vulnerable = cascade_verdict(s1, s2, fusion.lam,
                                                fusion.tau)
            if vulnerable and not analyzed(analysis, errors, "findings"):
                continue
            vuln_type, sink_line = (_advisory_finding(analysis) if vulnerable
                                    else (None, None))
            verdicts.append(DetectionVerdict(
                file_id=analysis.path, score1=s1, score2=s2,
                score_final=final, vulnerable=vulnerable,
                vuln_type=vuln_type, sink_line=sink_line))
    finally:
        if collecting:
            gc.enable()
    verdicts.sort(key=lambda v: v.file_id)
    return verdicts, errors


def calibrate_lambda(labeled, bundle, errors: list | None = None):
    """Grid search, in steps of 0.05, for the weight maximizing F1 at the
    model's tau, with stage one gated at its tau1.

    ``labeled`` is a list of (FileAnalysis, label); ties prefer the
    smaller lambda so stage two wins when stages are interchangeable.
    ``errors`` collects the files the cascade cannot score, as in
    ``score_cascade``; when none scores, the bundle's lambda stays, with
    F1 None.
    """
    label_of = dict(labeled)
    if set(label_of.values()) != {0, 1}:
        raise TrainingError("calibration requires both classes present")
    scored = [(label_of[analysis], s1, s2) for analysis, s1, s2
              in score_cascade(label_of, bundle, bundle.fusion.tau1,
                               [] if errors is None else errors)]
    if not scored:
        return bundle.fusion.lam, None
    return search_lambda(scored, bundle.fusion.tau)


def search_lambda(scored, tau: float) -> tuple[float, float]:
    """(lambda, F1) of the grid point with the best F1 over ``scored``.

    ``scored`` holds (label, s1, s2) triples, s2 None for a stage-one
    reject, which is a negative at every lambda; ties keep the smaller
    lambda.
    """
    steps = int(round(1.0 / _LAMBDA_STEP))
    best_lam, best_f1 = 0.0, -1.0
    for k in range(steps + 1):
        lam = min(1.0, k * _LAMBDA_STEP)
        f1 = cascade_metrics(scored, lam, tau).f1
        if f1 > best_f1 + 1e-12:
            best_lam, best_f1 = lam, f1
    return best_lam, best_f1
