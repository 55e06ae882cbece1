"""Couples the two stages: weighted score fusion and final thresholding."""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import FileAnalysis
from .errors import ParseError, TrainingError, VulnMinerError
from .flows import classify_vuln_type
from .lexicon import TaintLexicon
from .metrics import compute_metrics, confusion_from_pairs
from .stage1 import score_structural
from .stage2 import verify_semantic


@dataclass(frozen=True)
class FusionConfig:
    lam: float
    tau: float
    tau1: float

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise VulnMinerError("lambda must be in [0, 1]")
        if not 0.0 <= self.tau <= 1.0:
            raise VulnMinerError("tau must be in [0, 1]")
        if not 0.0 <= self.tau1 < 1.0:
            raise VulnMinerError("tau1 must be in [0, 1)")


@dataclass(frozen=True)
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
    live = [f for f in findings if not f.sanitized] or findings
    if not live:
        return None, None
    best = max(live, key=lambda f: (f.severity, -f.sink_span.start_line))
    return classify_vuln_type(best), best.sink_span.start_line


def score_files(analyses, bundle, tau1: float, errors: list):
    """Yield (analysis, stage-one score) for each file that parses.

    The one scoring loop of scan, calibration and hypothesis proposal; a
    file that does not parse is appended to ``errors`` as (path, message).
    """
    for analysis in analyses:
        try:
            one = score_structural(analysis, bundle, tau1=tau1)
        except ParseError as exc:
            errors.append((analysis.path, str(exc)))
            continue
        yield analysis, one


def run_pipeline(units, bundle, cfg: FusionConfig | None = None,
                 lex: TaintLexicon | None = None):
    """Stage two runs only on stage-one passers; rejects are final negatives.

    Returns (verdicts, errors); every parseable file gets a verdict and
    per-file parse failures are collected rather than raised. Units are
    taken one at a time, and each file's analysis is dropped with it.
    """
    cfg = cfg or FusionConfig(bundle.fusion.lam, bundle.fusion.tau,
                              bundle.fusion.tau1)
    verdicts: list[DetectionVerdict] = []
    errors: list[tuple[str, str]] = []
    analyses = (FileAnalysis(unit, lex) for unit in units)
    for analysis, one in score_files(analyses, bundle, cfg.tau1, errors):
        if not one.passed:
            verdicts.append(DetectionVerdict(
                file_id=one.file_id, score1=one.score, score2=None,
                score_final=None, vulnerable=False))
            continue
        two = verify_semantic(analysis, bundle)
        final = fuse_scores(one.score, two.score, cfg.lam)
        vulnerable = final > cfg.tau
        vuln_type = sink_line = None
        if vulnerable:
            vuln_type, sink_line = _advisory_finding(analysis)
        verdicts.append(DetectionVerdict(
            file_id=one.file_id, score1=one.score, score2=two.score,
            score_final=final, vulnerable=vulnerable,
            vuln_type=vuln_type, sink_line=sink_line))
    verdicts.sort(key=lambda v: v.file_id)
    return verdicts, errors


def calibrate_lambda(labeled, bundle, grid_step: float = 0.05,
                     tau: float | None = None, tau1: float | None = None):
    """Grid search for the fusion weight maximizing F1 at fixed tau.

    ``labeled`` is a list of (FileAnalysis, label); ties prefer the
    smaller lambda so stage two wins when stages are interchangeable.
    """
    label_of = dict(labeled)
    if set(label_of.values()) != {0, 1}:
        raise TrainingError("calibration requires both classes present")
    tau = bundle.fusion.tau if tau is None else tau
    tau1 = bundle.fusion.tau1 if tau1 is None else tau1

    scored: list[tuple[int, float, float | None]] = []
    for analysis, one in score_files(label_of, bundle, tau1, []):
        two = verify_semantic(analysis, bundle).score if one.passed else None
        scored.append((label_of[analysis], one.score, two))

    steps = int(round(1.0 / grid_step))
    best_lam, best_f1 = 0.0, -1.0
    for k in range(steps + 1):
        lam = min(1.0, k * grid_step)
        pairs = []
        for label, s1, s2 in scored:
            pred = 0
            if s2 is not None and fuse_scores(s1, s2, lam) > tau:
                pred = 1
            pairs.append((label, pred))
        f1 = compute_metrics(confusion_from_pairs(pairs)).f1
        if f1 > best_f1 + 1e-12:
            best_lam, best_f1 = lam, f1
    return best_lam, best_f1
