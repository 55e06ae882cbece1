"""Localization driver: generate, check, score, select, verify, refine."""

from __future__ import annotations

import shlex
import subprocess
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from ..analysis import FileAnalysis
from ..errors import NoFindingError, ParseError, VulnMinerError
from ..flows import classify_vuln_type
from ..source import SourceUnit
from .backends import GenerationBackend, MicroTemplate
from .constraints import ConstraintSet, extract_constraints
from .ir import IntermediateRepresentation, build_ir, refine_context
from .rewrite import Rewriter
from .scoring import (Candidate, check_constraints, score_candidates,
                      select_best)

DEFAULT_MAX_ITERATIONS = 2
DEFAULT_ALPHA = 0.6


@dataclass
class LocalizationReport:
    path: str
    vuln_type: str | None
    cause: str
    lines: list[int]
    status: str                   # "ok" | "fail" | "false_positive"
    candidate_text: str | None = None
    template_id: str | None = None
    backend: str | None = None
    iterations: int = 0
    utility: float | None = None
    s_sec: float | None = None
    s_sem: float | None = None
    feedback: list[dict] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict:
        return {
            "vulnerability type": self.vuln_type or "none",
            "cause analysis": self.cause,
            "involved line numbers": self.lines,
            "artifact": {
                "path": self.path,
                "status": self.status,
                "candidate": self.candidate_text,
                "template": self.template_id,
                "backend": self.backend,
                "iterations": self.iterations,
                "utility": self.utility,
                "security_score": self.s_sec,
                "semantic_score": self.s_sem,
                "feedback": self.feedback,
            },
        }


def _cause_text(ir: IntermediateRepresentation, vuln_type: str) -> str:
    f = ir.finding
    hops = len(f.path) - 2
    via = f" through {hops} assignment{'s' if hops != 1 else ''}" if hops > 0 else ""
    return (f"untrusted data from {f.source_label} reaches the "
            f"{f.sink_name} sink at line {ir.unit.position(f.sink_start)[0]}{via} "
            f"without {f.sink_class}-class sanitization ({vuln_type})")


def _involved_lines(ir: IntermediateRepresentation) -> list[int]:
    f = ir.finding
    lines = set(ir.unit.span_between(f.sink_start, f.sink_end).lines)
    source = ir.analysis.nodes.get(f.source_id)
    if source is not None:
        lines.add(ir.unit.position(source.start)[0])
    return sorted(lines)


def generate_candidates(ir: IntermediateRepresentation,
                        constraints: ConstraintSet,
                        templates: list[MicroTemplate],
                        backend: GenerationBackend) -> list[Candidate]:
    """One candidate per plan, each analyzed once; a plan that does not
    rewrite or a text that does not parse is kept as a recorded failure,
    never silently dropped."""
    out: list[Candidate] = []
    rewriter = Rewriter(ir)
    for template in templates:
        if not template.applicable(ir.finding.sink_class):
            continue
        for i, plan in enumerate(backend.fill(template, ir, constraints)):
            candidate = Candidate(
                candidate_id=f"{template.template_id}:{i}",
                template_id=template.template_id, variant=plan.variant,
                text="", backend=backend.name)
            out.append(candidate)
            try:
                candidate.text = rewriter.apply(plan)
            except (VulnMinerError, ValueError, KeyError) as exc:
                candidate.failure = f"rewrite failed: {exc}"
            else:
                try:
                    candidate.analyze(ir).ast
                except ParseError as exc:
                    candidate.failure = f"candidate does not parse: {exc}"
    return out


def verify(candidate: Candidate, ir: IntermediateRepresentation,
           constraints: ConstraintSet, hook: str | None = None,
           hook_timeout: float = 10.0) -> tuple[bool, list[str]]:
    """Compile gate, taint re-check, optional hook. ``constraints`` are not
    checked again: a localization round selects only among candidates
    that pass them."""
    reasons: list[str] = []
    try:
        findings = candidate.analyze(ir).findings
    except ParseError as exc:
        return False, [f"compile: {exc}"]
    klass = ir.finding.sink_class
    if any(not f.sanitized and f.sink_class == klass for f in findings):
        reasons.append(f"taint: unsanitized {klass} flow remains")
    if hook:
        ok, why = _run_hook(hook, candidate.text, hook_timeout)
        if not ok:
            reasons.append(why)
    return not reasons, reasons


def _run_hook(hook: str, text: str, timeout: float) -> tuple[bool, str]:
    with tempfile.NamedTemporaryFile("w", suffix=".php", delete=False) as fh:
        fh.write(text)
        path = fh.name
    try:
        result = subprocess.run(shlex.split(hook) + [path],
                                capture_output=True, timeout=timeout)
        if result.returncode != 0:
            return False, f"hook: exit {result.returncode}"
        return True, ""
    except subprocess.TimeoutExpired:
        return False, f"hook: timeout after {timeout}s"
    finally:
        Path(path).unlink(missing_ok=True)


def analyze_failures(candidates: list[Candidate],
                     constraints: ConstraintSet) -> list[dict]:
    """Structured feedback for the next backend round."""
    if not candidates:
        return [{"kind": "no_applicable_template",
                 "detail": "no template produced a candidate"}]
    feedback: list[dict] = []
    violated: dict[str, int] = {}
    for candidate in candidates:
        if not candidate.parse_ok:
            feedback.append({"kind": "parse_failure",
                             "candidate": candidate.candidate_id,
                             "detail": (candidate.failure or "")[:200]})
            continue
        failed = [cid for cid, ok in candidate.constraint_results.items()
                  if not ok]
        if failed:
            violated[failed[0]] = violated.get(failed[0], 0) + 1
            feedback.append({"kind": "constraint_violation",
                             "candidate": candidate.candidate_id,
                             "constraint": failed[0],
                             "detail": constraints.by_id(failed[0]).description})
    if violated:
        feedback.append({"kind": "summary",
                         "violated_constraints": sorted(violated)})
    if not feedback:
        feedback.append({"kind": "verification_failure",
                         "detail": "selected candidate failed verification"})
    return feedback


def localize(unit: SourceUnit, bundle, templates: list[MicroTemplate],
             backend: GenerationBackend, alpha: float = DEFAULT_ALPHA,
             max_iterations: int = DEFAULT_MAX_ITERATIONS,
             lex=None, hook: str | None = None,
             enforce_constraints: bool = True) -> LocalizationReport:
    """Full loop per Stage-confirmed file; returns a FAIL report on exhaustion.

    A tree too deep for the rewriter or the printer to walk gives a FAIL
    report `nesting too deep` rather than a raise, as a scan gives such a
    file an error record. Both walk a left-nested `.` or operator chain in
    a loop, so a long chain is not deep. ``lex`` defaults to the model's.
    """
    try:
        return _localize(unit, bundle, templates, backend, alpha,
                         max_iterations, lex, hook, enforce_constraints)
    except RecursionError:
        return LocalizationReport(path=unit.path, vuln_type=None,
                                  cause="nesting too deep", lines=[],
                                  status="fail")


def _localize(unit: SourceUnit, bundle, templates: list[MicroTemplate],
              backend: GenerationBackend, alpha: float, max_iterations: int,
              lex, hook: str | None,
              enforce_constraints: bool) -> LocalizationReport:
    try:
        ir = build_ir(FileAnalysis(unit, lex or bundle.lexicon))
    except NoFindingError:
        return LocalizationReport(
            path=unit.path, vuln_type=None,
            cause="detector false positive: no unsanitized flow found",
            lines=[], status="false_positive")
    except ParseError as exc:
        return LocalizationReport(
            path=unit.path, vuln_type=None, cause=f"parse error: {exc}",
            lines=[], status="fail")

    vuln_type = classify_vuln_type(ir.finding)
    constraints = extract_constraints(ir)
    feedback_log: list[dict] = []
    iteration = 0
    while iteration < max_iterations:
        iteration += 1
        candidates = generate_candidates(ir, constraints, templates, backend)
        parsed = check_constraints([c for c in candidates if c.parse_ok],
                                   ir, constraints)
        # only a candidate that passes every hard constraint may be
        # chosen, so only those are scored, unless constraints are off
        scored = ([c for c in parsed if all(c.constraint_results.values())]
                  if enforce_constraints else parsed)
        if scored:
            best = select_best(score_candidates(scored, ir, bundle, alpha))
            ok, reasons = verify(best, ir, constraints, hook=hook)
            if ok:
                return LocalizationReport(
                    path=unit.path, vuln_type=vuln_type,
                    cause=_cause_text(ir, vuln_type),
                    lines=_involved_lines(ir), status="ok",
                    candidate_text=best.text, template_id=best.template_id,
                    backend=best.backend, iterations=iteration,
                    utility=best.utility, s_sec=best.s_sec, s_sem=best.s_sem,
                    feedback=feedback_log)
            feedback_log.append({"kind": "verification_failure",
                                   "candidate": best.candidate_id,
                                   "reasons": reasons})
        feedback = analyze_failures(candidates, constraints)
        feedback_log.extend(feedback)
        ir = refine_context(ir, feedback)

    return LocalizationReport(
        path=unit.path, vuln_type=vuln_type,
        cause=_cause_text(ir, vuln_type), lines=_involved_lines(ir),
        status="fail", iterations=iteration, feedback=feedback_log)
