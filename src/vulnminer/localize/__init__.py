"""Constraint-guided vulnerability localization."""

from .backends import (
    ANALYSIS_PROMPT,
    DeterministicBackend,
    GenerationBackend,
    RefusalBackend,
    RemoteBackend,
    make_backend,
)
from .constraints import (
    Constraint,
    ConstraintSet,
    evaluate_constraint,
    extract_constraints,
)
from .engine import (
    DEFAULT_ALPHA,
    DEFAULT_MAX_ITERATIONS,
    LocalizationReport,
    RefinementState,
    analyze_failures,
    generate_candidates,
    localize,
    verify,
)
from .ir import IntermediateRepresentation, build_ir, refine_context
from .rewrite import FillPlan, Rewriter, SourceWrap
from .scoring import Candidate, edit_distance, score_candidate, select_best
from .templates import HoleSpec, MicroTemplate, default_templates, load_templates

__all__ = [
    "ANALYSIS_PROMPT",
    "Candidate",
    "Constraint",
    "ConstraintSet",
    "DEFAULT_ALPHA",
    "DEFAULT_MAX_ITERATIONS",
    "DeterministicBackend",
    "FillPlan",
    "GenerationBackend",
    "HoleSpec",
    "IntermediateRepresentation",
    "LocalizationReport",
    "MicroTemplate",
    "RefinementState",
    "RefusalBackend",
    "RemoteBackend",
    "Rewriter",
    "SourceWrap",
    "analyze_failures",
    "build_ir",
    "default_templates",
    "edit_distance",
    "evaluate_constraint",
    "extract_constraints",
    "generate_candidates",
    "load_templates",
    "localize",
    "make_backend",
    "refine_context",
    "score_candidate",
    "select_best",
    "verify",
]
