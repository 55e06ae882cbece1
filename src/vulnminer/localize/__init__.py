"""Constraint-guided vulnerability localization."""

from .backends import (
    ANALYSIS_PROMPT,
    DeterministicBackend,
    GenerationBackend,
    MicroTemplate,
    RefusalBackend,
    RemoteBackend,
    default_templates,
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
    analyze_failures,
    generate_candidates,
    localize,
    verify,
)
from .ir import IntermediateRepresentation, build_ir, refine_context
from .rewrite import FillPlan, Rewriter, SourceWrap
from .scoring import Candidate, edit_distance, score_candidate, select_best

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
    "IntermediateRepresentation",
    "LocalizationReport",
    "MicroTemplate",
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
    "localize",
    "make_backend",
    "refine_context",
    "score_candidate",
    "select_best",
    "verify",
]
