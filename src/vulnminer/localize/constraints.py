"""Security constraints extracted from the IR and checked on candidates."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis import FileAnalysis
from ..errors import ParseError
from ..frontend.nodes import AstNode, NodeKind
from .ir import IntermediateRepresentation

SANITIZE_BEFORE_USE = "SanitizeBeforeUse"
PARAMETERIZED_SQL = "ParameterizedSql"
BOUNDED_OPERATION = "BoundedOperation"

# Accepted sanitizers per sink class: the lexicon's sanitizers of the class
# without the `intval` coercion, except for Sql, which keeps `intval` and
# drops `addslashes`.
ACCEPTED_SANITIZERS = {
    "Command": ("escapeshellcmd", "escapeshellarg", "sanitize_path",
                "sanitize_filename"),
    "Output": ("htmlspecialchars", "htmlentities", "strip_tags"),
    "Redirect": ("sanitize_url", "urlencode"),
    "Include": ("basename", "sanitize_path", "sanitize_filename"),
    "Sql": ("mysqli_real_escape_string", "intval"),
}

_PREPARE_CALLS = ("db_prepare", "mysqli_prepare", "prepare")


@dataclass(frozen=True)
class Constraint:
    cid: str
    kind: str
    sink_class: str
    sanitizers: tuple[str, ...] = ()
    description: str = ""


@dataclass
class ConstraintSet:
    constraints: list[Constraint] = field(default_factory=list)

    def __post_init__(self):
        ids = [c.cid for c in self.constraints]
        if len(ids) != len(set(ids)):
            raise ValueError("constraint ids must be unique")

    def by_id(self, cid: str) -> Constraint:
        for c in self.constraints:
            if c.cid == cid:
                return c
        raise KeyError(cid)


def extract_constraints(ir: IntermediateRepresentation) -> ConstraintSet:
    sink_class = ir.finding.sink_class
    out: list[Constraint] = []
    if sink_class in ("Command", "Output", "Redirect", "Include"):
        accepted = ACCEPTED_SANITIZERS[sink_class]
        out.append(Constraint(
            cid=f"sanitize-{sink_class.lower()}",
            kind=SANITIZE_BEFORE_USE, sink_class=sink_class,
            sanitizers=accepted,
            description=(f"every {sink_class} flow must pass one of "
                         f"{', '.join(accepted)} before the sink"),
        ))
    if sink_class == "Sql":
        out.append(Constraint(
            cid="parameterized-sql",
            kind=PARAMETERIZED_SQL, sink_class="Sql",
            sanitizers=ACCEPTED_SANITIZERS["Sql"],
            description=("query text must be static; dynamic values enter "
                         "through bound parameters or integer coercion"),
        ))
    if sink_class in ("Include", "Redirect"):
        out.append(Constraint(
            cid=f"bounded-{sink_class.lower()}",
            kind=BOUNDED_OPERATION, sink_class=sink_class,
            sanitizers=ACCEPTED_SANITIZERS[sink_class],
            description=(f"the {sink_class} target must keep a literal "
                         "prefix bounding where it can point"),
        ))
    return ConstraintSet(constraints=out)


@dataclass
class CandidateContext:
    """Parsed candidate plus the facts predicates need."""

    analysis: FileAnalysis
    ast: AstNode | None             # None when the candidate does not parse
    findings: list
    original_sink_class: str
    original_query_built: bool

    @classmethod
    def build(cls, analysis: FileAnalysis, ir: IntermediateRepresentation,
              query_built: bool) -> "CandidateContext":
        try:
            ast, findings = analysis.ast, analysis.findings
        except ParseError:
            ast, findings = None, []
        return cls(analysis=analysis, ast=ast, findings=findings,
                   original_sink_class=ir.finding.sink_class,
                   original_query_built=query_built)


def evaluate_constraint(c: Constraint, ctx: CandidateContext) -> bool:
    """Boolean predicate over a candidate slice."""
    if ctx.ast is None:
        return False
    unsanitized = [f for f in ctx.findings
                   if not f.sanitized and f.sink_class == c.sink_class]
    if c.kind == SANITIZE_BEFORE_USE:
        if unsanitized:
            return False
        return _calls_any(ctx.ast, c.sanitizers)
    if c.kind == PARAMETERIZED_SQL:
        if unsanitized:
            return False
        if ctx.original_query_built:
            return _has_static_prepare(ctx.ast)
        return True
    if c.kind == BOUNDED_OPERATION:
        if unsanitized:
            return False
        return _sinks_bounded(ctx)
    raise ValueError(f"unknown constraint kind {c.kind}")


def _calls_any(ast: AstNode, names: tuple[str, ...]) -> bool:
    return any(n.kind is NodeKind.CALL and n.attrs["name"] in names
               for n in ast.walk())


def _has_static_prepare(ast: AstNode) -> bool:
    for node in ast.walk():
        if node.kind is NodeKind.CALL and node.attrs["name"] in _PREPARE_CALLS:
            if node.children and node.children[0].kind is NodeKind.STRING_LIT:
                return True
    return False


def leftmost_operand(expr: AstNode) -> AstNode:
    """The first operand of a `.` chain, or the expression itself."""
    while expr.kind is NodeKind.CONCAT:
        expr = expr.children[0]
    return expr


def _sinks_bounded(ctx: CandidateContext) -> bool:
    """Each sink argument keeps a literal prefix or an accepted wrapper."""
    accepted = ACCEPTED_SANITIZERS[ctx.original_sink_class]
    sink_names = {name for name, cls in ctx.analysis.lex.sinks.items()
                  if cls == ctx.original_sink_class}
    args: list[AstNode] = []
    for node in ctx.ast.walk():
        if (node.kind is NodeKind.INCLUDE_STMT
                and ctx.original_sink_class == "Include"):
            args.append(node.children[0])
        elif (node.kind is NodeKind.CALL and node.attrs["name"] in sink_names
              and node.children):
            args.append(node.children[0])
    for arg in args:
        head = leftmost_operand(arg)
        if head.kind is NodeKind.STRING_LIT and head.attrs["value"]:
            continue
        if head.kind is NodeKind.CALL and head.attrs["name"] in accepted:
            continue
        return False
    return True
