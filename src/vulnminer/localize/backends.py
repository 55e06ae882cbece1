"""Plan-making backends: rule-based, refusing, and remote."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Protocol

from ..frontend.nodes import AstNode, NodeKind
from .constraints import ConstraintSet
from .ir import IntermediateRepresentation, enclosing_function, source_element
from .rewrite import FillPlan, PreparedRewrite, SourceWrap

# Wrong-class guard proposed as an exploratory variant; the constraint set
# exists precisely to filter these out.
_GENERIC_GUARD = {"Command": "htmlspecialchars", "Sql": "htmlspecialchars",
                  "Output": "addslashes", "Include": "htmlspecialchars",
                  "Redirect": "htmlspecialchars"}

ANALYSIS_PROMPT = """\
You are a PHP security analysis engine. Input PHP code and line number, and
output the vulnerability classification result. Strictly follow the following
rules:
Input format:
{php_code: "complete PHP code", line: line number}
Thinking and analysis process:
Quickly parse the code logic and data flow.
Focus on checking the code at the specified line number to determine if there
are security vulnerabilities.
Determine the vulnerability type according to common PHP vulnerability types
(such as SQL injection, XSS, command injection, file inclusion vulnerability,
CSRF, path traversal, etc.).
Analyze the cause of the vulnerability.
Finally, output in the following JSON format:
{
"vulnerability type": "vulnerability name",
"cause analysis": "briefly describe the cause of the vulnerability",
"involved line numbers": "the line number where the vulnerability is located"
}
"""

_RESPONSE_KEYS = ("vulnerability type", "cause analysis", "involved line numbers")


@dataclass(frozen=True)
class MicroTemplate:
    """A plan maker and the sink classes it guards: ``make(plan, ir,
    facts)`` fills the primary plan, or returns False to refuse."""

    template_id: str
    sink_classes: tuple[str, ...]
    make: Callable[..., bool]

    def applicable(self, sink_class: str) -> bool:
        return sink_class in self.sink_classes


class GenerationBackend(Protocol):
    name: str

    def fill(self, template: MicroTemplate, ir: IntermediateRepresentation,
             constraints: ConstraintSet) -> list[FillPlan]:
        """Guard plans for a template; empty list means refusal."""
        ...


class RefusalBackend:
    name = "refusal"

    def fill(self, template, ir, constraints) -> list[FillPlan]:
        return []


class DeterministicBackend:
    """Derives guard plans from the IR; no generation model involved.

    The template's maker fills the primary plan from the IR's slice facts
    or refuses; the generic plan guards the same reads.
    """

    name = "deterministic"

    def fill(self, template: MicroTemplate, ir: IntermediateRepresentation,
             constraints: ConstraintSet) -> list[FillPlan]:
        primary = FillPlan(template_id=template.template_id, variant="primary")
        if not template.make(primary, ir, ir.facts):
            return []
        generic = FillPlan(template_id=template.template_id, variant="generic")
        _wrap_reads_or_sink(generic, ir.facts,
                            _GENERIC_GUARD[ir.finding.sink_class])
        return [primary, generic]


# -- per-template plan makers: fill the primary plan, False to refuse --------

def _command_plan(plan: FillPlan, ir, facts) -> bool:
    taken = _var_names(ir)
    # every read sits in a path statement; it hoists out of one that sits
    # directly in a body
    for text, ids, key in facts.read_groups:
        sanitizer = _path_sanitizer(key)
        stmt_id = ir.stmt_of(ids[0])
        if ir.analysis.parents[stmt_id].kind in (
                NodeKind.PROGRAM, NodeKind.FUNCTION_DECL):
            plan.source_wraps.append(SourceWrap(
                node_ids=ids, sanitizer=sanitizer,
                hoist_var=_fresh_var(taken, key or "input"),
                hoist_before=stmt_id))
        else:
            plan.source_wraps.append(SourceWrap(ids, sanitizer))
    if facts.build_stmt is not None and facts.build_in_window:
        plan.rhs_wrap[facts.build_stmt.node_id] = "escapeshellcmd"
    elif facts.sink_arg is not None:
        plan.source_wraps.append(SourceWrap(
            (facts.sink_arg.node_id,), "escapeshellcmd"))
    return True


def _sql_plan(plan: FillPlan, ir, facts) -> bool:
    finding = ir.finding
    if finding.source_kind == "secret_literal":
        var = finding.source_label.split(":", 1)[1]
        assign_id = _secret_assign(ir, var)
        if assign_id is None or assign_id not in facts.window_ids:
            return False
        plan.credential_env[assign_id] = var.upper()
        return True
    if facts.query_built:
        # None when the build site is invisible: ask for wider context
        plan.prepared = _prepared_rewrite(ir, facts)
        return plan.prepared is not None
    for _, ids, _key in facts.read_groups:
        plan.source_wraps.append(SourceWrap(ids, "intval"))
    return bool(facts.read_groups)


def _output_plan(plan: FillPlan, ir, facts) -> bool:
    _wrap_reads_or_sink(plan, facts, "htmlspecialchars")
    return True


def _include_plan(plan: FillPlan, ir, facts) -> bool:
    for text, ids, key in facts.read_groups:
        sanitizer = "sanitize_path" if key and _is_pathish(key) else "basename"
        plan.source_wraps.append(SourceWrap(ids, sanitizer))
    if not plan.source_wraps:
        _wrap_reads_or_sink(plan, facts, "basename")
    if facts.sink_arg is not None:
        plan.sink_head[facts.sink_arg.node_id] = "./"
    return True


def _redirect_plan(plan: FillPlan, ir, facts) -> bool:
    _wrap_reads_or_sink(plan, facts, "sanitize_url")
    if facts.sink_arg is not None:
        plan.sink_head[facts.sink_arg.node_id] = "Location: "
    return True


_TEMPLATES = (
    MicroTemplate("validation_wrapper", ("Command",), _command_plan),
    MicroTemplate("prepared_statement", ("Sql",), _sql_plan),
    MicroTemplate("output_escape", ("Output",), _output_plan),
    MicroTemplate("include_guard", ("Include",), _include_plan),
    MicroTemplate("redirect_guard", ("Redirect",), _redirect_plan),
)


def default_templates() -> list[MicroTemplate]:
    return list(_TEMPLATES)


# -- shared pieces -------------------------------------------------------------

def _wrap_reads_or_sink(plan: FillPlan, facts, sanitizer: str):
    if facts.read_groups:
        for _, ids, _key in facts.read_groups:
            plan.source_wraps.append(SourceWrap(ids, sanitizer))
        return
    # reads live outside the window, or the source is a literal or a
    # whole array: guard the tainted leaves inside the sink argument, or
    # the argument itself when it has none
    leaves = _tainted_leaves(facts.sink_arg, facts.tainted_vars)
    if not leaves and facts.sink_arg is not None:
        leaves = [facts.sink_arg]
    for leaf in leaves:
        plan.source_wraps.append(SourceWrap((leaf.node_id,), sanitizer))


def _prepared_rewrite(ir, facts) -> PreparedRewrite | None:
    build = facts.build_stmt
    if build is None or not facts.build_in_window:
        return None
    call_id = _execute_site(ir, build)
    if call_id is None:
        return None
    literal_parts: list[str] = []
    binds: list[int] = []
    for leaf in _concat_leaves(build.children[1]):
        if leaf.kind is NodeKind.STRING_LIT:
            literal_parts.append(leaf.attrs["value"])
        else:
            # bound parameters are unquoted: drop quotes the original
            # string interpolation placed around the spliced value
            if literal_parts and literal_parts[-1].endswith("'"):
                literal_parts[-1] = literal_parts[-1][:-1]
            literal_parts.append("?")
            binds.append(leaf.node_id)
    for i, part in enumerate(literal_parts):
        if part == "?" and i + 1 < len(literal_parts) \
                and literal_parts[i + 1].startswith("'"):
            literal_parts[i + 1] = literal_parts[i + 1][1:]
    return PreparedRewrite(
        build_stmt_id=build.node_id,
        call_id=call_id,
        stmt_var=_fresh_var(_var_names(ir), "stmt"),
        query_literal="".join(literal_parts),
        bind_exprs=tuple(binds),
    )


def _concat_leaves(expr: AstNode) -> list[AstNode]:
    """Flatten a concat chain into its ordered leaves, without recursion:
    a left-nested chain is as deep as it is long."""
    leaves, stack = [], [expr]
    while stack:
        node = stack.pop()
        if node.kind is NodeKind.CONCAT:
            stack.extend(reversed(node.children))
        else:
            leaves.append(node)
    return leaves


def _is_pathish(key: str) -> bool:
    lowered = key.lower()
    return "path" in lowered or "dir" in lowered


def _path_sanitizer(key: str | None) -> str:
    if key is None:
        return "escapeshellarg"
    if _is_pathish(key):
        return "sanitize_path"
    if "file" in key.lower() or "name" in key.lower():
        return "sanitize_filename"
    return "escapeshellarg"


def _var_names(ir: IntermediateRepresentation) -> set[str]:
    return {n.attrs["name"] for n in ir.ast.walk() if n.kind is NodeKind.VAR}


def _fresh_var(taken: set[str], base: str) -> str:
    """A variable name not in ``taken``, which then holds it too, so one
    plan never hoists two reads into the same variable."""
    name = base if base not in taken else f"{base}_safe"
    counter = 1
    while name in taken:
        counter += 1
        name = f"{base}_{counter}"
    taken.add(name)
    return name


def _tainted_leaves(arg: AstNode | None, tainted_vars: set[str]):
    """Tainted variables and indexed superglobal elements in ``arg``; a
    bare superglobal is an array, which no sanitizer takes."""
    if arg is None:
        return []
    return [node for node in arg.walk()
            if (node.kind is NodeKind.VAR and node.attrs["name"] in tainted_vars)
            or source_element(node)]


def _secret_assign(ir, var: str) -> int | None:
    """Statement on the finding's path that assigns the secret ``var``."""
    for nid in ir.finding.path:
        sid = ir.stmt_of(nid)
        stmt = ir.analysis.nodes[sid]
        if (stmt.kind is NodeKind.ASSIGN
                and stmt.children[0].kind is NodeKind.VAR
                and stmt.children[0].attrs["name"] == var):
            return sid
    return None


def _execute_site(ir, build: AstNode) -> int | None:
    """Id of the call that the prepared execute replaces, or None.

    The query's definition must reach exactly one statement, and that
    statement holds the call: the sink call when the query is built and
    run in one function, else the one call there of the function that
    holds the sink.
    """
    analysis = ir.analysis
    uses = [use for d, use in analysis.graph.dataflow if d == build.node_id]
    if len(uses) != 1:
        return None
    use, sink_id = uses[0], ir.finding.sink_id
    sink_owner = enclosing_function(analysis, sink_id)
    if sink_owner == enclosing_function(analysis, build.node_id):
        return sink_id if ir.stmt_of(sink_id) == use else None
    if sink_owner is None:
        return None
    helper = analysis.nodes[sink_owner].attrs["name"]
    calls = [n.node_id for n in analysis.nodes[use].walk()
             if n.kind is NodeKind.CALL and n.attrs["name"] == helper
             and ir.stmt_of(n.node_id) == use]
    return calls[0] if len(calls) == 1 else None


# ---------------------------------------------------------------------------
# Remote backend
# ---------------------------------------------------------------------------

@dataclass
class RemoteBackend:
    """A gate on an external analysis model.

    An answer with all three analysis keys lets the deterministic filler
    run; well-formed transport with a malformed body counts as a refusal.
    Unreachable endpoints fall back to the deterministic filler so runs
    always complete.
    """

    endpoint: str
    token: str = ""
    timeout: float = 10.0
    inner: DeterministicBackend = field(default_factory=DeterministicBackend)
    name: str = "remote"

    def fill(self, template, ir, constraints) -> list[FillPlan]:
        # imported here: urllib.request loads ssl, which costs every
        # process that imports this module several MB of memory
        import urllib.error
        import urllib.request

        payload = {
            "prompt": ANALYSIS_PROMPT,
            "input": {
                "php_code": ir.unit.text,
                "line": ir.unit.position(ir.finding.sink_start)[0],
            },
            "constraints": [c.cid for c in constraints.constraints],
            "feedback": ir.feedback,
        }
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        request = urllib.request.Request(
            self.endpoint, data=json.dumps(payload).encode("utf-8"),
            headers=headers, method="POST")
        # set on every call: candidates read the name after each fill
        self.name = "remote"
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                raw = response.read()
        except urllib.error.HTTPError as exc:  # an error status still has a body
            raw = exc.read()
        except (OSError, ValueError):  # unreachable, timed out or bad URL
            self.name = "deterministic-fallback"
            return self.inner.fill(template, ir, constraints)
        try:
            body = dict(json.loads(raw))
        except (ValueError, TypeError):  # not JSON, or not a JSON object
            return []
        if not all(key in body for key in _RESPONSE_KEYS):
            return []
        return self.inner.fill(template, ir, constraints)


def make_backend(kind: str, endpoint: str = "", token: str = "",
                 timeout: float = 10.0):
    if kind == "deterministic":
        return DeterministicBackend()
    if kind == "refusal":
        return RefusalBackend()
    if kind == "remote":
        if not endpoint:
            return DeterministicBackend()
        return RemoteBackend(endpoint=endpoint, token=token, timeout=timeout)
    raise ValueError(f"unknown backend kind {kind!r}")
