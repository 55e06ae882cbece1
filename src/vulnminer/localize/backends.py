"""Hole-filling backends: rule-based, refusing, and remote."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Protocol

from ..frontend.nodes import AstNode, NodeKind, STATEMENT_KINDS
from .constraints import ConstraintSet
from .ir import IntermediateRepresentation
from .rewrite import FillPlan, PreparedRewrite, SourceWrap
from .templates import MicroTemplate

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


class GenerationBackend(Protocol):
    name: str

    def fill(self, template: MicroTemplate, ir: IntermediateRepresentation,
             constraints: ConstraintSet) -> list[FillPlan]:
        """Hole assignments for a template; empty list means refusal."""
        ...


class RefusalBackend:
    name = "refusal"

    def fill(self, template, ir, constraints) -> list[FillPlan]:
        return []


@dataclass
class _SliceFacts:
    window_ids: set[int]
    read_groups: list[tuple[str, tuple[int, ...], str | None]]  # text, ids, key
    tainted_vars: set[str]
    sink_stmt_id: int
    sink_node: AstNode
    sink_arg: AstNode | None
    build_stmt: AstNode | None
    build_in_window: bool
    query_built: bool
    hoist_container_of: dict[int, bool]


class DeterministicBackend:
    """Derives hole values from the IR; no generation model involved."""

    name = "deterministic"

    def fill(self, template: MicroTemplate, ir: IntermediateRepresentation,
             constraints: ConstraintSet) -> list[FillPlan]:
        if not template.applicable(ir.finding.sink_class):
            return []
        facts = _collect_facts(ir)
        maker = {
            "validation_wrapper": self._command_plans,
            "prepared_statement": self._sql_plans,
            "output_escape": self._output_plans,
            "include_guard": self._include_plans,
            "redirect_guard": self._redirect_plans,
        }.get(template.template_id)
        if maker is None:
            return []
        return maker(template, ir, facts)

    # -- per-template plan construction ------------------------------------

    def _command_plans(self, template, ir, facts) -> list[FillPlan]:
        primary = FillPlan(template_id=template.template_id, variant="primary")
        for text, ids, key in facts.read_groups:
            sanitizer = _path_sanitizer(key)
            stmt_id = _stmt_of(ir, ids[0])
            if facts.hoist_container_of.get(stmt_id, False):
                primary.source_wraps.append(SourceWrap(
                    node_ids=ids, sanitizer=sanitizer,
                    hoist_var=_fresh_var(ir, key or "input"),
                    hoist_before=stmt_id))
            else:
                primary.source_wraps.append(SourceWrap(ids, sanitizer))
        if facts.build_stmt is not None and facts.build_in_window:
            primary.rhs_wrap[facts.build_stmt.node_id] = "escapeshellcmd"
        elif facts.sink_arg is not None:
            primary.source_wraps.append(SourceWrap(
                (facts.sink_arg.node_id,), "escapeshellcmd"))
        generic = self._generic_plan(template, ir, facts)
        return [primary, generic]

    def _sql_plans(self, template, ir, facts) -> list[FillPlan]:
        finding = ir.finding
        generic = self._generic_plan(template, ir, facts)
        if finding.source_kind == "secret_literal":
            assign_id = _secret_assign(ir)
            if assign_id is None or assign_id not in facts.window_ids:
                return []
            var = finding.source_label.split(":", 1)[1]
            primary = FillPlan(template_id=template.template_id,
                               variant="primary")
            primary.credential_env[assign_id] = var.upper()
            return [primary, generic]
        if facts.query_built:
            prepared = self._prepared_rewrite(ir, facts)
            if prepared is None:
                return []  # build site invisible: ask for wider context
            primary = FillPlan(template_id=template.template_id,
                               variant="primary", prepared=prepared)
            return [primary, generic]
        primary = FillPlan(template_id=template.template_id, variant="primary")
        if not facts.read_groups:
            return []
        for _, ids, _key in facts.read_groups:
            primary.source_wraps.append(SourceWrap(ids, "intval"))
        return [primary, generic]

    def _output_plans(self, template, ir, facts) -> list[FillPlan]:
        primary = FillPlan(template_id=template.template_id, variant="primary")
        self._wrap_reads_or_sink(primary, ir, facts, "htmlspecialchars")
        generic = self._generic_plan(template, ir, facts)
        return [primary, generic]

    def _include_plans(self, template, ir, facts) -> list[FillPlan]:
        primary = FillPlan(template_id=template.template_id, variant="primary")
        for text, ids, key in facts.read_groups:
            sanitizer = "sanitize_path" if key and _is_pathish(key) else "basename"
            primary.source_wraps.append(SourceWrap(ids, sanitizer))
        if not primary.source_wraps:
            self._wrap_reads_or_sink(primary, ir, facts, "basename")
        if facts.sink_arg is not None:
            primary.sink_head[facts.sink_arg.node_id] = "./"
        generic = self._generic_plan(template, ir, facts)
        return [primary, generic]

    def _redirect_plans(self, template, ir, facts) -> list[FillPlan]:
        primary = FillPlan(template_id=template.template_id, variant="primary")
        self._wrap_reads_or_sink(primary, ir, facts, "sanitize_url")
        if facts.sink_arg is not None:
            primary.sink_head[facts.sink_arg.node_id] = "Location: "
        generic = self._generic_plan(template, ir, facts)
        return [primary, generic]

    # -- shared pieces -------------------------------------------------------

    def _wrap_reads_or_sink(self, plan: FillPlan, ir, facts, sanitizer: str):
        if facts.read_groups:
            for _, ids, _key in facts.read_groups:
                plan.source_wraps.append(SourceWrap(ids, sanitizer))
            return
        # reads live outside the window (or the source is a literal):
        # guard the tainted leaves inside the sink argument instead
        for leaf in _tainted_leaves(facts.sink_arg, facts.tainted_vars):
            plan.source_wraps.append(SourceWrap((leaf.node_id,), sanitizer))

    def _generic_plan(self, template, ir, facts) -> FillPlan:
        guard = _GENERIC_GUARD[ir.finding.sink_class]
        plan = FillPlan(template_id=template.template_id, variant="generic")
        if facts.read_groups:
            for _, ids, _key in facts.read_groups:
                plan.source_wraps.append(SourceWrap(ids, guard))
        else:
            for leaf in _tainted_leaves(facts.sink_arg, facts.tainted_vars):
                plan.source_wraps.append(SourceWrap((leaf.node_id,), guard))
        return plan

    def _prepared_rewrite(self, ir, facts) -> PreparedRewrite | None:
        build = facts.build_stmt
        if build is None or not facts.build_in_window:
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
        stmt_var = _fresh_var(ir, "stmt")
        call_stmt, call_name = _execute_site(ir, facts)
        if call_stmt is None:
            return None
        return PreparedRewrite(
            build_stmt_id=build.node_id,
            replace_call_stmt_id=call_stmt,
            replace_call_name=call_name,
            stmt_var=stmt_var,
            query_literal="".join(literal_parts),
            bind_exprs=tuple(binds),
        )


# ---------------------------------------------------------------------------
# IR fact extraction shared by the deterministic backend
# ---------------------------------------------------------------------------

def _collect_facts(ir: IntermediateRepresentation) -> _SliceFacts:
    finding = ir.finding
    graph = ir.graph
    parents = ir.parent_map()
    window_ids = {s.node_id for s in ir.window_statements()}

    path_stmts: list[AstNode] = []
    seen: set[int] = set()
    for nid in finding.path:
        sid = _stmt_of(ir, nid)
        if sid not in seen:
            seen.add(sid)
            path_stmts.append(graph.nodes[sid])

    groups: dict[str, list[int]] = {}
    keys: dict[str, str | None] = {}
    if finding.source_kind == "superglobal":
        for stmt in path_stmts:
            if stmt.node_id not in window_ids:
                continue
            for node in stmt.walk():
                if (node.kind is NodeKind.SUPERGLOBAL
                        and f"$_{node.attrs['sg']}" == finding.source_label):
                    read = node
                    parent = parents.get(node.node_id)
                    if (parent is not None and parent.kind is NodeKind.INDEX
                            and parent.children[0] is node):
                        read = parent
                    text = _expr_text(read)
                    groups.setdefault(text, []).append(read.node_id)
                    keys.setdefault(text, _index_key(read))

    tainted = {graph.nodes[_stmt_of(ir, nid)] for nid in finding.path}
    tainted_vars = set()
    for stmt in tainted:
        if stmt.kind is NodeKind.ASSIGN and stmt.children[0].kind is NodeKind.VAR:
            tainted_vars.add(stmt.children[0].attrs["name"])
    if finding.source_kind == "secret_literal":
        tainted_vars.add(finding.source_label.split(":", 1)[1])

    sink_node = graph.nodes[finding.sink_id]
    sink_stmt_id = _stmt_of(ir, finding.sink_id)
    sink_arg = _tainted_sink_arg(sink_node, tainted_vars, finding)

    build_stmt = _build_statement(ir, path_stmts, sink_arg)
    build_in_window = (build_stmt is not None
                       and build_stmt.node_id in window_ids)
    query_built = bool(
        build_stmt is not None
        and any(n.kind is NodeKind.CONCAT for n in build_stmt.children[1].walk())
    ) or bool(sink_arg is not None
              and sink_arg.kind is NodeKind.CONCAT)

    hoistable: dict[int, bool] = {}
    for stmt in path_stmts:
        parent = parents.get(stmt.node_id)
        hoistable[stmt.node_id] = parent is not None and parent.kind in (
            NodeKind.PROGRAM, NodeKind.FUNCTION_DECL)

    ordered = sorted(groups)
    return _SliceFacts(
        window_ids=window_ids,
        read_groups=[(t, tuple(groups[t]), keys[t]) for t in ordered],
        tainted_vars=tainted_vars,
        sink_stmt_id=sink_stmt_id,
        sink_node=sink_node,
        sink_arg=sink_arg,
        build_stmt=build_stmt,
        build_in_window=build_in_window,
        query_built=query_built,
        hoist_container_of=hoistable,
    )


def _concat_leaves(expr: AstNode) -> list[AstNode]:
    """Flatten a left-nested concat chain into its ordered leaves."""
    if expr.kind is NodeKind.CONCAT:
        left, right = expr.children
        return _concat_leaves(left) + _concat_leaves(right)
    return [expr]


def _stmt_of(ir: IntermediateRepresentation, node_id: int) -> int:
    parents = ir.parent_map()
    node = ir.graph.nodes[node_id]
    while node.kind not in STATEMENT_KINDS:
        parent = parents.get(node.node_id)
        if parent is None:
            return node.node_id
        node = parent
    return node.node_id


def _expr_text(node: AstNode) -> str:
    from ..frontend.printer import _expr

    return _expr(node, 0)


def _index_key(read: AstNode) -> str | None:
    if (read.kind is NodeKind.INDEX
            and read.children[1].kind is NodeKind.STRING_LIT):
        return read.children[1].attrs["value"]
    return None


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


def _fresh_var(ir: IntermediateRepresentation, base: str) -> str:
    taken = set(ir.graph.defs) | set(ir.graph.uses)
    name = base if base not in taken else f"{base}_safe"
    counter = 1
    while name in taken:
        counter += 1
        name = f"{base}_{counter}"
    return name


def _tainted_sink_arg(sink_node: AstNode, tainted_vars: set[str],
                      finding) -> AstNode | None:
    if sink_node.kind in (NodeKind.ECHO, NodeKind.INCLUDE_STMT):
        return sink_node.children[0]
    if sink_node.kind is NodeKind.CALL:
        for arg in sink_node.children:
            for leaf in arg.walk():
                if leaf.kind is NodeKind.SUPERGLOBAL:
                    return arg
                if (leaf.kind is NodeKind.VAR
                        and leaf.attrs["name"] in tainted_vars):
                    return arg
        return sink_node.children[0] if sink_node.children else None
    return None


def _tainted_leaves(arg: AstNode | None, tainted_vars: set[str]):
    if arg is None:
        return []
    out = []
    for node in arg.walk():
        if node.kind is NodeKind.VAR and node.attrs["name"] in tainted_vars:
            out.append(node)
        elif node.kind is NodeKind.SUPERGLOBAL:
            out.append(node)
    return out


def _build_statement(ir, path_stmts, sink_arg) -> AstNode | None:
    if sink_arg is None:
        return None
    arg_vars = {n.attrs["name"] for n in sink_arg.walk()
                if n.kind is NodeKind.VAR}
    build = None
    for stmt in path_stmts:
        if (stmt.kind is NodeKind.ASSIGN
                and stmt.children[0].kind is NodeKind.VAR
                and stmt.children[0].attrs["name"] in arg_vars):
            build = stmt
    return build


def _secret_assign(ir) -> int | None:
    for nid in ir.finding.path:
        sid = _stmt_of(ir, nid)
        stmt = ir.graph.nodes[sid]
        if (stmt.kind is NodeKind.ASSIGN
                and stmt.children[0].kind is NodeKind.VAR
                and stmt.children[0].attrs["name"]
                == ir.finding.source_label.split(":", 1)[1]):
            return sid
    return None


def _execute_site(ir, facts) -> tuple[int | None, str | None]:
    """Statement whose call gets replaced by the prepared execute."""
    sink_fn = _enclosing_fn_name(ir, facts.sink_stmt_id)
    build_fn = _enclosing_fn_name(ir, facts.build_stmt.node_id)
    if sink_fn == build_fn:
        return facts.sink_stmt_id, facts.sink_node.attrs.get("name")
    if build_fn is None and sink_fn is not None:
        # query built at top level, executed inside a helper: call the
        # prepared handle directly at the original call site
        for node in ir.ast.walk():
            if (node.kind is NodeKind.CALL
                    and node.attrs["name"] == sink_fn):
                return _stmt_of(ir, node.node_id), sink_fn
    return None, None


def _enclosing_fn_name(ir, node_id: int) -> str | None:
    parents = ir.parent_map()
    node = ir.graph.nodes[node_id]
    while True:
        parent = parents.get(node.node_id)
        if parent is None:
            return None
        if parent.kind is NodeKind.FUNCTION_DECL:
            return parent.attrs["name"]
        node = parent


# ---------------------------------------------------------------------------
# Remote backend
# ---------------------------------------------------------------------------

@dataclass
class RemoteBackend:
    """HTTP client for an external analysis model.

    Unreachable endpoints fall back to the deterministic filler so runs
    always complete; well-formed transport with a malformed body counts
    as a refusal.
    """

    endpoint: str
    token: str = ""
    timeout: float = 10.0
    inner: DeterministicBackend = field(default_factory=DeterministicBackend)
    name: str = "remote"
    last_analysis: dict | None = None

    def fill(self, template, ir, constraints) -> list[FillPlan]:
        # imported here: urllib.request loads ssl, which costs every
        # process that imports this module several MB of memory
        import urllib.error
        import urllib.request

        payload = {
            "prompt": ANALYSIS_PROMPT,
            "input": {
                "php_code": ir.unit.text,
                "line": ir.finding.sink_span.start_line,
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
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                raw = response.read()
        except urllib.error.HTTPError as exc:  # an error status still has a body
            raw = exc.read()
        except (OSError, ValueError):  # unreachable, timed out or bad URL
            self.name = "deterministic-fallback"
            return self.inner.fill(template, ir, constraints)
        try:
            body = json.loads(raw)
        except ValueError:
            return []
        if not all(key in body for key in _RESPONSE_KEYS):
            return []
        self.last_analysis = {k: body[k] for k in _RESPONSE_KEYS}
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
