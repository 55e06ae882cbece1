"""Intermediate representation for one localization job."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from ..analysis import FileAnalysis
from ..errors import NoFindingError
from ..flows import TaintFinding, primary_finding
from ..frontend.nodes import AstNode, NodeKind, STATEMENT_KINDS
from ..frontend.printer import print_expression
from ..lexicon import TaintLexicon
from ..source import SourceUnit


@dataclass
class IntermediateRepresentation:
    analysis: FileAnalysis
    finding: TaintFinding
    window_owner: int | None        # FunctionDecl node id, None = whole file
    feedback: list[dict] = field(default_factory=list)

    @property
    def unit(self) -> SourceUnit:
        return self.analysis.unit

    @property
    def ast(self) -> AstNode:
        return self.analysis.ast

    @property
    def lex(self) -> TaintLexicon:
        return self.analysis.lex

    @cached_property
    def facts(self) -> SliceFacts:
        """Slice facts of this window, computed once per IR.

        A cached property, not a field, so the IR that ``refine_context``
        makes for a wider window computes its own.
        """
        return _collect_facts(self)

    def stmt_of(self, node_id: int) -> int:
        """Id of the innermost statement holding a node (itself if one)."""
        parents = self.analysis.parents
        node = self.analysis.nodes[node_id]
        while node.kind not in STATEMENT_KINDS:
            parent = parents.get(node.node_id)
            if parent is None:
                return node.node_id
            node = parent
        return node.node_id

    def window_statements(self) -> list[AstNode]:
        """Statements the backend and rewriter may inspect this iteration."""
        if self.window_owner is None:
            return [n for n in self.ast.walk() if n.kind in STATEMENT_KINDS]
        owner = self.analysis.nodes[self.window_owner]
        _, _, body = owner.function_parts()
        out: list[AstNode] = []
        for stmt in body:
            out.extend(n for n in stmt.walk() if n.kind in STATEMENT_KINDS)
        return out


def enclosing_function(analysis: FileAnalysis, node_id: int) -> int | None:
    """Id of the innermost function declaration above a node, None at top level."""
    parents = analysis.parents
    node = parents.get(node_id)
    while node is not None:
        if node.kind is NodeKind.FUNCTION_DECL:
            return node.node_id
        node = parents.get(node.node_id)
    return None


def build_ir(analysis: FileAnalysis) -> IntermediateRepresentation:
    """Pick the highest-severity unsanitized finding and its context.

    Raises NoFindingError when the detector verdict was a false positive
    (no unsanitized flow exists).
    """
    finding = primary_finding([f for f in analysis.findings
                               if not f.sanitized])
    if finding is None:
        raise NoFindingError(f"{analysis.path}: no unsanitized taint finding")

    return IntermediateRepresentation(
        analysis=analysis, finding=finding,
        window_owner=enclosing_function(analysis, finding.sink_id))


def refine_context(ir: IntermediateRepresentation,
                   feedback: list[dict]) -> IntermediateRepresentation:
    """Widen the window to the whole file and carry failure feedback forward.

    An IR whose window is already the whole file is returned itself, so
    its slice facts are not computed again.
    """
    if not feedback:
        raise ValueError("refine_context requires non-empty feedback")
    merged = ir.feedback + list(feedback)
    if ir.window_owner is None:
        ir.feedback = merged
        return ir
    return replace(ir, window_owner=None, feedback=merged)


# ---------------------------------------------------------------------------
# Slice facts: what the backend and the scorer read off one IR window
# ---------------------------------------------------------------------------

@dataclass
class SliceFacts:
    window_ids: set[int]
    read_groups: list[tuple[str, tuple[int, ...], str | None]]  # text, ids, key
    tainted_vars: set[str]
    sink_arg: AstNode | None
    build_stmt: AstNode | None
    build_in_window: bool
    query_built: bool


def _collect_facts(ir: IntermediateRepresentation) -> SliceFacts:
    finding = ir.finding
    nodes = ir.analysis.nodes
    window_ids = {s.node_id for s in ir.window_statements()}

    path_stmts: list[AstNode] = []
    seen: set[int] = set()
    for nid in finding.path:
        sid = ir.stmt_of(nid)
        if sid not in seen:
            seen.add(sid)
            path_stmts.append(nodes[sid])

    groups: dict[str, list[int]] = {}
    keys: dict[str, str | None] = {}
    if finding.source_kind == "superglobal":
        # a read is one indexed element, never the bare array, and counts
        # only in its own statement: a compound path statement's body
        # holds reads the flow need not pass through
        for stmt in path_stmts:
            if stmt.node_id not in window_ids:
                continue
            for read in stmt.walk():
                if (source_element(read, finding.source_label)
                        and ir.stmt_of(read.node_id) == stmt.node_id):
                    text = print_expression(read)
                    groups.setdefault(text, []).append(read.node_id)
                    keys.setdefault(text, _index_key(read))

    tainted_vars = set()
    for stmt in path_stmts:
        if stmt.kind is NodeKind.ASSIGN and stmt.children[0].kind is NodeKind.VAR:
            tainted_vars.add(stmt.children[0].attrs["name"])
        elif stmt.kind is NodeKind.FOREACH:
            _, key, value, _ = stmt.foreach_parts()
            tainted_vars.update(v.attrs["name"] for v in (key, value) if v)
    if finding.source_kind == "secret_literal":
        tainted_vars.add(finding.source_label.split(":", 1)[1])

    sink_arg = _tainted_sink_arg(nodes[finding.sink_id], tainted_vars)

    build_stmt = _build_statement(path_stmts, sink_arg)
    build_in_window = (build_stmt is not None
                       and build_stmt.node_id in window_ids)
    query_built = bool(
        build_stmt is not None
        and any(n.kind is NodeKind.CONCAT for n in build_stmt.children[1].walk())
    ) or bool(sink_arg is not None
              and sink_arg.kind is NodeKind.CONCAT)

    ordered = sorted(groups)
    return SliceFacts(
        window_ids=window_ids,
        read_groups=[(t, tuple(groups[t]), keys[t]) for t in ordered],
        tainted_vars=tainted_vars,
        sink_arg=sink_arg,
        build_stmt=build_stmt,
        build_in_window=build_in_window,
        query_built=query_built,
    )


def source_element(node: AstNode, label: str | None = None) -> bool:
    """Whether ``node`` indexes a superglobal (the one named ``label``,
    if given) directly: ``$_GET['id']``, not ``$_GET``."""
    if node.kind is not NodeKind.INDEX:
        return False
    base = node.children[0]
    return (base.kind is NodeKind.SUPERGLOBAL
            and label in (None, f"$_{base.attrs['sg']}"))


def _index_key(read: AstNode) -> str | None:
    if read.children[1].kind is NodeKind.STRING_LIT:
        return read.children[1].attrs["value"]
    return None


def _tainted_sink_arg(sink_node: AstNode,
                      tainted_vars: set[str]) -> AstNode | None:
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


def _build_statement(path_stmts: list[AstNode],
                     sink_arg: AstNode | None) -> AstNode | None:
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
