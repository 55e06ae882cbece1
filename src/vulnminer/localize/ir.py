"""Intermediate representation for one localization job."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..analysis import FileAnalysis
from ..errors import NoFindingError
from ..flows import FlowGraph, TaintFinding
from ..frontend.nodes import AstNode, NodeKind, STATEMENT_KINDS
from ..lexicon import TaintLexicon
from ..source import SourceUnit


@dataclass
class IntermediateRepresentation:
    analysis: FileAnalysis
    finding: TaintFinding
    window_owner: int | None        # FunctionDecl node id, None = whole file
    window_level: int               # 0 narrow, 1 whole file
    saturated: bool = False
    feedback: list[dict] = field(default_factory=list)
    context: dict = field(default_factory=dict)
    # mean semantic embedding of the original file, set by the first
    # candidate scored against it
    origin_embedding: np.ndarray | None = None

    @property
    def unit(self) -> SourceUnit:
        return self.analysis.unit

    @property
    def ast(self) -> AstNode:
        return self.analysis.ast

    @property
    def graph(self) -> FlowGraph:
        return self.analysis.graph

    @property
    def lex(self) -> TaintLexicon:
        return self.analysis.lex

    def parent_map(self) -> dict[int, AstNode]:
        parents: dict[int, AstNode] = {}
        for node in self.ast.walk():
            for child in node.children:
                parents[child.node_id] = node
        return parents

    def window_statements(self) -> list[AstNode]:
        """Statements the backend and rewriter may inspect this iteration."""
        if self.window_owner is None:
            return [n for n in self.ast.walk() if n.kind in STATEMENT_KINDS]
        owner = self.graph.nodes[self.window_owner]
        _, _, body = owner.function_parts()
        out: list[AstNode] = []
        for stmt in body:
            out.extend(n for n in stmt.walk() if n.kind in STATEMENT_KINDS)
        return out


def _enclosing_function(graph: FlowGraph, node_id: int) -> int | None:
    parents: dict[int, int] = {}
    for node in graph.root.walk():
        for child in node.children:
            parents[child.node_id] = node.node_id
    current = node_id
    while current in parents:
        current = parents[current]
        node = graph.nodes[current]
        if node.kind is NodeKind.FUNCTION_DECL:
            return current
    return None


def build_ir(analysis: FileAnalysis) -> IntermediateRepresentation:
    """Pick the highest-severity unsanitized finding and its context.

    Raises NoFindingError when the detector verdict was a false positive
    (no unsanitized flow exists).
    """
    live = [f for f in analysis.findings if not f.sanitized]
    if not live:
        raise NoFindingError(f"{analysis.path}: no unsanitized taint finding")
    finding = max(live, key=lambda f: (
        f.severity, (-f.sink_span.start_line, -f.sink_span.start_col)))

    owner = _enclosing_function(analysis.graph, finding.sink_id)
    context = _build_context(analysis.graph, finding, analysis.lex, owner)
    return IntermediateRepresentation(
        analysis=analysis, finding=finding,
        window_owner=owner, window_level=0 if owner is not None else 1,
        context=context,
    )


def _build_context(graph: FlowGraph, finding: TaintFinding,
                   lex: TaintLexicon, owner: int | None) -> dict:
    reachable = sorted(
        var for var, uses in graph.uses.items() if finding.sink_id in uses
        or any(nid in uses for nid in finding.path))
    hits = sorted({
        node.attrs["name"] for node in graph.root.walk()
        if node.kind is NodeKind.CALL and node.attrs["name"] in lex.names
    } | {
        f"$_{node.attrs['sg']}" for node in graph.root.walk()
        if node.kind is NodeKind.SUPERGLOBAL
    })
    return {
        "enclosing_function": (graph.nodes[owner].attrs["name"]
                               if owner is not None else None),
        "reachable_vars": reachable,
        "lexicon_hits": hits,
    }


def refine_context(ir: IntermediateRepresentation,
                   feedback: list[dict]) -> IntermediateRepresentation:
    """Widen the window one level and carry failure feedback forward."""
    if not feedback:
        raise ValueError("refine_context requires non-empty feedback")
    merged = ir.feedback + list(feedback)
    if ir.window_level >= 1 or ir.window_owner is None:
        return replace(ir, saturated=True, feedback=merged)
    return replace(ir, window_owner=None, window_level=1, feedback=merged)
