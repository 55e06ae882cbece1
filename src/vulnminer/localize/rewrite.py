"""Applies guard plans to the vulnerable slice and re-prints it."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..frontend.nodes import (AstNode, NodeKind, compound, copy_tree,
                              mk_assign, mk_call, mk_expr_stmt, mk_str, mk_var,
                              parts)
from ..frontend.printer import print_source
from .constraints import ACCEPTED_SANITIZERS, leftmost_operand
from .ir import IntermediateRepresentation


@dataclass
class SourceWrap:
    """Wrap (or hoist) one tainted read expression."""

    node_ids: tuple[int, ...]      # every occurrence of the same read text
    sanitizer: str
    hoist_var: str | None = None   # hoists need a top-level container
    hoist_before: int | None = None  # statement id to insert before


@dataclass
class PreparedRewrite:
    build_stmt_id: int
    call_id: int                   # the call that becomes db_execute
    stmt_var: str
    query_literal: str
    bind_exprs: tuple[int, ...]    # node ids of tainted parts in the build


@dataclass
class FillPlan:
    """Backend output: where to apply which guard."""

    template_id: str
    variant: str                           # "primary" or "generic"
    source_wraps: list[SourceWrap] = field(default_factory=list)
    rhs_wrap: dict[int, str] = field(default_factory=dict)   # assign stmt -> fn
    prepared: PreparedRewrite | None = None
    credential_env: dict[int, str] = field(default_factory=dict)  # assign -> env
    sink_head: dict[int, str] = field(default_factory=dict)  # sink node -> literal


class Rewriter:
    """Applies a fill plan to a copy of the original tree and re-prints it."""

    def __init__(self, ir: IntermediateRepresentation):
        self.ir = ir
        self.sink_class = ir.finding.sink_class

    def apply(self, plan: FillPlan) -> str:
        """Edit a copy of the tree, each node after all its descendants,
        so an edit sees its operands already edited."""
        self.plan = plan
        analysis, prep = self.ir.analysis, plan.prepared
        self.wrap_nodes: dict[int, str] = {}
        self.replace_with_var: dict[int, str] = {}
        self.hoists: dict[int, list[AstNode]] = {}  # statement id -> assigns
        for wrap in plan.source_wraps:
            if wrap.hoist_var and wrap.hoist_before is not None:
                for nid in wrap.node_ids:
                    self.replace_with_var[nid] = wrap.hoist_var
                read = analysis.nodes[wrap.node_ids[0]]
                self.hoists.setdefault(wrap.hoist_before, []).append(mk_assign(
                    mk_var(wrap.hoist_var),
                    self._wrap(copy_tree(read), wrap.sanitizer)))
            else:
                for nid in wrap.node_ids:
                    self.wrap_nodes[nid] = wrap.sanitizer
        # the compound nodes whose statement lists get statements inserted
        self.rebuilt = {analysis.parents[sid].node_id for sid in (
            *self.hoists, *([prep.build_stmt_id] if prep else ()))}
        touched = {*self.replace_with_var, *self.wrap_nodes,
                   *plan.credential_env, *plan.rhs_wrap, *plan.sink_head,
                   *self.rebuilt, *([prep.call_id] if prep else ())}

        source = self.ir.ast
        pairs = list(zip(source.walk(), copy_tree(source).walk()))
        self.copy_of = {node.node_id: copy for node, copy in pairs}
        for node, copy in reversed(pairs):
            if node.node_id not in touched:
                continue
            edited = self.copy_of[node.node_id] = self._edit(node, copy)
            parent = analysis.parents.get(node.node_id)
            if parent is not None and edited is not copy:
                siblings = self.copy_of[parent.node_id].children
                siblings[siblings.index(copy)] = edited
        return print_source(self.copy_of[source.node_id])

    def _edit(self, node: AstNode, copy: AstNode) -> AstNode:
        """The first of the plan's edits below that applies at ``node``:
        the edited copy, or the node that replaces it."""
        nid = node.node_id
        plan = self.plan
        if nid in self.replace_with_var:
            return mk_var(self.replace_with_var[nid])
        if nid in self.wrap_nodes:
            return self._wrap(copy, self.wrap_nodes[nid])
        if node.kind is NodeKind.ASSIGN and nid in plan.credential_env:
            env = mk_str(plan.credential_env[nid])
            copy.children[1] = mk_call("getenv", [env])
        elif node.kind is NodeKind.ASSIGN and nid in plan.rhs_wrap:
            copy.children[1] = self._wrap(copy.children[1], plan.rhs_wrap[nid])
        elif plan.prepared and nid == plan.prepared.call_id:
            return mk_call("db_execute", [mk_var(plan.prepared.stmt_var)])
        elif nid in plan.sink_head:
            return self._with_head(copy, plan.sink_head[nid])
        elif nid in self.rebuilt:
            (heads, bodies), (_, originals) = parts(copy), parts(node)
            return compound(node.kind, heads,
                            list(map(self._body, originals, bodies)),
                            **node.attrs)
        return copy

    def _body(self, stmts: list[AstNode],
              copies: list[AstNode]) -> list[AstNode]:
        """Edited copies of a statement list, with the hoists inserted and
        the prepared build statement replaced by prepare and binds."""
        out: list[AstNode] = []
        prep = self.plan.prepared
        for stmt, copy in zip(stmts, copies):
            out.extend(self.hoists.get(stmt.node_id, ()))
            if not prep or stmt.node_id != prep.build_stmt_id:
                out.append(copy)
                continue
            out.append(mk_assign(mk_var(prep.stmt_var), mk_call(
                "db_prepare", [mk_str(prep.query_literal)])))
            out.extend(mk_expr_stmt(mk_call("db_bind", [
                mk_var(prep.stmt_var), self.copy_of[nid]]))
                for nid in prep.bind_exprs)
        return out

    # -- guard construction ----------------------------------------------------

    def _wrap(self, expr: AstNode, sanitizer: str) -> AstNode:
        # collapse duplicate wraps: an accepted guard is never nested
        accepted = (sanitizer, *ACCEPTED_SANITIZERS.get(self.sink_class, ()))
        if expr.kind is NodeKind.CALL and expr.attrs["name"] in accepted:
            return expr
        return mk_call(sanitizer, [expr])

    def _with_head(self, expr: AstNode, literal: str) -> AstNode:
        head = leftmost_operand(expr)
        if head.kind is NodeKind.STRING_LIT and head.attrs["value"]:
            return expr
        return AstNode(NodeKind.CONCAT, children=[mk_str(literal), expr])
