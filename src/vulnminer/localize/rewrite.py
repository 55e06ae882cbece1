"""Splices filled templates into the vulnerable slice and re-prints it."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..frontend.nodes import AstNode, NodeKind, STATEMENT_KINDS, copy_tree
from ..frontend.printer import print_source
from ..source import Span
from .constraints import ACCEPTED_SANITIZERS
from .ir import IntermediateRepresentation

_SPAN = Span(1, 1, 1, 1)


def _node(kind: NodeKind, children=None, **attrs) -> AstNode:
    return AstNode(kind, children=list(children or []), attrs=attrs, span=_SPAN)


def mk_var(name: str) -> AstNode:
    return _node(NodeKind.VAR, name=name)


def mk_str(value: str) -> AstNode:
    return _node(NodeKind.STRING_LIT, value=value)


def mk_call(name: str, args) -> AstNode:
    return _node(NodeKind.CALL, children=args, name=name)


def mk_assign(target: AstNode, value: AstNode) -> AstNode:
    return _node(NodeKind.ASSIGN, children=[target, value])


def mk_expr_stmt(expr: AstNode) -> AstNode:
    return _node(NodeKind.EXPR_STMT, children=[expr])


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
    replace_call_stmt_id: int      # statement whose call becomes db_execute
    replace_call_name: str         # function call to swap (sink or wrapper)
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
    """Applies a fill plan to the original tree and re-prints the file."""

    def __init__(self, ir: IntermediateRepresentation):
        self.ir = ir
        self.sink_class = ir.finding.sink_class

    def apply(self, plan: FillPlan) -> str:
        self.plan = plan
        self.wrap_nodes: dict[int, str] = {}
        self.replace_with_var: dict[int, str] = {}
        for wrap in plan.source_wraps:
            if wrap.hoist_var and wrap.hoist_before is not None:
                for nid in wrap.node_ids:
                    self.replace_with_var[nid] = wrap.hoist_var
            else:
                for nid in wrap.node_ids:
                    self.wrap_nodes[nid] = wrap.sanitizer
        program = self._rebuild(self.ir.ast)
        return print_source(program)

    # -- tree rebuilding -----------------------------------------------------

    def _rebuild_body(self, stmts: list[AstNode]) -> list[AstNode]:
        out: list[AstNode] = []
        plan = self.plan
        for stmt in stmts:
            sid = stmt.node_id
            for wrap in plan.source_wraps:
                if wrap.hoist_before == sid and wrap.hoist_var:
                    original = self.ir.graph.nodes[wrap.node_ids[0]]
                    out.append(mk_assign(
                        mk_var(wrap.hoist_var),
                        self._wrap(copy_tree(original), wrap.sanitizer)))
            if plan.prepared and sid == plan.prepared.build_stmt_id:
                out.extend(self._prepared_statements(stmt, plan.prepared))
                continue
            out.append(self._rebuild(stmt))
        return out

    def _rebuild(self, node: AstNode) -> AstNode:
        nid = node.node_id
        plan = self.plan
        if nid in self.replace_with_var:
            return mk_var(self.replace_with_var[nid])
        if nid in self.wrap_nodes:
            inner = self._rebuild_children(node)
            return self._wrap(inner, self.wrap_nodes[nid])

        if node.kind is NodeKind.ASSIGN and nid in plan.credential_env:
            target = self._rebuild(node.children[0])
            env = plan.credential_env[nid]
            return mk_assign(target, mk_call("getenv", [mk_str(env)]))
        if node.kind is NodeKind.ASSIGN and nid in plan.rhs_wrap:
            target = self._rebuild(node.children[0])
            value = self._wrap(self._rebuild(node.children[1]),
                               plan.rhs_wrap[nid])
            return mk_assign(target, value)
        if (plan.prepared and node.kind is NodeKind.CALL
                and node.attrs["name"] == plan.prepared.replace_call_name
                and self._stmt_of(nid) == plan.prepared.replace_call_stmt_id):
            return mk_call("db_execute", [mk_var(plan.prepared.stmt_var)])
        if nid in plan.sink_head:
            inner = self._rebuild_children(node)
            return self._with_head(inner, plan.sink_head[nid])
        return self._rebuild_children(node)

    def _rebuild_children(self, node: AstNode) -> AstNode:
        if node.kind in (NodeKind.PROGRAM,):
            return _node(NodeKind.PROGRAM,
                         children=self._rebuild_body(node.children))
        if node.kind is NodeKind.FUNCTION_DECL:
            name, params, body = node.function_parts()
            new = _node(NodeKind.FUNCTION_DECL,
                        children=[self._rebuild(p) for p in params]
                        + self._rebuild_body(body),
                        name=name, n_params=len(params))
            return new
        if node.kind is NodeKind.IF:
            cond, then, other = node.if_parts()
            new_then = self._rebuild_body(then)
            new_else = self._rebuild_body(other)
            return _node(NodeKind.IF,
                         children=[self._rebuild(cond)] + new_then + new_else,
                         then_len=len(new_then), else_len=len(new_else))
        if node.kind is NodeKind.WHILE:
            cond, body = node.loop_parts()
            return _node(NodeKind.WHILE,
                         children=[self._rebuild(cond)]
                         + self._rebuild_body(body))
        if node.kind is NodeKind.FOR:
            init, cond, step = node.children[:3]
            body = node.children[3:]
            return _node(NodeKind.FOR,
                         children=[self._rebuild(init), self._rebuild(cond),
                                   self._rebuild(step)]
                         + self._rebuild_body(body))
        if node.kind is NodeKind.FOREACH:
            iterable, key, value, body = node.foreach_parts()
            children = [self._rebuild(iterable)]
            if key is not None:
                children.append(self._rebuild(key))
            children.append(self._rebuild(value))
            return _node(NodeKind.FOREACH,
                         children=children + self._rebuild_body(body),
                         has_key=key is not None)
        return AstNode(node.kind,
                       children=[self._rebuild(c) for c in node.children],
                       attrs=dict(node.attrs), span=_SPAN)

    # -- guard construction ----------------------------------------------------

    def _wrap(self, expr: AstNode, sanitizer: str) -> AstNode:
        # collapse duplicate wraps: an accepted guard is never nested
        if (expr.kind is NodeKind.CALL
                and expr.attrs["name"] == sanitizer):
            return expr
        accepted = ACCEPTED_SANITIZERS.get(self.sink_class, ())
        if expr.kind is NodeKind.CALL and expr.attrs["name"] in accepted:
            return expr
        return mk_call(sanitizer, [expr])

    def _with_head(self, expr: AstNode, literal: str) -> AstNode:
        head = expr
        while head.kind is NodeKind.CONCAT:
            head = head.children[0]
        if head.kind is NodeKind.STRING_LIT and head.attrs["value"]:
            return expr
        return _node(NodeKind.CONCAT, children=[mk_str(literal), expr])

    def _prepared_statements(self, stmt: AstNode,
                             prep: PreparedRewrite) -> list[AstNode]:
        binds = [
            mk_expr_stmt(mk_call("db_bind", [
                mk_var(prep.stmt_var),
                self._rebuild(self.ir.graph.nodes[nid]),
            ]))
            for nid in prep.bind_exprs
        ]
        return [
            mk_assign(mk_var(prep.stmt_var),
                      mk_call("db_prepare", [mk_str(prep.query_literal)])),
            *binds,
        ]

    def _stmt_of(self, node_id: int) -> int:
        parents = self.ir.parent_map()
        node = self.ir.graph.nodes[node_id]
        while node.kind not in STATEMENT_KINDS:
            parent = parents.get(node.node_id)
            if parent is None:
                return node.node_id
            node = parent
        return node.node_id
