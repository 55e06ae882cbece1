"""AST node model for the supported PHP subset."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterator


class NodeKind(str, Enum):
    PROGRAM = "Program"
    FUNCTION_DECL = "FunctionDecl"
    IF = "If"
    WHILE = "While"
    FOR = "For"
    FOREACH = "Foreach"
    RETURN = "Return"
    ECHO = "Echo"
    ASSIGN = "Assign"
    EXPR_STMT = "ExprStmt"
    INCLUDE_STMT = "IncludeStmt"
    CALL = "Call"
    BINARY_OP = "BinaryOp"
    CONCAT = "Concat"
    INDEX = "Index"
    VAR = "Var"
    SUPERGLOBAL = "Superglobal"
    STRING_LIT = "StringLit"
    NUMBER_LIT = "NumberLit"


STATEMENT_KINDS = frozenset({
    NodeKind.FUNCTION_DECL,
    NodeKind.IF,
    NodeKind.WHILE,
    NodeKind.FOR,
    NodeKind.FOREACH,
    NodeKind.RETURN,
    NodeKind.ECHO,
    NodeKind.ASSIGN,
    NodeKind.EXPR_STMT,
    NodeKind.INCLUDE_STMT,
})

SUPERGLOBAL_CLASSES = ("GET", "POST", "REQUEST", "COOKIE", "SERVER", "FILES")
SUPERGLOBAL_NAMES = {f"_{cls}": cls for cls in SUPERGLOBAL_CLASSES}

INCLUDE_FLAVORS = ("include", "include_once", "require", "require_once")

# Binary operator -> precedence, loosest first; the parser and the printer
# both read it. Concatenation binds looser than arithmetic, so tainted
# fragments stay visible at the top of a chain.
BINARY_PRECEDENCE = {op: prec for prec, ops in enumerate((
    ("||",),
    ("&&",),
    ("==", "!=", "===", "!=="),
    ("<", "<=", ">", ">="),
    (".",),
    ("+", "-"),
    ("*", "/", "%"),
), start=1) for op in ops}

# Kinds of two-operand nodes that nest leftward into chains.
CHAIN_KINDS = (NodeKind.CONCAT, NodeKind.BINARY_OP)

_node_ids = itertools.count(1)


def _next_id() -> int:
    return next(_node_ids)


@dataclass(eq=False)
class AstNode:
    """One tree node; ``attrs`` holds the kind-specific payload.

    A compound node's children are its heads, then its statement lists
    end to end. ``parts`` below reads that layout and ``compound`` builds
    it; no other module indexes it:
      Program: [*body]            While: [cond, *body]
      If: [cond, *then, *else]    For: [init, cond, step, *body]
      FunctionDecl: name; [*params, *body]
      Foreach: [iterable, key?, value, *body]

    Other attr conventions:
      Return: has_value
      IncludeStmt: flavor
      Call: name
      BinaryOp: op (one child means prefix unary)
      Var: name (without $)
      Superglobal: sg (GET/POST/...)
      StringLit: value, from_interp
      NumberLit: text, value
    """

    kind: NodeKind
    children: list["AstNode"] = field(default_factory=list)
    attrs: dict[str, Any] = field(default_factory=dict)
    start: int = 0     # offsets into the parsed text, end exclusive
    end: int = 0
    node_id: int = field(default_factory=_next_id)

    def walk(self) -> Iterator["AstNode"]:
        """Pre-order depth-first traversal."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    # -- structured accessors used by analyses and the printer -------------

    def if_parts(self):
        assert self.kind is NodeKind.IF
        (cond,), (then, other) = parts(self)
        return cond, then, other

    def loop_parts(self):
        if self.kind not in (NodeKind.WHILE, NodeKind.FOR):
            raise ValueError(f"not a while/for loop: {self.kind}")
        heads, (body,) = parts(self)
        return heads[1] if self.kind is NodeKind.FOR else heads[0], body

    def foreach_parts(self):
        assert self.kind is NodeKind.FOREACH
        heads, (body,) = parts(self)
        key = heads[1] if len(heads) == 3 else None
        return heads[0], key, heads[-1], body

    def function_parts(self):
        assert self.kind is NodeKind.FUNCTION_DECL
        params, (body,) = parts(self)
        return self.attrs["name"], params, body

    def __repr__(self):
        tag = self.kind.value
        for key in ("name", "op", "sg", "flavor"):
            if key in self.attrs:
                tag += f":{self.attrs[key]}"
                break
        if self.kind is NodeKind.VAR:
            tag = f"Var:{self.attrs['name']}"
        return f"<{tag} #{self.node_id} ({len(self.children)} children)>"


# Kinds whose children end in statement lists -> the number of heads (the
# children before the lists); None where the node's attrs say it.
_HEADS = {NodeKind.PROGRAM: 0, NodeKind.FUNCTION_DECL: None, NodeKind.IF: 1,
          NodeKind.WHILE: 1, NodeKind.FOR: 3, NodeKind.FOREACH: None}


def parts(node: AstNode) -> tuple[list[AstNode], list[list[AstNode]]]:
    """(heads, bodies): the children before the statement lists, then the
    lists in order. A node with no statement list is all heads."""
    kind = node.kind
    if kind not in _HEADS:
        return list(node.children), []
    n = _HEADS[kind]
    if kind is NodeKind.FUNCTION_DECL:
        n = node.attrs["n_params"]
    elif kind is NodeKind.FOREACH:
        n = 3 if node.attrs["has_key"] else 2
    heads, rest = node.children[:n], node.children[n:]
    if kind is NodeKind.IF:
        t = node.attrs["then_len"]
        return heads, [rest[:t], rest[t:]]
    return heads, [rest]


def compound(kind: NodeKind, heads: list[AstNode], bodies: list[list[AstNode]],
             start: int = 0, end: int = 0, **attrs) -> AstNode:
    """The node ``parts`` reads back: the layout attrs (then_len, else_len,
    n_params, has_key) are set from the lengths of heads and bodies."""
    if kind is NodeKind.IF:
        attrs["then_len"], attrs["else_len"] = map(len, bodies)
    elif kind is NodeKind.FUNCTION_DECL:
        attrs["n_params"] = len(heads)
    elif kind is NodeKind.FOREACH:
        attrs["has_key"] = len(heads) == 3
    children = list(heads)
    for body in bodies:
        children.extend(body)
    return AstNode(kind, children=children, attrs=attrs, start=start, end=end)


def assigned_var(assign: AstNode) -> str:
    """The variable an assignment writes (the base of an indexed target)."""
    node = assign.children[0]
    while node.kind is NodeKind.INDEX:
        node = node.children[0]
    return node.attrs["name"]


def mk_var(name: str) -> AstNode:
    return AstNode(NodeKind.VAR, attrs={"name": name})


def mk_str(value: str) -> AstNode:
    return AstNode(NodeKind.STRING_LIT, attrs={"value": value})


def mk_call(name: str, args) -> AstNode:
    return AstNode(NodeKind.CALL, children=list(args), attrs={"name": name})


def mk_assign(target: AstNode, value: AstNode) -> AstNode:
    return AstNode(NodeKind.ASSIGN, children=[target, value])


def mk_expr_stmt(expr: AstNode) -> AstNode:
    return AstNode(NodeKind.EXPR_STMT, children=[expr])


_EQUALITY_ATTRS = {
    NodeKind.FUNCTION_DECL: ("name", "n_params"),
    NodeKind.IF: ("then_len", "else_len"),
    NodeKind.FOREACH: ("has_key",),
    NodeKind.RETURN: ("has_value",),
    NodeKind.INCLUDE_STMT: ("flavor",),
    NodeKind.CALL: ("name",),
    NodeKind.BINARY_OP: ("op",),
    NodeKind.VAR: ("name",),
    NodeKind.SUPERGLOBAL: ("sg",),
    NodeKind.STRING_LIT: ("value",),
    NodeKind.NUMBER_LIT: ("text",),
}


def ast_equal(a: AstNode, b: AstNode) -> bool:
    """Structural equality; node ids and offsets are ignored. It compares
    in a loop, so a left-nested chain as long as the file compares like a
    short one."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x.kind is not y.kind or len(x.children) != len(y.children):
            return False
        for key in _EQUALITY_ATTRS.get(x.kind, ()):
            if x.attrs.get(key) != y.attrs.get(key):
                return False
        stack += zip(x.children, y.children)
    return True


def check_tree(root: AstNode) -> None:
    """Validate id uniqueness and single-parent structure; raises on violation."""
    seen: set[int] = set()
    parents: dict[int, int] = {}
    for node in root.walk():
        if node.node_id in seen:
            raise ValueError(f"duplicate node id {node.node_id}")
        seen.add(node.node_id)
        for child in node.children:
            if child.node_id in parents:
                raise ValueError(f"node {child.node_id} has two parents")
            parents[child.node_id] = node.node_id


def copy_tree(node: AstNode) -> AstNode:
    """Deep copy with fresh node ids, the one way to get a tree to edit. It
    copies in a loop, so a left-nested chain as long as the file copies like
    a short one; a node gets its id before its children."""
    root = AstNode(node.kind, [], dict(node.attrs), node.start, node.end)
    stack = [(node, root)]
    while stack:
        src, dst = stack.pop()
        dst.children = [AstNode(c.kind, [], dict(c.attrs), c.start, c.end)
                        for c in src.children]
        stack += zip(src.children, dst.children)
    return root
