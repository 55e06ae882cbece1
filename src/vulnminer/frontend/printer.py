"""Deterministic source printer; output re-parses to an identical tree."""

from __future__ import annotations

from .nodes import AstNode, BINARY_PRECEDENCE, NodeKind, parts

_UNARY_PREC = 8
_ATOM_PREC = 9

_INDENT = "    "


def print_source(root: AstNode) -> str:
    """Render a Program back to PHP text, one statement per line."""
    assert root.kind is NodeKind.PROGRAM, "print_source expects a Program"
    lines = ["<?php"]
    for stmt in root.children:
        lines.extend(_stmt_lines(stmt, 0))
    return "\n".join(lines) + "\n"


def print_expression(expr: AstNode) -> str:
    return _expr(expr, 0)


def _stmt_lines(node: AstNode, depth: int) -> list[str]:
    pad = _INDENT * depth
    k = node.kind
    if k is NodeKind.ASSIGN:
        target, value = node.children
        return [f"{pad}{_expr(target, 0)} = {_expr(value, 0)};"]
    if k is NodeKind.EXPR_STMT:
        return [f"{pad}{_expr(node.children[0], 0)};"]
    if k is NodeKind.ECHO:
        return [f"{pad}echo {_expr(node.children[0], 0)};"]
    if k is NodeKind.RETURN:
        if node.attrs.get("has_value"):
            return [f"{pad}return {_expr(node.children[0], 0)};"]
        return [f"{pad}return;"]
    if k is NodeKind.INCLUDE_STMT:
        return [f"{pad}{node.attrs['flavor']} {_expr(node.children[0], 0)};"]
    if k is NodeKind.IF:
        cond, then, other = node.if_parts()
        lines = [f"{pad}if ({_expr(cond, 0)}) {{"]
        lines += _body_lines(then, depth + 1)
        if other:
            lines.append(f"{pad}}} else {{")
            lines += _body_lines(other, depth + 1)
        lines.append(f"{pad}}}")
        return lines
    if k is NodeKind.WHILE:
        cond, body = node.loop_parts()
        head = f"while ({_expr(cond, 0)})"
    elif k is NodeKind.FOR:
        (init, cond, step), (body,) = parts(node)
        head = (f"for ({_assign_inline(init)}; {_expr(cond, 0)}; "
                f"{_assign_inline(step)})")
    elif k is NodeKind.FOREACH:
        iterable, key, value, body = node.foreach_parts()
        pair = _expr(value, 0)
        if key is not None:
            pair = f"{_expr(key, 0)} => {pair}"
        head = f"foreach ({_expr(iterable, 0)} as {pair})"
    elif k is NodeKind.FUNCTION_DECL:
        name, params, body = node.function_parts()
        head = f"function {name}({', '.join(_expr(p, 0) for p in params)})"
    else:
        raise ValueError(f"not a statement kind: {k}")
    return [f"{pad}{head} {{", *_body_lines(body, depth + 1), f"{pad}}}"]


def _body_lines(stmts: list[AstNode], depth: int) -> list[str]:
    lines: list[str] = []
    for stmt in stmts:
        lines.extend(_stmt_lines(stmt, depth))
    return lines


def _assign_inline(node: AstNode) -> str:
    target, value = node.children
    return f"{_expr(target, 0)} = {_expr(value, 0)}"


def _expr(node: AstNode, parent_prec: int) -> str:
    k = node.kind
    if k is NodeKind.VAR:
        return f"${node.attrs['name']}"
    if k is NodeKind.SUPERGLOBAL:
        return f"$_{node.attrs['sg']}"
    if k is NodeKind.NUMBER_LIT:
        return node.attrs["text"]
    if k is NodeKind.STRING_LIT:
        return _string_literal(node.attrs["value"])
    if k is NodeKind.CALL:
        args = ", ".join(_expr(a, 0) for a in node.children)
        return f"{node.attrs['name']}({args})"
    if k is NodeKind.INDEX:
        base, idx = node.children
        return f"{_expr(base, _ATOM_PREC)}[{_expr(idx, 0)}]"
    if (op := _binary_op(node)) is not None:
        return _binary_text(node, op, parent_prec)
    if k is NodeKind.BINARY_OP:  # prefix unary
        text = f"{node.attrs['op']}{_expr(node.children[0], _UNARY_PREC)}"
        return f"({text})" if parent_prec > _UNARY_PREC else text
    raise ValueError(f"not an expression kind: {k}")


def _binary_op(node: AstNode) -> str | None:
    """The operator of a two-operand node, else None."""
    if node.kind is NodeKind.CONCAT:
        return "."
    if node.kind is NodeKind.BINARY_OP and len(node.children) != 1:
        return node.attrs["op"]
    return None


def _binary_text(node: AstNode, op: str, parent_prec: int) -> str:
    # A left-nested chain is as deep as it is long: walk down its left
    # operands in a loop, then print each level's right operand outward.
    levels = []
    while op is not None:
        prec = BINARY_PRECEDENCE[op]
        levels.append((node, op, prec, parent_prec))
        node, parent_prec = node.children[0], prec
        op = _binary_op(node)
    text = _expr(node, parent_prec)
    for node, op, prec, parent_prec in reversed(levels):
        text = f"{text} {op} {_expr(node.children[1], prec + 1)}"
        if parent_prec > prec:
            text = f"({text})"
    return text


def _string_literal(value: str) -> str:
    if any(ch in value for ch in "\n\t\r"):
        escaped = (value.replace("\\", "\\\\").replace('"', '\\"')
                   .replace("$", "\\$").replace("\n", "\\n")
                   .replace("\t", "\\t").replace("\r", "\\r"))
        return f'"{escaped}"'
    escaped = value.replace("\\", "\\\\").replace("'", "\\'")
    return f"'{escaped}'"
