"""Recursive-descent parser producing the subset AST.

Binary expressions are parsed by precedence climbing: one loop over the
operator tiers, so a parenthesized expression costs four Python frames
(``expression``, ``_unary``, ``_postfix``, ``_primary``) whatever the
number of tiers.
"""

from __future__ import annotations

from ..errors import ParseError
from ..source import SourceUnit
from .lexer import Token, tokenize
from .nodes import (AstNode, BINARY_PRECEDENCE, INCLUDE_FLAVORS, NodeKind,
                    SUPERGLOBAL_NAMES, compound)

_KEYWORD_STATEMENTS = {
    "if": "_if_stmt",
    "while": "_while_stmt",
    "for": "_for_stmt",
    "foreach": "_foreach_stmt",
    "function": "_function_decl",
    "return": "_return_stmt",
    "echo": "_echo_stmt",
}


def parse(unit: SourceUnit) -> AstNode:
    """Parse a source unit into a Program node or raise ParseError."""
    tokens = [t for t in tokenize(unit) if t.kind != "comment"]
    return _Parser(unit, tokens).program()


def parse_text(path: str, text: str) -> AstNode:
    return parse(SourceUnit.from_text(path, text))


class _Parser:
    def __init__(self, unit: SourceUnit, tokens: list[Token]):
        self.unit = unit
        self.tokens = tokens
        self.i = 0

    # -- token plumbing -----------------------------------------------------

    def at(self, kind: str, value=None) -> bool:
        tok = self.tokens[self.i]
        return tok.kind == kind and (value is None or tok.value == value)

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def expect(self, kind: str, value=None, what: str | None = None) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != kind or (value is not None and tok.value != value):
            want = what or (value if value is not None else kind)
            self.fail(f"expected {want}", expected=want)
        if kind != "eof":
            self.i += 1
        return tok

    def fail(self, message: str, expected=None):
        tok = self.tokens[self.i]
        raise ParseError(message, span=self.unit.span_between(tok.start, tok.end),
                         expected=expected, path=self.unit.path)

    # -- grammar ------------------------------------------------------------

    def program(self) -> AstNode:
        open_tok = self.expect("open_tag")
        body = []
        while not self.at("eof") and not self.at("close_tag"):
            body.append(self.statement())
        if self.at("close_tag"):
            self.advance()
        end = body[-1].end if body else self.tokens[self.i].end
        return compound(NodeKind.PROGRAM, [], [body], start=open_tok.start, end=end)

    def statement(self) -> AstNode:
        tok = self.tokens[self.i]
        if tok.kind == "keyword":
            handler = _KEYWORD_STATEMENTS.get(tok.value)
            if handler is not None:
                return getattr(self, handler)()
            if tok.value in INCLUDE_FLAVORS:
                return self._include_stmt()
            self.fail(f"keyword {tok.value!r} cannot start a statement")
        if tok.kind == "var":
            return self._assignment()
        if tok.kind in ("ident", "number", "string", "interp_string") or self.at("op", "("):
            return self._expr_statement()
        self.fail("expected statement or block", expected="statement")

    def _block_or_stmt(self) -> list[AstNode]:
        if self.at("op", "{"):
            self.advance()
            body = []
            while not self.at("op", "}"):
                if self.at("eof"):
                    self.fail("expected statement or block", expected="}")
                body.append(self.statement())
            self.advance()
            return body
        if self.at("eof") or self.at("op", ";"):
            self.fail("expected statement or block", expected="statement")
        return [self.statement()]

    def _if_stmt(self) -> AstNode:
        start = self.advance().start
        self.expect("op", "(")
        cond = self.expression()
        self.expect("op", ")")
        then = self._block_or_stmt()
        other: list[AstNode] = []
        if self.at("keyword", "else"):
            self.advance()
            other = self._block_or_stmt()
        return compound(NodeKind.IF, [cond], [then, other],
                        start=start, end=(other or then or [cond])[-1].end)

    def _while_stmt(self) -> AstNode:
        start = self.advance().start
        self.expect("op", "(")
        cond = self.expression()
        self.expect("op", ")")
        body = self._block_or_stmt()
        return compound(NodeKind.WHILE, [cond], [body], start=start,
                        end=body[-1].end if body else cond.end)

    def _for_stmt(self) -> AstNode:
        start = self.advance().start
        self.expect("op", "(")
        init = self._assignment_core()
        self.expect("op", ";")
        cond = self.expression()
        self.expect("op", ";")
        step = self._assignment_core()
        self.expect("op", ")")
        body = self._block_or_stmt()
        return compound(NodeKind.FOR, [init, cond, step], [body],
                        start=start, end=body[-1].end if body else step.end)

    def _foreach_stmt(self) -> AstNode:
        start = self.advance().start
        self.expect("op", "(")
        iterable = self.expression()
        self.expect("keyword", "as")
        first = self._var_node(self.expect("var"))
        key = None
        if self.at("op", "=>"):
            self.advance()
            key = first
            value = self._var_node(self.expect("var"))
        else:
            value = first
        self.expect("op", ")")
        body = self._block_or_stmt()
        heads = [iterable] + ([key] if key is not None else []) + [value]
        return compound(NodeKind.FOREACH, heads, [body],
                        start=start, end=body[-1].end if body else value.end)

    def _function_decl(self) -> AstNode:
        start = self.advance()
        name = self.expect("ident", what="function name").value
        self.expect("op", "(")
        params: list[AstNode] = []
        if not self.at("op", ")"):
            params.append(self._var_node(self.expect("var")))
            while self.at("op", ","):
                self.advance()
                params.append(self._var_node(self.expect("var")))
        self.expect("op", ")")
        if not self.at("op", "{"):
            self.fail("expected statement or block", expected="{")
        body = self._block_or_stmt()
        return compound(NodeKind.FUNCTION_DECL, params, [body], name=name,
                        start=start.start, end=(body[-1] if body else start).end)

    def _return_stmt(self) -> AstNode:
        start = self.advance().start
        if self.at("op", ";"):
            return AstNode(NodeKind.RETURN, attrs={"has_value": False},
                           start=start, end=self.advance().end)
        value = self.expression()
        end = self.expect("op", ";").end
        return AstNode(NodeKind.RETURN, children=[value],
                       attrs={"has_value": True}, start=start, end=end)

    def _echo_stmt(self) -> AstNode:
        start = self.advance().start
        value = self.expression()
        end = self.expect("op", ";").end
        return AstNode(NodeKind.ECHO, children=[value], start=start, end=end)

    def _include_stmt(self) -> AstNode:
        tok = self.advance()
        value = self.expression()
        end = self.expect("op", ";").end
        return AstNode(NodeKind.INCLUDE_STMT, children=[value],
                       attrs={"flavor": tok.value}, start=tok.start, end=end)

    def _assignment(self) -> AstNode:
        node = self._assignment_core()
        node.end = self.expect("op", ";").end
        return node

    def _assignment_core(self) -> AstNode:
        target = self._lvalue()
        self.expect("op", "=")
        value = self.expression()
        return AstNode(NodeKind.ASSIGN, children=[target, value],
                       start=target.start, end=value.end)

    def _lvalue(self) -> AstNode:
        tok = self.expect("var")
        if tok.value in SUPERGLOBAL_NAMES:
            self.fail(f"cannot assign to superglobal ${tok.value}")
        return self._postfix(self._var_node(tok))

    def _expr_statement(self) -> AstNode:
        expr = self.expression()
        end = self.expect("op", ";").end
        return AstNode(NodeKind.EXPR_STMT, children=[expr],
                       start=expr.start, end=end)

    # -- expressions ----------------------------------------------------------

    def expression(self, min_tier: int = 0) -> AstNode:
        """Precedence climbing over binary operators of tier >= ``min_tier``.

        Each operator's right operand holds only tighter operators, so every
        tier associates to the left.
        """
        node = self._unary()
        while True:
            tok = self.tokens[self.i]
            tier = BINARY_PRECEDENCE.get(tok.value) if tok.kind == "op" else None
            if tier is None or tier < min_tier:
                return node
            self.i += 1
            rhs = self.expression(tier + 1)
            kind = NodeKind.CONCAT if tok.value == "." else NodeKind.BINARY_OP
            attrs = {} if tok.value == "." else {"op": tok.value}
            node = AstNode(kind, children=[node, rhs], attrs=attrs,
                           start=node.start, end=rhs.end)

    def _unary(self) -> AstNode:
        tok = self.tokens[self.i]
        if tok.kind == "op" and tok.value in ("!", "-"):
            self.i += 1
            operand = self._unary()
            if tok.value == "-" and operand.kind is NodeKind.NUMBER_LIT:
                return AstNode(NodeKind.NUMBER_LIT,
                               attrs={"text": "-" + operand.attrs["text"],
                                      "value": -operand.attrs["value"]},
                               start=tok.start, end=operand.end)
            return AstNode(NodeKind.BINARY_OP, children=[operand],
                           attrs={"op": tok.value},
                           start=tok.start, end=operand.end)
        return self._postfix()

    def _postfix(self, node: AstNode | None = None) -> AstNode:
        """``[expr]`` suffixes after ``node``, by default the next primary."""
        if node is None:
            node = self._primary()
        while self.at("op", "["):
            self.advance()
            idx = self.expression()
            end = self.expect("op", "]").end
            node = AstNode(NodeKind.INDEX, children=[node, idx],
                           start=node.start, end=end)
        return node

    def _primary(self) -> AstNode:
        tok = self.tokens[self.i]
        if tok.kind == "var":
            return self._var_node(self.advance())
        if tok.kind == "number":
            self.advance()
            return AstNode(NodeKind.NUMBER_LIT,
                           attrs={"text": tok.text, "value": tok.value},
                           start=tok.start, end=tok.end)
        if tok.kind == "string":
            self.advance()
            return AstNode(NodeKind.STRING_LIT, attrs={"value": tok.value},
                           start=tok.start, end=tok.end)
        if tok.kind == "interp_string":
            return self._interp(self.advance())
        if tok.kind == "ident":
            return self._call(self.advance())
        if self.at("op", "("):
            self.advance()
            node = self.expression()
            self.expect("op", ")")
            return node
        self.fail(f"unexpected token {tok.text!r} in expression")

    def _call(self, name_tok: Token) -> AstNode:
        self.expect("op", "(", what="( after function name")
        args: list[AstNode] = []
        if not self.at("op", ")"):
            args.append(self.expression())
            while self.at("op", ","):
                self.advance()
                args.append(self.expression())
        end = self.expect("op", ")").end
        return AstNode(NodeKind.CALL, children=args,
                       attrs={"name": name_tok.value},
                       start=name_tok.start, end=end)

    def _var_node(self, tok: Token) -> AstNode:
        if tok.value in SUPERGLOBAL_NAMES:
            return AstNode(NodeKind.SUPERGLOBAL,
                           attrs={"sg": SUPERGLOBAL_NAMES[tok.value]},
                           start=tok.start, end=tok.end)
        return AstNode(NodeKind.VAR, attrs={"name": tok.value},
                       start=tok.start, end=tok.end)

    # -- interpolation desugaring ---------------------------------------------

    def _interp(self, tok: Token) -> AstNode:
        """Desugar "a $x b" into an explicit concat chain of its parts.

        The lexer gives an ``interp_string`` at least one expression part,
        and literal parts that are non-empty and never adjacent.
        """
        pieces = [AstNode(NodeKind.STRING_LIT,
                          attrs={"value": part.text, "from_interp": True},
                          start=part.start, end=part.end)
                  if part.kind == "lit" else self._interp_expr(part)
                  for part in tok.parts]
        node = pieces[0]
        for piece in pieces[1:]:
            node = AstNode(NodeKind.CONCAT, children=[node, piece],
                           attrs={"from_interp": True}, start=tok.start, end=tok.end)
        return node

    def _interp_expr(self, part) -> AstNode:
        at = {"start": part.start, "end": part.end}
        if part.var in SUPERGLOBAL_NAMES:
            base = AstNode(NodeKind.SUPERGLOBAL,
                           attrs={"sg": SUPERGLOBAL_NAMES[part.var],
                                  "from_interp": True}, **at)
        else:
            base = AstNode(NodeKind.VAR,
                           attrs={"name": part.var, "from_interp": True}, **at)
        if part.index is None:
            return base
        idx_kind, idx_text = part.index
        if idx_kind == "num":
            idx = AstNode(NodeKind.NUMBER_LIT,
                          attrs={"text": idx_text, "value": int(idx_text),
                                 "from_interp": True}, **at)
        else:
            idx = AstNode(NodeKind.STRING_LIT,
                          attrs={"value": idx_text, "from_interp": True}, **at)
        return AstNode(NodeKind.INDEX, children=[base, idx],
                       attrs={"from_interp": True}, **at)
