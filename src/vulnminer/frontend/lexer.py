"""Lexer for the PHP subset: one compiled regex, tokens carry offsets."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any

from ..errors import ParseError
from ..source import SourceUnit

KEYWORDS = frozenset({
    "if", "else", "while", "for", "foreach", "as", "function", "return",
    "echo", "include", "include_once", "require", "require_once",
})

# Longest first: the alternation takes the first operator that matches.
_OPERATORS = (
    "===", "!==", "==", "!=", "<=", ">=", "&&", "||", "=>",
    "=", "<", ">", ".", "+", "-", "*", "/", "%", "!",
    "(", ")", "{", "}", "[", "]", ";", ",",
)

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"

# Leading whitespace, then one alternative per token class, tried in order;
# ``end`` matches the whitespace at the end of the text. A backslash in a
# single-quoted string always takes the next character with it, so the body
# has one way to match and cannot backtrack into a string that ends early.
# A double-quoted string with no backslash and no "$" is one match; any
# other goes to ``_double_quoted``. Text that no alternative matches is an
# error (see ``_no_match``), and so is an unclosed "/*".
_TOKEN = re.compile(r"[ \t\r\n]*(?:" + "|".join((
    r"(?P<comment>(?://|#)[^\n]*|/\*[\s\S]*?\*/)",
    r"(?P<open_comment>/\*)",
    rf"(?P<var>\${_NAME})",
    r"(?P<single>'[^'\\]*(?:\\[\s\S][^'\\]*)*')",
    r'(?P<plain>"[^"\\$]*")',
    r"(?P<number>[0-9]+(?:\.[0-9]+)?)",
    rf"(?P<ident>{_NAME})",
    r"(?P<close_tag>\?>)",
    "(?P<op>" + "|".join(map(re.escape, _OPERATORS)) + ")",
    r"(?P<end>\Z)",
)) + ")")
_WS = re.compile(r"[ \t\r\n]*")
_SQ_ESCAPE = re.compile(r"\\(['\\])")

_DQ_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", '"': '"', "$": "$"}
_DQ_LITERAL = re.compile(r'[^"\\${]+')
_DQ_NAME = re.compile(_NAME)
_DQ_BARE_INDEX = re.compile(rf"\[(?:([0-9]+)|({_NAME}))\]")
_DIGITS = re.compile(r"[0-9]+")


@dataclass(slots=True)
class Token:
    kind: str          # open_tag close_tag var ident keyword string interp_string number op comment eof
    text: str
    start: int         # offsets into the source text, end exclusive
    end: int
    value: Any = None  # decoded payload (string value, numeric value, var name)
    parts: list = field(default_factory=list)  # interp_string only

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r})"


@dataclass
class InterpPart:
    """One segment of a double-quoted interpolated string."""

    kind: str                 # "lit" or "expr"
    text: str = ""            # decoded literal text (lit)
    var: str | None = None    # variable name without $ (expr)
    index: tuple | None = None  # ("str", v) | ("num", text) | None
    start: int = 0            # absolute offsets into the source text
    end: int = 0


def tokenize(unit: SourceUnit) -> list[Token]:
    """Lex a source unit; comments are kept as tokens of kind ``comment``.

    Each token carries its offsets into ``unit.text``. The ``eof`` token
    has no text and sits one past the text, so a span that reaches it ends
    at ``len(text)``, as an inclusive (line, col) end does.
    """
    text = unit.text
    n = len(text)
    pos = n - len(text.lstrip(" \t\r\n"))
    if not text.startswith("<?php", pos):
        raise _error(unit, "missing opening <?php tag", pos, expected="<?php")
    tokens = [Token("open_tag", "<?php", pos, pos + 5)]
    pos += 5
    match = _TOKEN.match
    while True:
        m = match(text, pos)
        kind = m.lastgroup if m else None
        value, parts = None, []
        if kind == "end":
            break
        if kind is None or kind == "open_comment":
            start = _WS.match(text, pos).end()
            end, kind, value, parts = _no_match(unit, start)
        else:
            start, end = m.span(kind)
            if kind == "op":
                value = m[kind]
            elif kind == "var":
                value = text[start + 1:end]
            elif kind == "ident":
                value = m[kind]
                kind = "keyword" if value in KEYWORDS else "ident"
            elif kind == "plain":
                kind, value = "string", text[start + 1:end - 1]
            elif kind == "single":
                kind, value = "string", _SQ_ESCAPE.sub(r"\1", text[start + 1:end - 1])
            elif kind == "number":
                value = float(m[kind]) if "." in m[kind] else int(m[kind])
            elif kind == "close_tag" and text[end:].strip():
                raise _error(unit, "content after closing tag is not supported", end)
        tokens.append(Token(kind, text[start:end], start, end, value, parts))
        pos = end
        if kind == "close_tag":
            break
    tokens.append(Token("eof", "", n, n + 1))
    return tokens


def _error(unit: SourceUnit, message: str, at: int, expected=None) -> ParseError:
    return ParseError(message, span=unit.span_between(at, at + 1),
                      expected=expected, path=unit.path)


def _no_match(unit: SourceUnit, pos: int):
    """A double-quoted string that needs decoding, else the lexing error."""
    ch = unit.text[pos]
    if ch == '"':
        return _double_quoted(unit, pos)
    if ch == "'":
        raise _error(unit, "unterminated string", pos)
    if ch == "$":
        raise _error(unit, "expected variable name after $", pos)
    if ch == "/":
        raise _error(unit, "unterminated comment", pos)
    raise _error(unit, f"unexpected character {ch!r}", pos)


def _double_quoted(unit: SourceUnit, start: int):
    """(end, kind, value, parts) of the double-quoted string at ``start``.

    A string with a variable in it is an ``interp_string`` of literal and
    variable parts; any other is a ``string`` with its decoded value.
    """
    text = unit.text
    pos = start + 1
    parts: list[InterpPart] = []
    lit: list[str] = []
    lit_start = pos

    def flush_lit(end: int):
        if lit:
            parts.append(InterpPart("lit", text="".join(lit), start=lit_start, end=end))
            lit.clear()

    while True:
        run = _DQ_LITERAL.match(text, pos)
        if run:
            lit.append(run.group())
            pos = run.end()
        ch = text[pos:pos + 1]
        if not ch:
            raise _error(unit, "unterminated string", start)
        if ch == "\\":
            esc = text[pos + 1:pos + 2]
            if esc in _DQ_ESCAPES:
                lit.append(_DQ_ESCAPES[esc])
                pos += 2
            else:
                lit.append("\\")
                pos += 1
        elif ch == '"':
            flush_lit(pos)
            pos += 1
            break
        elif ch == "$" and _DQ_NAME.match(text, pos + 1):
            flush_lit(pos)
            parts.append(_interp_simple(text, pos))
            pos = lit_start = parts[-1].end
        elif ch == "{" and text.startswith("$", pos + 1):
            flush_lit(pos)
            parts.append(_interp_curly(unit, pos))
            pos = lit_start = parts[-1].end
        else:
            lit.append(ch)
            pos += 1

    if any(p.kind == "expr" for p in parts):
        return pos, "interp_string", None, parts
    return pos, "string", parts[0].text if parts else "", []


def _interp_simple(text: str, start: int) -> InterpPart:
    # "$var" or "$var[bareword]" / "$var[123]" (PHP simple syntax: no quotes);
    # any other "[" is literal text.
    name = _DQ_NAME.match(text, start + 1)
    end, index = name.end(), None
    bare = _DQ_BARE_INDEX.match(text, end)
    if bare:
        end = bare.end()
        index = ("num", bare[1]) if bare[1] is not None else ("str", bare[2])
    return InterpPart("expr", var=name.group(), index=index, start=start, end=end)


def _interp_curly(unit: SourceUnit, start: int) -> InterpPart:
    # "{$var}" or "{$var['key']}" / "{$var[123]}"
    text = unit.text
    name = _DQ_NAME.match(text, start + 2)
    if not name:
        raise _error(unit, "expected variable in {$...} interpolation", start)
    pos, index = name.end(), None
    if text.startswith("[", pos):
        pos += 1
        quote = text[pos:pos + 1]
        digits = _DIGITS.match(text, pos)
        if quote in ("'", '"'):
            close = text.find(quote, pos + 1)
            if close < 0:
                raise _error(unit, "unterminated string", pos + 1)
            index = ("str", text[pos + 1:close])
            pos = close + 1
        elif digits:
            index = ("num", digits.group())
            pos = digits.end()
        else:
            raise _error(unit, "unsupported index in {$...} interpolation", pos)
        if not text.startswith("]", pos):
            raise _error(unit, "expected ] in {$...} interpolation", pos, expected="]")
        pos += 1
    if not text.startswith("}", pos):
        raise _error(unit, "expected } in {$...} interpolation", pos, expected="}")
    return InterpPart("expr", var=name.group(), index=index, start=start, end=pos + 1)
