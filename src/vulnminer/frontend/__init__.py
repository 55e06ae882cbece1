"""PHP subset frontend: lexer, parser, printer, normalizer."""

from .lexer import Token, tokenize
from .nodes import (
    AstNode,
    NodeKind,
    STATEMENT_KINDS,
    SUPERGLOBAL_CLASSES,
    ast_equal,
    check_tree,
    copy_tree,
)
from .normalizer import normalize
from .parser import parse, parse_text
from .printer import print_expression, print_source

__all__ = [
    "AstNode",
    "NodeKind",
    "STATEMENT_KINDS",
    "SUPERGLOBAL_CLASSES",
    "Token",
    "ast_equal",
    "check_tree",
    "copy_tree",
    "normalize",
    "parse",
    "parse_text",
    "print_expression",
    "print_source",
    "tokenize",
]
