"""Identifier canonicalization as a printable tree, off the scan path.

``linearize`` applies the same naming policy to the file's one flow
graph; tests use ``normalize`` as the reference for the stage-two sequence.
``augment.rename_variables`` picks other names through ``user_names`` and
``renamed`` too.
"""

from __future__ import annotations

from ..lexicon import RESERVED_FUNCTION_NAMES, SECRET_NAME_RE
from .nodes import AstNode, NodeKind, copy_tree

_NAMED_FUNCTIONS = (NodeKind.FUNCTION_DECL, NodeKind.CALL)


def user_names(root: AstNode, keep) -> tuple[list[str], list[str]]:
    """(variables, function names not in ``keep``), each in first
    occurrence order."""
    variables: dict[str, None] = {}
    functions: dict[str, None] = {}
    for node in root.walk():
        if node.kind is NodeKind.VAR:
            variables.setdefault(node.attrs["name"])
        elif node.kind in _NAMED_FUNCTIONS and node.attrs["name"] not in keep:
            functions.setdefault(node.attrs["name"])
    return list(variables), list(functions)


def renamed(root: AstNode, var_map: dict[str, str],
            fn_map: dict[str, str]) -> AstNode:
    """A copy of the tree with every variable renamed through ``var_map``
    and each function name in ``fn_map`` renamed through it."""
    out = copy_tree(root)
    for node in out.walk():
        if node.kind is NodeKind.VAR:
            node.attrs["name"] = var_map[node.attrs["name"]]
        elif node.kind in _NAMED_FUNCTIONS and node.attrs["name"] in fn_map:
            node.attrs["name"] = fn_map[node.attrs["name"]]
    return out


def normalize(root: AstNode, keep: frozenset[str] | None = None) -> AstNode:
    """Return a copy with user identifiers canonically renamed.

    Variables become v1, v2, ... and user functions f1, f2, ... in first
    textual occurrence order. Superglobals, built-ins, lexicon names and
    credential-style variable names (part of the risky lexicon: the name
    itself is the security signal) are never touched; comments never reach
    the tree, so the result prints without non-executable artifacts.
    """
    variables, functions = user_names(
        root, RESERVED_FUNCTION_NAMES if keep is None else keep)
    # a credential-style name stays one: its canonical name still matches
    secrets = [name for name in variables if SECRET_NAME_RE.search(name)]
    var_map = {name: f"secret_{i}" for i, name in enumerate(secrets, 1)}
    others = [name for name in variables if name not in var_map]
    var_map.update((name, f"v{i}") for i, name in enumerate(others, 1))
    fn_map = {name: f"f{i}" for i, name in enumerate(functions, 1)}
    return renamed(root, var_map, fn_map)
