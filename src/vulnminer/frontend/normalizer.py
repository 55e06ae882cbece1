"""Identifier canonicalization as a printable tree, off the scan path.

``linearize`` applies the same naming policy to the file's one flow
graph; tests use ``normalize`` as the reference for the stage-two sequence.
"""

from __future__ import annotations

from ..lexicon import RESERVED_FUNCTION_NAMES, SECRET_NAME_RE
from .nodes import AstNode, NodeKind, copy_tree


def normalize(root: AstNode, keep: frozenset[str] | None = None) -> AstNode:
    """Return a copy with user identifiers canonically renamed.

    Variables become v1, v2, ... and user functions f1, f2, ... in first
    textual occurrence order. Superglobals, built-ins, lexicon names and
    credential-style variable names (part of the risky lexicon: the name
    itself is the security signal) are never touched; comments never reach
    the tree, so the result prints without non-executable artifacts.
    """
    reserved = RESERVED_FUNCTION_NAMES if keep is None else keep
    var_map: dict[str, str] = {}
    fn_map: dict[str, str] = {}
    counter = 0
    secret_counter = 0

    for node in root.walk():
        if node.kind is NodeKind.VAR:
            name = node.attrs["name"]
            if name not in var_map:
                if SECRET_NAME_RE.search(name):
                    # canonical name still matches the credential pattern
                    secret_counter += 1
                    var_map[name] = f"secret_{secret_counter}"
                else:
                    counter += 1
                    var_map[name] = f"v{counter}"
        elif node.kind is NodeKind.FUNCTION_DECL:
            name = node.attrs["name"]
            if name not in reserved and name not in fn_map:
                fn_map[name] = f"f{len(fn_map) + 1}"
        elif node.kind is NodeKind.CALL:
            name = node.attrs["name"]
            if name not in reserved and name not in fn_map:
                fn_map[name] = f"f{len(fn_map) + 1}"

    out = copy_tree(root)
    for node in out.walk():
        if node.kind is NodeKind.VAR:
            node.attrs["name"] = var_map[node.attrs["name"]]
        elif node.kind is NodeKind.FUNCTION_DECL and node.attrs["name"] in fn_map:
            node.attrs["name"] = fn_map[node.attrs["name"]]
        elif node.kind is NodeKind.CALL and node.attrs["name"] in fn_map:
            node.attrs["name"] = fn_map[node.attrs["name"]]
    return out
