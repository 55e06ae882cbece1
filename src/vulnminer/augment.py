"""Semantics-preserving augmentation for balancing training corpora."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import FileAnalysis
from .errors import VulnMinerError
from .frontend import print_source
from .frontend.nodes import (AstNode, NodeKind, assigned_var, compound,
                             copy_tree, mk_assign, mk_call, mk_expr_stmt,
                             mk_var, parts)
from .frontend.normalizer import renamed, user_names
from .lexicon import RESERVED_FUNCTION_NAMES
from .source import SourceUnit, read_unit

OP_KINDS = ("Rename", "LoopToRecursion", "SyntaxTransform")

_NAME_SUFFIXES = ("alt", "val", "tmp", "inp", "raw", "buf")


@dataclass
class AugmentedSample:
    origin: str
    ops: list[str]
    output_path: str
    label: int
    vuln_type: str | None
    text: str

    def record(self) -> dict:
        return {"origin": self.origin, "ops": self.ops,
                "output": self.output_path, "label": self.label,
                "vuln_type": self.vuln_type}


# ---------------------------------------------------------------------------
# Individual operators
# ---------------------------------------------------------------------------

def rename_variables(ast: AstNode, seed: int,
                     keep: frozenset[str] = RESERVED_FUNCTION_NAMES) -> AstNode:
    """Consistent one-to-one renaming of user variables and functions.

    Function names in ``keep`` (built-ins and lexicon names) are not renamed.
    """
    rng = np.random.default_rng(seed)
    var_names, fn_names = user_names(ast, keep)
    taken = set(var_names) | set(fn_names) | set(keep)

    def variant(name: str) -> str:
        choices = [
            f"{name}_{_NAME_SUFFIXES[int(rng.integers(len(_NAME_SUFFIXES)))]}",
            f"{name[0]}_{name[1:]}" if len(name) > 2 else f"{name}_v",
            f"my_{name}",
            f"{name}_{int(rng.integers(2, 100))}",
        ]
        pick = choices[int(rng.integers(len(choices)))]
        while pick in taken:
            pick = f"{pick}{int(rng.integers(10))}"
        taken.add(pick)
        return pick

    var_map = {n: variant(n) for n in var_names}
    fn_map = {n: variant(n) for n in fn_names}
    return renamed(ast, var_map, fn_map)


def _loop_vars(loop: AstNode) -> tuple[set[str], set[str]]:
    """(modified, used) variable names of a while/for loop; an indexed
    write modifies its base variable."""
    modified: set[str] = set()
    used: set[str] = set()
    heads, (body,) = parts(loop)
    # a for loop's init runs once, before the loop
    segments = (heads[1:] if loop.kind is NodeKind.FOR else heads) + body
    for seg in segments:
        for node in seg.walk():
            if node.kind is NodeKind.VAR:
                used.add(node.attrs["name"])
            elif node.kind is NodeKind.ASSIGN:
                modified.add(assigned_var(node))
    return modified, used


def loop_to_recursion(ast: AstNode, seed: int) -> tuple[AstNode, bool]:
    """Rewrite the first eligible while/for loop as a recursive helper.

    Eligible: a top-level (or function-body) loop whose body modifies at
    most one variable. Returns (tree, applied).
    """
    rng = np.random.default_rng(seed)
    name = f"loop_step_{int(rng.integers(1, 1000))}"
    existing = {n.attrs["name"] for n in ast.walk()
                if n.kind is NodeKind.FUNCTION_DECL}
    while name in existing:
        name += "x"

    if ast.kind is not NodeKind.PROGRAM:
        raise VulnMinerError("loop_to_recursion expects a Program")

    def edit(stmts: list[AstNode]) -> list[AstNode] | None:
        for i, stmt in enumerate(stmts):
            if stmt.kind in (NodeKind.WHILE, NodeKind.FOR) and _eligible(stmt):
                return stmts[:i] + _recursive_form(stmt, name) + stmts[i + 1:]
        return None

    return _edit_first_body(ast, edit)


def _eligible(loop: AstNode) -> bool:
    modified, _ = _loop_vars(loop)
    if len(modified) > 1:
        return False
    _heads, (body,) = parts(loop)
    for stmt in body:
        for node in stmt.walk():
            if node.kind in (NodeKind.RETURN, NodeKind.FUNCTION_DECL):
                return False
    return True


def _recursive_form(loop: AstNode, fn_name: str) -> list[AstNode]:
    """The declaration, prelude and call that take over a loop's nodes."""
    modified, used = _loop_vars(loop)
    params = sorted(used | modified)
    carry = next(iter(modified)) if modified else None

    heads, (body,) = parts(loop)
    if loop.kind is NodeKind.FOR:
        init, cond, step = heads
        body.append(step)
        prelude = [init]
    else:
        (cond,) = heads
        prelude = []

    recurse = mk_call(fn_name, [mk_var(p) for p in params])
    then_body = body + [AstNode(NodeKind.RETURN, children=[recurse],
                                attrs={"has_value": True})]
    base_value = (mk_var(carry) if carry
                  else AstNode(NodeKind.NUMBER_LIT,
                               attrs={"text": "0", "value": 0}))
    fn_body = [
        compound(NodeKind.IF, [cond], [then_body, []]),
        AstNode(NodeKind.RETURN, children=[base_value],
                attrs={"has_value": True}),
    ]
    decl = compound(NodeKind.FUNCTION_DECL, [mk_var(p) for p in params],
                    [fn_body], name=fn_name)
    call = mk_call(fn_name, [mk_var(p) for p in params])
    call_stmt = (mk_assign(mk_var(carry), call) if carry
                 else mk_expr_stmt(call))
    return [decl] + prelude + [call_stmt]


def transform_syntax_tree(ast: AstNode, seed: int) -> tuple[AstNode, bool]:
    """Apply one effect-order-preserving rewrite from the fixed catalog.

    The constant-guard wrap is the fallback for programs too small for the
    expression-level rewrites.
    """
    rng = np.random.default_rng(seed)
    transforms = [_flip_if_else, _swap_independent, _split_concat]
    order = list(rng.permutation(len(transforms)))
    for idx in order:
        tree, applied = transforms[idx](ast, rng)
        if applied:
            return tree, True
    return _wrap_constant_if(ast, rng)


def _flip_if_else(ast: AstNode, rng) -> tuple[AstNode, bool]:
    """Negate the condition of the first if/else, in pre-order, and swap
    its branches."""
    out = copy_tree(ast)
    for node in out.walk():
        if node.kind is NodeKind.IF and (branches := node.if_parts())[2]:
            cond, then, other = branches
            negated = AstNode(NodeKind.BINARY_OP, children=[cond],
                              attrs={"op": "!"})
            flipped = compound(NodeKind.IF, [negated], [other, then])
            node.children, node.attrs = flipped.children, flipped.attrs
            return out, True
    return out, False


def _stmt_defs_uses(stmt: AstNode) -> tuple[set[str], set[str], bool]:
    """(defs, uses, pure) for swap eligibility; calls make a statement impure."""
    defs: set[str] = set()
    uses: set[str] = set()
    pure = stmt.kind is NodeKind.ASSIGN
    if pure:
        target, value = stmt.children
        if target.kind is NodeKind.VAR:
            defs.add(target.attrs["name"])
        else:
            pure = False
        for node in value.walk():
            if node.kind is NodeKind.VAR:
                uses.add(node.attrs["name"])
            if node.kind is NodeKind.CALL:
                pure = False
    return defs, uses, pure


def _swap_independent(ast: AstNode, rng) -> tuple[AstNode, bool]:
    def edit(stmts: list[AstNode]) -> list[AstNode] | None:
        for i in range(len(stmts) - 1):
            a, b = stmts[i], stmts[i + 1]
            d1, u1, p1 = _stmt_defs_uses(a)
            d2, u2, p2 = _stmt_defs_uses(b)
            if p1 and p2 and not (d1 & (d2 | u2)) and not (d2 & (d1 | u1)):
                stmts[i], stmts[i + 1] = b, a
                return stmts
        return None

    return _edit_first_body(ast, edit)


def _split_concat(ast: AstNode, rng) -> tuple[AstNode, bool]:
    temp = f"part_{int(rng.integers(1, 1000))}"

    def edit(stmts: list[AstNode]) -> list[AstNode] | None:
        for i, stmt in enumerate(stmts):
            if (stmt.kind is NodeKind.ASSIGN
                    and stmt.children[0].kind is NodeKind.VAR
                    and stmt.children[1].kind is NodeKind.CONCAT):
                concat = stmt.children[1]
                left, concat.children[0] = concat.children[0], mk_var(temp)
                return (stmts[:i] + [mk_assign(mk_var(temp), left)]
                        + stmts[i:])
        return None

    return _edit_first_body(ast, edit)


def _wrap_constant_if(ast: AstNode, rng) -> tuple[AstNode, bool]:
    """Wrap the last top-level statement in an always-true branch.

    Only at the top level, so function bodies keep their returns; a
    program that ends in a function declaration is left as it is.
    """
    out = copy_tree(ast)
    _heads, (stmts,) = parts(out)
    if not stmts or stmts[-1].kind is NodeKind.FUNCTION_DECL:
        return out, False
    cond = AstNode(NodeKind.NUMBER_LIT, attrs={"text": "1", "value": 1})
    stmts[-1] = compound(NodeKind.IF, [cond], [[stmts[-1]], []])
    return compound(NodeKind.PROGRAM, [], [stmts]), True


def _edit_first_body(ast: AstNode, edit) -> tuple[AstNode, bool]:
    """Copy the program and apply ``edit(stmts) -> list | None`` to the
    first statement list it changes: each run of top-level statements
    between function declarations and each top-level function body, in
    source order. Returns (tree, applied)."""
    program = copy_tree(ast)
    _heads, (top,) = parts(program)
    start = 0
    for end in [i for i, stmt in enumerate(top)
                if stmt.kind is NodeKind.FUNCTION_DECL] + [len(top)]:
        if start < end and (new := edit(top[start:end])) is not None:
            top[start:end] = new
            return compound(NodeKind.PROGRAM, [], [top]), True
        if end < len(top):
            name, params, body = top[end].function_parts()
            if (new := edit(body)) is not None:
                top[end] = compound(NodeKind.FUNCTION_DECL, params, [new],
                                    name=name)
                return compound(NodeKind.PROGRAM, [], [top]), True
        start = end + 1
    return program, False


# ---------------------------------------------------------------------------
# Corpus-level driver
# ---------------------------------------------------------------------------

_OP_PLANS = (
    ("SyntaxTransform",),
    ("Rename", "SyntaxTransform"),
    ("LoopToRecursion",),
    ("Rename", "LoopToRecursion"),
    ("SyntaxTransform", "Rename"),
)


def augment_sample(origin: FileAnalysis, plan: tuple[str, ...],
                   seed: int) -> tuple[str, list[str]] | None:
    """Apply an op plan; None when nothing structural applied or a gate failed.

    The result is analyzed once, and the label gate compares its
    taint-oracle label with the origin's, the novelty gate its whole
    normalized token stream, so a rewrite past the cap still counts. Every
    op copies the tree before it writes, so one origin analysis serves
    every plan tried on it. An op name not in ``OP_KINDS`` raises
    ``VulnMinerError``.
    """
    for op in plan:
        if op not in OP_KINDS:
            raise VulnMinerError(f"unknown augmentation op {op!r}")
    ast = origin.ast
    applied_ops: list[str] = []
    for i, op in enumerate(plan):
        op_seed = seed + 7919 * i
        if op == "Rename":
            ast = rename_variables(ast, op_seed, keep=origin.keep)
            applied_ops.append("Rename")
            continue
        ast, ok = (loop_to_recursion if op == "LoopToRecursion"
                   else transform_syntax_tree)(ast, op_seed)
        if ok:
            applied_ops.append(op)
    if not set(applied_ops) - {"Rename"}:  # nothing structural applied
        return None
    new_text = print_source(ast)
    result = FileAnalysis(SourceUnit.from_text(origin.path, new_text), origin.lex)
    if result.oracle_label != origin.oracle_label:
        return None
    if result.stream.tokens == origin.stream.tokens:
        return None
    return new_text, applied_ops


def augment_corpus(entries, target_ratio: float, seed: int,
                   out_dir: str | Path, lex=None):
    """Augment vulnerable samples until the requested positive ratio.

    Every emitted sample passed the taint-oracle label recheck and differs
    from its origin in normalized token stream. Returns (samples, reached).
    Each vulnerable file is read and analyzed once, when an attempt first
    picks it; one that cannot be read, parsed or walked stops the run.
    """
    if not 0.0 < target_ratio < 1.0:
        raise VulnMinerError("target ratio must be inside (0, 1)")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    positives = [e for e in entries if e.label == 1]
    total = len(entries)
    n_pos = len(positives)
    if not positives:
        raise VulnMinerError("no vulnerable samples to augment")
    needed = max(0, math.ceil((target_ratio * total - n_pos)
                              / (1.0 - target_ratio)))

    origins: dict[int, FileAnalysis] = {}
    samples: list[AugmentedSample] = []
    attempts = 0
    max_attempts = max(20 * needed, 100)
    i = 0
    while len(samples) < needed and attempts < max_attempts:
        k = i % len(positives)
        entry = positives[k]
        plan = _OP_PLANS[(i + attempts) % len(_OP_PLANS)]
        if k not in origins:
            unread: list[tuple[str, str]] = []
            if (unit := read_unit(entry.path, unread)) is None:
                raise VulnMinerError(f"{entry.path}: {unread[0][1]}")
            origins[k] = FileAnalysis(unit, lex)
        try:
            result = augment_sample(origins[k], plan, seed + 31 * attempts)
        except RecursionError:
            raise VulnMinerError(f"{entry.path}: nesting too deep") from None
        attempts += 1
        i += 1
        if result is None:
            continue
        new_text, ops = result
        name = f"aug_{len(samples):04d}_{Path(entry.path).stem}.php"
        out_path = out / name
        out_path.write_text(new_text, encoding="utf-8")
        samples.append(AugmentedSample(
            origin=entry.path, ops=ops, output_path=str(out_path),
            label=entry.label, vuln_type=entry.vuln_type, text=new_text))
    reached = len(samples) >= needed
    return samples, reached


def save_augment_manifest(samples, path: str | Path) -> None:
    lines = [json.dumps(s.record(), sort_keys=True) for s in samples]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""),
                          encoding="utf-8")
