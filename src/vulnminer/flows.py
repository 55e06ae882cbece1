"""Data-flow graph over the AST and the taint oracle built on it.

The graph keeps what its readers use: the tree's root, one scope per
function body (or the top level) with its CFG successors, def/use model
and reaching definitions, and the sorted reaching-definition data-flow
pairs. A scope is loop-free until ``_connect`` adds a loop's back edge.
Reaching definitions are frozensets in maps that statements share: a
statement with one predecessor has that predecessor's out-map, and one
that defines nothing passes its in-map on, so readers must not mutate
them. Syntax edges are the tree itself; tree indexes such as the node and
parent maps live on ``analysis.FileAnalysis``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import LexiconError
from .frontend.nodes import CHAIN_KINDS, AstNode, NodeKind, assigned_var, parts
from .lexicon import (
    DEFAULT_LEXICON,
    IDOR_FETCH_SINKS,
    SECRET_NAME_RE,
    SEVERITY,
    SINK_CLASSES,
    TaintLexicon,
)

_ALL_CLASSES = frozenset(SINK_CLASSES)
_MAX_CALL_DEPTH = 3

# var -> ids of the definitions of it that reach a point
_DefMap = dict[str, frozenset[int]]


@dataclass
class _Scope:
    """CFG and def/use model for one function body (or the top level).

    Statements are registered in source order with their incoming edges,
    so only a loop's back edge goes to a statement registered before its
    source; ``_connect`` adds those edges and clears ``loop_free``.
    """

    owner: AstNode                      # Program or FunctionDecl node
    statements: list[AstNode] = field(default_factory=list)
    succ: dict[int, list[int]] = field(default_factory=dict)
    params: list[str] = field(default_factory=list)
    defs: dict[int, list[tuple[str, bool]]] = field(default_factory=dict)  # node -> [(var, kills)]
    uses: dict[int, list[str]] = field(default_factory=dict)
    # node -> var -> ids of the definitions reaching it; maps and sets are
    # shared between statements, so readers must not mutate them
    reach_in: dict[int, _DefMap] = field(default_factory=dict)
    loop_free: bool = True


@dataclass
class FlowGraph:
    """The tree, its per-scope CFGs and its data-flow pairs.

    ``dataflow`` is the sorted list of ``(def_id, use_id)`` pairs: a
    definition that reaches a use of its variable, never a node to itself.
    """

    root: AstNode
    scopes: list[_Scope]
    dataflow: list[tuple[int, int]]

    def dataflow_triples(self) -> set[tuple[int, int]]:
        return set(self.dataflow)

    def functions(self) -> dict[str, _Scope]:
        """The scope of each function name's first declaration in tree order.

        Function scopes follow the top level in the tree's pre-order."""
        table: dict[str, _Scope] = {}
        for scope in self.scopes[1:]:
            table.setdefault(scope.owner.attrs["name"], scope)
        return table


# ---------------------------------------------------------------------------
# Graph construction
# ---------------------------------------------------------------------------

def augment_flows(root: AstNode) -> FlowGraph:
    """Build each scope's CFG and its reaching-definition data flow."""
    scopes: list[_Scope] = []
    _build_scope(scopes, root, list(root.children), [])
    pairs: set[tuple[int, int]] = set()
    for scope in scopes:
        _solve_reaching(scope)
        for node_id, varlist in scope.uses.items():
            reach = scope.reach_in.get(node_id, {})
            for var in varlist:
                for def_id in reach.get(var, ()):
                    if def_id != node_id:
                        pairs.add((def_id, node_id))
    return FlowGraph(root=root, scopes=scopes, dataflow=sorted(pairs))


def _build_scope(scopes: list[_Scope], owner: AstNode, body: list[AstNode],
                 params: list[str]) -> None:
    """Append the scope of ``owner`` and, nested in its body, of each function."""
    scope = _Scope(owner=owner, params=params)
    scopes.append(scope)
    _register(scope, owner, [(p, True) for p in params], [], set())
    _link_body(scope, body, {owner.node_id}, scopes)


def _link_body(scope: _Scope, stmts: list[AstNode], preds: set[int],
               scopes: list[_Scope]) -> set[int]:
    for stmt in stmts:
        preds = _link_stmt(scope, stmt, preds, scopes)
    return preds


def _register(scope: _Scope, node: AstNode, defs, uses, preds: set[int]):
    """Append ``node`` to the scope's statements with edges from ``preds``."""
    scope.statements.append(node)
    scope.defs[node.node_id] = defs
    scope.uses[node.node_id] = uses
    for p in sorted(preds):
        scope.succ.setdefault(p, []).append(node.node_id)


def _connect(scope: _Scope, preds: set[int], loop_id: int):
    """Add a loop's back edges from ``preds`` to its head ``loop_id``."""
    for p in sorted(preds):
        scope.succ.setdefault(p, []).append(loop_id)
    if preds:
        scope.loop_free = False


def _link_stmt(scope: _Scope, stmt: AstNode, preds: set[int],
               scopes: list[_Scope]) -> set[int]:
    k = stmt.kind
    nid = stmt.node_id
    if k is NodeKind.ASSIGN:
        _register(scope, stmt, _assign_defs(stmt), _assign_uses(stmt), preds)
        return {nid}
    if k in (NodeKind.EXPR_STMT, NodeKind.ECHO, NodeKind.INCLUDE_STMT):
        _register(scope, stmt, [], _expr_vars(stmt.children[0]), preds)
        return {nid}
    if k is NodeKind.RETURN:
        used = _expr_vars(stmt.children[0]) if stmt.attrs.get("has_value") else []
        _register(scope, stmt, [], used, preds)
        return set()
    if k is NodeKind.FUNCTION_DECL:
        _name, params, body = stmt.function_parts()
        _build_scope(scopes, stmt, body, [p.attrs["name"] for p in params])
        _register(scope, stmt, [], [], preds)
        return {nid}
    if k is NodeKind.IF:
        cond, then, other = stmt.if_parts()
        _register(scope, stmt, [], _expr_vars(cond), preds)
        then_exit = _link_body(scope, then, {nid}, scopes)
        else_exit = _link_body(scope, other, {nid}, scopes) if other else {nid}
        return then_exit | else_exit
    if k is NodeKind.WHILE:
        cond, body = stmt.loop_parts()
        _register(scope, stmt, [], _expr_vars(cond), preds)
        body_exit = _link_body(scope, body, {nid}, scopes)
        _connect(scope, body_exit - {nid}, nid)
        return {nid}
    if k is NodeKind.FOR:
        (init, cond, step), (body,) = parts(stmt)
        _register(scope, init, _assign_defs(init), _assign_uses(init), preds)
        _register(scope, stmt, [], _expr_vars(cond), {init.node_id})
        body_exit = _link_body(scope, body, {nid}, scopes)
        _register(scope, step, _assign_defs(step), _assign_uses(step), body_exit)
        _connect(scope, {step.node_id}, nid)
        return {nid}
    if k is NodeKind.FOREACH:
        iterable, key, value, body = stmt.foreach_parts()
        defs = [(value.attrs["name"], True)]
        if key is not None:
            defs.append((key.attrs["name"], True))
        _register(scope, stmt, defs, _expr_vars(iterable), preds)
        body_exit = _link_body(scope, body, {nid}, scopes)
        _connect(scope, body_exit - {nid}, nid)
        return {nid}
    raise ValueError(f"unsupported statement kind {k}")


def _assign_defs(assign: AstNode) -> list[tuple[str, bool]]:
    # Partial (indexed) writes never kill previous definitions.
    return [(assigned_var(assign), assign.children[0].kind is NodeKind.VAR)]


def _assign_uses(assign: AstNode) -> list[str]:
    target, value = assign.children
    used = _expr_vars(value)
    if target.kind is NodeKind.INDEX:
        node = target
        while node.kind is NodeKind.INDEX:
            used.extend(_expr_vars(node.children[1]))
            node = node.children[0]
        used.append(node.attrs["name"])
    return used


def _expr_vars(expr: AstNode) -> list[str]:
    """The variables ``expr`` reads, in pre-order."""
    out = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if node.kind is NodeKind.VAR:
            out.append(node.attrs["name"])
        else:
            stack += reversed(node.children)
    return out


def _solve_reaching(scope: _Scope) -> None:
    """Iterative reaching-definitions over one scope's CFG, sweeping its
    statements in order until no in-map changes.

    Definition sets are frozensets and a statement's maps are shared, not
    copied: a statement with one predecessor takes that predecessor's
    out-map as its in-map, a join unions its predecessors' maps into a new
    one, and only a defining statement copies its in-map (shallowly) to
    write its own entries. A loop-free scope is solved in one sweep with
    nothing compared: each statement's predecessors are final before it
    is reached.
    """
    order = [s.node_id for s in scope.statements]
    preds: dict[int, list[int]] = {nid: [] for nid in order}
    for src, dests in scope.succ.items():
        for dst in dests:
            preds[dst].append(src)

    defs, loop_free = scope.defs, scope.loop_free
    empty: _DefMap = {}
    in_maps: dict[int, _DefMap] = dict.fromkeys(order)   # None: not yet visited
    out_maps: dict[int, _DefMap] = dict.fromkeys(order, empty)
    changed = True
    while changed:
        changed = False
        for nid in order:
            ps = preds[nid]
            in_map = (out_maps[ps[0]] if len(ps) == 1
                      else _join([out_maps[p] for p in ps]))
            # an unchanged in-map keeps its old maps, so later sweeps compare
            # shared objects
            if not loop_free and in_map == in_maps[nid]:
                continue
            in_maps[nid] = in_map
            out_maps[nid] = (_gen_kill(in_map, defs[nid], nid) if defs[nid]
                             else in_map)
            changed = not loop_free
    scope.reach_in = in_maps


def _join(maps: list[_DefMap]) -> _DefMap:
    """The union of ``maps``."""
    joined: _DefMap = dict(maps[0]) if maps else {}
    for other in maps[1:]:
        for var, ids in other.items():
            mine = joined.get(var)
            joined[var] = ids if mine is None else mine | ids
    return joined


def _gen_kill(in_map: _DefMap, defs: list[tuple[str, bool]],
              nid: int) -> _DefMap:
    """The out-map of statement ``nid``, which defines ``defs``: a shallow
    copy of ``in_map`` with the defined variables replaced."""
    out = dict(in_map)
    for var, kills in defs:
        out[var] = (frozenset((nid,)) if kills
                    else out.get(var, frozenset()) | {nid})
    return out


# ---------------------------------------------------------------------------
# Brute-force oracle: enumerate CFG paths, record the live defs at each use.
# Paths are acyclic in the sense that no edge repeats more than twice: any
# def-to-use witness is a simple entry-to-def path joined to a simple
# def-clear def-to-use path, so each edge occurs at most once per part.
# Kept fully independent of the worklist solver it checks.
# ---------------------------------------------------------------------------

def dataflow_oracle(graph: FlowGraph) -> set[tuple[int, int]]:
    found: set[tuple[int, int]] = set()
    for scope in graph.scopes:
        found |= _oracle_scope(scope)
    return found


def _oracle_scope(scope: _Scope) -> set[tuple[int, int]]:
    pairs: set[tuple[int, int]] = set()
    live: dict[str, set[int]] = {}

    def visit(nid: int, used_edges: dict[tuple[int, int], int]):
        saved: dict[str, set[int]] = {v: set(ids) for v, ids in live.items()}
        for var in scope.uses.get(nid, ()):
            for def_id in live.get(var, ()):
                if def_id != nid:
                    pairs.add((def_id, nid))
        for var, kills in scope.defs.get(nid, ()):
            if kills:
                live[var] = {nid}
            else:
                live.setdefault(var, set()).add(nid)
        for succ in scope.succ.get(nid, ()):
            edge = (nid, succ)
            if used_edges.get(edge, 0) >= 2:
                continue
            used_edges[edge] = used_edges.get(edge, 0) + 1
            visit(succ, used_edges)
            used_edges[edge] -= 1
        live.clear()
        live.update(saved)

    visit(scope.owner.node_id, {})
    return pairs


# ---------------------------------------------------------------------------
# Taint tracing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaintFinding:
    source_id: int
    sink_id: int
    sink_class: str
    path: tuple[int, ...]
    sanitized: bool
    sink_start: int           # offsets of the sink statement or call
    sink_end: int
    sink_name: str
    source_label: str
    source_kind: str          # "superglobal" | "secret_literal"

    @property
    def severity(self) -> int:
        return SEVERITY[self.sink_class]


@dataclass
class _Entry:
    """Taint reaching a value from one source, split per sink class."""

    label: str
    source_id: int
    source_kind: str
    unsan: frozenset[str]
    san: frozenset[str]
    path: tuple[int, ...]

    def merged(self, other: "_Entry") -> "_Entry":
        unsan = self.unsan | other.unsan
        return replace(self, unsan=unsan, san=(self.san | other.san) - unsan)

    def sanitized_for(self, classes: frozenset[str]) -> "_Entry":
        covered = self.unsan & classes
        return replace(self, unsan=self.unsan - covered, san=self.san | covered)

    def key(self):
        return (self.label, tuple(sorted(self.unsan)), tuple(sorted(self.san)))


_TaintMap = dict[str, _Entry]


def _signature(taint: _TaintMap) -> tuple:
    """The labels and classes of ``taint``."""
    return tuple(sorted(entry.key() for entry in taint.values()))


def _merge_maps(maps: list[_TaintMap]) -> _TaintMap:
    out: _TaintMap = {}
    for m in maps:
        for label, entry in m.items():
            out[label] = out[label].merged(entry) if label in out else entry
    return out


class _Tracer:
    def __init__(self, graph: FlowGraph, lex: TaintLexicon):
        self.graph = graph
        self.lex = lex
        self.functions = graph.functions()
        self.findings: dict[tuple[str, int], TaintFinding] = {}
        self._active: set[tuple] = set()
        self._summaries: dict[tuple, _TaintMap] = {}
        self._reread: set[tuple] = set()    # active keys a recursive call read

    # -- driver --------------------------------------------------------------

    def run(self) -> list[TaintFinding]:
        self._analyze_scope(self.graph.scopes[0], {}, depth=0)
        return sorted(
            self.findings.values(),
            key=lambda f: (f.sink_start, f.sink_end, f.source_label),
        )

    def _analyze_scope(self, scope: _Scope, param_taint: dict[str, _TaintMap],
                       depth: int) -> _TaintMap:
        """Fixpoint taint propagation over one scope; returns return-value taint.

        A loop-free scope is at its fixpoint after one sweep: each statement
        sees final taint for every definition reaching it, and a call returns
        its settled summary (``_call_function``). Each ``return`` records its
        value's taint under ``(node_id, "")``.
        """
        def_taint: dict[tuple[int, str], _TaintMap] = {}
        for var in scope.params:
            def_taint[(scope.owner.node_id, var)] = dict(param_taint.get(var, {}))

        order = scope.statements[1:]
        for _ in range(len(order) + 2):
            changed = False
            for stmt in order:
                changed |= self._transfer(scope, stmt, def_taint, depth)
            if not changed or scope.loop_free:
                break
        return _merge_maps([taint for (_, var), taint in def_taint.items()
                            if var == ""])

    def _env_at(self, scope, node_id, def_taint) -> dict[str, _TaintMap]:
        """Taint of each variable the statement reads, over the
        definitions reaching it."""
        reach = scope.reach_in.get(node_id, {})
        env: dict[str, _TaintMap] = {}
        for var in scope.uses[node_id]:
            if var in reach and var not in env:
                env[var] = _merge_maps(
                    [def_taint.get((d, var), {}) for d in sorted(reach[var])])
        return env

    def _transfer(self, scope, stmt, def_taint, depth) -> bool:
        env = self._env_at(scope, stmt.node_id, def_taint)
        k = stmt.kind
        changed = False
        if k is NodeKind.ASSIGN:
            target, value = stmt.children
            taint = self._eval(value, env, depth)
            if target.kind is NodeKind.INDEX:
                node = target
                while node.kind is NodeKind.INDEX:
                    taint = _merge_maps([taint, self._eval(node.children[1], env, depth)])
                    node = node.children[0]
                var = node.attrs["name"]
                taint = _merge_maps([taint, env.get(var, {})])
            else:
                var = target.attrs["name"]
                taint = _merge_maps([taint, self._secret_entry(var, value)])
            taint = {lbl: e if e.path and e.path[-1] == stmt.node_id
                     else replace(e, path=e.path + (stmt.node_id,))
                     for lbl, e in taint.items()}
            changed = self._update(def_taint, (stmt.node_id, var), taint)
        elif k is NodeKind.ECHO:
            taint = self._eval(stmt.children[0], env, depth)
            self._record_sink(stmt, "echo", taint)
        elif k is NodeKind.INCLUDE_STMT:
            taint = self._eval(stmt.children[0], env, depth)
            self._record_sink(stmt, stmt.attrs["flavor"], taint)
        elif k is NodeKind.EXPR_STMT:
            self._eval(stmt.children[0], env, depth, stmt=stmt)
        elif k is NodeKind.RETURN and stmt.children:
            self._update(def_taint, (stmt.node_id, ""),
                         self._eval(stmt.children[0], env, depth, stmt=stmt))
        elif k is NodeKind.IF:
            self._eval(stmt.if_parts()[0], env, depth, stmt=stmt)
        elif k in (NodeKind.WHILE, NodeKind.FOR):
            self._eval(stmt.loop_parts()[0], env, depth, stmt=stmt)
        elif k is NodeKind.FOREACH:
            iterable, key, value, _body = stmt.foreach_parts()
            taint = self._eval(iterable, env, depth, stmt=stmt)
            changed = self._update(def_taint, (stmt.node_id, value.attrs["name"]), taint)
            if key is not None:
                changed |= self._update(
                    def_taint, (stmt.node_id, key.attrs["name"]), taint)
        return changed

    @staticmethod
    def _update(def_taint, key, new: _TaintMap) -> bool:
        old = def_taint.get(key) or {}
        merged = _merge_maps([old, new])
        def_taint[key] = merged
        return merged != old

    def _secret_entry(self, var: str, value: AstNode) -> _TaintMap:
        if (SECRET_NAME_RE.search(var) and value.kind is NodeKind.STRING_LIT
                and len(value.attrs.get("value", "")) >= 4):
            label = f"secret:{var}"
            return {label: _Entry(label=label, source_id=value.node_id,
                                  source_kind="secret_literal",
                                  unsan=_ALL_CLASSES, san=frozenset(),
                                  path=(value.node_id,))}
        return {}

    # -- expression evaluation -------------------------------------------------

    def _eval(self, expr: AstNode, env: dict[str, _TaintMap], depth: int,
              stmt: AstNode | None = None) -> _TaintMap:
        k = expr.kind
        if k is NodeKind.SUPERGLOBAL:
            label = f"$_{expr.attrs['sg']}"
            if label not in self.lex.sources:
                return {}
            return {label: _Entry(label=label, source_id=expr.node_id,
                                  source_kind="superglobal",
                                  unsan=_ALL_CLASSES, san=frozenset(),
                                  path=(expr.node_id,))}
        if k is NodeKind.VAR:
            return dict(env.get(expr.attrs["name"], {}))
        if k in (NodeKind.STRING_LIT, NodeKind.NUMBER_LIT):
            return {}
        if k in CHAIN_KINDS:
            # Walk a left-nested chain down to its first operand, then merge
            # each level's right operands outward, as recursion would, with
            # no Python frame per level.
            rights = []
            while expr.kind in CHAIN_KINDS:
                rights.append(expr.children[1:])
                expr = expr.children[0]
            taint = self._eval(expr, env, depth, stmt)
            for level in reversed(rights):
                taint = _merge_maps([taint] + [
                    self._eval(c, env, depth, stmt) for c in level])
            return taint
        if k is NodeKind.INDEX:
            parts = [self._eval(c, env, depth, stmt) for c in expr.children]
            return _merge_maps(parts)
        if k is NodeKind.CALL:
            return self._eval_call(expr, env, depth, stmt)
        raise ValueError(f"unexpected expression kind {k}")

    def _eval_call(self, call: AstNode, env, depth, stmt) -> _TaintMap:
        name = call.attrs["name"]
        arg_maps = [self._eval(a, env, depth, stmt) for a in call.children]
        merged = _merge_maps(arg_maps)
        if name in self.lex.sanitizers:
            classes = self.lex.sanitizers[name]
            return {lbl: e.sanitized_for(classes) for lbl, e in merged.items()}
        if name in self.lex.sinks:
            self._record_sink(call, name, merged, stmt)
        if name in self.functions:
            result = self._call_function(name, arg_maps, depth)
            return _merge_maps([merged, result])
        return merged

    def _call_function(self, name: str, arg_maps: list[_TaintMap], depth: int) -> _TaintMap:
        """Return taint of a call of the file's function ``name``. A
        recursive call reads the summary so far, and the call runs again
        until its labels and classes settle; taint only grows, so it ends."""
        if depth >= _MAX_CALL_DEPTH:
            return {}
        scope = self.functions[name]
        bound = {param: arg_maps[i] if i < len(arg_maps) else {}
                 for i, param in enumerate(scope.params)}
        key = (name, tuple(sorted((p, _signature(m)) for p, m in bound.items())))
        if key in self._active:
            self._reread.add(key)
            return self._summaries.get(key, {})
        self._active.add(key)
        try:
            while True:
                self._reread.discard(key)
                result = self._analyze_scope(scope, bound, depth + 1)
                prior = self._summaries.get(key, {})
                self._summaries[key] = result
                if key not in self._reread or _signature(result) == _signature(prior):
                    break
        finally:
            self._active.discard(key)
        return result

    # -- findings ----------------------------------------------------------------

    def _record_sink(self, sink_node: AstNode, sink_name: str, taint: _TaintMap,
                     stmt: AstNode | None = None):
        """Findings at ``sink_node``, placed at the offsets of the statement
        that holds it when one is given."""
        site = stmt or sink_node
        sink_class = self.lex.sinks.get(sink_name)
        if sink_class is None or not taint:
            return
        for label in sorted(taint):
            entry = taint[label]
            if sink_class in entry.unsan:
                sanitized = False
            elif sink_class in entry.san:
                sanitized = True
            else:
                continue
            key = (label, sink_node.node_id)
            finding = TaintFinding(
                source_id=entry.source_id,
                sink_id=sink_node.node_id,
                sink_class=sink_class,
                path=entry.path + (sink_node.node_id,),
                sanitized=sanitized,
                sink_start=site.start,
                sink_end=site.end,
                sink_name=sink_name,
                source_label=label,
                source_kind=entry.source_kind,
            )
            prior = self.findings.get(key)
            if prior is None or (prior.sanitized and not sanitized):
                self.findings[key] = finding


def taint_trace(graph: FlowGraph, lex: TaintLexicon | None = None) -> list[TaintFinding]:
    """All source-to-sink flows, ordered by sink position."""
    return _Tracer(graph, lex or DEFAULT_LEXICON).run()


def classify_vuln_type(finding: TaintFinding) -> str:
    """Deterministic finding-to-vulnerability-type mapping."""
    if finding.sink_class not in SINK_CLASSES:
        raise LexiconError(f"finding has unknown sink class {finding.sink_class!r}")
    if finding.sink_name in IDOR_FETCH_SINKS:
        return "IDOR"
    if finding.source_kind == "secret_literal":
        return "SDE" if finding.sink_class == "Output" else "SM"
    if finding.source_label == "$_SERVER" and finding.sink_class == "Output":
        return "SDE"
    return {
        "Command": "Injection",
        "Sql": "Injection",
        "Output": "XSS",
        "Redirect": "URF",
        "Include": "FileInclusion",
    }[finding.sink_class]


def primary_finding(findings: list[TaintFinding]) -> TaintFinding | None:
    """The most severe of ``findings``, the first by sink position among
    equals; None when there are none."""
    return max(findings, key=lambda f: (f.severity, -f.sink_start),
               default=None)


def file_is_vulnerable(findings: list[TaintFinding]) -> bool:
    return any(not f.sanitized for f in findings)


def file_vuln_types(findings: list[TaintFinding]) -> tuple[str, ...]:
    """Sorted distinct types over the unsanitized findings."""
    return tuple(sorted({classify_vuln_type(f) for f in findings if not f.sanitized}))
