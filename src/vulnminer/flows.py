"""Control/data-flow graph over the AST and the taint oracle built on it."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import LexiconError
from .frontend.nodes import AstNode, NodeKind
from .lexicon import (
    DEFAULT_LEXICON,
    IDOR_FETCH_SINKS,
    SECRET_NAME_RE,
    SEVERITY,
    SINK_CLASSES,
    TaintLexicon,
)
from .source import Span

SYNTAX_CHILD = "SyntaxChild"
CONTROL_FLOW = "ControlFlow"
DATA_FLOW = "DataFlow"

VULN_TYPES = ("Injection", "XSS", "URF", "FileInclusion", "SDE", "SM", "IDOR")

_ALL_CLASSES = frozenset(SINK_CLASSES)
_MAX_CALL_DEPTH = 3


@dataclass(frozen=True)
class FlowEdge:
    src: int
    dst: int
    kind: str

    def __post_init__(self):
        if self.kind in (CONTROL_FLOW, DATA_FLOW) and self.src == self.dst:
            raise ValueError(f"{self.kind} edge may not be a self loop")


@dataclass
class _Scope:
    """CFG and def/use model for one function body (or the top level)."""

    owner: AstNode                      # Program or FunctionDecl node
    statements: list[AstNode] = field(default_factory=list)
    succ: dict[int, list[int]] = field(default_factory=dict)
    entry: int = 0
    params: list[str] = field(default_factory=list)
    defs: dict[int, list[tuple[str, bool]]] = field(default_factory=dict)  # node -> [(var, kills)]
    uses: dict[int, list[str]] = field(default_factory=dict)
    reach_in: dict[int, dict[str, set[int]]] = field(default_factory=dict)
    returns: list[AstNode] = field(default_factory=list)


@dataclass
class FlowGraph:
    """AST plus syntax, control-flow and data-flow edge sets."""

    root: AstNode
    edges: list[FlowEdge]
    defs: dict[str, list[int]]
    uses: dict[str, list[int]]
    scopes: list[_Scope]
    nodes: dict[int, AstNode]

    def edges_of(self, kind: str) -> list[FlowEdge]:
        return [e for e in self.edges if e.kind == kind]

    def dataflow_triples(self) -> set[tuple[int, int]]:
        return {(e.src, e.dst) for e in self.edges if e.kind == DATA_FLOW}

    def functions(self) -> dict[str, AstNode]:
        table: dict[str, AstNode] = {}
        for node in self.root.walk():
            if node.kind is NodeKind.FUNCTION_DECL:
                table.setdefault(node.attrs["name"], node)
        return table


# ---------------------------------------------------------------------------
# Graph construction
# ---------------------------------------------------------------------------

def augment_flows(root: AstNode) -> FlowGraph:
    """Attach control-flow and reaching-definition data-flow edges."""
    nodes = {n.node_id: n for n in root.walk()}
    edges: list[FlowEdge] = []
    for node in root.walk():
        for child in node.children:
            edges.append(FlowEdge(node.node_id, child.node_id, SYNTAX_CHILD))

    scopes = _collect_scopes(root)
    cf_edges: list[FlowEdge] = []
    for scope in scopes:
        for src, dests in sorted(scope.succ.items()):
            if src == root.node_id:
                continue  # top-level entry is not an executed statement
            for dst in dests:
                if src != dst:
                    cf_edges.append(FlowEdge(src, dst, CONTROL_FLOW))
        _solve_reaching(scope)
    edges.extend(cf_edges)

    defs_map: dict[str, list[int]] = {}
    uses_map: dict[str, list[int]] = {}
    df_edges: set[tuple[int, int]] = set()
    for scope in scopes:
        for node_id, pairs in scope.defs.items():
            for var, _ in pairs:
                defs_map.setdefault(var, []).append(node_id)
        for node_id, varlist in scope.uses.items():
            for var in varlist:
                uses_map.setdefault(var, []).append(node_id)
                for def_id in scope.reach_in.get(node_id, {}).get(var, ()):
                    if def_id != node_id:
                        df_edges.add((def_id, node_id))
    edges.extend(FlowEdge(s, d, DATA_FLOW) for s, d in sorted(df_edges))

    return FlowGraph(root=root, edges=edges,
                     defs={k: sorted(v) for k, v in defs_map.items()},
                     uses={k: sorted(v) for k, v in uses_map.items()},
                     scopes=scopes, nodes=nodes)


def _collect_scopes(root: AstNode) -> list[_Scope]:
    scopes: list[_Scope] = []

    def build(owner: AstNode, body: list[AstNode], params: list[str]):
        scope = _Scope(owner=owner, params=params, entry=owner.node_id)
        scopes.append(scope)
        scope.statements.append(owner)
        scope.defs[owner.node_id] = [(p, True) for p in params]
        scope.uses[owner.node_id] = []
        _link_body(scope, body, {owner.node_id}, build)
        return scope

    build(root, list(root.children), [])
    return scopes


def _link_body(scope: _Scope, stmts: list[AstNode], preds: set[int], build) -> set[int]:
    for stmt in stmts:
        preds = _link_stmt(scope, stmt, preds, build)
    return preds


def _register(scope: _Scope, node: AstNode, defs, uses):
    scope.statements.append(node)
    scope.defs[node.node_id] = defs
    scope.uses[node.node_id] = uses


def _connect(scope: _Scope, preds: set[int], node_id: int):
    for p in sorted(preds):
        scope.succ.setdefault(p, []).append(node_id)


def _link_stmt(scope: _Scope, stmt: AstNode, preds: set[int], build) -> set[int]:
    k = stmt.kind
    nid = stmt.node_id
    if k is NodeKind.ASSIGN:
        _register(scope, stmt, _assign_defs(stmt), _assign_uses(stmt))
        _connect(scope, preds, nid)
        return {nid}
    if k in (NodeKind.EXPR_STMT, NodeKind.ECHO, NodeKind.INCLUDE_STMT):
        _register(scope, stmt, [], _expr_vars(stmt.children[0]))
        _connect(scope, preds, nid)
        return {nid}
    if k is NodeKind.RETURN:
        used = _expr_vars(stmt.children[0]) if stmt.attrs.get("has_value") else []
        _register(scope, stmt, [], used)
        _connect(scope, preds, nid)
        scope.returns.append(stmt)
        return set()
    if k is NodeKind.FUNCTION_DECL:
        _name, params, body = stmt.function_parts()
        build(stmt, body, [p.attrs["name"] for p in params])
        _register(scope, stmt, [], [])
        _connect(scope, preds, nid)
        return {nid}
    if k is NodeKind.IF:
        cond, then, other = stmt.if_parts()
        _register(scope, stmt, [], _expr_vars(cond))
        _connect(scope, preds, nid)
        then_exit = _link_body(scope, then, {nid}, build)
        else_exit = _link_body(scope, other, {nid}, build) if other else {nid}
        return then_exit | else_exit
    if k is NodeKind.WHILE:
        cond, body = stmt.loop_parts()
        _register(scope, stmt, [], _expr_vars(cond))
        _connect(scope, preds, nid)
        body_exit = _link_body(scope, body, {nid}, build)
        _connect(scope, body_exit - {nid}, nid)
        return {nid}
    if k is NodeKind.FOR:
        init, cond, step = stmt.children[0], stmt.children[1], stmt.children[2]
        body = stmt.children[3:]
        _register(scope, init, _assign_defs(init), _assign_uses(init))
        _connect(scope, preds, init.node_id)
        _register(scope, stmt, [], _expr_vars(cond))
        _connect(scope, {init.node_id}, nid)
        body_exit = _link_body(scope, body, {nid}, build)
        _register(scope, step, _assign_defs(step), _assign_uses(step))
        _connect(scope, body_exit, step.node_id)
        _connect(scope, {step.node_id}, nid)
        return {nid}
    if k is NodeKind.FOREACH:
        iterable, key, value, body = stmt.foreach_parts()
        defs = [(value.attrs["name"], True)]
        if key is not None:
            defs.append((key.attrs["name"], True))
        _register(scope, stmt, defs, _expr_vars(iterable))
        _connect(scope, preds, nid)
        body_exit = _link_body(scope, body, {nid}, build)
        _connect(scope, body_exit - {nid}, nid)
        return {nid}
    raise ValueError(f"unsupported statement kind {k}")


def _assign_defs(assign: AstNode) -> list[tuple[str, bool]]:
    target = assign.children[0]
    if target.kind is NodeKind.VAR:
        return [(target.attrs["name"], True)]
    base = target
    while base.kind is NodeKind.INDEX:
        base = base.children[0]
    # Partial (indexed) writes never kill previous definitions.
    return [(base.attrs["name"], False)]


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
    out = []
    for node in expr.walk():
        if node.kind is NodeKind.VAR:
            out.append(node.attrs["name"])
    return out


def _solve_reaching(scope: _Scope) -> None:
    """Iterative worklist reaching-definitions over one scope's CFG."""
    defs_of: dict[str, set[int]] = {}
    for node_id, pairs in scope.defs.items():
        for var, _ in pairs:
            defs_of.setdefault(var, set()).add(node_id)

    preds: dict[int, list[int]] = {s.node_id: [] for s in scope.statements}
    for src, dests in scope.succ.items():
        for dst in dests:
            preds[dst].append(src)

    out_sets: dict[int, dict[str, set[int]]] = {
        s.node_id: {} for s in scope.statements}
    in_sets: dict[int, dict[str, set[int]]] = {
        s.node_id: {} for s in scope.statements}

    order = [s.node_id for s in scope.statements]
    changed = True
    while changed:
        changed = False
        for nid in order:
            new_in: dict[str, set[int]] = {}
            for p in preds[nid]:
                for var, ids in out_sets[p].items():
                    new_in.setdefault(var, set()).update(ids)
            new_out = {var: set(ids) for var, ids in new_in.items()}
            for var, kills in scope.defs.get(nid, ()):
                if kills:
                    new_out[var] = {nid}
                else:
                    new_out.setdefault(var, set()).add(nid)
            if new_in != in_sets[nid] or new_out != out_sets[nid]:
                in_sets[nid] = new_in
                out_sets[nid] = new_out
                changed = True
    scope.reach_in = in_sets


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

    visit(scope.entry, {})
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
    sink_span: Span
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
        self.scope_of_owner = {s.owner.node_id: s for s in graph.scopes}
        self.findings: dict[tuple[str, int], TaintFinding] = {}
        self._active: set[tuple[str, str]] = set()
        self._summaries: dict[tuple[str, str], _TaintMap] = {}

    # -- driver --------------------------------------------------------------

    def run(self) -> list[TaintFinding]:
        top = self.scope_of_owner[self.graph.root.node_id]
        self._analyze_scope(top, {}, depth=0)
        return sorted(
            self.findings.values(),
            key=lambda f: (f.sink_span, f.source_label),
        )

    def _analyze_scope(self, scope: _Scope, param_taint: dict[str, _TaintMap],
                       depth: int) -> _TaintMap:
        """Fixpoint taint propagation over one scope; returns return-value taint."""
        def_taint: dict[tuple[int, str], _TaintMap] = {}
        for var in scope.params:
            def_taint[(scope.entry, var)] = dict(param_taint.get(var, {}))

        order = [s for s in scope.statements if s.node_id != scope.entry]
        for _ in range(len(order) + 2):
            changed = False
            for stmt in order:
                changed |= self._transfer(scope, stmt, def_taint, depth)
            if not changed:
                break

        ret: list[_TaintMap] = []
        for stmt in scope.returns:
            if stmt.attrs.get("has_value"):
                env = self._env_at(scope, stmt.node_id, def_taint)
                ret.append(self._eval(stmt.children[0], env, depth, record=False))
        return _merge_maps(ret)

    def _env_at(self, scope, node_id, def_taint) -> dict[str, _TaintMap]:
        env: dict[str, _TaintMap] = {}
        for var, def_ids in scope.reach_in.get(node_id, {}).items():
            maps = [def_taint.get((d, var), {}) for d in sorted(def_ids)]
            env[var] = _merge_maps(maps)
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
            self._record_sink(stmt, "echo", taint, stmt.span)
        elif k is NodeKind.INCLUDE_STMT:
            taint = self._eval(stmt.children[0], env, depth)
            self._record_sink(stmt, stmt.attrs["flavor"], taint, stmt.span)
        elif k in (NodeKind.EXPR_STMT, NodeKind.RETURN):
            if stmt.children:
                self._eval(stmt.children[0], env, depth, stmt_span=stmt.span)
        elif k in (NodeKind.IF, NodeKind.WHILE, NodeKind.FOR):
            cond = stmt.children[1] if k is NodeKind.FOR else stmt.children[0]
            self._eval(cond, env, depth, stmt_span=stmt.span)
        elif k is NodeKind.FOREACH:
            iterable, key, value, _body = stmt.foreach_parts()
            taint = self._eval(iterable, env, depth, stmt_span=stmt.span)
            changed = self._update(def_taint, (stmt.node_id, value.attrs["name"]), taint)
            if key is not None:
                changed |= self._update(
                    def_taint, (stmt.node_id, key.attrs["name"]), taint)
        return changed

    @staticmethod
    def _update(def_taint, key, new: _TaintMap) -> bool:
        old = def_taint.get(key)
        merged = _merge_maps([old or {}, new])
        signature = {k: v.key() for k, v in merged.items()}
        old_sig = {k: v.key() for k, v in (old or {}).items()}
        def_taint[key] = merged
        return signature != old_sig

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
              record: bool = True, stmt_span: Span | None = None) -> _TaintMap:
        k = expr.kind
        if k is NodeKind.SUPERGLOBAL:
            label = f"$_{expr.attrs['sg']}"
            return {label: _Entry(label=label, source_id=expr.node_id,
                                  source_kind="superglobal",
                                  unsan=_ALL_CLASSES, san=frozenset(),
                                  path=(expr.node_id,))}
        if k is NodeKind.VAR:
            return dict(env.get(expr.attrs["name"], {}))
        if k in (NodeKind.STRING_LIT, NodeKind.NUMBER_LIT):
            return {}
        if k in (NodeKind.CONCAT, NodeKind.BINARY_OP, NodeKind.INDEX):
            parts = [self._eval(c, env, depth, record, stmt_span) for c in expr.children]
            return _merge_maps(parts)
        if k is NodeKind.CALL:
            return self._eval_call(expr, env, depth, record, stmt_span)
        raise ValueError(f"unexpected expression kind {k}")

    def _eval_call(self, call: AstNode, env, depth, record, stmt_span) -> _TaintMap:
        name = call.attrs["name"]
        arg_maps = [self._eval(a, env, depth, record, stmt_span) for a in call.children]
        merged = _merge_maps(arg_maps)
        if name in self.lex.sanitizers:
            classes = self.lex.sanitizers[name]
            return {lbl: e.sanitized_for(classes) for lbl, e in merged.items()}
        if name in self.lex.sinks and record:
            self._record_sink(call, name, merged, stmt_span or call.span)
        if name in self.functions:
            result = self._call_function(name, arg_maps, depth)
            return _merge_maps([merged, result])
        return merged

    def _call_function(self, name: str, arg_maps: list[_TaintMap], depth: int) -> _TaintMap:
        if depth >= _MAX_CALL_DEPTH:
            return {}
        decl = self.functions[name]
        scope = self.scope_of_owner[decl.node_id]
        bound = {param: arg_maps[i] if i < len(arg_maps) else {}
                 for i, param in enumerate(scope.params)}
        sig = repr(sorted((p, sorted(m and {k: e.key() for k, e in m.items()} or {}))
                          for p, m in bound.items()))
        key = (name, sig)
        if key in self._active:
            return self._summaries.get(key, {})
        self._active.add(key)
        try:
            result = self._analyze_scope(scope, bound, depth + 1)
            self._summaries[key] = result
        finally:
            self._active.discard(key)
        return result

    # -- findings ----------------------------------------------------------------

    def _record_sink(self, sink_node: AstNode, sink_name: str, taint: _TaintMap,
                     span: Span | None):
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
                sink_span=span or sink_node.span,
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


def file_is_vulnerable(findings: list[TaintFinding]) -> bool:
    return any(not f.sanitized for f in findings)


def file_vuln_types(findings: list[TaintFinding]) -> tuple[str, ...]:
    """Sorted distinct types over the unsanitized findings."""
    return tuple(sorted({classify_vuln_type(f) for f in findings if not f.sanitized}))
