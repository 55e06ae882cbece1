import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from test_frontend_properties import programs

from vulnminer import flows
from vulnminer.errors import LexiconError, ParseError
from vulnminer.flows import (
    augment_flows,
    classify_vuln_type,
    dataflow_oracle,
    file_vuln_types,
    taint_trace,
)
from vulnminer.frontend import parse_text
from vulnminer.lexicon import DEFAULT_LEXICON, lexicon_entries, load_lexicon


def graph_of(src):
    return augment_flows(parse_text("t.php", src))


def test_straight_line_edges():
    g = graph_of("<?php $a = 1; echo $a;")
    assign, echo = g.root.children
    assert g.scopes[0].succ == {g.root.node_id: [assign.node_id],
                                assign.node_id: [echo.node_id]}
    assert g.dataflow == [(assign.node_id, echo.node_id)]


def test_branch_merge_two_defs_reach():
    g = graph_of("<?php if($c){$a=1;}else{$a=2;} echo $a;")
    echo = g.root.children[-1]
    into_echo = [(d, u) for d, u in g.dataflow if u == echo.node_id]
    assert len(into_echo) == 2


def test_no_self_loops(corpus_units):
    sources = [("loop.php", "<?php $i = 0; while ($i < 9) { $i = $i + 1; } "
                "for ($j = 0; $j < 2; $j = $j + 1) { } echo $i;")]
    sources += [(unit.path, unit.text) for unit in corpus_units]
    for path, text in sources:
        g = augment_flows(parse_text(path, text))
        for scope in g.scopes:
            assert all(src not in dests for src, dests in scope.succ.items()), path
        assert all(d != u for d, u in g.dataflow), path


ORACLE_PROGRAMS = [
    "<?php $a = 1; echo $a;",
    "<?php $a = 1; $a = 2; echo $a;",
    "<?php if($c){$a=1;}else{$a=2;} echo $a;",
    "<?php if($c){$a=1;} echo $a;",
    "<?php $a = 1; if ($a) { $b = $a; } else { $b = 2; } echo $b; echo $a;",
    "<?php $i = 0; while ($i < 3) { $i = $i + 1; } echo $i;",
    "<?php $s = ''; $i = 0; while ($i < 3) { $s = $s . $i; $i = $i + 1; } echo $s;",
    "<?php for ($i = 0; $i < 4; $i = $i + 1) { $x = $i; } echo $x;",
    "<?php foreach ($_POST as $k => $v) { $last = $v; } echo $last;",
    "<?php $a = 1; while ($c) { if ($a) { $b = $a; } $a = $b; } echo $a;",
    "<?php $t['x'] = 1; $t['y'] = 2; echo $t;",
    "<?php function f($p) { $q = $p; return $q; } $r = f(1); echo $r;",
    "<?php $n = 0; while ($n < 2) { $m = 0; while ($m < 2) { $m = $m + 1; } $n = $n + 1; } echo $m;",
]


@pytest.mark.parametrize("src", ORACLE_PROGRAMS)
def test_reaching_definitions_match_path_oracle(src):
    g = graph_of(src)
    assert g.dataflow_triples() == dataflow_oracle(g)


def test_oracle_equivalence_over_corpus(corpus_units):
    checked = 0
    for unit in corpus_units:
        ast = parse_text(unit.path, unit.text)
        statements = sum(1 for n in ast.walk()
                         if n.kind.value in (
                             "FunctionDecl", "If", "While", "For", "Foreach",
                             "Return", "Echo", "Assign", "ExprStmt",
                             "IncludeStmt"))
        if statements > 30:
            continue
        g = augment_flows(ast)
        assert g.dataflow_triples() == dataflow_oracle(g), unit.path
        checked += 1
    assert checked >= 50


@given(programs)
@settings(max_examples=200, deadline=None)
def test_reaching_definitions_match_path_oracle_on_generated_programs(text):
    try:
        ast = parse_text("p.php", text)
    except ParseError:
        return
    g = augment_flows(ast)
    assert g.dataflow_triples() == dataflow_oracle(g)


def reference_reach_in(scope):
    """Reaching definitions by a copy-based round-robin solver: each
    statement gets fresh sets on every sweep, and every sweep compares them
    with the last. Kept independent of the shared-map solver it checks."""
    order = [s.node_id for s in scope.statements]
    preds = {nid: [] for nid in order}
    for src, dests in scope.succ.items():
        for dst in dests:
            preds[dst].append(src)
    in_sets = {nid: {} for nid in order}
    out_sets = {nid: {} for nid in order}
    changed = True
    while changed:
        changed = False
        for nid in order:
            new_in = {}
            for p in preds[nid]:
                for var, ids in out_sets[p].items():
                    new_in.setdefault(var, set()).update(ids)
            new_out = {var: set(ids) for var, ids in new_in.items()}
            for var, kills in scope.defs[nid]:
                if kills:
                    new_out[var] = {nid}
                else:
                    new_out.setdefault(var, set()).add(nid)
            if new_in != in_sets[nid] or new_out != out_sets[nid]:
                in_sets[nid], out_sets[nid] = new_in, new_out
                changed = True
    return in_sets


def composed_texts(corpus_units, count=10, bodies=20):
    """``count`` files, each the bodies of ``bodies`` corpus files drawn at
    random, end to end: longer than any one corpus file."""
    rng = random.Random(5)
    return ["<?php\n" + "\n".join(rng.choice(corpus_units).text.split("\n", 1)[1]
                                   for _ in range(bodies))
            for _ in range(count)]


def _fixture_texts():
    fixtures = Path(__file__).parent / "fixtures"
    return [path.read_text() for path in sorted(fixtures.glob("*.php"))]


def _assert_solver_matches_reference(text):
    """Reaching definitions equal the reference solver's, and a scope is
    loop-free exactly when no CFG edge goes to a statement registered at
    or before its source."""
    g = augment_flows(parse_text("t.php", text))
    for scope in g.scopes:
        assert scope.reach_in == reference_reach_in(scope), text[:200]
        position = {s.node_id: i for i, s in enumerate(scope.statements)}
        assert scope.loop_free == all(
            position[dst] > position[src]
            for src, dests in scope.succ.items() for dst in dests), text[:200]


def test_reach_in_matches_reference_solver(corpus_units):
    texts = (ORACLE_PROGRAMS + SHORTCUT_PROGRAMS + _fixture_texts()
             + [unit.text for unit in corpus_units]
             + composed_texts(corpus_units))
    for text in texts:
        _assert_solver_matches_reference(text)


@given(programs)
@settings(max_examples=200, deadline=None)
def test_reach_in_matches_reference_solver_on_generated_programs(text):
    try:
        _assert_solver_matches_reference(text)
    except ParseError:
        return


def test_reach_in_sets_are_frozen_and_taint_trace_leaves_them(corpus_units):
    texts = (ORACLE_PROGRAMS + SHORTCUT_PROGRAMS + _fixture_texts()
             + [unit.text for unit in corpus_units]
             + composed_texts(corpus_units, count=2))
    for text in texts:
        g = augment_flows(parse_text("t.php", text))
        before = [{nid: {var: set(ids) for var, ids in reach.items()}
                   for nid, reach in scope.reach_in.items()}
                  for scope in g.scopes]
        assert all(isinstance(ids, frozenset) for scope in g.scopes
                   for reach in scope.reach_in.values()
                   for ids in reach.values())
        taint_trace(g)
        assert [scope.reach_in for scope in g.scopes] == before


# A recursive function, a function called twice, a while that reassigns.
SHORTCUT_PROGRAMS = [
    "<?php function spin($acc, $n) { if ($n < 4) { $acc = $acc . $_GET['x'];"
    " return spin($acc, $n + 1); } return $acc; } echo spin('', 0);",
    "<?php function wrap($v) { $w = '<b>' . $v; return $w; }"
    " echo wrap('x'); $y = wrap($_GET['y']); mysql_query($y);",
    "<?php $s = ''; $i = 0; while ($i < 3) { system($s);"
    " $s = $s . $_COOKIE['c']; $s = htmlspecialchars($s); $i = $i + 1; }"
    " echo $s;",
]


def _flows_and_findings(root):
    g = augment_flows(root)
    return g.dataflow, [s.reach_in for s in g.scopes], taint_trace(g)


def test_loop_free_shortcut_changes_no_result(corpus_units, monkeypatch):
    texts = (SHORTCUT_PROGRAMS + ORACLE_PROGRAMS + _fixture_texts()
             + [unit.text for unit in corpus_units]
             + composed_texts(corpus_units, count=2))
    roots = [parse_text("t.php", text) for text in texts]
    shortcut = [_flows_and_findings(root) for root in roots]
    # both flag values occur before the fixpoint is forced
    assert {s.loop_free for root in roots
            for s in augment_flows(root).scopes} == {True, False}
    solve = flows._solve_reaching

    def forced(scope):
        scope.loop_free = False
        solve(scope)

    monkeypatch.setattr(flows, "_solve_reaching", forced)
    assert [_flows_and_findings(root) for root in roots] == shortcut


@pytest.mark.parametrize("text, loop_free", [
    ("<?php $a = 1; echo $a;", [True]),
    ("<?php if ($c) { $a = 1; } else { $a = 2; } echo $a;", [True]),
    ("<?php while ($c) { } echo $c;", [True]),
    ("<?php for ($i = 0; $i < 3; $i = $i + 1) { return $i; }", [False]),
    ("<?php foreach ($xs as $x) { echo $x; }", [False]),
    ("<?php while ($c) { function f($a) { echo $a; } }", [False, True]),
])
def test_only_a_back_edge_clears_loop_free(text, loop_free):
    g = graph_of(text)
    assert [scope.loop_free for scope in g.scopes] == loop_free
    for scope in g.scopes:
        position = {s.node_id: i for i, s in enumerate(scope.statements)}
        assert scope.loop_free == all(
            position[dst] > position[src]
            for src, dests in scope.succ.items() for dst in dests)


def test_loop_free_scope_takes_one_taint_sweep(monkeypatch):
    g = graph_of("<?php $a = $_GET['x']; if ($a) { $b = $a . 'y'; }"
                 " else { $b = 2; } echo $b; system($a);")
    (scope,) = g.scopes
    assert scope.loop_free
    seen = []
    transfer = flows._Tracer._transfer

    def counting(self, scope, stmt, def_taint, depth):
        seen.append(stmt.node_id)
        return transfer(self, scope, stmt, def_taint, depth)

    monkeypatch.setattr(flows._Tracer, "_transfer", counting)
    assert [f.sink_name for f in taint_trace(g)] == ["echo", "system"]
    assert sorted(seen) == sorted(s.node_id for s in scope.statements[1:])


def test_lexicon_roundtrip(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("\n".join(lexicon_entries(DEFAULT_LEXICON)) + "\n")
    loaded = load_lexicon(path)
    assert loaded.sources == DEFAULT_LEXICON.sources
    assert loaded.sinks == DEFAULT_LEXICON.sinks
    assert loaded.sanitizers == DEFAULT_LEXICON.sanitizers


def test_lexicon_rejects_unknown_class(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("source,$_GET\nsink,boom,Nuclear\n")
    with pytest.raises(LexiconError):
        load_lexicon(path)


def test_classify_unknown_sink_class_errors():
    g = graph_of("<?php echo $_GET['x'];")
    finding = taint_trace(g)[0]
    import dataclasses

    broken = dataclasses.replace(finding, sink_class="Nope")
    with pytest.raises(LexiconError):
        classify_vuln_type(broken)


def test_vuln_types_cover_all_seven():
    cases = {
        "Injection": "<?php $q = 'SELECT ' . $_POST['x']; mysql_query($q);",
        "XSS": "<?php echo $_GET['n'];",
        "URF": "<?php header('Location: ' . $_GET['to']);",
        "FileInclusion": "<?php include $_GET['page'];",
        "SDE": "<?php echo $_SERVER['SERVER_SOFTWARE'];",
        "SM": "<?php $password = 'letmein1'; mysql_connect('h', 'u', $password);",
        "IDOR": "<?php $row = fetch_record($_GET['id']); echo 'ok';",
    }
    for expected, src in cases.items():
        findings = taint_trace(graph_of(src))
        assert file_vuln_types(findings) == (expected,), expected
