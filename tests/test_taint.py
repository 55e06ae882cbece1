from dataclasses import replace

from vulnminer.analysis import FileAnalysis
from vulnminer.flows import augment_flows, classify_vuln_type, taint_trace
from vulnminer.frontend import parse_text
from vulnminer.lexicon import DEFAULT_LEXICON
from vulnminer.source import SourceUnit


def trace(src):
    return taint_trace(augment_flows(parse_text("t.php", src)), DEFAULT_LEXICON)


def test_command_injection_single_finding(command_injection_unit):
    findings = taint_trace(
        augment_flows(parse_text(command_injection_unit.path,
                                 command_injection_unit.text)))
    assert len(findings) == 1
    f = findings[0]
    assert f.source_label == "$_GET"
    assert f.sink_name == "system"
    assert f.sink_class == "Command"
    assert not f.sanitized
    assert classify_vuln_type(f) == "Injection"


def test_remediated_snippet_is_sanitized(command_injection_fixed_unit):
    findings = taint_trace(
        augment_flows(parse_text(command_injection_fixed_unit.path,
                                 command_injection_fixed_unit.text)))
    assert len(findings) == 1
    assert findings[0].sanitized is True
    assert findings[0].sink_name == "exec"


def test_no_sources_no_findings():
    assert trace("<?php $a = 'static'; echo $a;") == []


def test_sanitizers_are_class_scoped():
    # htmlspecialchars neutralizes output, not command execution
    findings = trace("<?php $x = htmlspecialchars($_GET['c']); system($x);")
    assert len(findings) == 1 and findings[0].sanitized is False
    findings = trace("<?php $x = htmlspecialchars($_GET['c']); echo $x;")
    assert len(findings) == 1 and findings[0].sanitized is True


def test_unsanitized_path_dominates():
    findings = trace("""<?php
if ($m) { $x = htmlspecialchars($_GET['q']); } else { $x = $_GET['q']; }
echo $x;
""")
    assert len(findings) == 1 and findings[0].sanitized is False


def test_sanitizer_on_every_path_flips_to_sanitized():
    findings = trace("""<?php
if ($m) { $x = htmlspecialchars($_GET['q']); } else { $x = htmlentities($_GET['q']); }
echo $x;
""")
    assert len(findings) == 1 and findings[0].sanitized is True


def test_concat_propagates_taint():
    findings = trace("<?php $q = 'SELECT ' . $_POST['w']; mysql_query($q);")
    assert [f.sink_class for f in findings] == ["Sql"]


def test_interpolation_propagates_taint(sql_auth_unit):
    findings = taint_trace(augment_flows(
        parse_text(sql_auth_unit.path, sql_auth_unit.text)))
    assert len(findings) == 1
    assert findings[0].source_label == "$_POST"
    assert findings[0].sink_name == "mysql_query"
    assert not findings[0].sanitized


def test_interprocedural_argument_passing():
    findings = trace("""<?php
function render($msg) { echo $msg; return 0; }
$data = $_GET['m'];
$x = render($data);
""")
    assert len(findings) == 1 and findings[0].sink_name == "echo"


def test_interprocedural_return_taint():
    findings = trace("""<?php
function fetch() { return $_POST['q']; }
$q = fetch();
mysql_query($q);
""")
    assert [f.sink_name for f in findings] == ["mysql_query"]


def test_recursive_function_terminates_and_finds():
    findings = trace("""<?php
function spin($acc, $n) {
    if ($n < 4) { $acc = $acc . $_GET['x']; return spin($acc, $n + 1); }
    return $acc;
}
echo spin('', 0);
""")
    assert any(f.sink_name == "echo" and not f.sanitized for f in findings)


def test_loop_free_scope_sweeps_again_after_a_call():
    # The top-level scope is loop-free and takes one sweep. In g's first
    # run its recursive call reads g's summary while it is still empty, so
    # `echo $r` sees no taint; g then runs again until its summary stops
    # changing, and the second run finds the flow. The $t definition
    # before the call changes none of this.
    findings = trace("""<?php
function g($x) { $r = g($x); echo $r; return $_GET['a']; }
$t = $_GET['q'];
g(1);
""")
    assert [(f.sink_name, f.source_label, f.sanitized) for f in findings] == [
        ("echo", "$_GET", False)]


def test_recursive_call_reads_the_converged_summary():
    findings = trace("""<?php
function g($x) { $r = g($x); echo $r; return $_GET['a']; }
g(1);
""")
    assert [(f.sink_name, f.source_label, f.sanitized) for f in findings] == [
        ("echo", "$_GET", False)]


def test_mutual_recursion_converges():
    findings = trace("""<?php
function a($x) { $r = b($x); echo $r; return $_GET['a']; }
function b($y) { return a($y); }
a(1);
""")
    assert [(f.sink_name, f.source_label, f.sanitized) for f in findings] == [
        ("echo", "$_GET", False)]


def test_sinks_are_followed_through_three_nested_calls():
    chain = """<?php
function d($x) { system($x); }
function c($x) { %s($x); }
function b($x) { c($x); }
function a($x) { b($x); }
a($_GET['x']);
"""
    assert [f.sink_name for f in trace(chain % "system")] == ["system"]
    assert trace(chain % "d") == []


def test_only_lexicon_sources_carry_taint():
    lex = replace(DEFAULT_LEXICON, sources=frozenset({"$_GET"}))
    graph = augment_flows(parse_text("t.php", """<?php
$a = $_COOKIE['x']; echo $a;
$b = $_GET['y']; echo $b;
"""))
    assert [f.source_label for f in taint_trace(graph, lex)] == ["$_GET"]


def test_loop_carried_taint():
    findings = trace("""<?php
$s = '';
$i = 0;
while ($i < 3) { $s = $s . $_COOKIE['c']; $i = $i + 1; }
echo $s;
""")
    assert len(findings) == 1 and findings[0].source_label == "$_COOKIE"


def test_findings_sorted_by_sink_span():
    findings = trace("""<?php
echo $_GET['a'];
header('Location: ' . $_GET['b']);
""")
    starts = [f.sink_start for f in findings]
    assert starts == sorted(starts)


def test_finding_path_endpoints():
    findings = trace("<?php $a = $_GET['x']; $b = $a; system($b);")
    f = findings[0]
    assert f.path[0] == f.source_id
    assert f.path[-1] == f.sink_id
    assert len(f.path) == 4  # source read, two assignments, sink


def test_determinism():
    src = "<?php echo $_GET['a'] . $_POST['b']; system($_REQUEST['c']);"
    graph = augment_flows(parse_text("t.php", src))
    first = [(f.source_label, f.sink_id, f.path) for f in taint_trace(graph)]
    second = [(f.source_label, f.sink_id, f.path) for f in taint_trace(graph)]
    assert first == second
    # across fresh parses only node identities change
    stable = [(f.source_label, f.sink_name, f.sink_start, f.sink_end, f.sanitized)
              for f in trace(src)]
    assert stable == [(f.source_label, f.sink_name, f.sink_start, f.sink_end,
                       f.sanitized) for f in trace(src)]


def test_monotone_sanitization(corpus_units, labels):
    # adding output escaping at every echo never creates new findings
    src = "<?php $x = $_GET['q']; echo $x;"
    baseline = trace(src)
    sanitized = trace("<?php $x = htmlspecialchars($_GET['q']); echo $x;")
    assert len(sanitized) == len(baseline) == 1
    assert baseline[0].sanitized is False
    assert sanitized[0].sanitized is True


def test_long_concat_chains_trace_without_recursion():
    # Each `.` nests the chain one level deeper on the left.
    for terms in (600, 1200):
        src = ('<?php $a = $_GET["x"]'
               + "".join(f' . "s{i}"' for i in range(1, terms))
               + "; system($a);")
        analysis = FileAnalysis(SourceUnit.from_text("chain.php", src))
        assert analysis.structural.tokens
        assert [(f.sink_class, f.sanitized) for f in analysis.findings] == [
            ("Command", False)], terms
