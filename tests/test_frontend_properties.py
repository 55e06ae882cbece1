"""Property tests: odd, long and deep inputs end in a ParseError or in a
per-file error record, never in another exception; a long chain also
localizes to a fix; every parsed node rebuilds from its layout parts; the
parts of an interpolated string alternate literal and expression."""

import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_frontend_golden import SNIPPETS

from vulnminer.analysis import FileAnalysis
from vulnminer.cascade import run_pipeline
from vulnminer.cli import _read_units
from vulnminer.errors import ParseError
from vulnminer.frontend import (ast_equal, copy_tree, parse, parse_text,
                                print_source, tokenize)
from vulnminer.frontend.nodes import compound, parts
from vulnminer.localize import DeterministicBackend, default_templates, localize
from vulnminer.source import SourceUnit, Span

FIXTURES = Path(__file__).parent / "fixtures"

_PIECES = ("<?php", "?>", "$", "'", '"', "\\", "{", "}", "{$", "[", "]",
           "(", ")", ";", ",", ".", "=", "==", "===", "!", "!=", "<", ">",
           "&&", "||", "=>", "+", "-", "*", "/", "%", "#", "//", "/*", "*/",
           "?", "\n", " ", "\t", "a", "x_1", "_GET", "0", "42", "3.5",
           "if", "echo", "function", "é")
phpish = st.builds(
    lambda tagged, pieces: ("<?php " if tagged else "") + "".join(pieces),
    st.booleans(), st.lists(st.sampled_from(_PIECES), max_size=40))

# Programs of the subset, statements joined by whitespace and comments.
_STATEMENTS = (
    "$a = 1;", "$b = 'p\nq' . $a;", 'echo "x $a y\n";', "include $a;",
    "if ($a) { echo $a; } else { $a = -2; }", "if ($a) {}",
    "while ($a < 3) { $a = $a + 1; }", "foreach ($_GET as $k => $v) { echo $v; }",
    "function f($x) {\n  return $x;\n}", "system($_GET['c']);",
    "$c[0] = f($a, \"{$b['k']}\");", "for ($i = 0; $i < 2; $i = $i + 1) echo $i;",
)
_SEPARATORS = (" ", "\n", "\n\n", "\t", " /* c\n */ ", " // x\n", " # y\n")
programs = st.builds(
    lambda body, close, tail: "<?php" + "".join(body) + close + tail,
    st.lists(st.tuples(st.sampled_from(_SEPARATORS), st.sampled_from(_STATEMENTS))
             .map("".join), max_size=8),
    st.sampled_from(("", " ?>", "\n?>")), st.sampled_from(("", "\n", " \n\n")))


@given(st.one_of(phpish, programs))
@settings(max_examples=300, deadline=None)
def test_any_text_parses_or_raises_parse_error(text):
    unit = SourceUnit.from_text("p.php", text)
    try:
        tokens = tokenize(unit)
    except ParseError:
        pass
    else:
        assert tokens[-1].kind == "eof"
    try:
        parse(unit)
    except ParseError:
        pass


def _forward_positions(text):
    """(line, col) of every offset up to one past the end, found by
    walking the text forward and counting newlines."""
    out, line, col = [], 1, 1
    for ch in text:
        out.append((line, col))
        line, col = (line + 1, 1) if ch == "\n" else (line, col + 1)
    out.append((line, col))
    return out


@given(st.one_of(phpish, programs))
@example("<?php")
@example("<?php\n")
@example("<?php ?>")
@example("<?php /* a\nb */ $x = 'p\nq';\n")
@example('<?php echo "a\n$b[1] {$c[\'k\']}\n";\n?>\n')
@example("<?php\nfunction f($a) {\n}\nif ($a) { echo $a; }\n")
@settings(max_examples=300, deadline=None)
def test_offset_spans_match_forward_newline_count(text):
    unit = SourceUnit.from_text("p.php", text)
    forward = _forward_positions(unit.text)

    def check(item):
        # the inclusive end is the last character; eof's is one past the text
        assert item.start < item.end <= len(unit.text) + 1
        assert unit.span_between(item.start, item.end) == Span(
            *forward[item.start], *forward[item.end - 1])

    try:
        tokens = tokenize(unit)
    except ParseError:
        return
    for tok in tokens:
        check(tok)
    try:
        tree = parse(unit)
    except ParseError:
        return
    for node in tree.walk():
        check(node)


def _assert_interp_parts_alternate(text):
    """Each ``interp_string`` token has an expression part, no empty
    literal part and no two adjacent literal parts: the parser desugars
    its parts as they come, with no check of its own."""
    try:
        tokens = tokenize(SourceUnit.from_text("p.php", text))
    except ParseError:
        return
    for tok in tokens:
        if tok.kind != "interp_string":
            continue
        kinds = [part.kind for part in tok.parts]
        assert "expr" in kinds, tok
        assert all(part.text for part in tok.parts if part.kind == "lit"), tok
        assert ("lit", "lit") not in zip(kinds, kinds[1:]), tok


@given(st.one_of(phpish, programs))
@example('<?php $a = "$b";')
@example('<?php $a = "\\n$b\\t{$c[\'k\']}$d[0]\\$e $";')
@example('<?php $a = "{$b}{$c}x";')
@settings(max_examples=300, deadline=None)
def test_interp_string_parts_alternate(text):
    _assert_interp_parts_alternate(text)


def test_golden_snippet_interp_string_parts_alternate():
    for text in SNIPPETS:
        _assert_interp_parts_alternate(text)


_LAYOUT_ATTRS = ("then_len", "else_len", "n_params", "has_key")


def _assert_nodes_rebuild_from_parts(tree):
    """compound(kind, *parts(node)) gives back every node, and sets the
    layout attrs from the lengths it is given."""
    for node in tree.walk():
        payload = {k: v for k, v in node.attrs.items()
                   if k not in _LAYOUT_ATTRS}
        rebuilt = compound(node.kind, *parts(node), **payload)
        assert ast_equal(rebuilt, node)
        assert rebuilt.attrs == node.attrs


@given(programs)
@example("<?php if ($a) {} else { echo 1; } foreach ($b as $v) {} function f() {}")
@settings(max_examples=200, deadline=None)
def test_program_nodes_rebuild_from_parts(text):
    _assert_nodes_rebuild_from_parts(parse_text("p.php", text))


def test_corpus_and_fixture_nodes_rebuild_from_parts(corpus_units):
    units = corpus_units + [SourceUnit.from_file(p)
                            for p in sorted(FIXTURES.glob("*.php"))]
    for unit in units:
        _assert_nodes_rebuild_from_parts(parse(unit))


def _assert_copy_is_fresh(tree):
    """The copy prints the same text, shares no node or attrs dict with
    the source, and its ids are unique and new."""
    copy = copy_tree(tree)
    assert print_source(copy) == print_source(tree)
    source, copied = list(tree.walk()), list(copy.walk())
    assert not {id(n) for n in source} & {id(n) for n in copied}
    assert not {id(n.attrs) for n in source} & {id(n.attrs) for n in copied}
    ids = [n.node_id for n in copied]
    assert len(set(ids)) == len(ids)
    assert not set(ids) & {n.node_id for n in source}


@given(programs)
@settings(max_examples=200, deadline=None)
def test_copy_tree_is_a_fresh_equal_tree(text):
    _assert_copy_is_fresh(parse_text("p.php", text))


def test_copy_tree_copies_a_3000_term_chain():
    _assert_copy_is_fresh(parse_text(
        "chain.php",
        "<?php $a = $_GET['x']" + " . 'y'" * 2999 + "; system($a);"))


def test_ast_equal_compares_a_3000_term_chain():
    text = "<?php $a = $_GET['x']" + " . 'y'" * 2999 + "; system($a);"
    tree = parse_text("chain.php", text)
    assert ast_equal(tree, tree)
    assert ast_equal(tree, copy_tree(tree))
    # the one leaf that differs is the chain's deepest
    other = parse_text("chain.php", text.replace("['x']", "['w']"))
    assert not ast_equal(tree, other)


def _one_record_per_unit(units, bundle):
    verdicts, errors = run_pipeline(units, bundle)
    paths = [v.file_id for v in verdicts] + [path for path, _ in errors]
    assert sorted(paths) == sorted(unit.path for unit in units)


def _good_unit():
    return SourceUnit.from_file(FIXTURES / "command_injection.php")


@given(st.integers(1, 2000))
@example(1)
@example(2000)
@settings(max_examples=8, deadline=None)
def test_concat_chain_gives_one_record_per_file(bundle, terms):
    text = "<?php $a = $_GET['x']" + " . 'y'" * (terms - 1) + "; system($a);"
    _one_record_per_unit([SourceUnit.from_text("chain.php", text),
                          _good_unit()], bundle)


@given(st.integers(1, 2000))
@example(1)
@example(2000)
@settings(max_examples=8, deadline=None)
def test_concat_chain_localizes_to_a_fix(bundle, terms):
    text = "<?php $a = $_GET['x']" + " . 'y'" * (terms - 1) + "; system($a);"
    report = localize(SourceUnit.from_text("chain.php", text), bundle,
                      default_templates(), DeterministicBackend())
    assert report.status == "ok"
    fixed = FileAnalysis(SourceUnit.from_text("fixed.php",
                                              report.candidate_text))
    assert not any(not f.sanitized and f.sink_class == "Command"
                   for f in fixed.findings)


@given(st.integers(1, 400))
@example(1)
@example(400)
@settings(max_examples=8, deadline=None)
def test_nested_parentheses_give_one_record_per_file(bundle, depth):
    text = ("<?php $a = " + "(" * depth + "$_GET['x']" + ")" * depth
            + "; system($a);")
    _one_record_per_unit([SourceUnit.from_text("deep.php", text),
                          _good_unit()], bundle)


@given(st.binary(max_size=60))
@settings(max_examples=25, deadline=None)
def test_any_bytes_give_one_record_per_file(bundle, raw):
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "any.php").write_bytes(b"<?php " + raw)
        (Path(tmp) / "good.php").write_text(_good_unit().text)
        units, unread = _read_units([tmp])
        verdicts, errors = run_pipeline(units, bundle)
    paths = [v.file_id for v in verdicts] + [p for p, _ in unread + errors]
    assert sorted(Path(p).name for p in paths) == ["any.php", "good.php"]


def test_parentheses_nested_150_deep_parse():
    deep = parse_text("t.php", "<?php $a = " + "(" * 150 + "$b . 1"
                      + ")" * 150 + ";")
    flat = parse_text("t.php", "<?php $a = $b . 1;")
    assert ast_equal(deep, flat)
