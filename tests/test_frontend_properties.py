"""Property tests: odd, long and deep inputs end in a ParseError or in a
per-file error record, never in another exception; a long chain also
localizes to a fix."""

import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from vulnminer.analysis import FileAnalysis
from vulnminer.cascade import run_pipeline
from vulnminer.cli import _read_units
from vulnminer.errors import ParseError
from vulnminer.frontend import ast_equal, parse, parse_text, tokenize
from vulnminer.localize import DeterministicBackend, default_templates, localize
from vulnminer.source import SourceUnit

FIXTURES = Path(__file__).parent / "fixtures"

_PIECES = ("<?php", "?>", "$", "'", '"', "\\", "{", "}", "{$", "[", "]",
           "(", ")", ";", ",", ".", "=", "==", "===", "!", "!=", "<", ">",
           "&&", "||", "=>", "+", "-", "*", "/", "%", "#", "//", "/*", "*/",
           "?", "\n", " ", "\t", "a", "x_1", "_GET", "0", "42", "3.5",
           "if", "echo", "function", "é")
phpish = st.builds(
    lambda tagged, pieces: ("<?php " if tagged else "") + "".join(pieces),
    st.booleans(), st.lists(st.sampled_from(_PIECES), max_size=40))


@given(phpish)
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
