import pytest

from vulnminer.errors import ParseError
from vulnminer.frontend.lexer import tokenize
from vulnminer.source import SourceUnit


def lex(text):
    return tokenize(SourceUnit.from_text("t.php", text))


def kinds(tokens):
    return [t.kind for t in tokens]


def test_simple_assignment_tokens():
    tokens = lex("<?php $a = 1;")
    assert kinds(tokens) == ["open_tag", "var", "op", "number", "op", "eof"]
    assert tokens[1].value == "a"
    assert tokens[2].value == "="
    assert tokens[3].value == 1


def test_comment_token_precedes_statement():
    tokens = lex("<?php // hi\n$a=1;")
    assert kinds(tokens)[1] == "comment"
    assert kinds(tokens)[2] == "var"


def test_block_comment_and_hash_comment():
    tokens = lex("<?php /* a\nb */ # tail\n$x=2;")
    assert kinds(tokens)[1:3] == ["comment", "comment"]


def test_unterminated_string_reports_opening_position():
    with pytest.raises(ParseError) as err:
        lex('<?php $s = "unclosed')
    assert "unterminated string" in str(err.value)
    assert err.value.span.start_line == 1


def test_unterminated_comment():
    with pytest.raises(ParseError, match="unterminated comment"):
        lex("<?php /* never ends")


def test_missing_open_tag():
    with pytest.raises(ParseError, match="<\\?php"):
        lex("$a = 1;")


def test_bom_and_leading_whitespace_tolerated():
    tokens = tokenize(SourceUnit.from_text("t.php", "﻿  \n<?php $a=1;"))
    assert tokens[0].kind == "open_tag"


def test_every_token_carries_a_span():
    unit = SourceUnit.from_text("t.php", "<?php $total = $price * 3; echo $total;")
    for token in tokenize(unit):
        span = unit.span_between(token.start, token.end)
        assert span.start_line >= 1
        assert span.start_col >= 1


def test_tokens_cover_non_whitespace_bytes():
    text = "<?php $a = 'x' . strlen($b);"
    tokens = lex(text)
    covered = sum(len(t.text) for t in tokens if t.kind != "eof")
    stripped = len(text.replace(" ", ""))
    assert covered == stripped


def test_operators_maximal_munch():
    tokens = lex("<?php $a = $b === $c;")
    ops = [t.value for t in tokens if t.kind == "op"]
    assert "===" in ops and "==" not in ops


def test_float_and_int_literals():
    tokens = lex("<?php $a = 3.25; $b = 12;")
    numbers = [t.value for t in tokens if t.kind == "number"]
    assert numbers == [3.25, 12]


def test_single_quoted_escapes():
    tokens = lex(r"<?php $s = 'it\'s \\ here';")
    strings = [t.value for t in tokens if t.kind == "string"]
    assert strings == ["it's \\ here"]


def test_double_quoted_escapes_without_interp():
    tokens = lex(r'<?php $s = "a\tb\n\$x";')
    strings = [t.value for t in tokens if t.kind == "string"]
    assert strings == ["a\tb\n$x"]


def test_interpolation_parts():
    tokens = lex('<?php $s = "hi $name and $_POST[user] or {$arr[\'k\']}";')
    interp = [t for t in tokens if t.kind == "interp_string"]
    assert len(interp) == 1
    parts = interp[0].parts
    assert [p.kind for p in parts] == ["lit", "expr", "lit", "expr", "lit", "expr"]
    assert parts[1].var == "name" and parts[1].index is None
    assert parts[3].var == "_POST" and parts[3].index == ("str", "user")
    assert parts[5].var == "arr" and parts[5].index == ("str", "k")


def test_close_tag_terminates():
    tokens = lex("<?php $a=1; ?>\n  ")
    assert kinds(tokens)[-2] == "close_tag"


def test_text_after_close_tag_rejected():
    with pytest.raises(ParseError):
        lex("<?php $a=1; ?> trailing html")


def test_unexpected_character():
    with pytest.raises(ParseError, match="unexpected character"):
        lex("<?php $a = 1 @ 2;")
