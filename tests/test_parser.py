import pytest

from vulnminer.errors import ParseError
from vulnminer.frontend import NodeKind, ast_equal, check_tree, parse, parse_text
from vulnminer.source import SourceUnit


def kinds_of(node):
    return [c.kind for c in node.children]


def test_echo_superglobal_index():
    ast = parse_text("t.php", '<?php echo $_GET["x"];')
    echo = ast.children[0]
    assert echo.kind is NodeKind.ECHO
    idx = echo.children[0]
    assert idx.kind is NodeKind.INDEX
    assert idx.children[0].kind is NodeKind.SUPERGLOBAL
    assert idx.children[0].attrs["sg"] == "GET"
    assert idx.children[1].attrs["value"] == "x"


def test_command_injection_concat_chain():
    ast = parse_text("t.php", "<?php\n"
                     "$cmd = \"tar -czf \".$_GET['file'].\".tar.gz \""
                     ".$_GET['path'];\nsystem($cmd);")
    assign, stmt = ast.children
    assert assign.kind is NodeKind.ASSIGN
    chain = assign.children[1]
    leaves = []

    def collect(node):
        if node.kind is NodeKind.CONCAT:
            collect(node.children[0])
            collect(node.children[1])
        else:
            leaves.append(node)

    collect(chain)
    assert len(leaves) == 4
    assert stmt.kind is NodeKind.EXPR_STMT
    call = stmt.children[0]
    assert call.kind is NodeKind.CALL and call.attrs["name"] == "system"
    assert call.children[0].attrs["name"] == "cmd"


def test_missing_body_is_parse_error():
    with pytest.raises(ParseError, match="expected statement or block"):
        parse_text("t.php", "<?php if ($a)")


def test_if_else_structure():
    ast = parse_text("t.php", "<?php if($c){$a=1;}else{$a=2;} echo $a;")
    node = ast.children[0]
    cond, then, other = node.if_parts()
    assert cond.kind is NodeKind.VAR
    assert len(then) == 1 and len(other) == 1


def test_single_statement_bodies_allowed():
    ast = parse_text("t.php", "<?php if ($a) echo $a; else echo 2;")
    _, then, other = ast.children[0].if_parts()
    assert len(then) == 1 and len(other) == 1


def test_while_and_for_and_foreach():
    ast = parse_text("t.php", """<?php
while ($i < 3) { $i = $i + 1; }
for ($j = 0; $j < 2; $j = $j + 1) { echo $j; }
foreach ($_POST as $k => $v) { echo $v; }
""")
    w, f, fe = ast.children
    assert w.kind is NodeKind.WHILE
    assert f.kind is NodeKind.FOR
    assert f.children[0].kind is NodeKind.ASSIGN
    iterable, key, value, body = fe.foreach_parts()
    assert iterable.kind is NodeKind.SUPERGLOBAL
    assert key.attrs["name"] == "k" and value.attrs["name"] == "v"
    assert len(body) == 1


def test_function_declaration_and_return():
    ast = parse_text("t.php", "<?php function add($a, $b) { return $a + $b; }")
    decl = ast.children[0]
    name, params, body = decl.function_parts()
    assert name == "add"
    assert [p.attrs["name"] for p in params] == ["a", "b"]
    assert body[0].kind is NodeKind.RETURN


def test_include_flavors():
    ast = parse_text("t.php", "<?php include 'a.php'; require_once $p;")
    flavors = [c.attrs["flavor"] for c in ast.children]
    assert flavors == ["include", "require_once"]


def test_precedence_concat_below_arithmetic():
    ast = parse_text("t.php", "<?php $x = 'n=' . 1 + 2;")
    top = ast.children[0].children[1]
    assert top.kind is NodeKind.CONCAT
    assert top.children[1].kind is NodeKind.BINARY_OP


def test_precedence_comparison_and_bool():
    ast = parse_text("t.php", "<?php if ($a < 3 && $b == 2 || $c) echo 1;")
    cond = ast.children[0].children[0]
    assert cond.attrs["op"] == "||"
    assert cond.children[0].attrs["op"] == "&&"


def test_unary_negation_single_child():
    ast = parse_text("t.php", "<?php if (!$a) echo 1;")
    cond = ast.children[0].children[0]
    assert cond.kind is NodeKind.BINARY_OP
    assert cond.attrs["op"] == "!" and len(cond.children) == 1


def test_unary_minus_folds_into_literal():
    ast = parse_text("t.php", "<?php $a = -42;")
    lit = ast.children[0].children[1]
    assert lit.kind is NodeKind.NUMBER_LIT and lit.attrs["value"] == -42


def test_interpolation_desugars_to_concat():
    ast = parse_text("t.php", '<?php $q = "SELECT x WHERE u=\'$_POST[user]\'";')
    rhs = ast.children[0].children[1]
    assert rhs.kind is NodeKind.CONCAT
    leaves = [rhs.children[0].children[0], rhs.children[0].children[1],
              rhs.children[1]]
    assert leaves[1].kind is NodeKind.INDEX
    assert leaves[1].children[0].attrs["sg"] == "POST"


def test_pure_literal_double_quotes_stay_string():
    ast = parse_text("t.php", '<?php $s = "plain";')
    assert ast.children[0].children[1].kind is NodeKind.STRING_LIT


def test_superglobal_assignment_rejected():
    with pytest.raises(ParseError, match="superglobal"):
        parse_text("t.php", "<?php $_GET = 1;")


def test_unknown_construct_named():
    with pytest.raises(ParseError, match="keyword 'else'"):
        parse_text("t.php", "<?php else { echo 1; }")


def test_unique_ids_and_single_parents():
    ast = parse_text("t.php", "<?php $a = 1; if ($a) { echo $a; }")
    check_tree(ast)


def test_spans_cover_source():
    unit = SourceUnit.from_text("t.php", "<?php\n$a = 1;\necho $a;\n")
    assign, echo = parse(unit).children
    assert unit.position(assign.start)[0] == 2
    assert unit.position(echo.start)[0] == 3


def test_span_containment():
    unit = SourceUnit.from_text("t.php", "<?php if ($a) { $b = $a + 1; }")
    ast = parse(unit)

    def contains(outer, inner):
        return ((outer.start_line, outer.start_col)
                <= (inner.start_line, inner.start_col)
                and (outer.end_line, outer.end_col)
                >= (inner.end_line, inner.end_col))

    for node in ast.walk():
        for child in node.children:
            assert contains(unit.span_between(node.start, node.end),
                            unit.span_between(child.start, child.end))


def test_structural_equality_ignores_ids():
    a = parse_text("a.php", "<?php $a = 1; echo $a;")
    b = parse_text("b.php", "<?php $a = 1; echo $a;")
    c = parse_text("c.php", "<?php $a = 2; echo $a;")
    assert ast_equal(a, b)
    assert not ast_equal(a, c)


def test_empty_program():
    ast = parse_text("t.php", "<?php")
    assert ast.kind is NodeKind.PROGRAM and ast.children == []


def test_corpus_tokens_and_trees_carry_offsets_not_spans(corpus_units, monkeypatch):
    from vulnminer.frontend import tokenize
    from vulnminer.source import Span

    built = []
    post_init = Span.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Span, "__post_init__", counting)
    for unit in corpus_units:
        for tok in tokenize(unit):
            assert unit.text[tok.start:tok.end] == tok.text
        parse(unit)
    assert built == []


def test_if_with_empty_blocks_parses():
    # like an empty loop body, empty branches end the statement at its condition
    unit = SourceUnit.from_text("t.php", "<?php if ($a) {} else {}")
    (stmt,) = parse(unit).children
    assert stmt.kind is NodeKind.IF and len(stmt.children) == 1
    assert unit.text[stmt.start:stmt.end] == "if ($a"
