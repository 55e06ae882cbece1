"""Golden digests of the frontend: tokens, trees, spans and parse errors.

Each input set hashes to one sha256 over every token (kind, text, span,
value with its type, interpolation parts) and every tree (printed source,
then each node's kind, span and sorted attrs in walk order). An input that
fails hashes its ``ParseError`` message and span instead. The expected
digests were recorded from the character-by-character lexer and the
one-recursion-per-tier parser that the regex lexer and the
precedence-climbing parser replaced, so any change to what the frontend
produces shows here.
"""

import hashlib
from pathlib import Path

import pytest

from vulnminer.corpus import generate_synthetic_corpus
from vulnminer.errors import ParseError
from vulnminer.frontend import parse, print_source, tokenize
from vulnminer.source import SourceUnit

FIXTURES = Path(__file__).parent / "fixtures"

# Edge cases of the lexer and parser, most of them errors.
SNIPPETS = (
    "",
    "   \n\t",
    "$a = 1;",
    "  \r\n<?php",
    "<?phpecho 1;",
    "<?php $a = 'it\\'s \\\\ \\n';",
    "<?php $a = 'a\\'",
    "<?php $a = 'unterminated\n\n",
    '<?php $a = "unclosed',
    '<?php $a = "x\\"y\\$z\\q\\\\";',
    '<?php $a = "a $b c";',
    '<?php $a = "$_GET[id] and $b[3] and $c[x-1] and $d[";',
    '<?php $a = "{$b} {$_POST[\'k\']} {$c[12]} $ {x} {$";',
    '<?php $a = "{$b[$c]}";',
    '<?php $a = "{$b[\'k\'";',
    '<?php $a = "{$b[\'k\']";',
    '<?php $a = "{$b[7}";',
    '<?php $a = "{$b";',
    '<?php $a = "{$1}";',
    '<?php $a = "{$b[\'unterminated";',
    '<?php $a = "multi\nline $x\n";',
    "<?php /* a\nb */ # c\n// d\n$x = 2.50 + 10;",
    "<?php /* never ends",
    "<?php $ = 1;",
    "<?php $a = 1 ? 2;",
    "<?php $a = 1 @ 2;",
    "<?php $a = 1; ?>",
    "<?php $a = 1; ?> \n ",
    "<?php $a = 1; ?>tail",
    "<?php $a === $b !== $c <= $d >= $e && $f || !$g => $h;",
    "<?php $a = -1 - -2.5 * !$b % 3 / 4 . 'x' . 5;",
    "<?php $a = 1 < 2 == 3 > 4 != 5;",
    "<?php if ($a) { echo 1; } else if ($b) echo 2; else { }",
    "<?php while ($i < 3) $i = $i + 1;",
    "<?php for ($i = 0; $i < 3; $i = $i + 1) { echo $i; }",
    "<?php foreach ($xs as $k => $v) { echo $k . $v; }",
    "<?php foreach ($xs as $v) echo $v;",
    "<?php function f($a, $b) { return $a . $b; } return;",
    "<?php include 'a.php'; require_once $_GET['p'];",
    "<?php $_GET = 1;",
    "<?php $a[1]['x'] = f(g($b[2]), 3);",
    "<?php else;",
    "<?php function ($a) {}",
    "<?php function f($a) echo 1;",
    "<?php if ($a)",
    "<?php if ($a) ;",
    "<?php f(1, 2",
    "<?php f 1;",
    "<?php $a = (1 + 2;",
    "<?php $a = ;",
    "<?php 1 + ;",
    "<?php echo 1",
    "<?php { echo 1; }",
    "<?php as;",
    "<?php $a = 1 2;",
    "<?php $a = \"é \\é\";\n$b = 'ü';",
    "<?php $a = 1;\n\n\n$b = é;",
)


def _span(span):
    return None if span is None else (
        span.start_line, span.start_col, span.end_line, span.end_col)


def _offsets_span(unit: SourceUnit, item):
    return _span(unit.span_between(item.start, item.end))


def _error(exc: ParseError):
    return ("ParseError", exc.message, _span(exc.span))


def _records(unit: SourceUnit) -> list:
    out = []
    try:
        for tok in tokenize(unit):
            parts = [(p.kind, p.text, p.var, p.index, p.start, p.end)
                     for p in tok.parts]
            out.append((tok.kind, tok.text, _offsets_span(unit, tok),
                        type(tok.value).__name__, tok.value, parts))
    except ParseError as exc:
        out.append(_error(exc))
    try:
        tree = parse(unit)
    except ParseError as exc:
        out.append(_error(exc))
    else:
        out.append(print_source(tree))
        out.extend((node.kind.value, _offsets_span(unit, node),
                    sorted(node.attrs.items())) for node in tree.walk())
    return out


def digest(named_texts) -> str:
    h = hashlib.sha256()
    for name, text in named_texts:
        h.update(repr((name, _records(SourceUnit.from_text(name, text))))
                 .encode("utf-8"))
    return h.hexdigest()


def wrap_in_class(text: str, k: int) -> str:
    """A file body inside a class: valid PHP, outside the parsed subset."""
    body = text.split("\n", 1)[1].rstrip("\n").split("\n")
    inner = "\n".join("        " + line for line in body)
    return (f"<?php\nclass Handler{k} {{\n    public function run() {{\n"
            f"{inner}\n    }}\n}}\n")


@pytest.fixture(scope="module")
def corpus_texts(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    manifest = generate_synthetic_corpus(root, seed=41, size=300,
                                         positive_ratio=0.1)
    return [(Path(e.path).name, Path(e.path).read_text(encoding="utf-8"))
            for e in manifest.entries]


def test_fixtures_digest():
    texts = [(p.name, p.read_text(encoding="utf-8"))
             for p in sorted(FIXTURES.glob("*.php"))]
    assert len(texts) == 4
    assert digest(texts) == (
        "702fa6c3dcdf979847116d79d7c98b93a3ea17ef8ba4090b8cd50330ebe8aa84")


def test_corpus_digest(corpus_texts):
    assert len(corpus_texts) == 300
    assert digest(corpus_texts) == (
        "4159b2e7dcf63d0b84dbd676bb43773f1ba2c7ccd805e4642c151f31ddaeaac5")


def test_class_wrapped_digest(corpus_texts):
    texts = [(f"oos_{k}.php", wrap_in_class(text, k))
             for k, (_, text) in enumerate(corpus_texts[:5])]
    assert digest(texts) == (
        "e9c3353ccf880dd9097086992f3c0bdd459e22107cbdfc7ca32a8ee6504c411f")


def test_snippets_digest():
    texts = [(f"s{k}.php", text) for k, text in enumerate(SNIPPETS)]
    assert digest(texts) == (
        "95137b3c7f90c056ef4f48c19f2ce444f471a4ff80ef9028ad7cb10fc9a49b55")
