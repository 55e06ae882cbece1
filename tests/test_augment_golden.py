"""Golden digest of the trees augmentation and normalization print.

One sha256 covers the printed output (and, for the structural operators,
the applied flag) of ``rename_variables``, ``loop_to_recursion`` and
``transform_syntax_tree`` at seeds 0-19, and of ``normalize``, over the
200-file standard corpus, the fixtures and a fixed list of mixed programs.
Any change to how these rewriters rebuild a tree shows here.
"""

import hashlib
import random
from pathlib import Path

from vulnminer.augment import (
    loop_to_recursion,
    rename_variables,
    transform_syntax_tree,
)
from vulnminer.errors import ParseError
from vulnminer.frontend import normalize, parse, parse_text, print_source
from vulnminer.source import SourceUnit

FIXTURES = Path(__file__).parent / "fixtures"
SEEDS = range(20)

# Statements that give every operator somewhere to apply: if/else to flip,
# independent assignments to swap, concatenations to split, loops with one
# or more written variables, and function bodies.
_STATEMENTS = (
    "$a = $_GET['x'];", "$b = 'p' . $a;", "$c = $a . $b . 'q';", "$d = 2;",
    "$e = $d + 1;", "echo $b;", "system($c);",
    "mysql_query('SELECT * FROM t WHERE id = ' . $a);",
    "$h = htmlspecialchars($a);", "if ($a) { echo $a; } else { $d = 3; }",
    "if ($d > 1) { $e = $d; }", "while ($d < 5) { $d = $d + 1; }",
    "for ($i = 0; $i < 3; $i = $i + 1) { echo $i; }",
    "for ($i = 0; $i < 3; $i = $i + 1) { $t[$i] = $a; }",
    "while ($d < 9) { $d = $d + 1; $e = $d; }",
    "foreach ($_POST as $k => $v) { echo $v; }",
    "function g($x) { $y = $x . 'z'; $w = 1; return $y; }",
    "function w($x) { while ($x < 9) { $x = $x + 2; } return $x; }",
    "function s($p) { if ($p) { echo $p; } else { echo 'n'; } }",
    "$r = g($a);", "include 'lib/' . $a;", "header('Location: ' . $a);",
    "$password = 'hunter2';", "$f = strlen($a) . $b;",
)


def mixed_programs(n: int = 80) -> list[tuple[str, str]]:
    rng = random.Random(25)
    return [(f"mix{i}.php", "<?php\n" + "\n".join(
        rng.choices(_STATEMENTS, k=rng.randint(1, 9))) + "\n")
        for i in range(n)]


def digest(named_texts) -> tuple[str, int]:
    h = hashlib.sha256()
    n_trees = 0
    for name, text in named_texts:
        try:
            tree = parse_text(name, text)
        except ParseError:
            continue
        n_trees += 1
        outputs = [("normalize", None, True, print_source(normalize(tree)))]
        for seed in SEEDS:
            outputs.append(("rename", seed, True,
                            print_source(rename_variables(tree, seed))))
            for op, fn in (("loop", loop_to_recursion),
                           ("syntax", transform_syntax_tree)):
                out, applied = fn(tree, seed)
                outputs.append((op, seed, applied, print_source(out)))
        h.update(repr((name, outputs)).encode("utf-8"))
    return h.hexdigest(), n_trees


def test_augmentation_and_normalization_digest(corpus_units):
    named = [(Path(u.path).name, u.text) for u in corpus_units]
    named += [(p.name, p.read_text(encoding="utf-8"))
              for p in sorted(FIXTURES.glob("*.php"))]
    named += mixed_programs()
    assert digest(named) == (
        "481ffb7f9eb29d4c8105a7b4b71da40cda77cd7487e8b94a7e97c6c6e301d5ea",
        284)


def test_operators_leave_their_input_unchanged(corpus_units):
    """Every operator edits a copy, so one parsed tree serves every call."""
    for unit in corpus_units[:20]:
        tree = parse(unit)
        before = print_source(tree)
        for seed in SEEDS:
            rename_variables(tree, seed)
            loop_to_recursion(tree, seed)
            transform_syntax_tree(tree, seed)
        normalize(tree)
        assert print_source(tree) == before
