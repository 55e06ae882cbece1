import dataclasses

import pytest

from vulnminer.analysis import FileAnalysis
from vulnminer.augment import (
    augment_corpus,
    augment_sample,
    loop_to_recursion,
    rename_variables,
    save_augment_manifest,
    transform_syntax_tree,
)
from vulnminer.errors import VulnMinerError
from vulnminer.flows import augment_flows, file_vuln_types, taint_trace
from vulnminer.frontend import normalize, parse_text, print_source
from vulnminer.frontend.nodes import NodeKind
from vulnminer.lexicon import DEFAULT_LEXICON
from vulnminer.linearize import linearize
from vulnminer.source import SourceUnit


def types_of(text, path="t.php"):
    return file_vuln_types(taint_trace(augment_flows(parse_text(path, text))))


def origin(text, lex=None):
    return FileAnalysis(SourceUnit.from_text("t.php", text), lex)


def test_op_kind_validation():
    with pytest.raises(VulnMinerError):
        augment_sample(origin("<?php echo 1;"), plan=("Obfuscate",), seed=1)


class TestRename:
    def test_style_variants(self):
        ast = parse_text("t.php", "<?php $username = $_GET['u']; echo $username;")
        renamed = rename_variables(ast, seed=3)
        names = {n.attrs["name"] for n in renamed.walk()
                 if n.kind is NodeKind.VAR}
        assert "username" not in names
        assert len(names) == 1
        assert "$_GET" in print_source(renamed)

    def test_injective(self):
        src = "<?php " + " ".join(f"$name{i} = {i};" for i in range(12))
        ast = parse_text("t.php", src)
        renamed = rename_variables(ast, seed=5)
        names = [n.attrs["name"] for n in renamed.walk()
                 if n.kind is NodeKind.VAR]
        assert len(set(names)) == 12

    def test_preserves_reserved_names(self):
        src = "<?php $c = $_POST['c']; system(htmlspecialchars($c));"
        out = print_source(rename_variables(parse_text("t.php", src), seed=1))
        assert "system(" in out and "htmlspecialchars(" in out

    def test_taint_findings_identical(self):
        src = "<?php $q = 'SELECT ' . $_POST['w']; mysql_query($q);"
        out = print_source(rename_variables(parse_text("t.php", src), seed=9))
        assert types_of(src) == types_of(out)

    def test_seeded_determinism(self):
        ast_text = "<?php $alpha = 1; $beta = $alpha;"
        one = print_source(rename_variables(parse_text("a.php", ast_text), 4))
        two = print_source(rename_variables(parse_text("b.php", ast_text), 4))
        assert one == two


class TestLoopToRecursion:
    def test_while_loop_rewritten(self):
        ast = parse_text("t.php", "<?php $i = 0; while ($i < 3) { $i = $i + 1; } echo $i;")
        out, applied = loop_to_recursion(ast, seed=5)
        assert applied
        text = print_source(out)
        assert "while" not in text
        assert "function loop_step_" in text
        assert "return" in text
        reparsed = parse_text("t.php", text)
        assert reparsed.kind is NodeKind.PROGRAM

    def test_loop_with_sink_keeps_finding_class(self):
        src = ("<?php $n = 0; $m = $_GET['x']; "
               "while ($n < 2) { echo $m; $n = $n + 1; }")
        out, applied = loop_to_recursion(parse_text("t.php", src), seed=2)
        assert applied
        assert types_of(src) == types_of(print_source(out)) == ("XSS",)

    def test_for_loop_rewritten(self):
        src = "<?php for ($i = 0; $i < 3; $i = $i + 1) { echo $i; } echo 'done';"
        out, applied = loop_to_recursion(parse_text("t.php", src), seed=1)
        assert applied
        parse_text("t.php", print_source(out))

    def test_loop_free_program_flagged_unchanged(self):
        ast = parse_text("t.php", "<?php echo 'static';")
        out, applied = loop_to_recursion(ast, seed=1)
        assert not applied
        assert print_source(out) == print_source(ast)

    def test_multi_variable_loop_skipped(self):
        src = "<?php $a = 0; $b = 0; while ($a < 3) { $a = $a + 1; $b = $b + 2; }"
        _, applied = loop_to_recursion(parse_text("t.php", src), seed=1)
        assert not applied

    def test_indexed_for_step_modifies_its_base_variable(self):
        src = "<?php for ($i = 0; $i < 2; $b[$i] = 1) { echo $_GET['x']; }"
        out, applied = loop_to_recursion(parse_text("t.php", src), seed=1)
        assert applied
        assert types_of(src) == types_of(print_source(out)) == ("XSS",)

    def test_indexed_write_counts_as_a_modified_variable(self):
        src = "<?php $i = 0; while ($i < 2) { $b[$i] = 1; $i = $i + 1; }"
        _, applied = loop_to_recursion(parse_text("t.php", src), seed=1)
        assert not applied


class TestSyntaxTransforms:
    def test_if_else_flip(self):
        src = "<?php if ($a) { echo 1; } else { echo 2; }"
        out, applied = transform_syntax_tree(parse_text("t.php", src), seed=0)
        assert applied
        text = print_source(out)
        if "!$a" in text:
            first = text.index("echo 2")
            second = text.index("echo 1")
            assert first < second

    def test_independent_swap_only(self):
        src = "<?php $a = 1; $b = 2;"
        swapped = False
        for seed in range(8):
            out, applied = transform_syntax_tree(parse_text("t.php", src), seed)
            text = print_source(out)
            if applied and text.index("$b = 2") < text.index("$a = 1"):
                swapped = True
        assert swapped

    def test_dependent_statements_never_swap(self):
        src = "<?php $a = 1; $b = $a;"
        for seed in range(10):
            out, _ = transform_syntax_tree(parse_text("t.php", src), seed)
            text = print_source(out)
            assert text.index("$a = 1") < text.index("$b = $a") \
                or "part_" in text  # concat split never applies here

    def test_concat_split_preserves_taint(self):
        src = "<?php $q = 'SELECT ' . $_POST['w'] . ' END'; mysql_query($q);"
        found_split = False
        for seed in range(10):
            out, applied = transform_syntax_tree(parse_text("t.php", src), seed)
            text = print_source(out)
            if applied and "part_" in text:
                found_split = True
                assert types_of(text) == ("Injection",)
        assert found_split

    def test_constant_guard_fallback(self):
        src = "<?php header('Location: ' . $_GET['n']);"
        out, applied = transform_syntax_tree(parse_text("t.php", src), seed=3)
        assert applied
        text = print_source(out)
        assert "if (1) {" in text
        assert types_of(text) == ("URF",)


class TestAugmentSample:
    def test_gates_enforced(self):
        src = "<?php $x = $_GET['q'];\necho $x;\n"
        result = augment_sample(origin(src), ("Rename", "SyntaxTransform"), 5)
        assert result is not None
        text, ops = result
        assert "SyntaxTransform" in ops
        assert types_of(text) == types_of(src)
        norm_src = tuple(linearize(augment_flows(
            normalize(parse_text("t.php", src))), flow_markers=False).tokens)
        norm_new = tuple(linearize(augment_flows(
            normalize(parse_text("t.php", text))), flow_markers=False).tokens)
        assert norm_src != norm_new

    def test_parses_origin_and_result_once(self, parse_count):
        src = "<?php $x = $_GET['q'];\necho $x;\n"
        for seed in range(3):
            parse_count.clear()
            assert augment_sample(origin(src), ("Rename", "SyntaxTransform"),
                                  seed) is not None
            assert parse_count == ["t.php", "t.php"]

    def test_lexicon_sink_survives_rename(self):
        lex = dataclasses.replace(
            DEFAULT_LEXICON,
            sinks={**DEFAULT_LEXICON.sinks, "run_job": "Command"})
        src = ('<?php function helper($x){return $x;} $c = $_GET["c"]; '
               '$d = "a" . $c; run_job(helper($d));')
        for seed in range(10):
            result = augment_sample(origin(src, lex), ("Rename", "SyntaxTransform"),
                                    seed)
            assert result is not None, seed
            text, ops = result
            assert "run_job(" in text and "run_job(helper(" not in text
            assert ops[0] == "Rename"

    def test_novelty_gate_sees_past_the_sequence_cap(self):
        # the chain's 512 capped tokens are the same before and after a
        # rewrite; the uncapped streams are not
        chain = origin("<?php $a = $_GET['x']" + " . 'y'" * 2999
                       + "; system($a);")
        assert chain.semantic.truncated
        plans = [("SyntaxTransform",), ("Rename", "SyntaxTransform"),
                 ("LoopToRecursion",), ("Rename", "LoopToRecursion"),
                 ("SyntaxTransform", "Rename")]
        assert any(augment_sample(chain, plan, seed) is not None
                   for plan in plans for seed in range(3))

    def test_rename_alone_is_rejected(self):
        # renaming cannot change the normalized stream, so no plan without
        # a structural op can pass the novelty gate
        src = "<?php $x = $_GET['q']; echo $x;"
        result = augment_sample(origin(src), ("Rename",), 5)
        assert result is None


class TestCorpusAugmentation:
    def test_ratio_arithmetic(self, manifest, tmp_path):
        positives = [e for e in manifest.entries if e.label == 1][:1]
        negatives = [e for e in manifest.entries if e.label == 0][:99]
        samples, reached = augment_corpus(positives + negatives, 0.2, seed=1,
                                          out_dir=tmp_path)
        assert reached
        assert len(samples) == 24

    def test_all_emitted_pass_oracle(self, manifest, tmp_path):
        samples, _ = augment_corpus(manifest.entries, 0.4, seed=3,
                                    out_dir=tmp_path)
        assert samples
        for sample in samples:
            origin_text = open(sample.origin).read()
            assert types_of(sample.text, sample.output_path) \
                == types_of(origin_text, sample.origin)
            assert sample.label == 1

    def test_normalized_novelty(self, manifest, tmp_path):
        samples, _ = augment_corpus(manifest.entries, 0.35, seed=4,
                                    out_dir=tmp_path)
        for sample in samples:
            origin_text = open(sample.origin).read()

            def stream(text, path):
                return tuple(linearize(augment_flows(
                    normalize(parse_text(path, text))),
                    flow_markers=False).tokens)

            assert stream(sample.text, sample.output_path) \
                != stream(origin_text, sample.origin)

    def test_parses_each_origin_once(self, manifest, tmp_path, monkeypatch):
        from vulnminer.frontend import parser

        parsed = []
        program = parser._Parser.program

        def counting(self):
            parsed.append((self.unit.path, self.unit.text))
            return program(self)

        monkeypatch.setattr(parser._Parser, "program", counting)
        positives = [e for e in manifest.entries if e.label == 1][:12]
        negatives = [e for e in manifest.entries if e.label == 0][:28]
        samples, _ = augment_corpus(positives + negatives, 0.6, seed=7,
                                    out_dir=tmp_path)
        origins = {s.origin for s in samples}
        assert len(samples) > len(origins)  # some origin gave several samples
        for path in origins:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            assert parsed.count((path, text)) == 1, path

    def test_seeded_reruns_byte_identical(self, manifest, tmp_path):
        a, _ = augment_corpus(manifest.entries, 0.35, seed=9,
                              out_dir=tmp_path / "a")
        b, _ = augment_corpus(manifest.entries, 0.35, seed=9,
                              out_dir=tmp_path / "b")
        assert [s.text for s in a] == [s.text for s in b]
        assert [s.ops for s in a] == [s.ops for s in b]

    def test_manifest_records(self, manifest, tmp_path):
        import json

        samples, _ = augment_corpus(manifest.entries[:40], 0.4, seed=2,
                                    out_dir=tmp_path)
        out = tmp_path / "aug.jsonl"
        save_augment_manifest(samples, out)
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == len(samples)
        assert all({"origin", "ops", "output", "label", "vuln_type"}
                   <= set(row) for row in rows)

    def test_bad_ratio_rejected(self, manifest, tmp_path):
        with pytest.raises(VulnMinerError):
            augment_corpus(manifest.entries, 1.2, seed=0, out_dir=tmp_path)
