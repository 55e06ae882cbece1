import dataclasses
import json
import shlex
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

import vulnminer.localize.engine as engine_mod
import vulnminer.localize.scoring as scoring_mod
from vulnminer.analysis import FileAnalysis
from vulnminer.cascade import fuse_scores
from vulnminer.errors import NoFindingError
from vulnminer.frontend.nodes import NodeKind
from vulnminer.linearize import embed_sequence
from vulnminer.localize import (
    ANALYSIS_PROMPT,
    DeterministicBackend,
    RefusalBackend,
    RemoteBackend,
    analyze_failures,
    build_ir,
    default_templates,
    edit_distance,
    extract_constraints,
    generate_candidates,
    localize,
    refine_context,
    score_candidate,
    select_best,
    verify,
)
from vulnminer.localize.backends import _concat_leaves
from vulnminer.localize.constraints import CandidateContext, evaluate_constraint
from vulnminer.localize.rewrite import FillPlan, SourceWrap
from vulnminer.localize.scoring import check_constraints, score_candidates
from vulnminer.nn import gru_scores
from vulnminer.source import SourceUnit
from vulnminer.stage1 import score_structural
from vulnminer.stage2 import verify_semantic

TEMPLATES = default_templates()
BACKEND = DeterministicBackend()

FN_SQL = """<?php
function run_query($sql) {
    $res = mysql_query($sql);
    return $res;
}
$name = $_POST['name'];
$q = "SELECT * FROM accounts WHERE owner='" . $name . "'";
$rows = run_query($q);
"""


# -- IR ----------------------------------------------------------------------

def test_build_ir_command_case(command_injection_unit):
    ir = build_ir(FileAnalysis(command_injection_unit))
    assert ir.finding.sink_name == "system"
    assert command_injection_unit.position(ir.finding.sink_start)[0] == 3
    assert ir.window_owner is None  # top-level sink: window is the whole file


def test_build_ir_sql_case(sql_auth_unit):
    ir = build_ir(FileAnalysis(sql_auth_unit))
    assert ir.finding.sink_name == "mysql_query"
    assert ir.finding.sink_class == "Sql"


def test_build_ir_picks_highest_severity():
    unit = SourceUnit.from_text("multi.php", """<?php
echo $_GET['x'];
system($_GET['c']);
""")
    ir = build_ir(FileAnalysis(unit))
    assert ir.finding.sink_class == "Command"


def test_build_ir_no_finding(clean_unit):
    with pytest.raises(NoFindingError):
        build_ir(FileAnalysis(clean_unit))


def test_refine_widens_then_saturates():
    ir = build_ir(FileAnalysis(SourceUnit.from_text("fn.php", FN_SQL)))
    assert ir.window_owner is not None
    narrow = ir.facts.window_ids
    widened = refine_context(ir, [{"kind": "x"}])
    assert widened.window_owner is None
    assert widened.facts.window_ids > narrow  # not the narrow IR's facts
    facts = widened.facts
    again = refine_context(widened, [{"kind": "y"}])
    assert again is widened and again.facts is facts  # no copy, no recompute
    assert len(again.feedback) == 2


def test_refine_requires_feedback():
    ir = build_ir(FileAnalysis(SourceUnit.from_text("fn.php", FN_SQL)))
    with pytest.raises(ValueError):
        refine_context(ir, [])


# -- constraints ----------------------------------------------------------------

def test_constraints_by_sink_class(command_injection_unit, sql_auth_unit):
    command = extract_constraints(build_ir(FileAnalysis(command_injection_unit)))
    assert [c.kind for c in command.constraints] == ["SanitizeBeforeUse"]
    assert set(command.constraints[0].sanitizers) == {
        "escapeshellcmd", "escapeshellarg", "sanitize_path",
        "sanitize_filename"}

    sql = extract_constraints(build_ir(FileAnalysis(sql_auth_unit)))
    assert [c.kind for c in sql.constraints] == ["ParameterizedSql"]

    include_ir = build_ir(FileAnalysis(SourceUnit.from_text(
        "i.php", "<?php include $_GET['p'];")))
    inc = extract_constraints(include_ir)
    assert sorted(c.kind for c in inc.constraints) \
        == ["BoundedOperation", "SanitizeBeforeUse"]


def _copy(candidate):
    from vulnminer.localize.scoring import Candidate

    return Candidate(candidate_id=candidate.candidate_id,
                     template_id=candidate.template_id,
                     variant=candidate.variant, text=candidate.text,
                     backend=candidate.backend)


def test_soft_preference_recorded(bundle, command_injection_unit):
    # select_best breaks utility ties by edit distance; scoring records it
    # for the candidates that tie, the only ones where select_best reads it
    ir = build_ir(FileAnalysis(command_injection_unit))
    constraints = extract_constraints(ir)
    candidates = generate_candidates(ir, constraints, TEMPLATES, BACKEND)
    primary = next(c for c in candidates if c.variant == "primary")
    twin = _copy(primary)
    score_candidates([primary, twin], ir, bundle)
    assert primary.utility == twin.utility
    for tied in (primary, twin):
        assert tied.edit_distance == pytest.approx(
            edit_distance(command_injection_unit.text, primary.text))
        assert 0.0 < tied.edit_distance < 1.0
    alone = score_candidate(_copy(primary), ir, bundle, constraints)
    assert alone.edit_distance == 1.0  # untied: never read, never computed


def test_wrong_class_sanitizer_fails_constraint(command_injection_unit):
    ir = build_ir(FileAnalysis(command_injection_unit))
    constraints = extract_constraints(ir)
    bad = ("<?php\n$cmd = 'tar -czf ' . htmlspecialchars($_GET['file']) "
           ". '.tar.gz ' . htmlspecialchars($_GET['path']);\nsystem($cmd);\n")
    ctx = CandidateContext.build(
        FileAnalysis(SourceUnit.from_text("bad.candidate", bad)), ir,
        query_built=False)
    assert evaluate_constraint(constraints.constraints[0], ctx) is False


def test_non_parsing_candidate_fails_all(command_injection_unit):
    ir = build_ir(FileAnalysis(command_injection_unit))
    constraints = extract_constraints(ir)
    ctx = CandidateContext.build(
        FileAnalysis(SourceUnit.from_text("broken.candidate", "<?php if (")),
        ir, query_built=False)
    assert evaluate_constraint(constraints.constraints[0], ctx) is False


def test_include_bound_needs_a_literal_or_accepted_head():
    ir = build_ir(FileAnalysis(SourceUnit.from_text(
        "i.php", "<?php include $_GET['p'];")))
    bounded = extract_constraints(ir).by_id("bounded-include")

    def holds(text):
        ctx = CandidateContext.build(
            FileAnalysis(SourceUnit.from_text("i.candidate", text)), ir,
            query_built=False)
        return evaluate_constraint(bounded, ctx)

    # sanitized, but the target starts with a variable: unbounded
    assert holds("<?php $p = basename($_GET['p']);\ninclude $p . '.php';\n") \
        is False
    assert holds("<?php include basename($_GET['p']);\n") is True
    assert holds("<?php include './' . basename($_GET['p']);\n") is True


# -- templates -------------------------------------------------------------------

def test_template_library_covers_all_sink_classes():
    classes = set()
    for template in TEMPLATES:
        classes.update(template.sink_classes)
    assert classes == {"Command", "Sql", "Output", "Include", "Redirect"}
    assert len(TEMPLATES) == 5


# one small flagged file per sink class
_SINK_CLASS_FILES = {
    "Command": "<?php\nsystem('ls ' . $_GET['dir']);\n",
    "Sql": ("<?php\n$id = $_GET['id'];\n"
            "mysql_query(\"SELECT * FROM t WHERE id='\" . $id . \"'\");\n"),
    "Output": "<?php\necho $_GET['name'];\n",
    "Include": "<?php\ninclude $_GET['page'];\n",
    "Redirect": "<?php\nheader('Location: ' . $_GET['next']);\n",
}


def test_every_default_template_yields_a_plan():
    for template in TEMPLATES:
        (sink_class,) = template.sink_classes
        unit = SourceUnit.from_text(f"{template.template_id}.php",
                                    _SINK_CLASS_FILES[sink_class])
        ir = build_ir(FileAnalysis(unit))
        assert ir.finding.sink_class == sink_class
        plans = BACKEND.fill(template, ir, extract_constraints(ir))
        assert plans, template.template_id


# -- generation --------------------------------------------------------------------

def test_command_candidates_match_remediation_shape(command_injection_unit):
    ir = build_ir(FileAnalysis(command_injection_unit))
    constraints = extract_constraints(ir)
    candidates = generate_candidates(ir, constraints, TEMPLATES, BACKEND)
    assert len(candidates) == 2
    primary = next(c for c in candidates if c.variant == "primary")
    assert "sanitize_filename($_GET['file'])" in primary.text
    assert "sanitize_path($_GET['path'])" in primary.text
    assert "escapeshellcmd(" in primary.text
    assert "system(" in primary.text
    assert primary.parse_ok


def test_command_plan_hoists_each_read_into_its_own_variable():
    unit = SourceUnit.from_text(
        "two.php",
        "<?php $k = 'a'; system('ls ' . $_GET[$k] . ' ' . $_GET[0]);")
    ir = build_ir(FileAnalysis(unit))
    candidates = generate_candidates(ir, extract_constraints(ir), TEMPLATES,
                                     BACKEND)
    primary = next(c for c in candidates if c.variant == "primary")
    assert "$input = escapeshellarg($_GET[$k]);" in primary.text
    assert "$input_safe = escapeshellarg($_GET[0]);" in primary.text
    assert "'ls ' . $input . ' ' . $input_safe" in primary.text


def test_command_plan_wraps_a_read_in_an_if_body_in_place():
    source = "<?php\nif ($n < 1) {\n    system(\"ls \" . $_GET['dir']);\n}\n"
    ir = build_ir(FileAnalysis(SourceUnit.from_text("if.php", source)))
    candidates = generate_candidates(ir, extract_constraints(ir), TEMPLATES,
                                     BACKEND)
    primary = next(c for c in candidates if c.variant == "primary")
    assert primary.text == ("<?php\nif ($n < 1) {\n    system(escapeshellcmd("
                            "'ls ' . sanitize_path($_GET['dir'])));\n}\n")


# The flow is $_GET -> $v -> system; h() reads $_GET off that flow.
_READ_OFF_THE_FLOW = """<?php
foreach ($_GET as $v) {
    function h() {
        $y = $_GET['b'];
        return $y;
    }
    system($v);
}
"""


def test_command_plan_guards_only_reads_on_the_flow(bundle):
    unit = SourceUnit.from_text("off.php", _READ_OFF_THE_FLOW)
    ir = build_ir(FileAnalysis(unit))
    assert ir.facts.read_groups == []
    report = localize(unit, bundle, TEMPLATES, BACKEND)
    assert report.status == "ok"
    assert "        $y = $_GET['b'];\n        return $y;\n" \
        in report.candidate_text
    assert "escapeshellarg($_GET['b'])" not in report.candidate_text


def test_sql_candidate_uses_placeholder_binding(sql_auth_unit):
    ir = build_ir(FileAnalysis(sql_auth_unit))
    constraints = extract_constraints(ir)
    candidates = generate_candidates(ir, constraints, TEMPLATES, BACKEND)
    primary = next(c for c in candidates if c.variant == "primary")
    assert "db_prepare(" in primary.text
    assert "?" in primary.text
    assert "db_bind(" in primary.text
    assert "db_execute(" in primary.text


_BRANCHES = """<?php
$name = 'guest';
if ($mode) {
    foreach ($list as $k => $v) {
        echo $k;
    }
} else {
    while ($n < 3) {
        $name = $_GET['name'];
        $n = $n + 1;
    }
}
echo 'Hello ' . $name;
"""

_LOOPS = """<?php
function run($cmd, $times) {
    for ($i = 0; $i < $times; $i = $i + 1) {
        $cmd = $cmd . ' -v';
    }
    foreach ($times as $t) {
        echo $t;
    }
    system($cmd);
}
run($_GET['c'], 2);
"""

_NESTED_QUERY = """<?php
foreach ($rows as $row) {
    if ($row) {
        $id = $_POST['id'];
        $q = "SELECT * FROM t WHERE id='" . $id . "'";
        mysql_query($q);
    }
}
"""

# (source, candidate texts in the finding's window, texts in the whole-file
# window when they differ), as the deterministic backend writes them.
_COMPOUND_CASES = [
    (_BRANCHES, [
        _BRANCHES.replace("$_GET['name']", "htmlspecialchars($_GET['name'])"),
        _BRANCHES.replace("$_GET['name']", "addslashes($_GET['name'])"),
    ], None),
    (_LOOPS, [
        """<?php
function run($cmd, $times) {
    for ($i = 0; $i < $times; $i = $i + 1) {
        $cmd = escapeshellcmd($cmd . ' -v');
    }
    foreach ($times as $t) {
        echo $t;
    }
    system($cmd);
}
run($_GET['c'], 2);
""",
        """<?php
function run($cmd, $times) {
    for ($i = 0; $i < $times; $i = $i + 1) {
        $cmd = $cmd . ' -v';
    }
    foreach ($times as $t) {
        echo $t;
    }
    system(htmlspecialchars($cmd));
}
run($_GET['c'], 2);
""",
    ], [
        """<?php
function run($cmd, $times) {
    for ($i = 0; $i < $times; $i = $i + 1) {
        $cmd = escapeshellcmd($cmd . ' -v');
    }
    foreach ($times as $t) {
        echo $t;
    }
    system($cmd);
}
$c = escapeshellarg($_GET['c']);
run($c, 2);
""",
        """<?php
function run($cmd, $times) {
    for ($i = 0; $i < $times; $i = $i + 1) {
        $cmd = $cmd . ' -v';
    }
    foreach ($times as $t) {
        echo $t;
    }
    system($cmd);
}
run(htmlspecialchars($_GET['c']), 2);
""",
    ]),
    (_NESTED_QUERY, [
        """<?php
foreach ($rows as $row) {
    if ($row) {
        $id = $_POST['id'];
        $stmt = db_prepare('SELECT * FROM t WHERE id=?');
        db_bind($stmt, $id);
        db_execute($stmt);
    }
}
""",
        """<?php
foreach ($rows as $row) {
    if ($row) {
        $id = htmlspecialchars($_POST['id']);
        $q = 'SELECT * FROM t WHERE id=\\'' . $id . '\\'';
        mysql_query($q);
    }
}
""",
    ], None),
]


@pytest.mark.parametrize("source,in_window,in_file", _COMPOUND_CASES,
                         ids=["if-else-while-foreach-key", "function-for-foreach",
                              "foreach-if-prepared"])
def test_rewrites_inside_compound_statements(source, in_window, in_file):
    ir = build_ir(FileAnalysis(SourceUnit.from_text("c.php", source)))
    for window_ir, expected in (
            (ir, in_window),
            (refine_context(ir, [{"kind": "test", "detail": "widen"}]),
             in_file or in_window)):
        candidates = generate_candidates(window_ir, extract_constraints(window_ir),
                                         TEMPLATES, BACKEND)
        assert [c.failure for c in candidates] == [None] * len(expected)
        assert [c.text for c in candidates] == expected


def test_refusal_backend_yields_no_candidates(command_injection_unit):
    ir = build_ir(FileAnalysis(command_injection_unit))
    constraints = extract_constraints(ir)
    assert generate_candidates(ir, constraints, TEMPLATES, RefusalBackend()) == []


def test_narrow_window_refuses_sql_rewrite():
    ir = build_ir(FileAnalysis(SourceUnit.from_text("fn.php", FN_SQL)))
    constraints = extract_constraints(ir)
    assert ir.window_owner is not None
    candidates = generate_candidates(ir, constraints, TEMPLATES, BACKEND)
    assert candidates == []


# -- scoring and selection -----------------------------------------------------------

def test_edit_distance_bounds():
    assert edit_distance("abc", "abc") == 0.0
    assert 0.0 < edit_distance("abc", "abd") < 1.0
    assert edit_distance("", "xyz") == 1.0


def test_score_candidate_dual_scores(bundle, command_injection_unit):
    ir = build_ir(FileAnalysis(command_injection_unit))
    constraints = extract_constraints(ir)
    candidates = generate_candidates(ir, constraints, TEMPLATES, BACKEND)
    primary = next(c for c in candidates if c.variant == "primary")
    score_candidate(primary, ir, bundle, constraints, alpha=0.6)
    assert 0.0 <= primary.s_sec <= 1.0
    assert 0.0 <= primary.s_sem <= 1.0
    assert primary.utility == pytest.approx(
        0.6 * primary.s_sec + 0.4 * primary.s_sem)
    assert primary.s_sec > 0.5  # frozen cascade sees the guard stack
    assert primary.constraint_results["sanitize-command"] is True


def test_alpha_one_means_security_only(bundle, command_injection_unit):
    ir = build_ir(FileAnalysis(command_injection_unit))
    constraints = extract_constraints(ir)
    candidates = generate_candidates(ir, constraints, TEMPLATES, BACKEND)
    primary = candidates[0]
    score_candidate(primary, ir, bundle, constraints, alpha=1.0)
    assert primary.utility == pytest.approx(primary.s_sec)


def test_identical_candidate_has_semantic_one(bundle, command_injection_unit):
    from vulnminer.localize.scoring import Candidate

    ir = build_ir(FileAnalysis(command_injection_unit))
    constraints = extract_constraints(ir)
    clone = Candidate(candidate_id="id:0", template_id="validation_wrapper",
                      variant="primary", text=command_injection_unit.text,
                      backend="test")
    score_candidate(clone, ir, bundle, constraints)
    assert clone.s_sem == pytest.approx(1.0)
    assert clone.s_sec < 0.5  # still vulnerable under the frozen cascade


def test_score_candidate_holds_built_sql_to_a_static_query(bundle, sql_auth_unit):
    from vulnminer.localize.scoring import Candidate

    ir = build_ir(FileAnalysis(sql_auth_unit))
    assert ir.facts.query_built
    constraints = extract_constraints(ir)
    coerced = ("<?php\n$query = \"SELECT * FROM users WHERE username='\" . "
               "intval($_POST['user']) . \"' AND password='\" . "
               "intval($_POST['pass']) . \"'\";\n$result = mysql_query($query);\n")
    candidate = Candidate(candidate_id="coerced", template_id="test",
                          variant="primary", text=coerced, backend="test")
    score_candidate(candidate, ir, bundle, constraints)
    assert not any(not f.sanitized for f in candidate.analyze(ir).findings)
    assert candidate.constraint_results["parameterized-sql"] is False


def test_utility_tie_is_broken_by_edit_distance(bundle,
                                                command_injection_unit):
    ir = build_ir(FileAnalysis(command_injection_unit))
    constraints = extract_constraints(ir)
    candidates = generate_candidates(ir, constraints, TEMPLATES, BACKEND)
    primary = next(c for c in candidates if c.variant == "primary")
    # a comment changes the text but not one token, so the utilities tie;
    # the farther candidate's template id sorts first
    near, far = _copy(primary), _copy(primary)
    near.template_id, far.template_id = "b", "a"
    far.text = primary.text.replace(
        "<?php\n", "<?php\n// " + "padding " * 20 + "\n", 1)
    other = next(c for c in candidates if c.variant != "primary"
                 and c.parse_ok)
    score_candidates([far, near, other], ir, bundle)
    assert far.utility == near.utility != other.utility
    assert near.edit_distance == edit_distance(ir.unit.text, near.text)
    assert far.edit_distance == edit_distance(ir.unit.text, far.text)
    assert near.edit_distance < far.edit_distance
    assert other.edit_distance == 1.0
    assert select_best([far, near]) is near


def test_round_batch_scores_each_candidate_as_alone(bundle, corpus_units,
                                                   monkeypatch):
    # every round localized on the flagged files of the standard corpus;
    # each round's parsed candidates are scored here as one batch
    from vulnminer.cascade import run_pipeline
    from vulnminer.localize import engine

    rounds = []
    generate = engine.generate_candidates

    def recording(ir, constraints, templates, backend):
        candidates = generate(ir, constraints, templates, backend)
        rounds.append(([c for c in candidates if c.parse_ok], ir,
                       constraints))
        return candidates

    monkeypatch.setattr(engine, "generate_candidates", recording)
    verdicts, _ = run_pipeline(corpus_units, bundle)
    by_path = {unit.path: unit for unit in corpus_units}
    flagged = [v.file_id for v in verdicts if v.vulnerable]
    for path in flagged:
        localize(by_path[path], bundle, TEMPLATES, BACKEND)
    assert len(rounds) > 10
    assert max(len(parsed) for parsed, *_ in rounds) > 1
    alpha = engine.DEFAULT_ALPHA
    for parsed, ir, constraints in rounds:
        for candidate in score_candidates(parsed, ir, bundle, alpha):
            alone = score_candidate(_copy(candidate), ir, bundle,
                                    constraints, alpha)
            assert (alone.s_sec, alone.s_sem, alone.utility,
                    alone.constraint_results) == (
                candidate.s_sec, candidate.s_sem, candidate.utility,
                candidate.constraint_results)


def _scored_rounds(bundle, monkeypatch, unit, **kwargs):
    """Localize ``unit``; return its report, each round's parsed
    candidates with the candidates scored in that round, and the analyses
    stage two verified."""
    rounds, verified = [], []
    generate, batch = engine_mod.generate_candidates, engine_mod.score_candidates
    verify = scoring_mod.verify_semantic

    def generating(*args):
        candidates = generate(*args)
        rounds.append(([c for c in candidates if c.parse_ok], []))
        return candidates

    def scoring(candidates, ir, bundle, alpha):
        rounds[-1][1].extend(candidates)
        return batch(candidates, ir, bundle, alpha)

    def verifying(analysis, bundle, **kwargs):
        verified.append(analysis)
        return verify(analysis, bundle, **kwargs)

    monkeypatch.setattr(engine_mod, "generate_candidates", generating)
    monkeypatch.setattr(engine_mod, "score_candidates", scoring)
    monkeypatch.setattr(scoring_mod, "verify_semantic", verifying)
    report = localize(unit, bundle, TEMPLATES, BACKEND, **kwargs)
    monkeypatch.undo()
    return report, rounds, verified


@pytest.mark.parametrize("unit_name", ["command_injection_unit",
                                       "sql_auth_unit"])
def test_round_scores_only_hard_constraint_survivors(bundle, monkeypatch,
                                                     request, unit_name):
    unit = request.getfixturevalue(unit_name)
    report, rounds, verified = _scored_rounds(bundle, monkeypatch, unit)
    assert report.succeeded
    for parsed, scored in rounds:
        assert all(c.constraint_results for c in parsed)
        assert scored == [c for c in parsed
                          if all(c.constraint_results.values())]
    rejected = [c for parsed, scored in rounds for c in parsed
                if c not in scored]
    assert [c.variant for c in rejected] == ["generic"]
    assert not any(a is rejected[0].analysis for a in verified)

    # the report equals the one got by scoring every parsed candidate
    check = engine_mod.check_constraints

    def check_and_score_all(candidates, ir, constraints):
        check(candidates, ir, constraints)
        return score_candidates(candidates, ir, bundle,
                                alpha=engine_mod.DEFAULT_ALPHA)

    monkeypatch.setattr(engine_mod, "check_constraints", check_and_score_all)
    every = localize(unit, bundle, TEMPLATES, BACKEND)
    assert report.to_dict() == every.to_dict()


def test_unenforced_constraints_score_every_parsed_candidate(
        bundle, command_injection_unit, monkeypatch):
    _, rounds, verified = _scored_rounds(bundle, monkeypatch,
                                         command_injection_unit,
                                         enforce_constraints=False)
    for parsed, scored in rounds:
        assert len(parsed) > 1 and scored == parsed
    assert len(verified) == sum(len(parsed) for parsed, _ in rounds)


def _count_calls(monkeypatch, fn):
    """Each call of ``fn`` made through any vulnminer module that binds it."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("vulnminer") \
                and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counting)
    return calls


def _localize_fixtures(bundle, monkeypatch, *units):
    """Localize each unit; return every round's scored candidates and the
    stage-one, GRU and embedding calls made meanwhile."""
    rounds = []
    batch = engine_mod.score_candidates

    def recording(candidates, ir, bundle, alpha):
        rounds.append(list(candidates))
        return batch(candidates, ir, bundle, alpha)

    monkeypatch.setattr(engine_mod, "score_candidates", recording)
    stage_one = _count_calls(monkeypatch, scoring_mod.stage_one_scores)
    gru = _count_calls(monkeypatch, gru_scores)
    embeds = _count_calls(monkeypatch, embed_sequence)
    for unit in units:
        assert localize(unit, bundle, TEMPLATES, BACKEND).succeeded
    monkeypatch.undo()
    assert rounds
    return rounds, stage_one, gru, embeds


def test_lambda_zero_scores_candidates_without_stage_one(
        bundle, command_injection_unit, sql_auth_unit, monkeypatch):
    assert bundle.fusion.lam == 0.0
    rounds, stage_one, gru, embeds = _localize_fixtures(
        bundle, monkeypatch, command_injection_unit, sql_auth_unit)
    assert stage_one == [] and gru == []
    scored = [c for candidates in rounds for c in candidates]
    assert len(embeds) == len(scored) + len(rounds)
    for c in scored:
        assert "structural" not in vars(c.analysis)
        assert c.s_sec == 1.0 - verify_semantic(c.analysis, bundle)


def test_positive_lambda_runs_stage_one_once_per_round(
        bundle, command_injection_unit, sql_auth_unit, monkeypatch):
    half = dataclasses.replace(
        bundle, fusion=dataclasses.replace(bundle.fusion, lam=0.5))
    rounds, stage_one, gru, embeds = _localize_fixtures(
        half, monkeypatch, command_injection_unit, sql_auth_unit)
    assert [len(seqs) for seqs, _ in stage_one] == [len(c) for c in rounds]
    assert len(gru) == len(rounds)
    scored = [c for candidates in rounds for c in candidates]
    assert len(embeds) == len(scored) + len(rounds)
    for c in scored:
        s1 = score_structural(c.analysis, half).score
        s2 = verify_semantic(c.analysis, half)
        assert c.s_sec == 1.0 - fuse_scores(s1, s2, 0.5)


def test_select_best_ranks_utility_then_edit_distance_then_template():
    from vulnminer.localize.scoring import Candidate

    def cand(name, utility, edit):
        c = Candidate(candidate_id=name, template_id=name, variant="primary",
                      text="<?php\n", backend="test")
        c.utility, c.edit_distance = utility, edit
        return c

    assert select_best([cand("a", 0.6, 0.5), cand("b", 0.7, 0.3),
                        cand("c", 0.7, 0.1)]).candidate_id == "c"
    assert select_best([cand("b", 0.7, 0.1),
                        cand("a", 0.7, 0.1)]).candidate_id == "a"
    assert select_best([]) is None


# -- verification -----------------------------------------------------------------

def _scored_best(unit, bundle):
    ir = build_ir(FileAnalysis(unit))
    constraints = extract_constraints(ir)
    candidates = generate_candidates(ir, constraints, TEMPLATES, BACKEND)
    parsed = check_constraints([c for c in candidates if c.parse_ok], ir,
                               constraints)
    survivors = [c for c in parsed if all(c.constraint_results.values())]
    return ir, constraints, select_best(score_candidates(survivors, ir,
                                                         bundle))


def test_verify_passes_remediated_candidate(bundle, command_injection_unit):
    ir, constraints, best = _scored_best(command_injection_unit, bundle)
    ok, reasons = verify(best, ir, constraints)
    assert ok, reasons


def test_verify_rejects_wrong_class_sanitizer(bundle, command_injection_unit):
    from vulnminer.localize.scoring import Candidate

    ir = build_ir(FileAnalysis(command_injection_unit))
    constraints = extract_constraints(ir)
    bad = Candidate(
        candidate_id="x", template_id="validation_wrapper", variant="generic",
        text=("<?php\n$cmd = htmlspecialchars($_GET['file']) . "
              "htmlspecialchars($_GET['path']);\nsystem($cmd);\n"),
        backend="test")
    score_candidate(bad, ir, bundle, constraints)
    ok, reasons = verify(bad, ir, constraints)
    assert not ok
    assert any("taint" in r for r in reasons)


def test_verify_rejects_broken_candidate(bundle, command_injection_unit):
    from vulnminer.localize.scoring import Candidate

    ir = build_ir(FileAnalysis(command_injection_unit))
    constraints = extract_constraints(ir)
    broken = Candidate(candidate_id="x", template_id="t", variant="primary",
                       text="<?php if (", backend="test")
    ok, reasons = verify(broken, ir, constraints)
    assert not ok and reasons[0].startswith("compile")


def test_verify_hook_success_failure_timeout(bundle, command_injection_unit,
                                             tmp_path):
    ir, constraints, best = _scored_best(command_injection_unit, bundle)
    ok, _ = verify(best, ir, constraints, hook="true")
    assert ok
    ok, reasons = verify(best, ir, constraints, hook="false")
    assert not ok and any("hook" in r for r in reasons)
    slow = tmp_path / "slow.sh"
    slow.write_text("#!/bin/sh\nsleep 30\n")
    slow.chmod(0o755)
    ok, reasons = verify(best, ir, constraints, hook=str(slow),
                         hook_timeout=0.3)
    assert not ok and any("timeout" in r for r in reasons)


def test_verify_hook_path_with_a_space(bundle, command_injection_unit,
                                       tmp_path):
    # The hook command is split with shell-style quoting, so a quoted
    # path may hold a space; the candidate's temp path is appended.
    folder = tmp_path / "hook dir"
    folder.mkdir()
    hook = folder / "check.sh"
    hook.write_text('#!/bin/sh\ncp "$1" "$(dirname "$0")/seen.php"\n')
    hook.chmod(0o755)
    report = localize(command_injection_unit, bundle, default_templates(),
                      DeterministicBackend(), hook=shlex.quote(str(hook)))
    assert report.status == "ok"
    assert (folder / "seen.php").read_text() == report.candidate_text


# -- failure analysis ----------------------------------------------------------------

def test_analyze_failures_empty_candidates():
    from vulnminer.localize.constraints import ConstraintSet

    feedback = analyze_failures([], ConstraintSet([]))
    assert feedback[0]["kind"] == "no_applicable_template"


def test_analyze_failures_names_constraints(bundle, sql_auth_unit):
    ir = build_ir(FileAnalysis(sql_auth_unit))
    constraints = extract_constraints(ir)
    candidates = generate_candidates(ir, constraints, TEMPLATES, BACKEND)
    for c in candidates:
        if c.parse_ok:
            score_candidate(c, ir, bundle, constraints)
    generic = [c for c in candidates if c.variant == "generic"]
    feedback = analyze_failures(generic, constraints)
    assert any(f.get("constraint") == "parameterized-sql" for f in feedback)


class _PlanBackend:
    """One plan per maker, made from the IR, for every template."""

    name = "stub"

    def __init__(self, *makers):
        self.makers = makers

    def fill(self, template, ir, constraints):
        return [make(template, ir) for make in self.makers]


def _hoist_before_a_missing_statement(template, ir):
    _, ids, _ = ir.facts.read_groups[0]
    return FillPlan(template.template_id, "primary", source_wraps=[
        SourceWrap(ids, "escapeshellarg", hoist_var="dir",
                   hoist_before=10 ** 9)])


def _wrap_with_an_invalid_name(template, ir):
    _, ids, _ = ir.facts.read_groups[0]
    return FillPlan(template.template_id, "generic",
                    source_wraps=[SourceWrap(ids, "1bad")])


def test_failed_plans_are_recorded_and_fed_back(bundle):
    unit = SourceUnit.from_text("cmd.php", _SINK_CLASS_FILES["Command"])
    ir = build_ir(FileAnalysis(unit))
    constraints = extract_constraints(ir)
    backend = _PlanBackend(_hoist_before_a_missing_statement,
                           _wrap_with_an_invalid_name)
    candidates = generate_candidates(ir, constraints, TEMPLATES, backend)
    assert [c.candidate_id for c in candidates] == [
        "validation_wrapper:0", "validation_wrapper:1"]
    missing, invalid = candidates
    assert missing.failure.startswith("rewrite failed: ")
    assert missing.text == ""
    assert invalid.failure.startswith("candidate does not parse: ")
    assert "1bad($_GET['dir'])" in invalid.text
    feedback = analyze_failures(candidates, constraints)
    assert feedback == [
        {"kind": "parse_failure", "candidate": c.candidate_id,
         "detail": c.failure[:200]} for c in candidates]

    report = localize(unit, bundle, TEMPLATES, backend)
    assert report.status == "fail" and report.iterations == 2
    assert [f["kind"] for f in report.feedback] == ["parse_failure"] * 4


# -- the full loop ----------------------------------------------------------------------

def test_localize_command_case(bundle, command_injection_unit):
    report = localize(command_injection_unit, bundle, TEMPLATES, BACKEND)
    assert report.succeeded
    assert report.iterations == 1
    assert report.vuln_type == "Injection"
    assert 3 in report.lines  # the system() call line
    doc = report.to_dict()
    assert set(doc) == {"vulnerability type", "cause analysis",
                        "involved line numbers", "artifact"}


def test_localize_uses_refinement_for_wrapped_sql(bundle):
    unit = SourceUnit.from_text("fn.php", FN_SQL)
    report = localize(unit, bundle, TEMPLATES, BACKEND)
    assert report.succeeded
    assert report.iterations == 2
    single = localize(unit, bundle, TEMPLATES, BACKEND, max_iterations=1)
    assert not single.succeeded and single.status == "fail"


_HELPER = """<?php
function run($q) {
    return mysql_query($q);
}
"""


def test_localize_calls_the_prepared_query_at_the_helper_call_site(bundle):
    # built at top level, run inside a helper: the first window (the
    # helper) cannot see the build, the whole-file window replaces the
    # helper call that the built query reaches, never an earlier one
    for earlier in ("", "run('SELECT 1');\n"):
        source = (_HELPER + earlier + "$q = \"SELECT * FROM t WHERE id='\" . "
                  "$_GET['id'] . \"'\";\nrun($q);\n")
        report = localize(SourceUnit.from_text("helper.php", source), bundle,
                          TEMPLATES, BACKEND)
        assert report.status == "ok" and report.iterations == 2
        assert report.template_id == "prepared_statement"
        assert [f["kind"] for f in report.feedback] \
            == ["no_applicable_template"]
        assert report.candidate_text == _HELPER + earlier + (
            "$stmt = db_prepare('SELECT * FROM t WHERE id=?');\n"
            "db_bind($stmt, $_GET['id']);\ndb_execute($stmt);\n")


def test_query_read_after_its_execute_gets_no_prepared_plan(bundle):
    # replacing the build would leave `echo $q` reading a variable that
    # nothing assigns, so the template refuses in both rounds
    source = """<?php
$q = "SELECT * FROM t WHERE id='" . $_GET["id"] . "'";
mysql_query($q);
echo $q;
"""
    report = localize(SourceUnit.from_text("two_uses.php", source), bundle,
                      TEMPLATES, BACKEND)
    assert report.status == "fail" and report.candidate_text is None
    assert [f["kind"] for f in report.feedback] \
        == ["no_applicable_template"] * 2


def _calls_on_arrays(text):
    """Names of the calls handed a whole superglobal, or a variable that
    the text assigns one (directly or through another such variable)."""
    tree = FileAnalysis(SourceUnit.from_text("c.php", text)).ast

    def array(node):
        return (node.kind is NodeKind.SUPERGLOBAL
                or node.kind is NodeKind.VAR and node.attrs["name"] in arrays)

    arrays = set()
    for node in tree.walk():
        if node.kind is NodeKind.ASSIGN and array(node.children[1]):
            arrays.add(node.children[0].attrs["name"])
    return sorted(n.attrs["name"] for n in tree.walk()
                  if n.kind is NodeKind.CALL and any(map(array, n.children)))


@pytest.mark.parametrize("source, fixed", [
    ("<?php\nforeach ($_GET as $v) {\n    system($v);\n}\n",
     "<?php\nforeach ($_GET as $v) {\n    system(escapeshellcmd($v));\n}\n"),
    ("<?php\nforeach ($_GET as $v) {\n    echo $v;\n}\n",
     "<?php\nforeach ($_GET as $v) {\n    echo htmlspecialchars($v);\n}\n"),
    ("<?php\necho implode(',', $_GET);\n",
     "<?php\necho htmlspecialchars(implode(',', $_GET));\n"),
    ("<?php\nsystem(implode(' ', $_GET));\n",
     "<?php\nsystem(escapeshellcmd(implode(' ', $_GET)));\n"),
    ("<?php\n$x = $_GET;\necho implode(',', $x);\n",
     "<?php\n$x = $_GET;\necho htmlspecialchars(implode(',', $x));\n"),
    ("<?php\n$x = $_GET;\n$y = $x;\nsystem(implode(' ', $y));\n",
     "<?php\n$x = $_GET;\n$y = $x;\n"
     "system(escapeshellcmd(implode(' ', $y)));\n"),
], ids=["foreach-system", "foreach-echo", "echo-implode", "system-implode",
        "var-echo-implode", "var-copy-system-implode"])
def test_no_sanitizer_is_handed_a_whole_superglobal(bundle, source, fixed):
    # a superglobal is an array; PHP 8 raises a TypeError when a string
    # sanitizer gets one
    unit = SourceUnit.from_text("array.php", source)
    report = localize(unit, bundle, TEMPLATES, BACKEND)
    assert report.status == "ok" and report.candidate_text == fixed
    ir = build_ir(FileAnalysis(unit))
    candidates = generate_candidates(ir, extract_constraints(ir), TEMPLATES,
                                     BACKEND)
    assert candidates and all(c.parse_ok for c in candidates)
    for c in candidates:
        assert _calls_on_arrays(c.text) == _calls_on_arrays(source)


@pytest.mark.parametrize("source", [
    "<?php\necho $_GET;\n",
    "<?php\nsystem($_GET);\n",
    "<?php\n$x = $_GET;\ninclude $x;\n",
], ids=["echo", "system", "var-include"])
def test_a_sink_argument_that_is_an_array_is_not_wrapped(bundle, source):
    # no sanitizer takes the array, and there is nothing else to guard
    unit = SourceUnit.from_text("array.php", source)
    report = localize(unit, bundle, TEMPLATES, BACKEND)
    assert report.status == "fail" and report.candidate_text is None
    ir = build_ir(FileAnalysis(unit))
    for c in generate_candidates(ir, extract_constraints(ir), TEMPLATES,
                                 BACKEND):
        assert _calls_on_arrays(c.text) == _calls_on_arrays(source)


def test_localize_false_positive_path(bundle, clean_unit):
    report = localize(clean_unit, bundle, TEMPLATES, BACKEND)
    assert report.status == "false_positive"


def test_localize_without_templates_fails(bundle, command_injection_unit):
    report = localize(command_injection_unit, bundle, [], BACKEND)
    assert report.status == "fail"
    assert report.feedback[0]["kind"] == "no_applicable_template"


def test_localize_long_chain_gives_a_candidate(bundle):
    # The rewriter and the printer walk a left-nested `.` chain in a loop,
    # so a chain far deeper than the recursion limit is rewritten.
    for terms in (600, 1200):
        src = ('<?php $a = $_GET["x"]'
               + "".join(f' . "s{i}"' for i in range(1, terms))
               + "; system($a);")
        report = localize(SourceUnit.from_text("chain.php", src), bundle,
                          TEMPLATES, BACKEND)
        assert report.status == "ok"
        assert report.to_dict()["artifact"]["path"] == "chain.php"
        fixed = FileAnalysis(SourceUnit.from_text("fixed.php",
                                                  report.candidate_text))
        assert not any(not f.sanitized for f in fixed.findings)


def test_concat_leaves_of_a_long_chain_in_source_order():
    src = ('<?php $a = $_GET["x"]'
           + "".join(f' . "s{i}"' for i in range(1, 1201)) + ";")
    tree = FileAnalysis(SourceUnit.from_text("chain.php", src)).ast
    chain = next(n for n in tree.walk() if n.kind is NodeKind.CONCAT)
    leaves = _concat_leaves(chain)
    assert len(leaves) == 1201
    assert leaves[0].kind is NodeKind.INDEX
    assert [leaf.attrs["value"] for leaf in leaves[1:]] \
        == [f"s{i}" for i in range(1, 1201)]


# -- remote backend -------------------------------------------------------------------

class _Handler(BaseHTTPRequestHandler):
    mode = "ok"
    seen = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        _Handler.seen.append(json.loads(self.rfile.read(length)))
        if _Handler.mode == "malformed":
            body = b"not json at all"
        elif _Handler.mode == "scalar":
            body = b"5"
        else:
            body = json.dumps({
                "vulnerability type": "command injection",
                "cause analysis": "tainted input reaches system()",
                "involved line numbers": "3",
            }).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()


def test_remote_backend_success(bundle, command_injection_unit, http_server):
    _Handler.mode = "ok"
    _Handler.seen = []
    backend = RemoteBackend(endpoint=http_server, token="tok-123")
    report = localize(command_injection_unit, bundle, TEMPLATES, backend)
    assert report.succeeded
    payload = _Handler.seen[0]
    assert payload["prompt"] == ANALYSIS_PROMPT
    assert payload["input"]["line"] == 3
    assert "php_code" in payload["input"]
    ir = build_ir(FileAnalysis(command_injection_unit))
    constraints = extract_constraints(ir)
    template = next(t for t in TEMPLATES if t.applicable("Command"))
    plans = backend.fill(template, ir, constraints)
    assert plans
    assert plans == DeterministicBackend().fill(template, ir, constraints)
    assert backend.name == "remote"


def test_remote_backend_malformed_counts_as_refusal(
        bundle, command_injection_unit, http_server):
    _Handler.mode = "malformed"
    backend = RemoteBackend(endpoint=http_server)
    ir = build_ir(FileAnalysis(command_injection_unit))
    constraints = extract_constraints(ir)
    template = next(t for t in TEMPLATES if t.applicable("Command"))
    assert backend.fill(template, ir, constraints) == []


def test_remote_backend_non_object_body_counts_as_refusal(
        bundle, command_injection_unit, http_server):
    _Handler.mode = "scalar"
    backend = RemoteBackend(endpoint=http_server)
    ir = build_ir(FileAnalysis(command_injection_unit))
    constraints = extract_constraints(ir)
    template = next(t for t in TEMPLATES if t.applicable("Command"))
    assert backend.fill(template, ir, constraints) == []


def test_remote_backend_unreachable_falls_back(bundle, command_injection_unit):
    backend = RemoteBackend(endpoint="http://127.0.0.1:9", timeout=0.5)
    report = localize(command_injection_unit, bundle, TEMPLATES, backend)
    assert report.succeeded
    assert backend.name == "deterministic-fallback"


def test_remote_backend_name_recovers_with_the_endpoint(
        bundle, command_injection_unit, http_server):
    _Handler.mode = "ok"
    backend = RemoteBackend(endpoint="http://127.0.0.1:9", timeout=0.5)
    first = localize(command_injection_unit, bundle, TEMPLATES, backend)
    backend.endpoint = http_server
    second = localize(command_injection_unit, bundle, TEMPLATES, backend)
    assert first.to_dict()["artifact"]["backend"] == "deterministic-fallback"
    assert second.to_dict()["artifact"]["backend"] == "remote"
