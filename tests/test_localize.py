import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from vulnminer.analysis import FileAnalysis
from vulnminer.errors import NoFindingError
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
from vulnminer.localize.constraints import CandidateContext, evaluate_constraint
from vulnminer.source import SourceUnit

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
    assert ir.finding.sink_span.start_line == 3
    assert ir.window_level == 1  # top-level sink: window is the whole file
    assert "$_GET" in ir.context["lexicon_hits"]


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
    assert ir.window_level == 0
    widened = refine_context(ir, [{"kind": "x"}])
    assert widened.window_level == 1 and not widened.saturated
    again = refine_context(widened, [{"kind": "y"}])
    assert again.saturated
    assert len(again.feedback) == 2


def test_refine_requires_feedback():
    ir = build_ir(FileAnalysis(SourceUnit.from_text("fn.php", FN_SQL)))
    with pytest.raises(ValueError):
        refine_context(ir, [])


# -- constraints ----------------------------------------------------------------

def test_constraints_by_sink_class(command_injection_unit, sql_auth_unit):
    command = extract_constraints(build_ir(FileAnalysis(command_injection_unit)))
    kinds = [(c.kind, c.hard) for c in command.constraints]
    assert kinds == [("SanitizeBeforeUse", True)]
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
    assert all(c.hard for c in inc.constraints)


def test_soft_preference_recorded(command_injection_unit):
    constraints = extract_constraints(build_ir(FileAnalysis(command_injection_unit)))
    assert "minimize_edit_distance" in constraints.soft_preferences


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


# -- templates -------------------------------------------------------------------

def test_template_library_covers_all_sink_classes():
    classes = set()
    for template in TEMPLATES:
        classes.update(template.sink_classes)
    assert classes == {"Command", "Sql", "Output", "Include", "Redirect"}
    assert len(TEMPLATES) == 5


def test_skeletons_parse_with_dummy_fills():
    for template in TEMPLATES:
        template.check_parses()


def test_template_dir_loading(tmp_path):
    from vulnminer.localize import load_templates

    doc = {"template_id": "extra_guard", "sink_classes": ["Output"],
           "skeleton": "echo %{sanitizer}(%{expr});",
           "holes": [{"name": "sanitizer", "kind": "sanitizer"},
                     {"name": "expr", "kind": "expr"}]}
    (tmp_path / "extra.json").write_text(json.dumps(doc))
    loaded = load_templates(tmp_path)
    assert [t.template_id for t in loaded] == ["extra_guard"]


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


def test_sql_candidate_uses_placeholder_binding(sql_auth_unit):
    ir = build_ir(FileAnalysis(sql_auth_unit))
    constraints = extract_constraints(ir)
    candidates = generate_candidates(ir, constraints, TEMPLATES, BACKEND)
    primary = next(c for c in candidates if c.variant == "primary")
    assert "db_prepare(" in primary.text
    assert "?" in primary.text
    assert "db_bind(" in primary.text
    assert "db_execute(" in primary.text


def test_refusal_backend_yields_no_candidates(command_injection_unit):
    ir = build_ir(FileAnalysis(command_injection_unit))
    constraints = extract_constraints(ir)
    assert generate_candidates(ir, constraints, TEMPLATES, RefusalBackend()) == []


def test_narrow_window_refuses_sql_rewrite():
    ir = build_ir(FileAnalysis(SourceUnit.from_text("fn.php", FN_SQL)))
    constraints = extract_constraints(ir)
    assert ir.window_level == 0
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


def test_select_best_filters_and_breaks_ties(command_injection_unit):
    from vulnminer.localize.scoring import Candidate

    ir = build_ir(FileAnalysis(command_injection_unit))
    constraints = extract_constraints(ir)
    cid = constraints.constraints[0].cid

    def cand(name, utility, edit, ok):
        c = Candidate(candidate_id=name, template_id=name, variant="primary",
                      text="<?php\n", backend="test")
        c.utility, c.edit_distance = utility, edit
        c.constraint_results = {cid: ok}
        return c

    survivor = select_best([cand("a", 0.9, 0.5, False),
                            cand("b", 0.7, 0.3, True),
                            cand("c", 0.7, 0.1, True)], constraints)
    assert survivor.candidate_id == "c"
    assert select_best([cand("a", 0.9, 0.5, False)], constraints) is None
    unfiltered = select_best([cand("a", 0.9, 0.5, False),
                              cand("b", 0.7, 0.3, True)],
                             constraints, enforce_constraints=False)
    assert unfiltered.candidate_id == "a"


# -- verification -----------------------------------------------------------------

def _scored_best(unit, bundle):
    ir = build_ir(FileAnalysis(unit))
    constraints = extract_constraints(ir)
    candidates = generate_candidates(ir, constraints, TEMPLATES, BACKEND)
    for c in candidates:
        if c.parse_ok:
            score_candidate(c, ir, bundle, constraints)
    return ir, constraints, select_best(candidates, constraints)


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
            score_candidate(c, ir, bundle, constraints,
                            query_built=True)
    generic = [c for c in candidates if c.variant == "generic"]
    feedback = analyze_failures(generic, constraints)
    assert any(f.get("constraint") == "parameterized-sql" for f in feedback)


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


def test_localize_false_positive_path(bundle, clean_unit):
    report = localize(clean_unit, bundle, TEMPLATES, BACKEND)
    assert report.status == "false_positive"


def test_localize_without_templates_fails(bundle, command_injection_unit):
    report = localize(command_injection_unit, bundle, [], BACKEND)
    assert report.status == "fail"
    assert report.feedback[0]["kind"] == "no_applicable_template"


# -- remote backend -------------------------------------------------------------------

class _Handler(BaseHTTPRequestHandler):
    mode = "ok"
    seen = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        _Handler.seen.append(json.loads(self.rfile.read(length)))
        if _Handler.mode == "malformed":
            body = b"not json at all"
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
    assert backend.last_analysis["vulnerability type"] == "command injection"


def test_remote_backend_malformed_counts_as_refusal(
        bundle, command_injection_unit, http_server):
    _Handler.mode = "malformed"
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
