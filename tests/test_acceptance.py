"""Acceptance suite: every shipping criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. The bundled corpus and model come from the session fixtures
(seeded, deterministic).
"""

import time
from pathlib import Path

import numpy as np
import pytest

from vulnminer.analysis import FileAnalysis
from vulnminer.source import SourceUnit

from conftest import FIXTURES, MODEL_SEED


def _report(name: str, detail: str):
    print(f"PASS {name}: {detail}")


# -- 1. parser round trip -----------------------------------------------------

def test_criterion_01_parser_round_trip(corpus_units):
    from vulnminer.frontend import ast_equal, parse_text, print_source

    units = list(corpus_units)
    for fixture in sorted(FIXTURES.glob("*.php")):
        units.append(SourceUnit.from_file(fixture))
    assert len(units) >= 50
    start = time.monotonic()
    for unit in units:
        first = parse_text(unit.path, unit.text)
        second = parse_text(unit.path, print_source(first))
        assert ast_equal(first, second), unit.path
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report("criterion 1",
            f"round-trip identity on {len(units)} fixtures in {elapsed:.2f}s")


# -- 2. flow oracle equivalence --------------------------------------------------

def test_criterion_02_flow_oracle_equivalence(corpus_units):
    from vulnminer.flows import augment_flows, dataflow_oracle
    from vulnminer.frontend import STATEMENT_KINDS, parse_text

    start = time.monotonic()
    checked = 0
    for unit in corpus_units:
        ast = parse_text(unit.path, unit.text)
        statements = sum(1 for n in ast.walk() if n.kind in STATEMENT_KINDS)
        if statements > 30:
            continue
        graph = augment_flows(ast)
        assert graph.dataflow_triples() == dataflow_oracle(graph), unit.path
        checked += 1
    elapsed = time.monotonic() - start
    assert checked >= 50
    assert elapsed < 30.0
    _report("criterion 2",
            f"worklist solver equals path oracle on {checked} programs "
            f"in {elapsed:.2f}s")


# -- 3. gradient checks ------------------------------------------------------------

def test_criterion_03_gradient_checks():
    from vulnminer.nn import (
        AttentionParams,
        GruParams,
        RiskMatrix,
        attention_backward,
        attention_forward,
        finite_diff_gradcheck,
        gru_backward,
        gru_forward,
        weighted_bce_loss,
    )

    start = time.monotonic()
    rng = np.random.default_rng(42)

    # GRU through the recall-weighted loss
    gru = GruParams.init(4, 4, seed=5, scale=0.5)
    seq = rng.uniform(-1, 1, (5, 4))

    def gru_loss():
        s, _, _ = gru_forward(seq, gru)
        return weighted_bce_loss(s, 1, w_pos=4.0)[0]

    score, _, cache = gru_forward(seq, gru)
    _, dscore = weighted_bce_loss(score, 1, w_pos=4.0)
    grads, _ = gru_backward(cache, dscore)
    gru_err = finite_diff_gradcheck(gru_loss, gru.arrays(), grads)
    assert gru_err < 1e-4

    # attention block through the precision-weighted loss
    attn = AttentionParams.init(8, seed=9, scale=0.4)
    emb = rng.uniform(-1, 1, (6, 8))
    bias = RiskMatrix.build(6, [1, 4], beta=2.0)

    def attn_loss():
        s, _, _, _ = attention_forward(emb, attn, bias)
        return weighted_bce_loss(s, 0, w_pos=1.0, w_neg=2.0)[0]

    score, _, _, cache = attention_forward(emb, attn, bias)
    _, dscore = weighted_bce_loss(score, 0, w_pos=1.0, w_neg=2.0)
    agrads, _ = attention_backward(cache, dscore)
    attn_err = finite_diff_gradcheck(attn_loss, attn.arrays(), agrads)
    assert attn_err < 1e-4

    # linear readout alone is exact
    linear = GruParams.init(2, 2, seed=1)
    for arr in linear.arrays().values():
        arr[...] = 0.0
    linear.b[...] = 0.4

    def linear_loss():
        s, _, _ = gru_forward(np.zeros((1, 2)), linear)
        return weighted_bce_loss(s, 0, w_pos=1.0)[0]

    s, _, cache = gru_forward(np.zeros((1, 2)), linear)
    _, dscore = weighted_bce_loss(s, 0, w_pos=1.0)
    lgrads, _ = gru_backward(cache, dscore)
    linear_err = finite_diff_gradcheck(linear_loss, {"b": linear.b},
                                       {"b": lgrads["b"]})
    assert linear_err < 1e-8

    # both losses directly
    for label, w_pos, w_neg in ((1, 4.0, 1.0), (0, 1.0, 2.0)):
        for point in (0.2, 0.5, 0.8):
            eps = 1e-7
            _, grad = weighted_bce_loss(point, label, w_pos, w_neg)
            up, _ = weighted_bce_loss(point + eps, label, w_pos, w_neg)
            down, _ = weighted_bce_loss(point - eps, label, w_pos, w_neg)
            numeric = (up - down) / (2 * eps)
            assert abs(grad - numeric) / max(abs(grad), abs(numeric)) < 1e-6

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report("criterion 3",
            f"gradchecks: gru {gru_err:.2e}, attention {attn_err:.2e}, "
            f"linear {linear_err:.2e} in {elapsed:.1f}s")


# -- 4. risk bias closed form ----------------------------------------------------------

def test_criterion_04_risk_bias_closed_form():
    from vulnminer.nn import (
        AttentionParams,
        RiskMatrix,
        attention_forward,
        risk_biased_attention,
        risky_attention_mass,
    )

    zeroed = AttentionParams.init(4, seed=0)
    for arr in zeroed.arrays().values():
        arr[...] = 0.0
    bias = RiskMatrix.build(2, [1], beta=float(np.log(3.0)))
    _, attn = risk_biased_attention(np.zeros((2, 4)), zeroed, bias)
    assert np.max(np.abs(attn - np.array([[0.25, 0.75], [0.25, 0.75]]))) < 1e-9

    rng = np.random.default_rng(3)
    params = AttentionParams.init(6, seed=4)
    emb = rng.uniform(-1, 1, (5, 6))
    zero_bias = RiskMatrix.build(5, [], beta=0.0)
    s1, p1, a1, _ = attention_forward(emb, params, zero_bias)
    s2, p2, a2, _ = attention_forward(emb, params, None)
    assert s1 == s2 and np.array_equal(p1, p2) and np.array_equal(a1, a2)

    risky = (1, 3)
    masses = []
    for beta in np.arange(0.0, 4.5, 0.5):
        b = RiskMatrix.build(5, risky, beta=float(beta))
        _, _, attn, _ = attention_forward(emb, params, b)
        masses.append(risky_attention_mass(attn, risky))
    assert all(b > a for a, b in zip(masses, masses[1:]))
    _report("criterion 4",
            f"closed form exact, bitwise zero-bias reduction, mass "
            f"{masses[0]:.3f}->{masses[-1]:.3f} strictly increasing")


# -- 5. fusion identities -----------------------------------------------------------------

def test_criterion_05_fusion_identities():
    from vulnminer.cascade import fuse_scores

    assert fuse_scores(0.8, 0.6, 1.0) == 0.8
    assert fuse_scores(0.8, 0.6, 0.0) == 0.6
    assert fuse_scores(0.8, 0.6, 0.5) == 0.7

    rng = np.random.default_rng(99)
    for _ in range(1000):
        s1, s2, lam = rng.uniform(0, 1, 3)
        base = fuse_scores(s1, s2, lam)
        assert 0.0 <= base <= 1.0
        bump = rng.uniform(0, 1 - s1)
        assert fuse_scores(s1 + bump, s2, lam) >= base
        bump2 = rng.uniform(0, 1 - s2)
        assert fuse_scores(s1, s2 + bump2, lam) >= base
    _report("criterion 5",
            "endpoints and midpoint exact; monotone over 1000 random triples")


# -- 6. desk-scale cascade quality ----------------------------------------------------------

def test_criterion_06_cascade_quality(bundle, manifest, corpus_units, labels,
                                      train_elapsed):
    from vulnminer.cascade import run_pipeline
    from vulnminer.metrics import compute_metrics, confusion_from_pairs
    from vulnminer.stage1 import propose_hypotheses

    assert train_elapsed < 600.0
    verdicts, errors = run_pipeline(corpus_units, bundle)
    assert not errors
    pairs = [(labels[v.file_id], int(v.vulnerable)) for v in verdicts]
    report = compute_metrics(confusion_from_pairs(pairs))
    assert report.f1 >= 0.90
    assert report.fnr <= 0.05

    hset = propose_hypotheses(corpus_units, bundle, tau1=0.2)
    passed = set(hset.paths())
    positives = [p for p, label in labels.items() if label == 1]
    recall = sum(1 for p in positives if p in passed) / len(positives)
    assert recall >= 0.98

    types = {e.vuln_type for e in manifest.positives()}
    assert len(types) >= 5
    _report("criterion 6",
            f"trained in {train_elapsed:.0f}s; F1={report.f1:.4f} "
            f"FNR={report.fnr:.4f} stage1-recall@0.2={recall:.4f} "
            f"({len(types)} vuln types)")


# -- 7. detection ablation directions ----------------------------------------------------------

def test_criterion_07_ablation_directions(bundle, manifest, corpus_units,
                                          labels):
    from vulnminer.bench import run_benchmark
    from vulnminer.cascade import run_pipeline
    from vulnminer.metrics import compute_metrics, confusion_from_pairs
    from vulnminer.stage1 import score_structural

    rows = run_benchmark(manifest, bundle,
                         ablations=("raw-code", "no-flow-edges",
                                    "no-norm-no-bias", "no-bias"),
                         split="all")
    by_variant = {r.variant: r.metrics for r in rows}
    # both stage-one ablations share one retrained reference row
    assert [r.variant for r in rows].count("stage1-full") == 1

    # removing structure raises the miss rate
    assert by_variant["stage1-raw-code"].fnr > by_variant["stage1-full"].fnr
    assert by_variant["stage1-no-flow-edges"].fnr \
        >= by_variant["stage1-full"].fnr

    # disabling normalization plus risk bias lowers verifier accuracy
    assert by_variant["stage2-no-norm-no-bias"].acc \
        < by_variant["stage2-full"].acc
    assert by_variant["stage2-no-bias"].acc <= by_variant["stage2-full"].acc

    # cascading lowers the false-positive rate at matched recall
    verdicts, _ = run_pipeline(corpus_units, bundle)
    pairs = [(labels[v.file_id], int(v.vulnerable)) for v in verdicts]
    cascade = compute_metrics(confusion_from_pairs(pairs))
    scores = {u.path: score_structural(FileAnalysis(u), bundle).score
              for u in corpus_units}
    stage1_fpr = None
    for threshold in sorted(set(scores.values()), reverse=True):
        preds = [(labels[p], int(scores[p] > threshold)) for p in scores]
        metrics = compute_metrics(confusion_from_pairs(preds))
        if metrics.rec >= cascade.rec:
            stage1_fpr = metrics.fpr
            break
    assert stage1_fpr is not None
    assert cascade.fpr < stage1_fpr
    _report("criterion 7",
            f"raw-code FNR {by_variant['stage1-raw-code'].fnr:.3f} > "
            f"{by_variant['stage1-full'].fnr:.3f}; verifier acc drop "
            f"{by_variant['stage2-full'].acc:.3f}->"
            f"{by_variant['stage2-no-norm-no-bias'].acc:.3f}; cascade FPR "
            f"{cascade.fpr:.4f} < stage1-only {stage1_fpr:.4f}")


# -- 8. localization rate and ablations ----------------------------------------------------------

def test_criterion_08_localization(bundle, manifest):
    from vulnminer.localize import (
        DeterministicBackend,
        RefusalBackend,
        default_templates,
        localize,
    )
    from vulnminer.metrics import localization_rate

    templates = default_templates()
    positives = manifest.positives()

    def rate(backend=None, template_set=templates, **kw):
        outcomes = []
        for entry in positives:
            report = localize(SourceUnit.from_file(entry.path), bundle,
                              template_set, backend or DeterministicBackend(),
                              **kw)
            outcomes.append((entry.vuln_type, report.succeeded))
        return localization_rate(outcomes)[0]

    full = rate()
    no_refinement = rate(max_iterations=1)
    no_templates = rate(template_set=[])
    no_constraints = rate(enforce_constraints=False)
    three = rate(max_iterations=3)
    floor = rate(backend=RefusalBackend(), template_set=[])

    assert full >= 0.75
    assert full > no_refinement > no_templates
    assert full > no_constraints
    assert three - full <= 0.01
    assert floor == 0.0
    _report("criterion 8",
            f"rate full={full:.3f} > no-refinement={no_refinement:.3f} > "
            f"no-templates={no_templates:.3f}; no-constraints="
            f"{no_constraints:.3f}; iter3 gain {three - full:.3f}; "
            f"refusal floor {floor:.1f}")


# -- 9. case study end to end ----------------------------------------------------------------------

def test_criterion_09_case_study(bundle):
    from vulnminer.cascade import run_pipeline
    from vulnminer.localize import (
        DeterministicBackend,
        build_ir,
        default_templates,
        extract_constraints,
        localize,
        verify,
    )
    from vulnminer.localize.constraints import CandidateContext, evaluate_constraint
    from vulnminer.localize.scoring import Candidate

    start = time.monotonic()
    command_unit = SourceUnit.from_file(FIXTURES / "command_injection.php")
    sql_unit = SourceUnit.from_file(FIXTURES / "sql_auth.php")

    verdicts, _ = run_pipeline([command_unit, sql_unit], bundle)
    assert all(v.vulnerable for v in verdicts)

    templates = default_templates()
    backend = DeterministicBackend()

    report = localize(command_unit, bundle, templates, backend)
    assert report.succeeded
    assert 3 in report.lines  # the system() call line
    assert report.to_dict()["vulnerability type"] == "Injection"
    ir = build_ir(FileAnalysis(command_unit))
    constraints = extract_constraints(ir)
    candidate = Candidate(candidate_id="case", template_id="validation_wrapper",
                          variant="primary", text=report.candidate_text,
                          backend="deterministic")
    from vulnminer.localize.scoring import score_candidate

    score_candidate(candidate, ir, bundle, constraints)
    ok, reasons = verify(candidate, ir, constraints)
    assert ok, reasons

    sql_report = localize(sql_unit, bundle, templates, backend)
    assert sql_report.succeeded
    sql_ir = build_ir(FileAnalysis(sql_unit))
    sql_constraints = extract_constraints(sql_ir)
    ctx = CandidateContext.build(
        FileAnalysis(SourceUnit.from_text("sql.candidate",
                                          sql_report.candidate_text)),
        sql_ir, query_built=True)
    param_sql = next(c for c in sql_constraints.constraints
                     if c.kind == "ParameterizedSql")
    assert evaluate_constraint(param_sql, ctx)

    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report("criterion 9",
            f"command case localized to line {report.lines}, sql case "
            f"satisfies {param_sql.cid}; {elapsed:.1f}s combined")


# -- 10. augmentation soundness ------------------------------------------------------------------------

def test_criterion_10_augmentation(manifest, tmp_path):
    from vulnminer.augment import augment_corpus
    from vulnminer.flows import augment_flows, file_vuln_types, taint_trace
    from vulnminer.frontend import normalize, parse_text
    from vulnminer.linearize import linearize

    def oracle(text, path):
        return file_vuln_types(taint_trace(augment_flows(
            parse_text(path, text))))

    def stream(text, path):
        return tuple(linearize(augment_flows(normalize(
            parse_text(path, text))), flow_markers=False).tokens)

    samples, reached = augment_corpus(manifest.entries, 0.4, seed=11,
                                      out_dir=tmp_path / "a")
    assert reached and samples
    for sample in samples:
        origin = Path(sample.origin).read_text()
        assert oracle(sample.text, sample.output_path) \
            == oracle(origin, sample.origin)
        assert stream(sample.text, sample.output_path) \
            != stream(origin, sample.origin)

    again, _ = augment_corpus(manifest.entries, 0.4, seed=11,
                              out_dir=tmp_path / "b")
    assert [s.text for s in samples] == [s.text for s in again]
    assert [Path(s.output_path).name for s in samples] \
        == [Path(s.output_path).name for s in again]
    _report("criterion 10",
            f"{len(samples)} augmented samples, 100% oracle-consistent, "
            "all novel, rerun byte-identical")


# -- 11. metrics identities -------------------------------------------------------------------------------

def test_criterion_11_metrics_identities():
    from vulnminer.metrics import ConfusionCounts, compute_metrics

    rng = np.random.default_rng(1234)
    for _ in range(100):
        tp, fp, tn, fn = (int(x) for x in rng.integers(0, 200, 4))
        if tp + fp + tn + fn == 0:
            tp = 1
        report = compute_metrics(ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn))
        total = tp + fp + tn + fn
        assert report.acc == (tp + tn) / total
        assert report.pre == (tp / (tp + fp) if tp + fp else 0.0)
        assert report.rec == (tp / (tp + fn) if tp + fn else 0.0)
        assert report.fpr == (fp / (fp + tn) if fp + tn else 0.0)
        assert report.fnr == (fn / (fn + tp) if fn + tp else 0.0)
        if tp + fn > 0:
            assert report.rec == pytest.approx(1.0 - report.fnr, abs=1e-15)
        else:
            # 0/0 pins both to 0 with flags; the identity holds on the
            # flagged-undefined convention
            assert {"REC", "FNR"} <= set(report.undefined)
        if report.pre + report.rec > 0:
            assert report.f1 == pytest.approx(
                2 * report.pre * report.rec / (report.pre + report.rec))
    _report("criterion 11",
            "100 random confusion quadruples match hand arithmetic; "
            "REC = 1 - FNR wherever defined")


# -- 12. end-to-end determinism -----------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_12_determinism(manifest, corpus_dir, tmp_path):
    from vulnminer.bench import rows_to_csv, run_benchmark
    from vulnminer.cascade import run_pipeline
    from vulnminer.cli import write_jsonl
    from vulnminer.detector import train_bundle
    from vulnminer.model_store import load_model, save_model

    model_a = tmp_path / "a.json"
    model_b = tmp_path / "b.json"
    save_model(train_bundle(manifest, seed=MODEL_SEED), model_a)
    save_model(train_bundle(manifest, seed=MODEL_SEED), model_b)
    assert model_a.read_bytes() == model_b.read_bytes()

    bundle = load_model(model_a)
    units = [SourceUnit.from_file(p)
             for p in sorted(corpus_dir.glob("*.php"))[:40]]
    out_a, out_b = tmp_path / "scan_a.jsonl", tmp_path / "scan_b.jsonl"
    verdicts_a, _ = run_pipeline(units, bundle)
    verdicts_b, _ = run_pipeline(units, bundle)
    write_jsonl([v.record() for v in verdicts_a], out_a)
    write_jsonl([v.record() for v in verdicts_b], out_b)
    assert out_a.read_bytes() == out_b.read_bytes()

    csv_a = rows_to_csv(run_benchmark(manifest, bundle, split="test"))
    csv_b = rows_to_csv(run_benchmark(manifest, bundle, split="test"))
    assert csv_a == csv_b
    _report("criterion 12",
            "train, scan and bench outputs byte-identical across reruns")
