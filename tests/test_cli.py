import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vulnminer.cli as cli_mod
from vulnminer.cli import main
from vulnminer.corpus import ManifestEntry, generate_synthetic_corpus
from vulnminer.lexicon import DEFAULT_LEXICON, lexicon_entries, load_lexicon
from vulnminer.model_store import load_model, save_model

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scan_clean_dir_exits_zero(model_path, tmp_path, capsys):
    clean = tmp_path / "clean"
    clean.mkdir()
    (clean / "page.php").write_text('<?php echo "static";')
    code, out, _ = run(capsys, "scan", "--model", model_path, str(clean))
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 1 and records[0]["vulnerable"] is False


def test_scan_appendix_fixture_sarif(model_path, tmp_path, capsys):
    broken = tmp_path / "broken.php"
    broken.write_text("<?php $a = (;")
    code, out, _ = run(capsys, "scan", "--model", model_path,
                       "--format", "sarif",
                       str(FIXTURES / "command_injection.php"), str(broken))
    assert code == 2
    doc = json.loads(out)
    assert doc["version"] == "2.1.0"
    results = doc["runs"][0]["results"]
    assert len(results) == 1
    region = results[0]["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 3
    [invocation] = doc["runs"][0]["invocations"]
    assert invocation["executionSuccessful"] is False
    [note] = invocation["toolExecutionNotifications"]
    assert note["level"] == "error"
    assert "unexpected token" in note["message"]["text"]
    location = note["locations"][0]["physicalLocation"]["artifactLocation"]
    assert location["uri"] == str(broken)


def test_scan_clean_sarif_invocation_succeeds(model_path, capsys):
    _, out, _ = run(capsys, "scan", "--model", model_path, "--format",
                    "sarif", str(FIXTURES / "clean_page.php"))
    [invocation] = json.loads(out)["runs"][0]["invocations"]
    assert invocation == {"executionSuccessful": True,
                          "toolExecutionNotifications": []}


def test_scan_missing_model_exits_two(capsys, tmp_path):
    code, _, err = run(capsys, "scan", "--model",
                       str(tmp_path / "missing.json"),
                       str(FIXTURES / "clean_page.php"))
    assert code == 2
    assert "error" in err


def test_scan_missing_path_exits_two(model_path, capsys):
    code, _, err = run(capsys, "scan", "--model", model_path,
                       "/no/such/dir-anywhere")
    assert code == 2


def test_scan_model_directory_exits_two(tmp_path, capsys):
    code, out, err = run(capsys, "scan", "--model", str(tmp_path),
                         str(FIXTURES / "clean_page.php"))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: [Errno 21] Is a directory: '{tmp_path}'")


def test_scan_out_directory_exits_two(model_path, tmp_path, capsys):
    code, out, err = run(capsys, "scan", "--model", model_path, "--out",
                         str(tmp_path), str(FIXTURES / "clean_page.php"))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: [Errno 21] Is a directory: '{tmp_path}'")


def test_scan_non_utf8_file_is_an_error_record(model_path, tmp_path,
                                               capsys):
    (tmp_path / "bad.php").write_bytes('<?php echo "café";'.encode("latin-1"))
    good = (FIXTURES / "command_injection.php").read_text()
    (tmp_path / "good.php").write_text(good)
    code, out, _ = run(capsys, "scan", "--model", model_path, str(tmp_path))
    assert code == 2
    records = [json.loads(line) for line in out.splitlines()]
    verdicts = [r for r in records if "error" not in r]
    errors = [r for r in records if "error" in r]
    assert [r["path"] for r in verdicts] == [str(tmp_path / "good.php")]
    assert verdicts[0]["vulnerable"] is True
    assert [r["path"] for r in errors] == [str(tmp_path / "bad.php")]
    assert "UTF-8" in errors[0]["error"]
    code, allowed, _ = run(capsys, "scan", "--model", model_path,
                           "--allow-errors", str(tmp_path))
    assert code == 1
    assert allowed == out


def test_localize_skips_non_utf8_file(model_path, tmp_path, capsys):
    (tmp_path / "bad.php").write_bytes(b"<?php echo '\xff';")
    (tmp_path / "good.php").write_text(
        (FIXTURES / "command_injection.php").read_text())
    code, out, _ = run(capsys, "localize", "--model", model_path,
                       str(tmp_path))
    assert code == 2
    records = [json.loads(line) for line in out.splitlines()]
    reports, errors = records[:-1], records[-1:]
    assert [r["artifact"]["path"] for r in reports] \
        == [str(tmp_path / "good.php")]
    assert reports[0]["artifact"]["status"] == "ok"
    assert [r["path"] for r in errors] == [str(tmp_path / "bad.php")]
    assert "UTF-8" in errors[0]["error"]
    code, allowed, _ = run(capsys, "localize", "--model", model_path,
                           "--allow-errors", str(tmp_path))
    assert code == 1
    assert allowed == out


def test_scan_deep_nesting_is_an_error_record(model_path, tmp_path, capsys):
    (tmp_path / "deep.php").write_text(
        "<?php $a = " + "(" * 300 + "1" + ")" * 300 + ";")
    # a long `.` chain is not deep nesting: the taint trace walks it
    (tmp_path / "chain.php").write_text(
        "<?php $a = $_GET['x']" + " . 'y'" * 500 + "; system($a);")
    (tmp_path / "good.php").write_text(
        (FIXTURES / "command_injection.php").read_text())
    code, out, _ = run(capsys, "scan", "--model", model_path, str(tmp_path))
    assert code == 2
    records = [json.loads(line) for line in out.splitlines()]
    verdicts = [r for r in records if "error" not in r]
    errors = [r for r in records if "error" in r]
    assert [r["path"] for r in verdicts] == [
        str(tmp_path / name) for name in ("chain.php", "good.php")]
    assert [r["vulnerable"] for r in verdicts] == [True, True]
    assert errors == [
        {"path": str(tmp_path / "deep.php"), "error": "nesting too deep"}]
    code, _, _ = run(capsys, "scan", "--model", model_path, "--allow-errors",
                     str(tmp_path))
    assert code == 1
    # the flagged chain reaches localization, which rewrites it
    code, out, _ = run(capsys, "localize", "--model", model_path,
                       str(tmp_path))
    assert code == 2
    records = [json.loads(line) for line in out.splitlines()]
    outcomes = {r["artifact"]["path"]: (r["artifact"]["status"],
                                        r["cause analysis"])
                for r in records if "error" not in r}
    assert outcomes[str(tmp_path / "chain.php")][0] == "ok"
    assert outcomes[str(tmp_path / "good.php")][0] == "ok"
    assert [r for r in records if "error" in r] == errors


def _custom_lexicon(tmp_path):
    """A lexicon file: the built-in one plus the Command sink ``run_job``."""
    path = tmp_path / "custom.lex"
    path.write_text("\n".join(lexicon_entries(DEFAULT_LEXICON))
                    + "\nsink,run_job,Command\n")
    return path


def _custom_lexicon_model(bundle, tmp_path):
    model = tmp_path / "custom-lexicon-model.json"
    save_model(dataclasses.replace(
        bundle, lexicon=load_lexicon(_custom_lexicon(tmp_path))), model)
    return str(model)


def test_scan_and_localize_use_the_model_lexicon(bundle, model_path,
                                                 tmp_path, capsys):
    page = tmp_path / "job.php"
    page.write_text("<?php\nrun_job($_GET['c']);\n")
    _, out, _ = run(capsys, "scan", "--model", model_path, str(page))
    assert json.loads(out)["sink_line"] is None
    model = _custom_lexicon_model(bundle, tmp_path)
    code, out, _ = run(capsys, "scan", "--model", model, str(page))
    assert code == 1
    record = json.loads(out)
    assert (record["sink_line"], record["vuln_type"]) == (2, "Injection")
    code, out, _ = run(capsys, "localize", "--model", model, str(page))
    assert code == 1
    report = json.loads(out)
    assert report["artifact"]["status"] == "ok"
    assert "reaches the run_job sink at line 2" in report["cause analysis"]
    assert "escapeshellarg($_GET['c'])" in report["artifact"]["candidate"]


def test_train_records_the_lexicon_it_is_given(tmp_path, capsys):
    generate_synthetic_corpus(tmp_path / "corpus", seed=7, size=20)
    custom, model = _custom_lexicon(tmp_path), tmp_path / "m.json"
    code, _, err = run(capsys, "train", str(tmp_path / "corpus/manifest.jsonl"),
                       "--model", str(model), "--lexicon", str(custom))
    assert code == 0, err
    assert load_model(model).lexicon == load_lexicon(custom)


def test_localize_reports_schema(model_path, capsys):
    code, out, _ = run(capsys, "localize", "--model", model_path,
                       str(FIXTURES / "command_injection.php"))
    assert code == 1
    report = json.loads(out.splitlines()[0])
    assert report["vulnerability type"] == "Injection"
    assert 3 in report["involved line numbers"]
    assert report["artifact"]["status"] == "ok"
    assert "sanitize_path" in report["artifact"]["candidate"]


def test_localize_clean_input_empty_stream(model_path, capsys):
    code, out, _ = run(capsys, "localize", "--model", model_path,
                       str(FIXTURES / "clean_page.php"))
    assert code == 0
    assert out.strip() == ""


def test_localize_remote_unreachable_falls_back(model_path, capsys):
    code, out, _ = run(capsys, "localize", "--model", model_path,
                       "--backend", "remote",
                       "--endpoint", "http://127.0.0.1:9",
                       "--timeout", "0.5",
                       str(FIXTURES / "command_injection.php"))
    assert code == 1
    report = json.loads(out.splitlines()[0])
    assert report["artifact"]["status"] == "ok"


def test_train_and_reuse(manifest, corpus_dir, tmp_path, capsys):
    model = tmp_path / "m.json"
    code, out, _ = run(capsys, "train", str(corpus_dir / "manifest.jsonl"),
                       "--model", str(model), "--seed", "1")
    assert code == 0
    assert model.exists()
    assert "lambda=" in out
    code, out, _ = run(capsys, "scan", "--model", str(model),
                       str(FIXTURES / "command_injection.php"))
    assert code == 1


def test_train_skips_and_names_files_it_cannot_parse(tmp_path, capsys):
    manifest = generate_synthetic_corpus(tmp_path, seed=7, size=40)
    deep = tmp_path / "deep.php"
    deep.write_text("<?php $a = " + "(" * 3000 + "1" + ")" * 3000 + ";\n")
    broken = tmp_path / "broken.php"
    broken.write_text("<?php $a = (;")
    manifest.entries += [ManifestEntry(path=str(deep), label=0),
                         ManifestEntry(path=str(broken), label=1)]
    manifest.save(tmp_path / "manifest.jsonl")
    model = tmp_path / "m.json"
    code, out, err = run(capsys, "train", str(tmp_path / "manifest.jsonl"),
                         "--model", str(model))
    assert code == 0 and model.exists()
    assert f"skipped {deep}: nesting too deep" in err.splitlines()
    assert f"skipped {broken}: " in err
    assert len(err.splitlines()) == 2


def test_train_skips_and_names_files_that_are_not_utf8(tmp_path, capsys):
    manifest = generate_synthetic_corpus(tmp_path, seed=7, size=40)
    bad_train, bad_val = tmp_path / "train.php", tmp_path / "val.php"
    for bad in (bad_train, bad_val):
        bad.write_bytes('<?php echo "café";'.encode("latin-1"))
    manifest.entries += [ManifestEntry(path=str(bad_train), label=0),
                         ManifestEntry(path=str(bad_val), label=1,
                                       split="val")]
    manifest.save(tmp_path / "manifest.jsonl")
    model = tmp_path / "m.json"
    code, _, err = run(capsys, "train", str(tmp_path / "manifest.jsonl"),
                       "--model", str(model))
    assert code == 0 and model.exists()
    lines = err.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith(f"skipped {bad_train}: not valid UTF-8")
    assert lines[1].startswith(f"skipped {bad_val}: not valid UTF-8")


def test_train_keeps_lambda_when_no_validation_file_scores(tmp_path, capsys):
    manifest = generate_synthetic_corpus(tmp_path, seed=7, size=40)
    bad = [tmp_path / "val0.php", tmp_path / "val1.php"]
    for path in bad:
        path.write_text("<?php $a = (;")
    manifest.entries = [e for e in manifest.entries if e.split != "val"] + [
        ManifestEntry(path=str(path), label=label, split="val")
        for label, path in enumerate(bad)]
    manifest.save(tmp_path / "manifest.jsonl")
    model = tmp_path / "m.json"
    code, out, err = run(capsys, "train", str(tmp_path / "manifest.jsonl"),
                         "--model", str(model))
    assert code == 0 and model.exists()
    assert "lambda=0.5 " in out
    lines = err.splitlines()
    assert len(lines) == 2
    for line, path in zip(lines, bad):
        assert line.startswith(f"skipped {path}: unexpected token")


_MANIFEST_ARGS = {
    "train": lambda tmp, model: ["--model", str(tmp / "m.json")],
    "bench": lambda tmp, model: ["--model", model],
    "augment": lambda tmp, model: ["--ratio", "0.5",
                                   "--out-dir", str(tmp / "aug")],
}


@pytest.mark.parametrize("command", sorted(_MANIFEST_ARGS))
@pytest.mark.parametrize("line", [
    "not json", '["x.php", 1]', '{"label": 1}', '{"path": "x.php"}',
    '{"path": "x.php", "label": "yes"}', '{"path": "x.php", "label": 1.5}',
    '{"path": "x.php", "label": 2}'])
def test_malformed_manifest_line_is_one_error(command, line, model_path,
                                              tmp_path, capsys):
    manifest = tmp_path / "manifest.jsonl"
    good = json.dumps({"path": str(FIXTURES / "command_injection.php"),
                       "label": 1})
    manifest.write_text(f"{good}\n\n{line}\n")
    code, out, err = run(capsys, command, str(manifest),
                         *_MANIFEST_ARGS[command](tmp_path, model_path))
    assert code == 2
    assert out == ""
    assert err == (f"error: {manifest}:3: not a manifest entry with a path "
                   f"and a label of 0 or 1\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.jsonl"]


@pytest.mark.parametrize("command,flag", [
    ("scan", "--seed"), ("localize", "--seed"), ("bench", "--seed"),
    ("scan", "--lexicon"), ("localize", "--lexicon"), ("bench", "--lexicon"),
    ("augment", "--model"), ("augment", "--out"),
    ("gen-corpus", "--model"), ("gen-corpus", "--lexicon"),
    ("gen-corpus", "--out")])
def test_command_refuses_an_option_it_does_not_read(command, flag, tmp_path,
                                                    monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    args = {"scan": ["page.php"], "localize": ["page.php"],
            "bench": ["m.jsonl"],
            "augment": ["m.jsonl", "--ratio", "0.5", "--out-dir", "aug"],
            "gen-corpus": ["--out-dir", "corpus"]}[command]
    code, out, err = run(capsys, command, *args, flag, "1")
    assert code == 2
    assert f"unrecognized arguments: {flag} 1" in err
    assert list(tmp_path.iterdir()) == []


def test_train_out_writes_no_model(corpus_dir, tmp_path, monkeypatch,
                                   capsys):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "train", str(corpus_dir / "manifest.jsonl"),
                       "--out", "mine.json")
    assert code == 2
    assert "unrecognized arguments: --out mine.json" in err
    assert list(tmp_path.iterdir()) == []


def test_train_pins_one_blas_thread_unless_told(tmp_path):
    # on a host with more than one core OpenBLAS would default to one thread
    # per core, and the 80-file corpus's trained weights differ in the last
    # bits between one thread and two
    generate_synthetic_corpus(tmp_path, seed=7, size=80)
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    runs = {}
    for name, extra in (("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
        model = tmp_path / f"{name}.json"
        runs[model] = subprocess.Popen(
            [sys.executable, "-m", "vulnminer.cli", "train",
             str(tmp_path / "manifest.jsonl"), "--model", str(model),
             "--seed", "0"],
            env={**env, **extra}, stdout=subprocess.DEVNULL)
    assert [proc.wait(timeout=600) for proc in runs.values()] == [0, 0]
    digests = {hashlib.sha256(model.read_bytes()).hexdigest()
               for model in runs}
    assert len(digests) == 1


def test_train_single_class_manifest_refused(tmp_path, corpus_dir, capsys):
    bad = tmp_path / "single.jsonl"
    lines = []
    for php in sorted(corpus_dir.glob("neg_*.php"))[:10]:
        lines.append(json.dumps({"path": str(php), "label": 0,
                                 "split": "train"}))
    bad.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "train", str(bad),
                       "--model", str(tmp_path / "m.json"))
    assert code == 2
    assert "both classes" in err


def test_bench_csv_and_ablation_row(model_path, corpus_dir, capsys):
    code, out, _ = run(capsys, "bench", str(corpus_dir / "manifest.jsonl"),
                       "--model", model_path, "--ablate", "no-bias",
                       "--split", "test")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("variant,")
    variants = [line.split(",")[0] for line in lines[1:]]
    assert variants == ["full", "stage2-full", "stage2-no-bias"]


def test_bench_refuses_labeled_file_that_does_not_parse(model_path, tmp_path,
                                                        capsys):
    bad = tmp_path / "bad.php"
    bad.write_text("<?php $a = (;")
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("".join(
        json.dumps({"path": str(path), "label": label, "split": "test"}) + "\n"
        for path, label in ((FIXTURES / "command_injection.php", 1),
                            (FIXTURES / "clean_page.php", 0), (bad, 0))))
    for extra in ((), ("--ablate", "no-bias")):
        code, out, err = run(capsys, "bench", str(manifest), "--model",
                             model_path, *extra)
        assert code == 2
        assert out == ""
        assert "1 labeled file(s) cannot be scored" in err
        assert str(bad) in err


def test_bench_refuses_labeled_file_that_is_not_utf8(model_path, tmp_path,
                                                     capsys):
    bad = tmp_path / "bad.php"
    bad.write_bytes('<?php echo "café";'.encode("latin-1"))
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("".join(
        json.dumps({"path": str(path), "label": label, "split": "test"}) + "\n"
        for path, label in ((FIXTURES / "command_injection.php", 1),
                            (bad, 0), (FIXTURES / "clean_page.php", 0))))
    code, out, err = run(capsys, "bench", str(manifest), "--model",
                         model_path)
    assert code == 2
    assert out == ""
    assert "1 labeled file(s) cannot be scored" in err
    assert f"{bad}: not valid UTF-8" in err


def test_bench_uses_the_model_lexicon(bundle, tmp_path, monkeypatch, capsys):
    import vulnminer.bench as bench_mod

    page = tmp_path / "job.php"
    page.write_text("<?php\nrun_job($_GET['c']);\n")
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("".join(
        json.dumps({"path": str(path), "label": label}) + "\n"
        for path, label in ((page, 1), (FIXTURES / "clean_page.php", 0))))
    analyses = []
    analysis = bench_mod.FileAnalysis

    def seen_analysis(unit, lex):
        analyses.append(analysis(unit, lex))
        return analyses[-1]

    monkeypatch.setattr(bench_mod, "FileAnalysis", seen_analysis)
    code, out, err = run(capsys, "bench", str(manifest), "--split", "all",
                         "--model", _custom_lexicon_model(bundle, tmp_path))
    assert code == 0, err
    assert out.startswith("variant,")
    assert [a.path for a in analyses] == [str(page),
                                          str(FIXTURES / "clean_page.php")]
    assert [f.sink_name for f in analyses[0].findings] == ["run_job"]


def test_scan_only_unparseable_file_exits_two(model_path, tmp_path, capsys):
    (tmp_path / "handler.php").write_text(
        '<?php\nclass Handler {\n    public function run() {\n'
        '        system($_GET["c"]);\n    }\n}\n')
    for command in ("scan", "localize"):
        code, out, _ = run(capsys, command, "--model", model_path,
                           str(tmp_path))
        assert code == 2
        [record] = [json.loads(line) for line in out.splitlines()]
        assert record["path"] == str(tmp_path / "handler.php")
        code, _, _ = run(capsys, command, "--model", model_path,
                         "--allow-errors", str(tmp_path))
        assert code == 0


@pytest.mark.parametrize("allow", [(), ("--allow-errors",)])
def test_internal_fault_exits_two_with_one_line(allow, model_path,
                                                 monkeypatch, capsys):
    # a fault of the program is no per-file record: --allow-errors keeps it
    def failing(*args, **kwargs):
        raise KeyError("name")

    monkeypatch.setattr(cli_mod, "run_pipeline", failing)
    code, out, err = run(capsys, "scan", "--model", model_path, *allow,
                         str(FIXTURES / "clean_page.php"))
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["internal error: KeyError: 'name'"]
    assert "Traceback" not in err


def test_bench_invalid_flag_exits_two(model_path, corpus_dir, capsys):
    code, _, err = run(capsys, "bench", str(corpus_dir / "manifest.jsonl"),
                       "--model", model_path, "--ablate", "warp-drive")
    assert code == 2
    assert "unknown ablation" in err


def test_augment_command(model_path, corpus_dir, tmp_path, capsys):
    out_dir = tmp_path / "aug"
    code, out, _ = run(capsys, "augment", str(corpus_dir / "manifest.jsonl"),
                       "--ratio", "0.35", "--out-dir", str(out_dir),
                       "--seed", "3")
    assert code == 0
    manifest = out_dir / "augmented.jsonl"
    rows = [json.loads(line) for line in manifest.read_text().splitlines()]
    assert rows
    for row in rows:
        assert Path(row["output"]).exists()


def test_augment_rewrites_a_for_loop_with_an_indexed_step(tmp_path, capsys):
    loop = tmp_path / "loop.php"
    loop.write_text(
        "<?php for ($i = 0; $i < 2; $b[$i] = 1) { echo $_GET['x']; }\n")
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("".join(
        json.dumps({"path": str(path), "label": label}) + "\n"
        for path, label in ((loop, 1),) + ((FIXTURES / "clean_page.php", 0),) * 3))
    code, out, _ = run(capsys, "augment", str(manifest), "--ratio", "0.8",
                       "--out-dir", str(tmp_path / "aug"))
    assert code == 0
    assert out.startswith("emitted ")


def test_augment_stops_on_a_file_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "bad.php"
    bad.write_bytes('<?php system("café " . $_GET["c"]);'.encode("latin-1"))
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("".join(
        json.dumps({"path": str(path), "label": label}) + "\n"
        for path, label in ((bad, 1), (FIXTURES / "clean_page.php", 0))))
    code, out, err = run(capsys, "augment", str(manifest), "--ratio", "0.8",
                         "--out-dir", str(tmp_path / "aug"))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {bad}: not valid UTF-8")


def test_scan_determinism(model_path, corpus_dir, capsys):
    files = [str(p) for p in sorted(corpus_dir.glob("*.php"))[:20]]
    _, out1, _ = run(capsys, "scan", "--model", model_path, *files)
    _, out2, _ = run(capsys, "scan", "--model", model_path, *files)
    assert out1 == out2


def test_gen_corpus_command(tmp_path, capsys):
    code, out, _ = run(capsys, "gen-corpus", "--out-dir",
                       str(tmp_path / "c"), "--size", "24", "--ratio", "0.3",
                       "--seed", "11")
    assert code == 0
    assert (tmp_path / "c" / "manifest.jsonl").exists()


def test_gen_corpus_relative_dir_then_train(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, "gen-corpus", "--out-dir", "corpus",
                     "--size", "20", "--seed", "7")
    assert code == 0
    first = json.loads(Path("corpus/manifest.jsonl").read_text().splitlines()[0])
    assert not Path(first["path"]).is_absolute()
    code, out, err = run(capsys, "train", "corpus/manifest.jsonl",
                         "--model", "m.json")
    assert code == 0, err
    assert Path("m.json").exists()


def test_localization_rate_command(model_path, capsys, tmp_path):
    code, out, _ = run(capsys, "localize", "--model", model_path, "--out",
                       str(tmp_path / "reports.jsonl"),
                       str(FIXTURES / "command_injection.php"))
    assert code == 1
    code, out, _ = run(capsys, "localization-rate",
                       str(tmp_path / "reports.jsonl"))
    assert code == 0
    doc = json.loads(out)
    assert doc["rate"] == 1.0


def test_localization_rate_skips_error_records(model_path, capsys, tmp_path):
    scanned = tmp_path / "scanned"
    scanned.mkdir()
    (scanned / "bad.php").write_bytes(b"<?php echo '\xff';")
    (scanned / "good.php").write_text(
        (FIXTURES / "command_injection.php").read_text())
    reports = tmp_path / "reports.jsonl"
    code, _, _ = run(capsys, "localize", "--model", model_path, "--out",
                     str(reports), str(scanned))
    assert code == 2
    records = [json.loads(line) for line in reports.read_text().splitlines()]
    assert [sorted(r) for r in records][-1] == ["error", "path"]
    code, out, err = run(capsys, "localization-rate", str(reports))
    assert code == 0, err
    assert json.loads(out)["rate"] == 1.0
    for stray in ('{"path": "x.php"}', "[1, 2]", "not json"):
        reports.write_text(reports.read_text() + stray + "\n")
        code, out, err = run(capsys, "localization-rate", str(reports))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {reports}:{len(records) + 1}: ")
        reports.write_text("".join(
            json.dumps(r) + "\n" for r in records))
