import json
from pathlib import Path

import pytest

from vulnminer.cli import main
from vulnminer.model_store import save_model

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def model_path(bundle, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(bundle, path)
    return str(path)


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


def test_scan_appendix_fixture_sarif(model_path, capsys):
    code, out, _ = run(capsys, "scan", "--model", model_path,
                       "--format", "sarif",
                       str(FIXTURES / "command_injection.php"))
    assert code == 1
    doc = json.loads(out)
    assert doc["version"] == "2.1.0"
    results = doc["runs"][0]["results"]
    assert len(results) == 1
    region = results[0]["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 3


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
