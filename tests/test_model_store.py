import base64
import json
import re
import tracemalloc

import numpy as np
import pytest

from vulnminer.errors import ConfigError
from vulnminer.lexicon import DEFAULT_LEXICON, lexicon_entries
from vulnminer.model_store import FusionSettings, load_model, save_model
from vulnminer.nn import AttentionParams


def test_fusion_settings_validation():
    with pytest.raises(ConfigError):
        FusionSettings(lam=1.5)
    with pytest.raises(ConfigError):
        FusionSettings(tau1=1.0)
    with pytest.raises(ConfigError):
        FusionSettings(beta=-0.5)


def test_save_load_round_trip_bitexact(bundle, tmp_path):
    path = tmp_path / "model.json"
    save_model(bundle, path)
    loaded = load_model(path)
    assert loaded.vocab.symbols == bundle.vocab.symbols
    assert np.array_equal(loaded.embedding.matrix, bundle.embedding.matrix)
    for key, arr in bundle.stage1.arrays().items():
        assert np.array_equal(arr, loaded.stage1.arrays()[key]), key
    for key, arr in bundle.stage2.arrays().items():
        assert np.array_equal(arr, loaded.stage2.arrays()[key]), key
    assert loaded.fusion == bundle.fusion
    assert loaded.curves == bundle.curves
    assert loaded.lexicon == bundle.lexicon == lexicon_entries(DEFAULT_LEXICON)


def test_save_writes_compact_json_and_indented_files_load(bundle, tmp_path):
    path = tmp_path / "model.json"
    save_model(bundle, path)
    text = path.read_text()
    assert "\n" not in text and ", " not in text
    indented = tmp_path / "indented.json"
    indented.write_text(json.dumps(json.loads(text), sort_keys=True, indent=1))
    loaded = load_model(indented)
    for key, arr in bundle.stage2.arrays().items():
        assert np.array_equal(arr, loaded.stage2.arrays()[key]), key
    assert np.array_equal(loaded.embedding.matrix, bundle.embedding.matrix)


def test_save_is_deterministic(bundle, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_model(bundle, a)
    save_model(bundle, b)
    assert a.read_bytes() == b.read_bytes()


def test_missing_file_raises():
    with pytest.raises(ConfigError, match="not found"):
        load_model("/nonexistent/model.json")


def test_corrupted_vocab_hash_detected(bundle, tmp_path):
    path = tmp_path / "model.json"
    save_model(bundle, path)
    doc = json.loads(path.read_text())
    doc["vocab"][5] = doc["vocab"][5] + "_tampered"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="hash"):
        load_model(path)


def test_shape_mismatch_detected(bundle, tmp_path):
    path = tmp_path / "model.json"
    save_model(bundle, path)
    doc = json.loads(path.read_text())
    raw = base64.b64decode(doc["stage1"]["w"]["f8"])
    doc["stage1"]["w"]["f8"] = base64.b64encode(raw[:-8]).decode("ascii")
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="payload"):
        load_model(path)


def test_unknown_format_version(bundle, tmp_path):
    path = tmp_path / "model.json"
    save_model(bundle, path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="format"):
        load_model(path)


def _tampered(bundle, tmp_path, tamper):
    path = tmp_path / "model.json"
    save_model(bundle, path)
    doc = json.loads(path.read_text())
    tamper(doc)
    path.write_text(json.dumps(doc))
    return path


def test_pre_format_two_model_refused(bundle, tmp_path):
    def as_format_one(doc):
        doc["format_version"] = 1
        doc["stage2"]["project_qkv"] = True
        for key in ("stage1_config", "stage2_config"):
            doc[key].update(optimizer="adam", project_qkv=True)

    with pytest.raises(ConfigError, match="unsupported model format 1"):
        load_model(_tampered(bundle, tmp_path, as_format_one))


def test_format_two_model_refused(bundle, tmp_path):
    def as_format_two(doc):
        doc["format_version"] = 2
        del doc["lexicon"]

    with pytest.raises(ConfigError, match="unsupported model format 2"):
        load_model(_tampered(bundle, tmp_path, as_format_two))


def test_format_three_model_refused(bundle, tmp_path):
    def as_format_three(doc):
        doc["format_version"] = 3
        arrays = [doc["embedding"], *doc["stage1"].values(),
                  *doc["stage2"].values()]
        for arr in arrays:
            arr["data"] = np.frombuffer(base64.b64decode(arr.pop("f8"))).tolist()

    with pytest.raises(ConfigError, match="unsupported model format 3"):
        load_model(_tampered(bundle, tmp_path, as_format_three))


def test_save_and_load_make_no_object_per_weight(bundle, tmp_path):
    # Python floats for the ~63k weights would cost several MB.
    path = tmp_path / "model.json"
    for step in (lambda: save_model(bundle, path), lambda: load_model(path)):
        tracemalloc.start()
        try:
            step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6


@pytest.mark.parametrize("section, tamper", [
    ("stage1_config", lambda d: d["stage1_config"].update(momentum=0.9)),
    ("stage2_config", lambda d: d["stage2_config"].update(optimizer="sgd")),
    ("stage1_config", lambda d: d["stage1_config"].update(dim="64")),
    ("vocab", lambda d: d.pop("vocab")),
    ("vocab_hash", lambda d: d.pop("vocab_hash")),
    ("vocab", lambda d: d.update(vocab=7)),
    ("embedding", lambda d: d.update(embedding=[0.0])),
    ("stage1", lambda d: d["stage1"].pop("uz")),
    ("stage1", lambda d: d["stage1"]["w"].update(f8="not base64!")),
    ("stage2", lambda d: d["stage2"].update(project_qkv=True)),
    ("fusion", lambda d: d["fusion"].update(lam=None)),
    ("curves", lambda d: d.pop("curves")),
    ("curves", lambda d: d.update(curves=[0.5])),
    ("lexicon", lambda d: d.pop("lexicon")),
    ("lexicon", lambda d: d["lexicon"]["entries"].append("sink,run_job,Command")),
], ids=["unknown-key", "unknown-string-key", "string-number",
        "no-vocab", "no-vocab-hash", "vocab-not-a-list", "embedding-list",
        "missing-array", "non-base64-array", "unknown-array", "null-number",
        "no-curves", "curves-list", "no-lexicon", "lexicon-hash-mismatch"])
def test_malformed_section_is_a_config_error_naming_it(
        bundle, tmp_path, section, tamper):
    with pytest.raises(ConfigError, match=f"'{section}'"):
        load_model(_tampered(bundle, tmp_path, tamper))


def test_scan_with_malformed_model_exits_two(bundle, tmp_path, capsys):
    from vulnminer.cli import main

    path = _tampered(bundle, tmp_path, lambda d: d.pop("vocab"))
    page = tmp_path / "page.php"
    page.write_text('<?php echo "static";')
    assert main(["scan", "--model", str(path), str(page)]) == 2
    assert "model file has no 'vocab' section" in capsys.readouterr().err


def _stored(arr):
    arr = np.ascontiguousarray(arr, dtype="<f8")
    return {"shape": list(arr.shape),
            "f8": base64.b64encode(arr.tobytes()).decode()}


def _edit_array(head, name, edit):
    """A tamper that replaces one stored array with ``edit`` of it."""
    def tamper(doc):
        stored = doc[head][name]
        arr = np.frombuffer(base64.b64decode(stored["f8"]),
                            dtype="<f8").reshape(stored["shape"])
        doc[head][name] = _stored(edit(arr.copy()))
    return tamper


def _stage2_of_width(width):
    """A tamper that stores a whole, self-consistent stage-two head of
    another width than the embedding's."""
    def tamper(doc):
        head = AttentionParams.init(width, seed=0)
        doc["stage2"] = {k: _stored(v) for k, v in head.arrays().items()}
    return tamper


def _with_nan(arr):
    arr.flat[3] = np.nan
    return arr


# Each head is checked against the widths the model records (the
# embedding width and stage one's hidden width), so a shape error names
# the array that is wrong.
@pytest.mark.parametrize("tamper, message", [
    (_edit_array("stage1", "wz", np.transpose),
     r"GRU param wz has shape \(16, 64\), want \(64, 16\)"),
    (_edit_array("stage1", "uz", _with_nan),
     "GRU param uz has non-finite entries"),
    (_edit_array("stage2", "w1", np.transpose),
     r"attention param w1 has shape \(256, 64\), want \(64, 256\)"),
    (_edit_array("stage2", "w1", _with_nan),
     "attention param w1 has non-finite entries"),
    (_stage2_of_width(32),
     r"attention param wq has shape \(32, 32\), want \(64, 64\)"),
], ids=["stage1-wz-transposed", "stage1-uz-nan", "stage2-w1-transposed",
        "stage2-w1-nan", "stage2-narrower-than-embedding"])
def test_bad_head_weights_refused_naming_head_and_parameter(
        bundle, tmp_path, capsys, tamper, message):
    from vulnminer.cli import main

    path = _tampered(bundle, tmp_path, tamper)
    with pytest.raises(ConfigError, match=message):
        load_model(path)
    page = tmp_path / "page.php"
    page.write_text('<?php echo "static";')
    assert main(["scan", "--model", str(path), str(page)]) == 2
    assert re.search(message, capsys.readouterr().err)
