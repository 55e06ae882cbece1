import hashlib
from collections import Counter
from pathlib import Path

import pytest

from vulnminer.corpus import CorpusManifest, generate_synthetic_corpus
from vulnminer.errors import VulnMinerError
from vulnminer.flows import augment_flows, file_is_vulnerable, taint_trace
from vulnminer.frontend import parse_text


def test_size_and_ratio(manifest):
    assert len(manifest.entries) == 200
    assert len(manifest.positives()) == 60


def test_positive_types_cover_at_least_five(manifest):
    counts = Counter(e.vuln_type for e in manifest.positives())
    assert len(counts) >= 5
    assert set(counts) <= {"Injection", "XSS", "URF", "FileInclusion",
                           "SDE", "SM", "IDOR"}


def test_labels_agree_with_taint_oracle(manifest):
    for entry in manifest.entries:
        text = Path(entry.path).read_text()
        findings = taint_trace(augment_flows(parse_text(entry.path, text)))
        assert file_is_vulnerable(findings) == bool(entry.label), entry.path


def test_splits_disjoint_and_sized(manifest):
    counts = Counter(e.split for e in manifest.entries)
    assert counts["train"] == 140
    assert counts["val"] == 30
    assert counts["test"] == 30
    paths = [e.path for e in manifest.entries]
    assert len(set(paths)) == len(paths)


def test_regeneration_is_byte_identical(tmp_path):
    def digest(root):
        h = hashlib.sha256()
        for path in sorted(Path(root).glob("*.php")):
            h.update(path.name.encode())
            h.update(path.read_bytes())
        return h.hexdigest()

    generate_synthetic_corpus(tmp_path / "a", seed=123, size=40,
                              positive_ratio=0.3)
    generate_synthetic_corpus(tmp_path / "b", seed=123, size=40,
                              positive_ratio=0.3)
    assert digest(tmp_path / "a") == digest(tmp_path / "b")


def test_different_seed_differs(tmp_path):
    m1 = generate_synthetic_corpus(tmp_path / "a", seed=1, size=30,
                                   positive_ratio=0.3)
    m2 = generate_synthetic_corpus(tmp_path / "b", seed=2, size=30,
                                   positive_ratio=0.3)
    texts1 = sorted(Path(e.path).read_text() for e in m1.entries)
    texts2 = sorted(Path(e.path).read_text() for e in m2.entries)
    assert texts1 != texts2


def test_too_small_corpus_rejected(tmp_path):
    with pytest.raises(VulnMinerError):
        generate_synthetic_corpus(tmp_path, seed=0, size=10,
                                  positive_ratio=0.3)


def test_manifest_round_trip(manifest, tmp_path):
    out = tmp_path / "manifest.jsonl"
    manifest.save(out)
    loaded = CorpusManifest.load(out)
    assert [(e.path, e.label, e.vuln_type, e.split)
            for e in loaded.entries] \
        == [(e.path, e.label, e.vuln_type, e.split)
            for e in manifest.entries]


def test_manifest_rejects_unknown_split(tmp_path):
    out = tmp_path / "bad.jsonl"
    out.write_text('{"path": "x.php", "label": 1, "split": "holdout"}\n')
    with pytest.raises(VulnMinerError):
        CorpusManifest.load(out)
