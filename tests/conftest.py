"""Shared fixtures: the seeded bundled corpus and a trained model."""

import os
from pathlib import Path

# One BLAS thread, as the CLI pins it, before numpy first loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import pytest  # noqa: E402

from vulnminer.corpus import generate_synthetic_corpus  # noqa: E402
from vulnminer.detector import train_bundle  # noqa: E402
from vulnminer.source import SourceUnit  # noqa: E402

CORPUS_SEED = 7
CORPUS_SIZE = 200
POSITIVE_RATIO = 0.3
MODEL_SEED = 0

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    generate_synthetic_corpus(path, seed=CORPUS_SEED, size=CORPUS_SIZE,
                              positive_ratio=POSITIVE_RATIO)
    return path


@pytest.fixture(scope="session")
def manifest(corpus_dir):
    from vulnminer.corpus import CorpusManifest

    return CorpusManifest.load(corpus_dir / "manifest.jsonl")


_train_seconds = {}


@pytest.fixture(scope="session")
def bundle(manifest):
    import time

    start = time.monotonic()
    result = train_bundle(manifest, seed=MODEL_SEED)
    _train_seconds["value"] = time.monotonic() - start
    return result


@pytest.fixture(scope="session")
def model_path(bundle, tmp_path_factory):
    from vulnminer.model_store import save_model

    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(bundle, path)
    return str(path)


@pytest.fixture(scope="session")
def train_elapsed(bundle):
    return _train_seconds["value"]


@pytest.fixture(scope="session")
def corpus_units(manifest):
    return [SourceUnit.from_file(e.path) for e in manifest.entries]


@pytest.fixture(scope="session")
def labels(manifest):
    return {e.path: e.label for e in manifest.entries}


def fixture_unit(name: str) -> SourceUnit:
    return SourceUnit.from_file(FIXTURES / name)


@pytest.fixture
def parse_count(monkeypatch):
    """Paths of the texts parsed while the test runs, one per parse."""
    from vulnminer.frontend import parser

    calls = []
    program = parser._Parser.program

    def counting(self):
        calls.append(self.unit.path)
        return program(self)

    monkeypatch.setattr(parser._Parser, "program", counting)
    return calls


@pytest.fixture
def command_injection_unit():
    return fixture_unit("command_injection.php")


@pytest.fixture
def command_injection_fixed_unit():
    return fixture_unit("command_injection_fixed.php")


@pytest.fixture
def sql_auth_unit():
    return fixture_unit("sql_auth.php")


@pytest.fixture
def clean_unit():
    return fixture_unit("clean_page.php")
