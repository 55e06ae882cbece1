"""Golden digest of the guard plans the deterministic backend makes.

One sha256 covers every candidate ``generate_candidates`` builds from the
default templates with the deterministic backend: its template id, variant,
whether it parses and its text. The inputs are every oracle-positive file
of a generated corpus and every fixture with an unsanitized finding, each
in the function window ``build_ir`` picks and in the whole-file window
``refine_context`` widens it to. No model is involved, so any change to
what the step that proposes fixes produces shows here.
"""

import hashlib
from pathlib import Path

from vulnminer.analysis import FileAnalysis
from vulnminer.corpus import generate_synthetic_corpus
from vulnminer.errors import NoFindingError
from vulnminer.localize import (
    DeterministicBackend,
    build_ir,
    default_templates,
    extract_constraints,
    generate_candidates,
    refine_context,
)
from vulnminer.source import SourceUnit

FIXTURES = Path(__file__).parent / "fixtures"
_WIDEN = [{"kind": "verification_failure", "detail": "golden"}]


def _plans(ir) -> list[tuple]:
    candidates = generate_candidates(ir, extract_constraints(ir),
                                     default_templates(),
                                     DeterministicBackend())
    return [(c.template_id, c.variant, c.parse_ok, c.text)
            for c in candidates]


def digest(named_texts) -> tuple[str, int]:
    h = hashlib.sha256()
    n_plans = 0
    for name, text in named_texts:
        try:
            ir = build_ir(FileAnalysis(SourceUnit.from_text(name, text)))
        except NoFindingError:
            continue
        for window, window_ir in (("function", ir),
                                  ("file", refine_context(ir, _WIDEN))):
            plans = _plans(window_ir)
            n_plans += len(plans)
            h.update(repr((name, window, plans)).encode("utf-8"))
    return h.hexdigest(), n_plans


def test_deterministic_plans_digest(tmp_path):
    manifest = generate_synthetic_corpus(tmp_path, seed=41, size=300,
                                         positive_ratio=0.3)
    paths = [Path(e.path) for e in manifest.positives()]
    paths += sorted(FIXTURES.glob("*.php"))
    texts = [(p.name, p.read_text(encoding="utf-8")) for p in paths]
    assert digest(texts) == (
        "8e79e5925530f3431eecabb159cffcfb7dbf5d3b7b203665ced1e15d18486664",
        366)
