"""Golden digest of the analysis: both stage sequences, data flow and taint.

One sha256 covers every file of a generated corpus and of the fixtures:
each stage sequence's tokens and ``truncated`` flag, the flow graph's
data-flow pairs and every taint finding. Node ids come from a process-wide
counter, so each id is hashed as the node's position in the tree's walk.
The expected digest was recorded from the flow graph that also kept syntax
and control-flow edges and def/use maps, so any change to what the
analysis produces from the reduced graph shows here.
"""

import hashlib
from pathlib import Path

from vulnminer.analysis import FileAnalysis
from vulnminer.corpus import generate_synthetic_corpus
from vulnminer.source import SourceUnit

FIXTURES = Path(__file__).parent / "fixtures"


def _span(span):
    return (span.start_line, span.start_col, span.end_line, span.end_col)


def _record(analysis: FileAnalysis) -> tuple:
    pos = {node.node_id: i for i, node in enumerate(analysis.ast.walk())}
    sequences = [(seq.tokens, seq.truncated)
                 for seq in (analysis.structural, analysis.semantic)]
    dataflow = [(pos[d], pos[u]) for d, u in analysis.graph.dataflow]
    findings = [(pos[f.source_id], pos[f.sink_id], f.sink_class,
                 tuple(pos[n] for n in f.path), f.sanitized,
                 _span(analysis.unit.span_between(f.sink_start, f.sink_end)),
                 f.sink_name, f.source_label,
                 f.source_kind) for f in analysis.findings]
    return sequences, dataflow, findings


def digest(named_texts) -> str:
    h = hashlib.sha256()
    for name, text in named_texts:
        analysis = FileAnalysis(SourceUnit.from_text(name, text))
        h.update(repr((name, _record(analysis))).encode("utf-8"))
    return h.hexdigest()


def test_corpus_and_fixtures_digest(tmp_path):
    manifest = generate_synthetic_corpus(tmp_path, seed=41, size=300,
                                         positive_ratio=0.3)
    paths = [Path(e.path) for e in manifest.entries]
    paths += sorted(FIXTURES.glob("*.php"))
    assert len(paths) == 304
    texts = [(p.name, p.read_text(encoding="utf-8")) for p in paths]
    assert digest(texts) == (
        "ce1608d5371f3d2bf9f5f501117814faa2780ef925e7c059354b98d1f6d62394")
