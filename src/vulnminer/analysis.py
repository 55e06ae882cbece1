"""One analysis per source text, shared by both stages and localization."""

from __future__ import annotations

from functools import cached_property

from .flows import augment_flows, taint_trace
from .frontend import normalize, parse
from .lexicon import DEFAULT_LEXICON, TaintLexicon
from .linearize import linearize
from .source import SourceUnit


class FileAnalysis:
    """Parse, flow graph, sequences and taint findings of one file.

    Each field is computed on first use and kept, so stage one, stage two,
    the advisory finding and localization share a single parse. A parse
    failure is not kept: each field that needs the tree raises the
    ``ParseError`` again.
    """

    def __init__(self, unit: SourceUnit, lex: TaintLexicon | None = None):
        self.unit = unit
        self.lex = lex or DEFAULT_LEXICON

    @property
    def path(self) -> str:
        return self.unit.path

    @cached_property
    def ast(self):
        return parse(self.unit)

    @cached_property
    def graph(self):
        return augment_flows(self.ast)

    @cached_property
    def structural(self):
        """Stage-one input: the flow graph linearized with flow markers."""
        return linearize(self.graph, flow_markers=True)

    @cached_property
    def normalized(self):
        return normalize(self.ast)

    @cached_property
    def normalized_graph(self):
        return augment_flows(self.normalized)

    @cached_property
    def semantic(self):
        """Stage-two input: the normalized graph without flow markers."""
        return linearize(self.normalized_graph, flow_markers=False)

    @cached_property
    def findings(self):
        return taint_trace(self.graph, self.lex)
