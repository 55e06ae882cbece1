"""One analysis per source text, shared by both stages and localization."""

from __future__ import annotations

from functools import cached_property

from .errors import ParseError
from .flows import augment_flows, file_is_vulnerable, file_vuln_types, taint_trace
from .frontend import parse
from .lexicon import DEFAULT_LEXICON, TaintLexicon
from .linearize import linearize, with_flow_markers
from .source import SourceUnit


class FileAnalysis:
    """Parse tree and its indexes, flow graph, stage sequences, taint findings.

    Each field is computed on first use and kept, so stage one, stage two,
    the advisory finding and localization share one parse and one flow
    graph. The tree indexes ``nodes`` and ``parents`` live here, not on
    the flow graph, and only localization reads them. One walk of the
    graph feeds both stage sequences: ``semantic`` linearizes it,
    renaming variables and user functions canonically (stage two's
    normalization), and ``structural`` is that sequence with the def-use
    markers appended. A parse failure is not kept: each field that needs
    the tree raises the ``ParseError`` again. Function names in ``keep``
    (built-ins and every name of the lexicon) are never renamed.
    """

    def __init__(self, unit: SourceUnit, lex: TaintLexicon | None = None):
        self.unit = unit
        self.lex = lex or DEFAULT_LEXICON
        self.keep = self.lex.keep

    @property
    def path(self) -> str:
        return self.unit.path

    @cached_property
    def ast(self):
        return parse(self.unit)

    @cached_property
    def nodes(self):
        """Node id -> node over the whole tree."""
        return {node.node_id: node for node in self.ast.walk()}

    @cached_property
    def parents(self):
        """Node id -> parent node over the whole tree; the root has none."""
        return {child.node_id: node for node in self.ast.walk()
                for child in node.children}

    @cached_property
    def graph(self):
        return augment_flows(self.ast)

    @cached_property
    def structural(self):
        """Stage-one input: ``semantic`` with the flow markers appended."""
        return with_flow_markers(self.semantic, self.graph)

    @cached_property
    def semantic(self):
        """Stage-two input: the flow graph linearized without flow markers."""
        return linearize(self.graph, flow_markers=False, keep=self.keep)

    @cached_property
    def findings(self):
        return taint_trace(self.graph, self.lex)

    @property
    def oracle_label(self) -> tuple[bool, tuple[str, ...]]:
        """Whether the taint oracle finds an unsanitized flow, and its types."""
        return file_is_vulnerable(self.findings), file_vuln_types(self.findings)


def analyzed(analysis: FileAnalysis, errors: list, *fields: str) -> bool:
    """Whether the named fields compute; if not, the file's (path, message)
    error record, the parse error or ``nesting too deep``, goes to
    ``errors``, as ``source.read_unit`` does for a file it cannot read."""
    try:
        for field in fields:
            getattr(analysis, field)
        return True
    except ParseError as exc:
        errors.append((analysis.path, str(exc)))
    except RecursionError:
        errors.append((analysis.path, "nesting too deep"))
    return False
