"""Flatten flow graphs to token sequences and map tokens to vectors."""

from __future__ import annotations

import functools
import hashlib
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .frontend.nodes import AstNode, NodeKind, STATEMENT_KINDS
from .flows import FlowGraph
from .lexicon import RESERVED_FUNCTION_NAMES, SECRET_NAME_RE

MAX_SEQUENCE = 512
PAD, UNK = "<pad>", "<unk>"
FLOW_MARK = "DF"

_KIND_TOKENS = {
    NodeKind.PROGRAM: "prog",
    NodeKind.IF: "if",
    NodeKind.WHILE: "while",
    NodeKind.FOR: "for",
    NodeKind.FOREACH: "foreach",
    NodeKind.RETURN: "return",
    NodeKind.ECHO: "echo",
    NodeKind.ASSIGN: "=",
    NodeKind.EXPR_STMT: "expr",
    NodeKind.CONCAT: ".",
    NodeKind.INDEX: "idx",
}


@dataclass
class TokenSequence:
    tokens: list[str]
    truncated: bool = False
    # (token position, node id) of each kept statement, in order
    statements: tuple[tuple[int, int], ...] = ()

    def head(self) -> "TokenSequence":
        """The first ``MAX_SEQUENCE`` tokens and the statements that start
        among them, marked truncated when tokens were cut; ``self`` when
        it fits."""
        if len(self.tokens) <= MAX_SEQUENCE:
            return self
        return TokenSequence(
            tokens=self.tokens[:MAX_SEQUENCE], truncated=True,
            statements=tuple(s for s in self.statements if s[0] < MAX_SEQUENCE))


def linearize(graph: FlowGraph, canonical: bool = True,
              flow_markers: bool = True,
              keep: frozenset[str] | None = None) -> TokenSequence:
    """Pre-order DFS token stream of ``graph``, whole.

    With ``flow_markers`` the result is its ``head`` with the def/use
    markers of ``with_flow_markers`` appended, statement ordinals 1-based.
    Function names in ``keep`` (default: built-ins and the default
    lexicon) stay as they are; other function names are renamed.
    """
    keep = RESERVED_FUNCTION_NAMES if keep is None else keep
    var_names: dict[str, str] = {}
    fn_names: dict[str, str] = {}
    secret_count = 0

    def var_symbol(name: str) -> str:
        if not canonical:
            return f"${name}"
        if name not in var_names:
            nonlocal secret_count
            # credential-style names keep a distinguished symbol class;
            # the name itself is a security signal
            if SECRET_NAME_RE.search(name):
                secret_count += 1
                var_names[name] = f"$sec{secret_count}"
            else:
                var_names[name] = f"$v{len(var_names) - secret_count + 1}"
        return var_names[name]

    def fn_symbol(name: str) -> str:
        if name in keep:
            return name
        if not canonical:
            return f"fn:{name}"
        if name not in fn_names:
            fn_names[name] = f"f{len(fn_names) + 1}"
        return fn_names[name]

    tokens: list[str] = []
    statements: list[tuple[int, int]] = []

    for node in graph.root.walk():
        if node.kind in STATEMENT_KINDS:
            statements.append((len(tokens), node.node_id))
        tokens.append(_node_symbol(node, var_symbol, fn_symbol))

    seq = TokenSequence(tokens=tokens, statements=tuple(statements))
    return with_flow_markers(seq.head(), graph) if flow_markers else seq


def with_flow_markers(seq: TokenSequence, graph: FlowGraph) -> TokenSequence:
    """``seq`` with a ``DF @i @j`` triple appended per data-flow pair.

    ``seq`` is the ``head`` of ``graph`` linearized without markers. Both
    ends of a pair are statements, so it survives the cut when both have
    an ordinal; a pair that does not, or a marker past ``MAX_SEQUENCE``,
    marks the result truncated.
    """
    ordinal = {node_id: k for k, (_, node_id) in enumerate(seq.statements, 1)}
    markers = sorted((ordinal[src], ordinal[dst]) for src, dst in graph.dataflow
                     if src in ordinal and dst in ordinal)
    truncated = seq.truncated or len(markers) < len(graph.dataflow)
    tokens = list(seq.tokens)
    for src_ord, dst_ord in markers:
        if len(tokens) + 3 > MAX_SEQUENCE:
            truncated = True
            break
        tokens.extend((FLOW_MARK, f"@{src_ord}", f"@{dst_ord}"))
    return TokenSequence(tokens=tokens, truncated=truncated,
                         statements=seq.statements)


def _node_symbol(node: AstNode, var_symbol, fn_symbol) -> str:
    k = node.kind
    if k is NodeKind.VAR:
        return var_symbol(node.attrs["name"])
    if k is NodeKind.SUPERGLOBAL:
        return f"$_{node.attrs['sg']}"
    if k is NodeKind.CALL:
        return fn_symbol(node.attrs["name"])
    if k is NodeKind.FUNCTION_DECL:
        return f"fndecl:{fn_symbol(node.attrs['name'])}"
    if k is NodeKind.INCLUDE_STMT:
        return node.attrs["flavor"]
    if k is NodeKind.BINARY_OP:
        return f"op:{node.attrs['op']}"
    if k is NodeKind.STRING_LIT:
        return _string_symbol(node.attrs["value"])
    if k is NodeKind.NUMBER_LIT:
        return f"num:{node.attrs['text']}"
    token = _KIND_TOKENS.get(k)
    if token is None:
        raise ValueError(f"no token rule for node kind {k}")
    return token


_CRED_RE = re.compile(r"^(?=.*[A-Za-z])(?=.*\d)[A-Za-z0-9_]{6,}$")


# a corpus repeats few distinct literals, and each costs a sha256
@functools.lru_cache(maxsize=4096)
def _string_symbol(value: str) -> str:
    if value == "":
        return "str:empty"
    lowered = value.lstrip().lower()
    if lowered.startswith(("select ", "insert ", "update ", "delete ")):
        cls = "sql"
    elif lowered.startswith("location:"):
        cls = "loc"
    elif _CRED_RE.match(value):
        cls = "cred"  # opaque token-like literal, the hard-coded secret shape
    else:
        cls = "txt"
    digest = hashlib.sha256(value.encode("utf-8")).hexdigest()[:4]
    return f"str:{cls}:{digest}"


def fallback_symbol(symbol: str) -> str | None:
    """Coarse bucket for open-ended symbol families (literals, ordinals)."""
    if symbol.startswith("str:"):
        return "str:" + symbol.split(":")[1] + ":*"
    if symbol.startswith("num:"):
        return "num:*"
    if symbol.startswith("@"):
        return "@*"
    return None


_FALLBACKS = ("str:cred:*", "str:empty:*", "str:loc:*", "str:sql:*", "str:txt:*", "num:*", "@*")


@dataclass
class Vocabulary:
    """Dense symbol table; id 0 is PAD, id 1 is UNK.

    Unknown literal/ordinal symbols resolve to their class bucket instead
    of UNK, so unseen string hashes keep their content-class signal.
    """

    symbols: list[str]
    index: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.index:
            self.index = {s: i for i, s in enumerate(self.symbols)}
        if self.symbols[0] != PAD or self.symbols[1] != UNK:
            raise ConfigError("vocabulary must start with PAD, UNK")

    @classmethod
    def build(cls, streams) -> "Vocabulary":
        seen: set[str] = set(_FALLBACKS)
        for stream in streams:
            seen.update(stream)
        return cls(symbols=[PAD, UNK] + sorted(seen - {PAD, UNK}))

    def __len__(self) -> int:
        return len(self.symbols)

    def id_of(self, symbol: str) -> int:
        hit = self.index.get(symbol)
        if hit is not None:
            return hit
        bucket = fallback_symbol(symbol)
        if bucket is not None:
            return self.index.get(bucket, 1)
        return 1

    def ids(self, tokens: list[str]) -> list[int]:
        return [self.id_of(t) for t in tokens]

    def stable_hash(self) -> str:
        return hashlib.sha256("\n".join(self.symbols).encode("utf-8")).hexdigest()


@dataclass
class EmbeddingTable:
    """|V| x d lookup table; the PAD row stays pinned at zero."""

    matrix: np.ndarray

    @classmethod
    def init(cls, vocab_size: int, dim: int, seed: int) -> "EmbeddingTable":
        rng = np.random.default_rng(seed)
        matrix = rng.uniform(-0.1, 0.1, size=(vocab_size, dim))
        matrix[0, :] = 0.0
        return cls(matrix=matrix)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def vocab_size(self) -> int:
        return self.matrix.shape[0]

    def validate(self, vocab: Vocabulary) -> None:
        if self.vocab_size != len(vocab):
            raise ConfigError(
                f"embedding rows {self.vocab_size} != vocabulary size {len(vocab)}")
        if not np.isfinite(self.matrix).all():
            raise ConfigError("embedding table contains non-finite entries")


def embed_sequence(seq: TokenSequence, table: EmbeddingTable,
                   vocab: Vocabulary) -> np.ndarray:
    """Row i is the embedding of token i; unknown symbols map to UNK."""
    if len(vocab) != table.vocab_size:
        raise ConfigError("vocabulary and embedding table sizes differ")
    ids = vocab.ids(seq.tokens)
    return table.matrix[ids] if ids else np.zeros((0, table.dim))
