"""Taint lexicon: sources, sinks, sanitizers and reserved names."""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .errors import LexiconError

# Sink classes; order encodes severity for tie-breaking (most severe first).
SINK_CLASSES = ("Command", "Sql", "Include", "Redirect", "Output")
SEVERITY = {cls: len(SINK_CLASSES) - i for i, cls in enumerate(SINK_CLASSES)}

SUPERGLOBAL_SOURCES = frozenset({
    "$_GET", "$_POST", "$_REQUEST", "$_COOKIE", "$_SERVER", "$_FILES",
})

# Sinks that fetch a record by raw identifier; findings through them are
# classified as insecure direct object references rather than injection.
IDOR_FETCH_SINKS = frozenset({
    "fetch_record", "fetch_object", "get_record", "find_record", "load_record",
})

# Variable names that suggest a hard-coded credential when assigned a literal.
SECRET_NAME_RE = re.compile(
    r"(^|_)(pass(word|wd)?|pwd|secret|token|api_?key|credentials?|auth_?key)($|_)",
    re.IGNORECASE,
)

# Functions that are never renamed but are not sinks or sanitizers.
BUILTIN_FUNCTIONS = frozenset({
    "strlen", "substr", "strtolower", "strtoupper", "trim", "sprintf",
    "str_replace", "implode", "explode", "getenv", "md5", "sha1", "rand",
    "count", "isset", "empty", "is_numeric", "preg_match", "in_array",
    "date", "time", "number_format", "json_encode", "ucfirst",
    "db_prepare", "db_bind", "db_execute",
})


@dataclass(frozen=True)
class TaintLexicon:
    """Source names, sink classes and class-scoped sanitizers."""

    sources: frozenset[str]
    sinks: dict[str, str]                     # name -> sink class
    sanitizers: dict[str, frozenset[str]]     # name -> classes it neutralizes

    def __post_init__(self):
        if not self.sources or not self.sinks:
            raise LexiconError("lexicon must declare sources and sinks")
        declared = set(self.sinks.values())
        unknown = declared - set(SINK_CLASSES)
        if unknown:
            raise LexiconError(f"unknown sink classes: {sorted(unknown)}")
        for name, classes in self.sanitizers.items():
            extra = set(classes) - declared
            if extra:
                raise LexiconError(
                    f"sanitizer {name} covers undeclared sink classes {sorted(extra)}")

    # The name sets below are built on first use and kept on the instance:
    # the fields are never rebound, and ``dataclasses.replace`` makes a new
    # instance with an empty cache.
    @cached_property
    def names(self) -> frozenset[str]:
        """Every name the lexicon knows; these survive renaming."""
        return frozenset(self.sinks) | frozenset(self.sanitizers) | self.sources

    @cached_property
    def keep(self) -> frozenset[str]:
        """Function names never renamed: built-ins and every lexicon name."""
        return BUILTIN_FUNCTIONS | self.names

    @cached_property
    def risky(self) -> frozenset[str]:
        """Source and sink symbols used to build attention risk columns."""
        return self.sources | frozenset(self.sinks)


DEFAULT_LEXICON = TaintLexicon(
    sources=SUPERGLOBAL_SOURCES,
    sinks={
        "system": "Command",
        "exec": "Command",
        "shell_exec": "Command",
        "passthru": "Command",
        "popen": "Command",
        "eval": "Command",
        "mysql_query": "Sql",
        "mysqli_query": "Sql",
        "pg_query": "Sql",
        "query": "Sql",
        "mysql_connect": "Sql",
        "fetch_record": "Sql",
        "fetch_object": "Sql",
        "get_record": "Sql",
        "find_record": "Sql",
        "load_record": "Sql",
        "echo": "Output",
        "print": "Output",
        "printf": "Output",
        "include": "Include",
        "include_once": "Include",
        "require": "Include",
        "require_once": "Include",
        "header": "Redirect",
    },
    sanitizers={
        "escapeshellcmd": frozenset({"Command"}),
        "escapeshellarg": frozenset({"Command"}),
        "sanitize_path": frozenset({"Command", "Include"}),
        "sanitize_filename": frozenset({"Command", "Include"}),
        "htmlspecialchars": frozenset({"Output"}),
        "htmlentities": frozenset({"Output"}),
        "strip_tags": frozenset({"Output"}),
        "mysqli_real_escape_string": frozenset({"Sql"}),
        "addslashes": frozenset({"Sql"}),
        "intval": frozenset({"Command", "Sql", "Include", "Redirect", "Output"}),
        "basename": frozenset({"Include"}),
        "urlencode": frozenset({"Redirect"}),
        "sanitize_url": frozenset({"Redirect"}),
    },
)

# Names that must survive identifier normalization.
RESERVED_FUNCTION_NAMES = DEFAULT_LEXICON.keep


def parse_lexicon(lines: list[str], where) -> TaintLexicon:
    """A lexicon from ``kind,name,class`` lines, as a file or a model holds
    them; blank lines and # comments ignored. ``where`` names the lines."""
    sources: set[str] = set()
    sinks: dict[str, str] = {}
    sanitizers: dict[str, set[str]] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        kind = fields[0]
        if kind == "source" and len(fields) >= 2:
            sources.add(fields[1])
        elif kind == "sink" and len(fields) == 3:
            sinks[fields[1]] = fields[2]
        elif kind == "sanitizer" and len(fields) == 3:
            sanitizers.setdefault(fields[1], set()).add(fields[2])
        else:
            raise LexiconError(f"{where}:{lineno}: bad lexicon entry {raw!r}")
    return TaintLexicon(
        sources=frozenset(sources),
        sinks=sinks,
        sanitizers={k: frozenset(v) for k, v in sanitizers.items()},
    )


def load_lexicon(path: str | Path) -> TaintLexicon:
    return parse_lexicon(
        Path(path).read_text(encoding="utf-8").splitlines(), path)


def lexicon_entries(lex: TaintLexicon) -> list[str]:
    """The lexicon as sorted ``kind,name[,class]`` lines, as files hold it."""
    lines = [f"source,{name}" for name in lex.sources]
    lines += [f"sink,{name},{cls}" for name, cls in lex.sinks.items()]
    for name, classes in lex.sanitizers.items():
        lines += [f"sanitizer,{name},{cls}" for cls in classes]
    return sorted(lines)


def lexicon_hash(entries: list[str]) -> str:
    """sha256 of the entries, one per line: what a model records."""
    return hashlib.sha256("\n".join(entries).encode("utf-8")).hexdigest()
