"""Source files and positions."""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

_BOM = "﻿"


@dataclass(frozen=True, slots=True)
class Span:
    """1-based inclusive source region, made by ``SourceUnit.span_between``
    where a position is printed or compared."""

    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def __post_init__(self):
        if self.start_line > self.end_line or (
                self.start_line == self.end_line and self.start_col > self.end_col):
            raise ValueError(f"span start after end: {self}")

    @property
    def lines(self) -> list[int]:
        return list(range(self.start_line, self.end_line + 1))


@dataclass(frozen=True)
class SourceUnit:
    """A single PHP file: identifier and raw text."""

    path: str
    text: str

    def __post_init__(self):
        if not self.path:
            raise ValueError("SourceUnit.path must be non-empty")

    @classmethod
    def from_text(cls, path: str, text: str) -> "SourceUnit":
        if text.startswith(_BOM):
            text = text[len(_BOM):]
        return cls(path=path, text=text)

    @classmethod
    def from_file(cls, path: str | Path) -> "SourceUnit":
        raw = Path(path).read_text(encoding="utf-8")
        return cls.from_text(str(path), raw)

    def position(self, offset: int) -> tuple[int, int]:
        """Map a 0-based byte offset to a 1-based (line, col) pair."""
        offset = min(max(offset, 0), len(self.text))
        line = bisect_right(self.line_offsets, offset)
        return line, offset - self.line_offsets[line - 1] + 1

    @cached_property
    def line_offsets(self) -> tuple[int, ...]:
        """Offset of the first character of each line."""
        return (0, *(m.end() for m in re.finditer("\n", self.text)))

    def span_between(self, start: int, end: int) -> Span:
        """Span covering offsets [start, end); end is exclusive.

        Tokens and tree nodes carry such offset pairs; this and
        ``position`` are the one place they become lines and columns.
        """
        sl, sc = self.position(start)
        el, ec = self.position(max(start, end - 1))
        return Span(sl, sc, el, ec)


def read_unit(path: str | Path, errors: list) -> SourceUnit | None:
    """The file's unit, or None when it is not UTF-8 or cannot be read:
    then its (path, message) error record goes to ``errors``."""
    try:
        return SourceUnit.from_file(path)
    except UnicodeDecodeError as exc:
        errors.append((str(path), f"not valid UTF-8: {exc}"))
    except OSError as exc:
        errors.append((str(path), f"cannot read: {exc}"))
    return None
