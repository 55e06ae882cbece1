"""Source files and positions."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

_BOM = "﻿"


@dataclass(frozen=True, order=True)
class Span:
    """1-based inclusive source region."""

    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def __post_init__(self):
        if (self.start_line, self.start_col) > (self.end_line, self.end_col):
            raise ValueError(f"span start after end: {self}")

    def cover(self, other: "Span") -> "Span":
        lo = min((self.start_line, self.start_col), (other.start_line, other.start_col))
        hi = max((self.end_line, self.end_col), (other.end_line, other.end_col))
        return Span(lo[0], lo[1], hi[0], hi[1])

    @property
    def lines(self) -> list[int]:
        return list(range(self.start_line, self.end_line + 1))


@dataclass(frozen=True)
class SourceUnit:
    """A single PHP file: identifier, raw text and a line-offset index."""

    path: str
    text: str
    line_offsets: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if not self.path:
            raise ValueError("SourceUnit.path must be non-empty")
        if not self.line_offsets:
            object.__setattr__(self, "line_offsets", _index_lines(self.text))

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
        lo, hi = 0, len(self.line_offsets) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.line_offsets[mid] <= offset:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1, offset - self.line_offsets[lo] + 1

    def span_between(self, start: int, end: int) -> Span:
        """Span covering offsets [start, end); end is exclusive."""
        sl, sc = self.position(start)
        el, ec = self.position(max(start, end - 1))
        return Span(sl, sc, el, ec)


def _index_lines(text: str) -> tuple[int, ...]:
    offsets = [0]
    for i, ch in enumerate(text):
        if ch == "\n":
            offsets.append(i + 1)
    return tuple(offsets)
