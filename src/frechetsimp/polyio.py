"""Polyline file I/O.

CSV: one "x,y" pair per line; '#' starts a comment, blank lines are skipped.
WKT: a single "LINESTRING (x y, x y, ...)" is autodetected by its leading
token.  Numbers are written with 17 significant digits, which round-trips
doubles exactly.
"""
from __future__ import annotations

import re
from typing import Sequence

Point = tuple[float, float]


class ParseError(ValueError):
    pass


def format_float(x: float) -> str:
    return f"{x:.17g}"


def parse_polyline(text: str) -> list[Point]:
    stripped = text.lstrip()
    if stripped[:10].upper().startswith("LINESTRING"):
        return _parse_wkt(stripped)
    pts: list[Point] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'x,y', got {raw!r}")
        try:
            pts.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    if not pts:
        raise ParseError("no coordinates found")
    return pts


def _parse_wkt(text: str) -> list[Point]:
    m = re.match(r"LINESTRING\s*\((.*)\)\s*$", text, re.IGNORECASE | re.DOTALL)
    if not m:
        raise ParseError("malformed LINESTRING")
    pts = []
    for chunk in m.group(1).split(","):
        parts = chunk.split()
        if len(parts) != 2:
            raise ParseError(f"malformed LINESTRING coordinate {chunk!r}")
        try:
            pts.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ParseError(f"LINESTRING coordinate {chunk.strip()!r}: {exc}") from exc
    if not pts:
        raise ParseError("empty LINESTRING")
    return pts


def dump_polyline(points: Sequence[Sequence[float]]) -> str:
    return "".join(f"{format_float(p[0])},{format_float(p[1])}\n" for p in points)


def load_polyline(path: str) -> list[Point]:
    """The polyline in the UTF-8 text file ``path``; ParseError for any other bytes."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return parse_polyline(text)


def save_polyline(path: str, points: Sequence[Sequence[float]]):
    with open(path, "w") as fh:
        fh.write(dump_polyline(points))
