"""Matrix file format, DOT export and JSON adjacency payloads.

Matrix files carry a decimal vertex count on the first line followed by n
lines of exactly n '0'/'1' characters; row u column v is 1 iff u beats v.
"""

from __future__ import annotations

from . import core
from .core import Tournament
from .errors import MatrixParseError, QuadTourError
from .orthogonality import BinaryPattern


def render_tournament(t: Tournament) -> str:
    return "\n".join([str(t.n)] + core.bit_strings(t.n, t.rows)) + "\n"


def parse_pattern(text: str) -> BinaryPattern:
    """Parse a matrix file into a square BinaryPattern."""
    lines = text.splitlines()
    if not lines:
        raise MatrixParseError("empty input")
    try:
        n = int(lines[0].removeprefix("\ufeff"))
    except ValueError:
        raise MatrixParseError(f"bad header line {lines[0]!r}") from None
    if n < 1:
        raise MatrixParseError(f"bad vertex count {n}")
    body = lines[1:]
    if len(body) != n:
        raise MatrixParseError(f"expected {n} body lines, got {len(body)}")
    bits = []
    for r, line in enumerate(body):
        if len(line) != n or set(line) - {"0", "1"}:
            raise MatrixParseError(f"body line {r} must be {n} chars of 0/1")
        bits.append(int(line[::-1], 2))
    return BinaryPattern(n, n, tuple(bits))


def parse_tournament(text: str) -> Tournament:
    """Parse a matrix file and validate it as a tournament."""
    p = parse_pattern(text)
    try:
        return core.validate(p.rows, p.bits)
    except QuadTourError as exc:
        raise MatrixParseError(f"not a tournament: {exc}") from exc


def to_dot(t: Tournament) -> str:
    """DOT digraph with arcs in lexicographic order."""
    lines = ["digraph tournament {"]
    for v in range(t.n):
        lines.append(f"  {v};")
    for u, v in t.arcs():
        lines.append(f"  {u} -> {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_adjacency(t: Tournament) -> dict:
    return {
        "n": t.n,
        "rows": core.bit_strings(t.n, t.rows),
    }


def tournament_from_json(obj: dict) -> Tournament:
    try:
        n = int(obj["n"])
        rows = list(obj["rows"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MatrixParseError(f"bad JSON adjacency payload: {exc}") from exc
    return parse_tournament("\n".join([str(n)] + rows) + "\n")
