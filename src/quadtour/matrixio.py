"""Matrix file format, DOT export and JSON adjacency payloads.

Matrix files carry a vertex count in ASCII decimal digits on the first line
(after an optional UTF-8 BOM), followed by n lines of exactly n '0'/'1'
characters; row u column v is 1 iff u beats v.
The body is checked in one pass: every line has length n, and deleting the
'0' and '1' characters from all lines joined leaves nothing.  Only a body
that fails this check is read again line by line, to name the first bad line.
DOT export builds one string per row: the row's bit string, translated to
0/1 bytes, selects the arc heads from the vertex names, so no arc becomes a
tuple or a formatted string of its own.
"""

from __future__ import annotations

from itertools import compress

from . import core
from .core import Tournament
from .errors import MatrixParseError, QuadTourError
from .orthogonality import BinaryPattern

_DELETE_BITS = str.maketrans("", "", "01")


def render_tournament(t: Tournament) -> str:
    return "\n".join([str(t.n)] + core.bit_strings(t.n, t.rows)) + "\n"


def parse_pattern(text: str) -> BinaryPattern:
    """Parse a matrix file into a square BinaryPattern."""
    lines = text.splitlines()
    if not lines:
        raise MatrixParseError("empty input")
    header = lines[0].removeprefix("\ufeff")
    # int() alone would also take signs, spaces and non-ASCII digits.
    if not (header.isascii() and header.isdigit()):
        raise MatrixParseError(f"bad header line {lines[0]!r}")
    body = lines[1:]
    # A count with more digits than len(body) matches no body, and int()
    # refuses more than 4,300 digits, zeros included (Python 3.10.7 and later).
    digits = header.lstrip("0")
    if len(digits) > len(str(len(body))):
        raise MatrixParseError(f"expected {digits} body lines, got {len(body)}")
    n = int(digits or "0")
    if n < 1:
        raise MatrixParseError(f"bad vertex count {n}")
    if len(body) != n:
        raise MatrixParseError(f"expected {n} body lines, got {len(body)}")
    # int(line, 2) alone would also take '_', signs, spaces and non-ASCII digits.
    if set(map(len, body)) != {n} or "".join(body).translate(_DELETE_BITS):
        for r, line in enumerate(body):
            if len(line) != n or line.count("0") + line.count("1") != n:
                raise MatrixParseError(f"body line {r} must be {n} chars of 0/1")
    return BinaryPattern(n, n, tuple([int(line[::-1], 2) for line in body]))


def parse_tournament(text: str) -> Tournament:
    """Parse a matrix file and validate it as a tournament."""
    p = parse_pattern(text)
    try:
        return core.validate(p.rows, p.bits)
    except QuadTourError as exc:
        raise MatrixParseError(f"not a tournament: {exc}") from exc


def to_dot(t: Tournament) -> str:
    """DOT digraph with arcs in lexicographic order."""
    heads = [f"{v};\n" for v in range(t.n)]
    parts = ["digraph tournament {\n", *[f"  {head}" for head in heads]]
    for u, bits in enumerate(core.bit_strings(t.n, t.rows)):
        if "1" in bits:
            tail = f"  {u} -> "
            parts.append(tail + tail.join(compress(heads, bits.encode().translate(core._SELECTORS))))
    parts.append("}\n")
    return "".join(parts)


def to_json_adjacency(t: Tournament) -> dict:
    return {
        "n": t.n,
        "rows": core.bit_strings(t.n, t.rows),
    }
