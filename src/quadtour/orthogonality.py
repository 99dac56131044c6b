"""Combinatorial orthogonality on 0/1 patterns and quadrangularity predicates.

Two vectors are combinatorially orthogonal when their supports overlap in a
number of positions different from 1.  A digraph whose adjacency matrix is
the pattern of a combinatorially orthogonal matrix is quadrangular:
|O(u) n O(v)| != 1 and |I(u) n I(v)| != 1 for every distinct pair u, v.
Both sides run one row-pair scan: the out side on the out-rows, the in side
on the in-rows, i.e. the out-rows of the dual.  The is_* predicates only ask
whether the scan finds a pair; quadrangularity() also reports the witness.
The scan tests wide rows on their low word first: the common bits there are
a subset of all common bits, so two of them rule the pair out, and only a
pair with fewer needs the full-row AND.  Verdict and witness are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

from .core import Tournament, columns, dual, iter_bits
from .errors import DimensionMismatch, InvalidSide, NotSquare

_WORD_BITS = 30  # one CPython digit: the pair scan's first test reads these low bits
_WORD = (1 << _WORD_BITS) - 1


@dataclass(frozen=True)
class BinaryPattern:
    """Rectangular 0/1 matrix, one column-bitmask per row."""

    rows: int
    cols: int
    bits: tuple  # bits[r] has bit c set iff entry (r, c) is 1

    def __post_init__(self):
        if self.cols < 0 or len(self.bits) != self.rows:
            raise DimensionMismatch(f"{len(self.bits)} rows of bits for a {self.rows}x{self.cols} pattern")
        for r, row in enumerate(self.bits):
            if row < 0 or row >> self.cols:
                raise DimensionMismatch(f"row {r} has bits outside {self.cols} columns")

    def transpose(self) -> "BinaryPattern":
        return BinaryPattern(self.cols, self.rows, tuple(columns(self.cols, self.bits)))

    def nnz(self) -> int:
        return sum(row.bit_count() for row in self.bits)


def pattern_of(matrix) -> BinaryPattern:
    """0/1 pattern of a real matrix: 1 exactly where the entry is nonzero."""
    rows = [list(row) for row in matrix]
    width = len(rows[0]) if rows else 0
    for r, entries in enumerate(rows):
        if len(entries) != width:
            raise DimensionMismatch(f"row {r} has {len(entries)} entries, row 0 has {width}")
    bits = tuple(sum(1 << c for c, entry in enumerate(entries) if entry != 0) for entries in rows)
    return BinaryPattern(len(rows), width, bits)


def adjacency_pattern(t: Tournament) -> BinaryPattern:
    """Adjacency matrix of a tournament as a BinaryPattern."""
    return BinaryPattern(t.n, t.n, t.rows)


def comb_row_orthogonal(p: BinaryPattern) -> Tuple[bool, Optional[Tuple[int, int]]]:
    """True iff every two distinct rows overlap in != 1 positions.

    On failure returns the lexicographically smallest offending row pair.
    """
    pair = _first_pair(p.bits)
    return pair is None, pair


def comb_orthogonal(p: BinaryPattern) -> bool:
    """True iff both the pattern and its transpose are row-orthogonal."""
    if p.rows != p.cols:
        raise NotSquare(f"pattern is {p.rows}x{p.cols}")
    ok, _ = comb_row_orthogonal(p)
    if not ok:
        return False
    ok, _ = comb_row_orthogonal(p.transpose())
    return ok


class Witness(NamedTuple):
    u: int
    v: int
    common: tuple


@dataclass(frozen=True)
class QuadReport:
    """Verdict for one side of the quadrangularity check.

    When the verdict is false, witness holds the lexicographically smallest
    pair (u, v) whose common out- or in-neighbourhood has size exactly 1.
    """

    verdict: bool
    side: str  # "out" or "in"
    witness: Optional[Witness]


def _first_pair(rows) -> Optional[Tuple[int, int]]:
    """Lexicographically smallest pair u < v whose rows share exactly one bit, or None.

    Past _WORD_BITS rows, wide rows skip the full-row AND when their low
    words share two bits: a subset of the common bits, so no witness.
    """
    n = len(rows)
    if n > _WORD_BITS and max(rows) > _WORD:
        low = [row & _WORD for row in rows]
        for u, ru in enumerate(rows):
            lu = low[u]
            for v in range(u + 1, n):
                if (lu & low[v]).bit_count() < 2 and (ru & rows[v]).bit_count() == 1:
                    return u, v
        return None
    for u, ru in enumerate(rows):
        for v in range(u + 1, n):
            if (ru & rows[v]).bit_count() == 1:
                return u, v
    return None


def _scan_side(t: Tournament, side: str) -> QuadReport:
    """Scan every pair's common out- or in-neighbourhood for size exactly 1.

    The out side reads the out-rows, the in side the in-rows (the out-rows
    of the dual); the witness's common set is the two rows' intersection.
    """
    rows = t.rows if side == "out" else dual(t).rows
    pair = _first_pair(rows)
    if pair is None:
        return QuadReport(True, side, None)
    u, v = pair
    return QuadReport(False, side, Witness(u, v, tuple(iter_bits(rows[u] & rows[v]))))


def quadrangularity(t: Tournament, side: str = "both"):
    """Quadrangularity check; returns a QuadReport, or a pair for side="both"."""
    if side in ("out", "in"):
        return _scan_side(t, side)
    if side == "both":
        return _scan_side(t, "out"), _scan_side(t, "in")
    raise InvalidSide(f"side must be out, in or both, got {side!r}")


def is_out_quadrangular(t: Tournament) -> bool:
    return _first_pair(t.rows) is None


def is_in_quadrangular(t: Tournament) -> bool:
    return _first_pair(dual(t).rows) is None


def is_quadrangular(t: Tournament) -> bool:
    return is_out_quadrangular(t) and is_in_quadrangular(t)


def closed_union_in_quad(t: Tournament) -> bool:
    """In-quadrangularity: |O[u] u O[v]| != n-1 for all pairs.

    O[u] u O[v] misses exactly I(u) n I(v), so this is the in-side scan,
    which reads the in-rows.
    """
    return is_in_quadrangular(t)


class NnzReport(NamedTuple):
    nnz: int
    bound: int
    meets: bool


def nnz_report(p: BinaryPattern) -> NnzReport:
    """Nonzero count against the 4n-4 lower bound for fully indecomposable
    combinatorially orthogonal patterns (informational; indecomposability is
    not tested here)."""
    if p.rows != p.cols:
        raise NotSquare(f"pattern is {p.rows}x{p.cols}")
    if p.rows < 2:
        raise NotSquare(f"bound needs n >= 2, got n={p.rows}")
    nnz = p.nnz()
    bound = 4 * p.rows - 4
    return NnzReport(nnz, bound, nnz >= bound)
