"""Combinatorial orthogonality on 0/1 patterns and quadrangularity predicates.

Two vectors are combinatorially orthogonal when their supports overlap in a
number of positions different from 1.  A digraph whose adjacency matrix is
the pattern of a combinatorially orthogonal matrix is quadrangular:
|O(u) n O(v)| != 1 and |I(u) n I(v)| != 1 for every distinct pair u, v.
Both sides run one row-pair scan: the out side on the out-rows, the in side
on the in-rows, i.e. the out-rows of the dual.  The is_* predicates only ask
whether the scan finds a pair; quadrangularity() also reports the witness.
The scan is core.first_pair_sharing_one, the first pair of the row-pair
scan that dominant pairs also run (core._pairs_sharing, asked for one
common bit).  On long scans it skips only pairs that a count over spread
columns shows to share two or more bits, so verdict and witness are those
of the in-order scan.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from .core import Tournament, columns, dual, first_pair_sharing_one, iter_bits
from .errors import DimensionMismatch, InvalidSide, NotSquare


class _PatternFields(NamedTuple):
    rows: int
    cols: int
    bits: tuple  # bits[r] has bit c set iff entry (r, c) is 1


class BinaryPattern(_PatternFields):
    """Rectangular 0/1 matrix, one column-bitmask per row."""

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, bits: tuple):
        if cols < 0 or len(bits) != rows:
            raise DimensionMismatch(f"{len(bits)} rows of bits for a {rows}x{cols} pattern")
        for r, row in enumerate(bits):
            if row < 0 or row >> cols:
                raise DimensionMismatch(f"row {r} has bits outside {cols} columns")
        return tuple.__new__(cls, (rows, cols, bits))

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
    pair = first_pair_sharing_one(p.bits)
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


class QuadReport(NamedTuple):
    """Verdict for one side of the quadrangularity check.

    When the verdict is false, witness holds the lexicographically smallest
    pair (u, v) whose common out- or in-neighbourhood has size exactly 1.
    """

    verdict: bool
    side: str  # "out" or "in"
    witness: Optional[Witness]


def _scan_side(t: Tournament, side: str) -> QuadReport:
    """Scan every pair's common out- or in-neighbourhood for size exactly 1.

    The out side reads the out-rows, the in side the in-rows (the out-rows
    of the dual); the witness's common set is the two rows' intersection.
    """
    rows = t.rows if side == "out" else dual(t).rows
    pair = first_pair_sharing_one(rows)
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
    return first_pair_sharing_one(t.rows) is None


def is_in_quadrangular(t: Tournament) -> bool:
    return first_pair_sharing_one(dual(t).rows) is None


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
