"""Combinatorial orthogonality on 0/1 patterns and quadrangularity predicates.

Two vectors are combinatorially orthogonal when their supports overlap in a
number of positions different from 1.  A digraph whose adjacency matrix is
the pattern of a combinatorially orthogonal matrix is quadrangular:
|O(u) n O(v)| != 1 and |I(u) n I(v)| != 1 for every distinct pair u, v.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

from .core import Tournament, columns, iter_bits
from .errors import NotSquare


@dataclass(frozen=True)
class BinaryPattern:
    """Rectangular 0/1 matrix, one column-bitmask per row."""

    rows: int
    cols: int
    bits: tuple  # bits[r] has bit c set iff entry (r, c) is 1

    def transpose(self) -> "BinaryPattern":
        if not self.rows or not self.cols:
            return BinaryPattern(self.cols, self.rows, (0,) * self.cols)
        return BinaryPattern(self.cols, self.rows, tuple(columns(self.cols, self.bits)))

    def nnz(self) -> int:
        return sum(row.bit_count() for row in self.bits)


def pattern_of(matrix) -> BinaryPattern:
    """0/1 pattern of a real matrix: 1 exactly where the entry is nonzero."""
    rows = []
    width = None
    for row in matrix:
        entries = list(row)
        if width is None:
            width = len(entries)
        bits = 0
        for c, entry in enumerate(entries):
            if entry != 0:
                bits |= 1 << c
        rows.append(bits)
    return BinaryPattern(len(rows), width or 0, tuple(rows))


def adjacency_pattern(t: Tournament) -> BinaryPattern:
    """Adjacency matrix of a tournament as a BinaryPattern."""
    return BinaryPattern(t.n, t.n, t.rows)


def comb_row_orthogonal(p: BinaryPattern) -> Tuple[bool, Optional[Tuple[int, int]]]:
    """True iff every two distinct rows overlap in != 1 positions.

    On failure returns the lexicographically smallest offending row pair.
    """
    pair = _first_pair(p.bits, "out")
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


def _first_pair(rows, side: str) -> Optional[Tuple[int, int]]:
    """Lexicographically smallest pair u < v failing the side's test, or None.

    "out": rows u and v share exactly one bit.  "in": the union of rows u and
    v has len(rows) - 2 bits (see _scan_side).
    """
    n = len(rows)
    if side == "out":
        for u, ru in enumerate(rows):
            for v in range(u + 1, n):
                if (ru & rows[v]).bit_count() == 1:
                    return u, v
    else:
        target = n - 2
        for u, ru in enumerate(rows):
            for v in range(u + 1, n):
                if (ru | rows[v]).bit_count() == target:
                    return u, v
    return None


def _scan_side(t: Tournament, side: str) -> QuadReport:
    """Scan every pair's common out- or in-neighbourhood for size exactly 1.

    The in side reads the same out-rows: I(u) n I(v) is V minus O(u) u O(v)
    minus {u, v}, and O(u) u O(v) holds exactly one of u, v (the one beaten),
    so |I(u) n I(v)| = n - 1 - |O(u) u O(v)|, and a pair fails iff its
    out-row union has n - 2 bits.  The common set is built for the witness only.
    """
    pair = _first_pair(t.rows, side)
    if pair is None:
        return QuadReport(True, side, None)
    u, v = pair
    if side == "out":
        common = t.out_mask(u) & t.out_mask(v)
    else:
        common = t.in_mask(u) & t.in_mask(v)
    return QuadReport(False, side, Witness(u, v, tuple(iter_bits(common))))


def quadrangularity(t: Tournament, side: str = "both"):
    """Quadrangularity check; returns a QuadReport, or a pair for side="both"."""
    if side == "out":
        return _scan_side(t, "out")
    if side == "in":
        return _scan_side(t, "in")
    if side == "both":
        return _scan_side(t, "out"), _scan_side(t, "in")
    raise ValueError(f"side must be out, in or both, got {side!r}")


def is_out_quadrangular(t: Tournament) -> bool:
    return _scan_side(t, "out").verdict


def is_in_quadrangular(t: Tournament) -> bool:
    return _scan_side(t, "in").verdict


def is_quadrangular(t: Tournament) -> bool:
    return is_out_quadrangular(t) and is_in_quadrangular(t)


def closed_union_in_quad(t: Tournament) -> bool:
    """In-quadrangularity via closed outsets: |O[u] u O[v]| != n-1 for all pairs.

    O[u] u O[v] is O(u) u O(v) plus the one of u, v it lacks, so this is the
    in-side pair scan's test.
    """
    return _scan_side(t, "in").verdict


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
