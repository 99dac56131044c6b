"""Tournament representation and structural queries.

A tournament on n vertices is stored as one out-neighbourhood bitmask per
vertex: bit v of rows[u] is set iff u beats v.  All derived sets are emitted
in ascending vertex order.  A Tournament hashes and compares by (n, rows), and
its attributes are plain slots: the library never assigns to them after
construction, and callers must not either, or a set or dict holding the
tournament no longer finds it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from functools import reduce
from operator import getitem, or_
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import (
    DimensionMismatch,
    EmptyVertexSet,
    InvariantViolation,
    MissingOrDoubleArc,
    SelfLoop,
    SizeLimitExceeded,
    VertexOutOfRange,
)

ISOMORPHISM_MAX_N = 12

# Pair scans of at most this many rows test every pair in order: below about
# 200 rows a row's screen costs more than the tests it saves.
_PLAIN_ROWS = 200
# Screen columns of a longer pair scan, spread evenly over its width and
# counted in one pass.  One lookup table of 2^_GROUP entries covers _GROUP
# of them.
_SCREEN = 128
_GROUP = 8


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def columns(n: int, rows: Sequence[int], picks: Optional[Sequence[int]] = None) -> list:
    """The n column bitmasks of an n-wide 0/1 matrix, or only those listed in
    picks: bit r of column c is entry (r, c).

    Rows are joined MSB-first, last row first, so every n-th character from index
    n-1-c is column c read from its highest bit down (none, so 0, if no rows).
    This is the library's one transpose: validate, BinaryPattern.transpose,
    the pair-scan screen (its columns and its held words) and induced read it.
    """
    fmt = f"0{n}b"
    whole = "".join([format(row, fmt) for row in reversed(rows)])
    return [int(whole[n - 1 - c::n] or "0", 2) for c in (range(n) if picks is None else picks)]


def disjoint_pairs(rows: Sequence[int]) -> Iterator[tuple]:
    """Each pair u < v whose rows share no bit, lazily, in lexicographic order.

    On a tournament's in-rows these are its dominant pairs (no vertex beats
    both); on its out-rows, the pairs with no common out-neighbour.
    """
    return _pairs_sharing(rows, 0)


def first_pair_sharing_one(rows: Sequence[int]) -> Optional[tuple]:
    """Lexicographically smallest pair u < v whose rows share exactly one bit,
    or None."""
    return next(_pairs_sharing(rows, 1), None)


def _pairs_sharing(rows: Sequence[int], c: int) -> Iterator[tuple]:
    """Each pair u < v whose rows share exactly c bits, in lexicographic order.

    Scans of at most _PLAIN_ROWS rows test every pair in order.  Longer ones
    walk the screen (_screen), one table-driven count over _SCREEN spread
    columns: row u tests only the later rows it leaves open, or every later
    row in order where it gives None.  The screen drops only pairs sharing
    more than c bits, so the output is the same.  The scan is lazy: a caller
    that stops at a pair in row 0 builds no screen.
    """
    n = len(rows)
    if n <= _PLAIN_ROWS:
        for u, ru in enumerate(rows):
            for v in range(u + 1, n):
                if (ru & rows[v]).bit_count() == c:
                    yield u, v
        return
    for u, left in enumerate(_screen(rows, c)):
        ru = rows[u]
        for v in range(u + 1, n) if left is None else iter_bits(left):
            if (ru & rows[v]).bit_count() == c:
                yield u, v


def _screen(rows: Sequence[int], c: int) -> Iterator[Optional[int]]:
    """For each row in turn, the mask of later rows that the screen leaves
    open, or None if that is over a quarter of them.  Row 0 gets None before
    the screen is built, so a pair found in row 0 costs no transpose.

    The screen is _SCREEN columns spread evenly over the width (every column
    of narrower rows; all-zero rows read as one empty column), read once
    from the transpose.  A bit-sliced count over the screen columns row u
    holds, one table lookup per group of them (_screen_tables), marks the
    rows meeting u in one of them (ones) and in two or more (twos).  These
    share at least that many bits with u, so for c = 1 only the rows outside
    twos stay open, and for c = 0 those outside ones.
    """
    yield None
    n = len(rows)
    width = max(rows).bit_length() or 1
    spots = sorted({i * width // _SCREEN for i in range(_SCREEN)})
    tables, held = _screen_tables(columns(width, rows, spots), n, c)
    later = (1 << n) - 2  # the rows after row 0
    for u in range(1, n):
        later &= later - 1
        if c:
            ones = settled = 0
            for o, t in map(getitem, tables, held[u]):
                settled |= t | ones & o
                ones |= o
        else:
            settled = reduce(or_, map(getitem, tables, held[u]), 0)
        left = later & ~settled
        yield left if 4 * left.bit_count() <= n - 1 - u else None


def _screen_tables(screen: Sequence[int], n: int, c: int) -> tuple:
    """The lookup tables of n-bit screen columns, one per _GROUP of them,
    and held[u], word u of the screen's transpose (columns) as one byte per
    group, with bit j set iff row u holds the group's column j.

    Table entry b covers the group's columns j with bit j of b set: for
    c = 0 it is their union, for c = 1 the pair (ones, twos) of the rows
    holding at least one and at least two of them.  Each table is built by
    doubling, as domination._chunk_table is.
    """
    tables = []
    for g in range(0, len(screen), _GROUP):
        table = [(0, 0)] if c else [0]
        for col in screen[g:g + _GROUP]:
            table += [(o | col, t | o & col) for o, t in table] if c else [o | col for o in table]
        tables.append(table)
    return tables, [w.to_bytes(len(tables), "little") for w in columns(n, screen)]


class Tournament:
    """Complete oriented digraph on vertices 0..n-1.

    The constructor trusts its input; use validate() for untrusted rows.
    """

    __slots__ = ("n", "rows", "full_mask")

    def __init__(self, n: int, rows: Sequence[int]):
        self.n = n
        self.rows = tuple(rows)
        self.full_mask = (1 << n) - 1

    def check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise VertexOutOfRange(f"vertex {v} not in [0, {self.n})")

    def has_arc(self, u: int, v: int) -> bool:
        return (self.rows[u] >> v) & 1 == 1

    def out_mask(self, v: int) -> int:
        return self.rows[v]

    def in_mask(self, v: int) -> int:
        # I(v) = V - O(v) - {v}: exactly one arc per pair.
        return self.full_mask & ~self.rows[v] & ~(1 << v)

    def out_degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def in_degree(self, v: int) -> int:
        return self.n - 1 - self.rows[v].bit_count()

    def min_out_degree(self) -> int:
        return min(map(int.bit_count, self.rows))

    def min_in_degree(self) -> int:
        return self.n - 1 - max(map(int.bit_count, self.rows))

    def scores(self) -> tuple:
        return tuple(map(int.bit_count, self.rows))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tournament)
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Tournament(n={self.n}, rows={self.rows!r})"


def validate(n: int, rows: Sequence[int]) -> Tournament:
    """Build a Tournament from untrusted bit-rows, checking every invariant."""
    if n < 1:
        raise DimensionMismatch(f"need n >= 1, got {n}")
    if len(rows) != n:
        raise DimensionMismatch(f"expected {n} rows, got {len(rows)}")
    full = (1 << n) - 1
    for u, row in enumerate(rows):
        if row & ~full:
            raise DimensionMismatch(f"row {u} has bits beyond width {n}")
        if (row >> u) & 1:
            raise SelfLoop(u)
    # Column u must be the complement of row u off the diagonal.  The XOR is
    # symmetric, so its first nonzero row u has its lowest bit v > u: the
    # lexicographically smallest pair with zero or two arcs.
    for u, col in enumerate(columns(n, rows)):
        bad = col ^ (full & ~rows[u] & ~(1 << u))
        if bad:
            raise MissingOrDoubleArc(u, (bad & -bad).bit_length() - 1)
    return Tournament(n, rows)


class Neighborhoods(NamedTuple):
    outset: tuple
    inset: tuple
    out_degree: int
    in_degree: int


def neighborhoods(t: Tournament, v: int) -> Neighborhoods:
    """Outset, inset and degrees of a vertex, sets in ascending order."""
    t.check_vertex(v)
    out = tuple(iter_bits(t.out_mask(v)))
    inn = tuple(iter_bits(t.in_mask(v)))
    return Neighborhoods(out, inn, len(out), len(inn))


def dual(t: Tournament) -> Tournament:
    """The reversal: u beats v in the result iff v beats u in t."""
    full = t.full_mask  # row v is t.in_mask(v), inlined: the scans build it per call
    return Tournament(t.n, [full & ~(row | 1 << v) for v, row in enumerate(t.rows)])


def induced(t: Tournament, keep) -> Tournament:
    """Sub-tournament on the given vertices, relabelled 0..k-1 in label order:
    the reversal of its in-rows, the kept rows' columns at the kept labels."""
    kept = sorted(set(keep))
    if not kept:
        raise EmptyVertexSet("cannot induce on an empty vertex set")
    n, rows = t.n, t.rows
    if kept[0] < 0 or kept[-1] >= n:
        # Name the smallest out-of-range vertex, as a per-vertex check would.
        t.check_vertex(kept[0])
        t.check_vertex(kept[bisect_left(kept, n)])
    return dual(Tournament(len(kept), columns(n, [rows[v] for v in kept], kept)))


class StrongDecomposition(NamedTuple):
    """Strong components ordered so earlier components beat later ones."""

    components: tuple  # tuple of tuples of vertices, each ascending

    @property
    def initial(self) -> tuple:
        return self.components[0]

    @property
    def terminal(self) -> tuple:
        return self.components[-1]

    def is_strong(self) -> bool:
        return len(self.components) == 1


def strong_decomposition(t: Tournament) -> StrongDecomposition:
    """Decompose into strong components in condensation order.

    In a tournament the condensation is a total order and every vertex of an
    earlier component out-scores every vertex of a later one, so sorting by
    score and cutting where the prefix score sum equals C(k,2) + k(n-k)
    recovers the components.  The cuts and the cross arcs are checked, and
    InvariantViolation is raised when they fail, which happens only for rows
    that are not a tournament (the constructor trusts its input).
    """
    n = t.n
    scores = t.scores()
    # Descending score, ascending label among ties: the sort is stable under reverse.
    order = sorted(range(n), key=scores.__getitem__, reverse=True)
    components = []
    current = []
    prefix = 0
    for k, v in enumerate(order, start=1):
        current.append(v)
        prefix += scores[v]
        if prefix == k * (k - 1) // 2 + k * (n - k):
            components.append(tuple(sorted(current)))
            current = []
    if current:
        raise InvariantViolation("score-prefix cuts must consume every vertex")

    later = 0
    for comp in reversed(components):
        for v in comp:
            if t.rows[v] & later != later:
                raise InvariantViolation("condensation order violated")
        for v in comp:
            later |= 1 << v
    return StrongDecomposition(tuple(components))


class SpecialVertices(NamedTuple):
    transmitter: Optional[int]
    receiver: Optional[int]


def special_vertices(t: Tournament) -> SpecialVertices:
    """The transmitter (out-degree n-1) and receiver (in-degree n-1), if any."""
    # At most one vertex has each extreme score; n = 1 gives (0, 0).
    scores = t.scores()
    top = t.n - 1
    return SpecialVertices(scores.index(top) if top in scores else None,
                           scores.index(0) if 0 in scores else None)


def is_isomorphic(t1: Tournament, t2: Tournament) -> bool:
    """Decide isomorphism by score-class pruned permutation search."""
    if t1.n != t2.n:
        return False
    n = t1.n
    if n > ISOMORPHISM_MAX_N:
        raise SizeLimitExceeded(f"isomorphism search refused for n={n} > {ISOMORPHISM_MAX_N}")
    if sorted(t1.scores()) != sorted(t2.scores()):
        return False

    by_degree = defaultdict(list)
    for v in range(n):
        by_degree[t2.out_degree(v)].append(v)
    # map rare score classes first to fail fast
    order = sorted(range(n), key=lambda u: (len(by_degree[t1.out_degree(u)]), u))

    mapping = [-1] * n
    used = [False] * n
    placed = []

    def extend(i: int) -> bool:
        if i == n:
            return True
        u = order[i]
        for v in by_degree[t1.out_degree(u)]:
            if used[v]:
                continue
            if all(
                t1.has_arc(u, w) == t2.has_arc(v, mapping[w]) for w in placed
            ):
                mapping[u] = v
                used[v] = True
                placed.append(u)
                if extend(i + 1):
                    return True
                placed.pop()
                used[v] = False
                mapping[u] = -1
        return False

    return extend(0)
