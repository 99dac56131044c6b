"""Tournament representation and structural queries.

A tournament on n vertices is stored as one out-neighbourhood bitmask per
vertex: bit v of rows[u] is set iff u beats v.  Values are immutable after
construction and all derived sets are emitted in ascending vertex order.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from operator import itemgetter
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


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_strings(n: int, rows: Sequence[int]) -> list:
    """Each row as n '0'/'1' characters, character c being bit c (n >= 1)."""
    fmt = f"0{n}b"
    return [format(row, fmt)[::-1] for row in rows]


def columns(n: int, rows: Sequence[int]) -> list:
    """The n column bitmasks of an n-wide 0/1 matrix: bit r of column c is entry (r, c)."""
    return [int("".join(col)[::-1], 2) for col in zip(*bit_strings(n, rows))]


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

    def closed_out_mask(self, v: int) -> int:
        return self.rows[v] | (1 << v)

    def closed_in_mask(self, v: int) -> int:
        return self.in_mask(v) | (1 << v)

    def out_degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def in_degree(self, v: int) -> int:
        return self.n - 1 - self.rows[v].bit_count()

    def min_out_degree(self) -> int:
        return min(r.bit_count() for r in self.rows)

    def min_in_degree(self) -> int:
        return self.n - 1 - max(r.bit_count() for r in self.rows)

    def scores(self) -> tuple:
        return tuple(r.bit_count() for r in self.rows)

    def is_regular(self) -> bool:
        k = self.rows[0].bit_count()
        return all(r.bit_count() == k for r in self.rows)

    def arcs(self):
        """All arcs (u, v) in lexicographic order."""
        return [(u, v) for u in range(self.n) for v in iter_bits(self.rows[u])]

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
    return Tournament(t.n, [t.in_mask(v) for v in range(t.n)])


def induced(t: Tournament, keep) -> Tournament:
    """Sub-tournament on the given vertices, relabelled 0..k-1 in label order."""
    kept = sorted(set(keep))
    if not kept:
        raise EmptyVertexSet("cannot induce on an empty vertex set")
    n, rows = t.n, t.rows
    if kept[0] < 0 or kept[-1] >= n:
        # Name the smallest out-of-range vertex, as a per-vertex check would.
        t.check_vertex(kept[0])
        t.check_vertex(kept[bisect_left(kept, n)])
    # In the MSB-first string of a row, bit w sits at index n-1-w; picking the
    # kept bits from the highest down gives the new row MSB-first as well.
    pick = itemgetter(*[n - 1 - v for v in reversed(kept)])
    fmt = f"0{n}b"
    return Tournament(len(kept), [int("".join(pick(format(rows[v], fmt))), 2) for v in kept])


@dataclass(frozen=True)
class StrongDecomposition:
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
    order = sorted(range(n), key=lambda v: (-t.out_degree(v), v))
    components = []
    current = []
    prefix = 0
    for k, v in enumerate(order, start=1):
        current.append(v)
        prefix += t.out_degree(v)
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
    transmitter = receiver = None
    top = t.n - 1
    for v, row in enumerate(t.rows):
        score = row.bit_count()
        if score == top:
            transmitter = v
        if score == 0:  # in-degree n - 1
            receiver = v
    return SpecialVertices(transmitter, receiver)


def is_isomorphic(t1: Tournament, t2: Tournament, *, max_n: int = ISOMORPHISM_MAX_N) -> bool:
    """Decide isomorphism by score-class pruned permutation search."""
    if t1.n != t2.n:
        return False
    n = t1.n
    if n > max_n:
        raise SizeLimitExceeded(f"isomorphism search refused for n={n} > {max_n}")
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
