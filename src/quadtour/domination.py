"""Dominating sets, domination number, domination and competition graphs.

A vertex outside S escapes S exactly when it beats every member, and no
vertex is in its own in-set, so S dominates iff its members' in-sets have
an empty intersection.  The domination tests read the in-rows, the out-rows
of the dual, through this criterion; for pairs it is core.disjoint_pairs,
the row-pair scan of the quadrangularity test (core._pairs_sharing) asked
for pairs sharing no bit instead of one.  On long scans a pair whose
in-rows meet in a screen column is settled without the full-row AND.
The in-rows of a reversal are the out-rows of the original, so a caller that
asks whether gamma(T^r) > 2 passes T.rows to _exceeds_two and builds no dual.
The gamma > 3 test asks, for each pair, whether some vertex lies in the
closed in-set of every vertex the pair misses.  It reads the missed set a
byte at a time, each byte indexing a 256-entry table of intersections over
one 8-vertex chunk; a chunk's table is built the first time a pair needs it.
"""

from __future__ import annotations

from itertools import combinations, filterfalse
from typing import Iterable, Iterator, NamedTuple

from .core import Tournament, disjoint_pairs, dual
from .errors import SizeLimitExceeded, UnsupportedK

GAMMA_MAX_N = 24


class SimpleGraph(NamedTuple):
    """Undirected loopless graph on the tournament's vertices."""

    n: int
    edges: frozenset  # unordered pairs stored as (u, v) with u < v

    def sorted_edges(self) -> list:
        return sorted(self.edges)

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)


class DominationInfo(NamedTuple):
    gamma: int
    min_set: tuple  # lexicographically smallest minimum dominating set
    pairs: tuple  # all dominant pairs, lexicographic


def _undominated(ins, members: Iterable[int], full: int) -> int:
    """The vertices no member beats: the intersection of the members' in-sets."""
    common = full
    for v in members:
        common &= ins[v]
    return common


def dominates(t: Tournament, s: Iterable[int]) -> bool:
    """True iff every vertex is in s or beaten by some member of s."""
    members = list(s)
    for v in members:
        t.check_vertex(v)
    return not _undominated(dual(t).rows, members, t.full_mask)


def dominant_pairs(t: Tournament) -> tuple:
    """All pairs {x, y} dominating the tournament, in lexicographic order."""
    return tuple(disjoint_pairs(dual(t).rows))


def domination_number(t: Tournament) -> DominationInfo:
    """Exact domination number by iterative deepening over subset sizes."""
    if t.n > GAMMA_MAX_N:
        raise SizeLimitExceeded(f"domination number refused for n={t.n} > {GAMMA_MAX_N}")
    full, ins = t.full_mask, dual(t).rows
    pairs = tuple(disjoint_pairs(ins))
    for size in range(1, t.n + 1):
        for combo in combinations(range(t.n), size):
            if not _undominated(ins, combo, full):
                return DominationInfo(size, combo, pairs)
    raise AssertionError("the full vertex set always dominates")


def _exceeds_two(ins) -> bool:
    """gamma > 2 for the tournament with these in-rows: no vertex has an empty
    in-set (a transmitter) and no two in-sets are disjoint (a dominant pair)."""
    return 0 not in ins and next(disjoint_pairs(ins), None) is None


def gamma_exceeds(t: Tournament, k: int) -> bool:
    """True iff no dominating set of size <= k exists, for k in {1, 2, 3}."""
    if k not in (1, 2, 3):
        raise UnsupportedK(f"k must be 1, 2 or 3, got {k}")
    ins = dual(t).rows
    if k == 1:
        return 0 not in ins
    if not _exceeds_two(ins):
        return False
    if k == 2:
        return True
    # No pair dominates, so a third vertex w completes {u, v} iff w is in the
    # closed in-neighbourhood of every vertex that u and v miss.  Byte i of
    # the missed set indexes tables[i], over vertices 8i..8i+7.
    full = t.full_mask
    closed_in = [row | 1 << v for v, row in enumerate(ins)]
    width = (t.n + 7) // 8
    tables = [None] * width
    for u, iu in enumerate(ins):
        for iv in ins[u + 1:]:
            common = full
            for i, byte in enumerate((iu & iv).to_bytes(width, "little")):
                if byte:
                    table = tables[i]
                    if table is None:
                        table = tables[i] = _chunk_table(closed_in[8 * i:8 * i + 8], full)
                    common &= table[byte]
                    if not common:
                        break
            else:
                return False
    return True


def _chunk_table(chunk, full: int) -> list:
    """Entry b is the intersection of chunk[j] over the set bits j of b."""
    table = [full]
    for mask in chunk:
        table += [common & mask for common in table]
    return table


def domination_graph(t: Tournament) -> SimpleGraph:
    """Graph whose edges are exactly the dominant pairs of t."""
    return SimpleGraph(t.n, frozenset(dominant_pairs(t)))


def competition_edges(t: Tournament) -> Iterator[tuple]:
    """Each pair x < y sharing at least one out-neighbour, lazily, in
    lexicographic order."""
    disjoint = set(disjoint_pairs(t.rows))
    return filterfalse(disjoint.__contains__, combinations(range(t.n), 2))


def competition_graph(t: Tournament) -> SimpleGraph:
    """Edge {x, y} iff x and y share at least one common out-neighbour."""
    return SimpleGraph(t.n, frozenset(competition_edges(t)))
