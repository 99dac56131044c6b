"""Dominating sets, domination number, domination and competition graphs."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, List, Optional, Tuple

from .core import Tournament
from .errors import SizeLimitExceeded, UnsupportedK

GAMMA_MAX_N = 24


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected loopless graph on the tournament's vertices."""

    n: int
    edges: frozenset  # unordered pairs stored as (u, v) with u < v

    def sorted_edges(self) -> list:
        return sorted(self.edges)

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)


@dataclass(frozen=True)
class DominationInfo:
    gamma: int
    min_set: tuple  # lexicographically smallest minimum dominating set
    pairs: tuple  # all dominant pairs, lexicographic


def _closed_union(t: Tournament, vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= t.closed_out_mask(v)
    return mask


def dominates(t: Tournament, s: Iterable[int]) -> bool:
    """True iff every vertex is in s or beaten by some member of s."""
    members = list(s)
    for v in members:
        t.check_vertex(v)
    return _closed_union(t, members) == t.full_mask


def dominant_pairs(t: Tournament) -> tuple:
    """All pairs {x, y} dominating the tournament, in lexicographic order."""
    full = t.full_mask
    closed = [t.closed_out_mask(v) for v in range(t.n)]
    return tuple(
        (u, v)
        for u, cu in enumerate(closed)
        for v, cv in enumerate(closed[u + 1:], u + 1)
        if cu | cv == full
    )


def domination_number(t: Tournament, *, max_n: int = GAMMA_MAX_N) -> DominationInfo:
    """Exact domination number by iterative deepening over subset sizes."""
    if t.n > max_n:
        raise SizeLimitExceeded(f"domination number refused for n={t.n} > {max_n}")
    full = t.full_mask
    pairs = dominant_pairs(t) if t.n >= 2 else ()
    for size in range(1, t.n + 1):
        for combo in combinations(range(t.n), size):
            if _closed_union(t, combo) == full:
                return DominationInfo(size, combo, pairs)
    raise AssertionError("the full vertex set always dominates")


def gamma_exceeds(t: Tournament, k: int) -> bool:
    """True iff no dominating set of size <= k exists, for k in {1, 2, 3}."""
    if k not in (1, 2, 3):
        raise UnsupportedK(f"k must be 1, 2 or 3, got {k}")
    full = t.full_mask
    closed = [t.closed_out_mask(v) for v in range(t.n)]
    if full in closed:
        return False
    if k == 1:
        return True
    for u, cu in enumerate(closed):
        for cv in closed[u + 1:]:
            if cu | cv == full:
                return False
    if k == 2:
        return True
    # No pair dominates, so a third vertex w completes {u, v} iff w is in the
    # closed in-neighbourhood of every vertex that u and v miss.
    closed_in = [full & ~row | 1 << v for v, row in enumerate(t.rows)]
    for u, cu in enumerate(closed):
        for cv in closed[u + 1:]:
            missed = full & ~(cu | cv)
            common = full
            while missed and common:
                low = missed & -missed
                common &= closed_in[low.bit_length() - 1]
                missed ^= low
            if common:
                return False
    return True


def domination_graph(t: Tournament) -> SimpleGraph:
    """Graph whose edges are exactly the dominant pairs of t."""
    return SimpleGraph(t.n, frozenset(dominant_pairs(t)))


def competition_graph(t: Tournament) -> SimpleGraph:
    """Edge {x, y} iff x and y share at least one common out-neighbour."""
    edges = set()
    for u in range(t.n):
        ou = t.out_mask(u)
        for v in range(u + 1, t.n):
            if ou & t.out_mask(v):
                edges.add((u, v))
    return SimpleGraph(t.n, frozenset(edges))
