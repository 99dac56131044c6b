"""Symbol enumeration and the difference-pair quadrangularity criterion.

A rotational tournament on n > 3 vertices with symbol S is quadrangular
exactly when every residue m in 1..(n-1)/2 is realized as a difference of
two members of S by at least two distinct unordered 2-subsets of S.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations, repeat
from typing import Iterator, List, Optional, Tuple

from .errors import EvenOrTooSmall, SizeLimitExceeded, TooSmall, WrongResidueClass
from .generators import Symbol, make_symbol

SEARCH_MAX_N = 31


def symbol_criterion(sym: Symbol) -> Tuple[bool, Optional[int]]:
    """Difference-pair criterion; on failure returns the smallest bad residue.

    For each m in 1..(n-1)/2 counts the distinct unordered 2-subsets
    {i, j} of S with i - j = +-m (mod n); the criterion needs at least two
    subsets for every m.
    """
    n = sym.n
    if n <= 3:
        raise TooSmall(f"criterion needs n > 3, got {n}")
    half = (n - 1) // 2
    counts = [0] * (half + 1)
    for i, j in combinations(sym.sorted_members(), 2):
        d = (i - j) % n
        if d > half:
            d = n - d
        counts[d] += 1
    for m in range(1, half + 1):
        if counts[m] < 2:
            return False, m
    return True, None


def enumerate_symbols(n: int) -> Iterator[Symbol]:
    """All 2^((n-1)/2) symbols on odd n, one binary choice per pair {i, n-i}.

    Lexicographic in the choice vector: bit 0 picks i for the pair, bit 1
    picks n-i, with the pair for i=1 varying slowest.
    """
    if n % 2 == 0 or n < 3:
        raise EvenOrTooSmall(f"need odd n >= 3, got {n}")
    k = (n - 1) // 2
    for idx in range(1 << k):
        yield _symbol_at(n, idx)


def _symbol_at(n: int, idx: int) -> Symbol:
    k = (n - 1) // 2
    members = []
    for pair in range(k):
        i = pair + 1
        if (idx >> (k - 1 - pair)) & 1:
            members.append(n - i)
        else:
            members.append(i)
    return Symbol(n, frozenset(members))


def _scan_range(n: int, start: int, stop: int) -> list:
    hits = []
    for idx in range(start, stop):
        sym = _symbol_at(n, idx)
        ok, _ = symbol_criterion(sym)
        if ok:
            hits.append(sym.sorted_members())
    return hits


@dataclass(frozen=True)
class SearchResult:
    n: int
    hits: tuple  # sorted member tuples, in enumeration order
    examined: int
    elapsed: float


def search(n: int, *, threads: int = 1) -> SearchResult:
    """Exhaustively filter all symbols on n through the criterion.

    The choice space is split into contiguous index ranges, one per worker,
    and the hit lists are concatenated in range order, so the output is
    identical for any thread count.  At most os.cpu_count() workers start.
    """
    if n % 2 == 0 or n <= 3:
        raise EvenOrTooSmall(f"need odd n > 3, got {n}")
    if n > SEARCH_MAX_N:
        raise SizeLimitExceeded(f"search refused for n={n} > {SEARCH_MAX_N}")
    if threads < 1:
        raise TooSmall(f"need threads >= 1, got {threads}")
    k = (n - 1) // 2
    total = 1 << k
    workers = min(threads, os.cpu_count() or 1)
    started = time.perf_counter()
    if workers == 1 or total < 1024:
        hits = _scan_range(n, 0, total)
    else:
        starts = range(0, total, -(-total // workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_scan_range, repeat(n), starts, [*starts[1:], total]))
        hits = [h for part in parts for h in part]
    elapsed = time.perf_counter() - started
    return SearchResult(n, tuple(hits), total, elapsed)


def family_symbol(n: int) -> Symbol:
    """The n = 3 (mod 4) family: odd i <= n-2 except (n+3)/2, plus (n-3)/2."""
    if n % 4 != 3:
        raise WrongResidueClass(f"need n = 3 (mod 4), got {n}")
    if n < 11:
        raise TooSmall(f"family defined for n >= 11, got {n}")
    members = {i for i in range(1, n - 1, 2) if i != (n + 3) // 2}
    members.add((n - 3) // 2)
    return make_symbol(n, members)
