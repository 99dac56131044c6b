"""Symbol enumeration and the difference-pair quadrangularity criterion.

A rotational tournament on n > 3 vertices with symbol S is quadrangular
exactly when every residue m in 1..(n-1)/2 is realized as a difference of
two members of S by at least two distinct unordered 2-subsets of S.

That number of 2-subsets is |S & (S + m)|: for odd n, m and -m differ, so
each 2-subset {i, j} with i - j = +-m has exactly one member x with
x + m in S.  With S as an n-bit mask, S + m is the mask rotated left by m,
so each residue costs one shift, one AND and one popcount.

Symbols on odd n are enumerated in product order over the pairs
(i, n - i), i = 1..(n-1)/2: the pair for i = 1 varies slowest and i comes
before n - i.  The index ranges that search splits among its workers are
positions in that order.
"""

from __future__ import annotations

import os
import time
from itertools import islice, product, repeat
from typing import Iterator, NamedTuple, Optional, Tuple

from .errors import EvenOrTooSmall, SizeLimitExceeded, TooSmall, WrongResidueClass
from .generators import Symbol, make_symbol

SEARCH_MAX_N = 31

# search scans fewer symbols than this in-process, whatever `threads` says.
# On a 2-CPU host (Python 3.11) a two-worker pool cost more than it saved up
# to n = 27 (8,192 symbols): `search --n N --all` took 37/41/49/62 ms with
# one worker and 51/54/60/69 ms with two at n = 21/23/25/27 (median of 11
# runs).  The cutoff stays below that crossover so that the benchmark
# self-test's two-worker n = 23 search (2,048 symbols) still runs the pool.
_POOL_MIN_SYMBOLS = 2048


def symbol_criterion(sym: Symbol) -> Tuple[bool, Optional[int]]:
    """Difference-pair criterion; on failure returns the smallest bad residue.

    For each m in 1..(n-1)/2 counts the distinct unordered 2-subsets
    {i, j} of S with i - j = +-m (mod n); the criterion needs at least two
    subsets for every m.  The count is |S & (S + m)|, the members x of S
    with x + m in S, since n is odd and each such subset has exactly one.
    """
    n = sym.n
    if n <= 3:
        raise TooSmall(f"criterion needs n > 3, got {n}")
    mask = 0
    for i in sym.members:
        mask |= 1 << (i % n)
    doubled = mask | mask << n
    for m in range(1, (n - 1) // 2 + 1):
        # doubled >> (n - m) is S + m, plus bits above n - 1 that mask drops
        if (mask & (doubled >> (n - m))).bit_count() < 2:
            return False, m
    return True, None


def enumerate_symbols(n: int) -> Iterator[Symbol]:
    """All 2^((n-1)/2) symbols on odd n, one choice per pair (i, n - i).

    Product order over the pairs: the pair for i = 1 varies slowest, and
    i comes before n - i.
    """
    if n % 2 == 0 or n < 3:
        raise EvenOrTooSmall(f"need odd n >= 3, got {n}")
    for members in _choices(n):
        yield Symbol(n, frozenset(members))


def _choices(n: int) -> Iterator[tuple]:
    return product(*[(i, n - i) for i in range(1, (n - 1) // 2 + 1)])


def _hits(n: int, start: int, stop: int) -> Iterator[Tuple[int, tuple]]:
    """(idx, sorted members) of each symbol in [start, stop) meeting the criterion."""
    for idx, members in enumerate(islice(_choices(n), start, stop), start):
        if symbol_criterion(Symbol(n, frozenset(members)))[0]:
            yield idx, tuple(sorted(members))


def _scan_range(n: int, start: int, stop: int) -> list:
    return [members for _, members in _hits(n, start, stop)]


def first_hit(n: int) -> Tuple[Optional[tuple], int]:
    """The first symbol in enumeration order meeting the criterion, as sorted
    members or None, and the number of symbols examined to find it."""
    if n % 2 == 0 or n < 3:
        raise EvenOrTooSmall(f"need odd n >= 3, got {n}")
    total = 1 << ((n - 1) // 2)
    for idx, members in _hits(n, 0, total):
        return members, idx + 1
    return None, total


class SearchResult(NamedTuple):
    n: int
    hits: tuple  # sorted member tuples, in enumeration order
    examined: int
    elapsed: float


def search(n: int, *, threads: int = 1) -> SearchResult:
    """Exhaustively filter all symbols on n through the criterion.

    The choice space is split into contiguous index ranges, one per worker,
    and the hit lists are concatenated in range order, so the output is
    identical for any thread count.  At most one worker starts per CPU this
    process may use (os.sched_getaffinity, else os.cpu_count()).
    """
    if n % 2 == 0 or n <= 3:
        raise EvenOrTooSmall(f"need odd n > 3, got {n}")
    if n > SEARCH_MAX_N:
        raise SizeLimitExceeded(f"search refused for n={n} > {SEARCH_MAX_N}")
    if threads < 1:
        raise TooSmall(f"need threads >= 1, got {threads}")
    k = (n - 1) // 2
    total = 1 << k
    if hasattr(os, "sched_getaffinity"):
        workers = min(threads, len(os.sched_getaffinity(0)))
    else:
        workers = min(threads, os.cpu_count() or 1)
    started = time.perf_counter()
    if workers == 1 or total < _POOL_MIN_SYMBOLS:
        hits = _scan_range(n, 0, total)
    else:
        # imported here: every CLI start imports this module, few start a pool
        from concurrent.futures import ProcessPoolExecutor

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
