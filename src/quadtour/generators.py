"""Constructors for named, random and exhaustively enumerated tournaments."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator

from .core import Tournament
from .errors import (
    DimensionMismatch,
    EvenOrTooSmall,
    InvalidSeed,
    InvalidSymbol,
    NotPrime,
    SizeLimitExceeded,
    WrongResidueClass,
)

ENUMERATION_MAX_N = 7


@dataclass(frozen=True)
class Symbol:
    """Difference set defining a rotational tournament on odd n."""

    n: int
    members: frozenset

    def sorted_members(self) -> tuple:
        return tuple(sorted(self.members))


def make_symbol(n: int, members: Iterable[int]) -> Symbol:
    """Validated Symbol: exactly one of each complementary pair {i, n-i}."""
    if n % 2 == 0 or n < 3:
        raise EvenOrTooSmall(f"symbol order must be odd and >= 3, got {n}")
    mem = frozenset(members)
    for i in mem:
        if not 1 <= i <= n - 1:
            raise InvalidSymbol(f"member {i} outside [1, {n - 1}]")
        if (n - i) in mem:
            raise InvalidSymbol(f"members {i} and {n - i} sum to {n}")
    if len(mem) != (n - 1) // 2:
        raise InvalidSymbol(
            f"symbol must have {(n - 1) // 2} members, got {len(mem)}"
        )
    return Symbol(n, mem)


def rotational(sym: Symbol) -> Tournament:
    """Rotational tournament: i beats j iff (j - i) mod n is in the symbol."""
    n = sym.n
    base = 0
    for d in sym.members:
        base |= 1 << d
    rows = []
    for i in range(n):
        # rotate the base row left by i positions modulo n
        row = ((base << i) | (base >> (n - i))) & ((1 << n) - 1)
        rows.append(row)
    return Tournament(n, rows)


def u_n(n: int) -> Tournament:
    """Rotational tournament with symbol {1, ..., (n-1)/2}."""
    if n % 2 == 0 or n < 3:
        raise EvenOrTooSmall(f"U_n needs odd n >= 3, got {n}")
    return rotational(make_symbol(n, range(1, (n - 1) // 2 + 1)))


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def quadratic_residue_symbol(p: int) -> Symbol:
    """Symbol consisting of the nonzero quadratic residues mod p."""
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p % 4 != 3:
        raise WrongResidueClass(f"need p = 3 (mod 4), got {p} = {p % 4} (mod 4)")
    residues = {(i * i) % p for i in range(1, p)}
    return make_symbol(p, residues)


def quadratic_residue(p: int) -> Tournament:
    """QR_p: rotational tournament on prime p = 3 (mod 4) over its residues."""
    return rotational(quadratic_residue_symbol(p))


def random_tournament(n: int, seed: int) -> Tournament:
    """Random tournament with one fair coin per pair.

    Pairs (u, v), u < v, are visited in lexicographic order and one bit is
    drawn per pair from random.Random(seed) (Mersenne Twister, stable across
    platforms); bit 1 means u beats v.  Identical (n, seed) give identical
    tournaments.
    """
    if n < 1:
        raise DimensionMismatch(f"need n >= 1, got {n}")
    if not 0 <= seed < 1 << 64:
        raise InvalidSeed(f"seed must be an unsigned 64-bit integer, got {seed}")
    rng = random.Random(seed)
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.getrandbits(1):
                rows[u] |= 1 << v
            else:
                rows[v] |= 1 << u
    return Tournament(n, rows)


def augment(t: Tournament, add_transmitter: bool, add_receiver: bool) -> Tournament:
    """Append a transmitter and/or receiver with the largest labels.

    The transmitter gets label n, the receiver the last new label; the
    transmitter beats the receiver when both are added.
    """
    if not add_transmitter and not add_receiver:
        return t
    n = t.n
    extra = int(add_transmitter) + int(add_receiver)
    m = n + extra
    rows = list(t.rows)
    if add_transmitter:
        trans = n
        rows.append(((1 << m) - 1) & ~(1 << trans))
    if add_receiver:
        recv = m - 1
        rows = [row | (1 << recv) for row in rows]
        rows.append(0)
    return Tournament(m, rows)


def pair_order(n: int) -> list:
    """Pairs (u, v), u < v, in lexicographic order."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def all_tournaments(n: int) -> Iterator[Tournament]:
    """All 2^(n(n-1)/2) labeled tournaments on n vertices.

    Enumerated in lexicographic order of the orientation bit-string over the
    lexicographic pair order; bit 1 means u beats v.
    """
    if n > ENUMERATION_MAX_N:
        raise SizeLimitExceeded(f"exhaustive enumeration refused for n={n} > {ENUMERATION_MAX_N}")
    if n < 1:
        raise SizeLimitExceeded(f"need n >= 1, got {n}")
    pairs = pair_order(n)
    m = len(pairs)
    for x in range(1 << m):
        rows = [0] * n
        for i, (u, v) in enumerate(pairs):
            if (x >> (m - 1 - i)) & 1:
                rows[u] |= 1 << v
            else:
                rows[v] |= 1 << u
        yield Tournament(n, rows)


def regular_tournaments(n: int) -> Iterator[Tournament]:
    """Regular tournaments filtered from the labeled exhaustive enumeration.

    Same order as all_tournaments(n).  Degree filtering is done on packed
    3-bit degree counters built from chunk lookup tables, so non-regular
    orientations are rejected without building rows.
    """
    if n % 2 == 0:
        return
    if n > ENUMERATION_MAX_N:
        raise SizeLimitExceeded(f"exhaustive enumeration refused for n={n} > {ENUMERATION_MAX_N}")
    pairs = pair_order(n)
    m = len(pairs)
    k = (n - 1) // 2
    target = sum(k << (3 * u) for u in range(n))

    chunk = 7
    tables = []
    for lo in range(0, m, chunk):
        width = min(chunk, m - lo)
        table = []
        for value in range(1 << width):
            packed = 0
            for b in range(width):
                p = lo + b  # bit position p of x maps to pair index m-1-p
                u, v = pairs[m - 1 - p]
                if (value >> b) & 1:
                    packed += 1 << (3 * u)
                else:
                    packed += 1 << (3 * v)
            table.append(packed)
        tables.append((lo, (1 << width) - 1, tuple(table)))

    for x in range(1 << m):
        packed = 0
        for lo, cmask, table in tables:
            packed += table[(x >> lo) & cmask]
        if packed != target:
            continue
        rows = [0] * n
        for i, (u, v) in enumerate(pairs):
            if (x >> (m - 1 - i)) & 1:
                rows[u] |= 1 << v
            else:
                rows[v] |= 1 << u
        yield Tournament(n, rows)
