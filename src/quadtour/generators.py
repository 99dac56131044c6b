"""Constructors for named, random and exhaustively enumerated tournaments.

all_tournaments and regular_tournaments share one vertex-by-vertex enumerator.
It packs the whole matrix into one int, row v in byte v, and adds each
vertex's choice to it, so every tournament is built as a value: no row list is
shared, set or undone.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, NamedTuple, Optional

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


class Symbol(NamedTuple):
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
    """Rotational tournament: i beats j iff (j - i) mod n is in the symbol;
    row i is the base row, bit d for each member d, rotated left by i."""
    n, base = sym.n, sum(1 << d for d in sym.members)
    return Tournament(n, [(base << i | base >> (n - i)) & ((1 << n) - 1) for i in range(n)])


def u_n(n: int) -> Tournament:
    """Rotational tournament with symbol {1, ..., (n-1)/2}; make_symbol
    raises EvenOrTooSmall unless n is odd and >= 3."""
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
    rows = list(t.rows) + ([(1 << t.n) - 1] if add_transmitter else [])
    if add_receiver:
        rows = [row | 1 << len(rows) for row in rows] + [0]
    return Tournament(len(rows), rows)


def _tournaments(n: int, score: Optional[int] = None) -> Iterator[Tournament]:
    """The labeled tournaments on n vertices, built one vertex at a time.

    Vertex u = 0, 1, ... picks its out-set among the later vertices, trying
    the choices in the order of its orientation bits with the pair (u, u+1)
    most significant; the later vertices it does not beat get bit u.  Row u
    is then complete, so with `score` set a choice is skipped unless row u
    has that many ones.

    The matrix is one int with row v in byte v, since n <= ENUMERATION_MAX_N
    = 7 < 8.  A choice of u is one int too: its out-set in byte u plus bit u
    of every later row that u does not beat.  Choices of different vertices
    set disjoint bits, so a node adds its choice to its parent's matrix.
    """
    if not 1 <= n <= ENUMERATION_MAX_N:
        raise SizeLimitExceeded(f"exhaustive enumeration needs 1 <= n <= {ENUMERATION_MAX_N}, got {n}")
    choices = []
    for u in range(n):
        k = n - 1 - u
        outs = [int(format(c, f"0{k}b")[::-1], 2) << (u + 1) for c in range(1 << k)]
        choices.append([out << 8 * u | sum(1 << 8 * v + u for v in range(u + 1, n) if not out >> v & 1)
                        for out in outs])

    def place(u, matrix):
        for choice in choices[u]:
            m = matrix + choice
            if score is not None and (m >> 8 * u & 255).bit_count() != score:
                continue
            if u == n - 1:
                yield Tournament(n, m.to_bytes(n, "little"))
            else:
                yield from place(u + 1, m)

    yield from place(0, 0)


def all_tournaments(n: int) -> Iterator[Tournament]:
    """All 2^(n(n-1)/2) labeled tournaments on n vertices, 1 <= n <= 7.

    Enumerated in lexicographic order of the orientation bit-string over the
    lexicographic pair order; bit 1 means u beats v.  Sizes outside [1, 7]
    raise SizeLimitExceeded on the first next().
    """
    yield from _tournaments(n)


def regular_tournaments(n: int) -> Iterator[Tournament]:
    """The regular tournaments among all_tournaments(n), in the same order.

    Rows that miss the score (n - 1) // 2 are pruned as they are built, so
    n = 7 visits few of the 2^21 orientations.  Even n yields nothing, since
    n equal scores summing to n(n - 1)/2 are each (n - 1)/2.  Sizes outside
    [1, 7] raise SizeLimitExceeded on the first next().
    """
    yield from _tournaments(n, (n - 1) // 2)
