"""Shared constructions and brute-force oracles for the test suite."""

from quadtour.core import Tournament, iter_bits, validate


def three_cycle() -> Tournament:
    # 0 -> 1 -> 2 -> 0
    return validate(3, [0b010, 0b100, 0b001])


def transitive_triple() -> Tournament:
    # 0 beats 1 and 2, 1 beats 2
    return validate(3, [0b110, 0b100, 0b000])


def single_arc() -> Tournament:
    return validate(2, [0b10, 0b00])


def reachable_from(t: Tournament, start: int) -> int:
    """Bitmask of vertices reachable from start by a directed path."""
    seen = 1 << start
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for w in iter_bits(t.rows[v] & ~seen & t.full_mask):
            seen |= 1 << w
            frontier.append(w)
    return seen


def is_strongly_connected(t: Tournament) -> bool:
    return all(reachable_from(t, v) == t.full_mask for v in range(t.n))


def brute_out_quadrangular(t: Tournament) -> bool:
    """Direct definition via explicit vertex sets, independent of bit tricks."""
    outs = [set(iter_bits(t.rows[v])) for v in range(t.n)]
    return all(
        len(outs[u] & outs[v]) != 1
        for u in range(t.n)
        for v in range(u + 1, t.n)
    )


def brute_in_quadrangular(t: Tournament) -> bool:
    ins = [
        {u for u in range(t.n) if u != v and (t.rows[u] >> v) & 1}
        for v in range(t.n)
    ]
    return all(
        len(ins[u] & ins[v]) != 1
        for u in range(t.n)
        for v in range(u + 1, t.n)
    )


def brute_quadrangular(t: Tournament) -> bool:
    return brute_out_quadrangular(t) and brute_in_quadrangular(t)


def brute_failing_pairs(t: Tournament, side: str) -> list:
    """All pairs with exactly one common out-/in-neighbour, lexicographic."""
    if side == "out":
        sets = [set(iter_bits(t.rows[v])) for v in range(t.n)]
    else:
        sets = [
            {u for u in range(t.n) if u != v and (t.rows[u] >> v) & 1}
            for v in range(t.n)
        ]
    return [
        (u, v)
        for u in range(t.n)
        for v in range(u + 1, t.n)
        if len(sets[u] & sets[v]) == 1
    ]


def brute_gamma(t: Tournament) -> int:
    """Domination number by explicit subset enumeration over vertex sets."""
    from itertools import combinations

    everyone = set(range(t.n))
    for size in range(1, t.n + 1):
        for combo in combinations(range(t.n), size):
            covered = set(combo)
            for v in combo:
                covered |= set(iter_bits(t.rows[v]))
            if covered == everyone:
                return size
    raise AssertionError("unreachable")


def brute_witness(t: Tournament, side: str):
    """(u, v, common) for the first failing pair of a side, or None."""
    pairs = brute_failing_pairs(t, side)
    if not pairs:
        return None
    u, v = pairs[0]
    if side == "out":
        common = {w for w in range(t.n) if t.has_arc(u, w) and t.has_arc(v, w)}
    else:
        common = {w for w in range(t.n) if t.has_arc(w, u) and t.has_arc(w, v)}
    return u, v, tuple(sorted(common))


def brute_gamma_exceeds(t: Tournament, k: int) -> bool:
    """No set of at most k vertices dominates, by explicit subset search."""
    from itertools import combinations

    everyone = set(range(t.n))
    closed = [set(iter_bits(t.rows[v])) | {v} for v in range(t.n)]
    return not any(
        set().union(*(closed[v] for v in combo)) == everyone
        for size in range(1, min(k, t.n) + 1)
        for combo in combinations(range(t.n), size)
    )


def brute_bad_pair(n: int, rows) -> tuple:
    """Lexicographically smallest pair u < v with zero or two arcs, or None."""
    for u in range(n):
        for v in range(u + 1, n):
            if ((rows[u] >> v) & 1) + ((rows[v] >> u) & 1) != 1:
                return u, v
    return None


def brute_row_pair(bits) -> tuple:
    """Lexicographically smallest row pair sharing exactly one column, or None."""
    for i in range(len(bits)):
        for j in range(i + 1, len(bits)):
            if len(set(iter_bits(bits[i])) & set(iter_bits(bits[j]))) == 1:
                return i, j
    return None


def brute_transpose(rows: int, cols: int, bits) -> tuple:
    """Column bitmasks of a rows x cols 0/1 matrix, entry by entry."""
    out = []
    for c in range(cols):
        col = 0
        for r in range(rows):
            if (bits[r] >> c) & 1:
                col |= 1 << r
        out.append(col)
    return tuple(out)


def brute_render(t: Tournament) -> str:
    lines = [str(t.n)]
    for u in range(t.n):
        lines.append("".join("1" if t.has_arc(u, v) else "0" for v in range(t.n)))
    return "\n".join(lines) + "\n"


def brute_induced(t: Tournament, keep) -> Tournament:
    kept = sorted(set(keep))
    rows = []
    for a in kept:
        row = 0
        for i, b in enumerate(kept):
            if t.has_arc(a, b):
                row |= 1 << i
        rows.append(row)
    return Tournament(len(kept), rows)
