"""Shared constructions and brute-force oracles for the test suite."""

from itertools import combinations

from quadtour.core import Tournament, iter_bits, validate
from quadtour.generators import Symbol


def three_cycle() -> Tournament:
    # 0 -> 1 -> 2 -> 0
    return validate(3, [0b010, 0b100, 0b001])


def transitive_triple() -> Tournament:
    # 0 beats 1 and 2, 1 beats 2
    return validate(3, [0b110, 0b100, 0b000])


def single_arc() -> Tournament:
    return validate(2, [0b10, 0b00])


def brute_tournament(n: int, x: int) -> Tournament:
    """Decode orientation bit-string x over the pairs (u, v), u < v.

    The pairs are taken in lexicographic order, the first one most
    significant; bit 1 means u beats v.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rows = [0] * n
    for i, (u, v) in enumerate(pairs):
        if (x >> (len(pairs) - 1 - i)) & 1:
            rows[u] |= 1 << v
        else:
            rows[v] |= 1 << u
    return Tournament(n, rows)


def brute_all_tournaments(n: int) -> list:
    """Every tournament on n vertices, in increasing bit-string order."""
    return [brute_tournament(n, x) for x in range(1 << (n * (n - 1) // 2))]


def orientation_index(t: Tournament) -> int:
    """The bit-string x with brute_tournament(t.n, x) == t."""
    x = 0
    for u in range(t.n):
        for v in range(u + 1, t.n):
            x = (x << 1) | t.has_arc(u, v)
    return x


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
    everyone = set(range(t.n))
    closed = [set(iter_bits(t.rows[v])) | {v} for v in range(t.n)]
    return not any(
        set().union(*(closed[v] for v in combo)) == everyone
        for size in range(1, min(k, t.n) + 1)
        for combo in combinations(range(t.n), size)
    )


def brute_closed_outs(t: Tournament) -> list:
    """Each vertex with the vertices it beats, as vertex sets, arc by arc."""
    return [{v} | {w for w in range(t.n) if t.has_arc(v, w)} for v in range(t.n)]


def brute_dominates(t: Tournament, s) -> bool:
    """Every vertex is in s or beaten by a member of s, as vertex sets."""
    closed = brute_closed_outs(t)
    return set().union(*(closed[v] for v in s)) == set(range(t.n))


def brute_dominant_pairs(t: Tournament) -> list:
    """All pairs {u, v}, u < v, that dominate t, lexicographic."""
    closed = brute_closed_outs(t)
    everyone = set(range(t.n))
    return [
        (u, v)
        for u in range(t.n)
        for v in range(u + 1, t.n)
        if closed[u] | closed[v] == everyone
    ]


def brute_competition_edges(t: Tournament) -> set:
    """Pairs u < v with at least one common out-neighbour, as vertex sets."""
    outs = [{w for w in range(t.n) if t.has_arc(v, w)} for v in range(t.n)]
    return {
        (u, v)
        for u in range(t.n)
        for v in range(u + 1, t.n)
        if outs[u] & outs[v]
    }


def brute_disjoint_pairs(rows) -> list:
    """All index pairs i < j whose bitmasks share no set bit, lexicographic."""
    sets = [set(iter_bits(r)) for r in rows]
    return [
        (i, j)
        for i in range(len(rows))
        for j in range(i + 1, len(rows))
        if not sets[i] & sets[j]
    ]


def brute_is_regular(t: Tournament) -> bool:
    """Every vertex beats the same number of vertices, arc by arc."""
    return len({sum(t.has_arc(v, w) for w in range(t.n)) for v in range(t.n)}) == 1


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


def brute_dot(t: Tournament) -> str:
    """DOT digraph, one vertex line per vertex, then one line per arc u -> v."""
    lines = ["digraph tournament {"]
    lines += [f"  {v};" for v in range(t.n)]
    lines += [f"  {u} -> {v};" for u in range(t.n) for v in range(t.n) if t.has_arc(u, v)]
    lines.append("}")
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


def brute_subtournament_degrees(t: Tournament, f) -> bool:
    """verify_subtournament_degrees read off row intersections, with the
    min-degree-4 corollaries checked as well: w in s = rows[v] has degree
    |rows[w] & s| in T[s], on the out-rows when f.out_quad and on the in-rows
    (the reversal's out-rows) when f.in_quad; f is a Facts(t), possibly with
    forced verdicts."""
    for quad, rows in ((f.out_quad, t.rows), (f.in_quad, [t.in_mask(v) for v in range(t.n)])):
        if quad and (any((rows[w] & s).bit_count() == 1 for s in rows for w in iter_bits(s))
                     or 2 <= min(r.bit_count() for r in rows) < 4):
            return False
    return True


def brute_symbol_criterion(sym: Symbol) -> tuple:
    """(verdict, smallest failing m) by counting the 2-subsets of S per
    difference class +-m, for m in 1..(n-1)/2."""
    n = sym.n
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


def brute_symbol_at(n: int, idx: int) -> Symbol:
    """Symbol number idx: bit k-1-p of idx picks n-(p+1) over p+1 for pair p."""
    k = (n - 1) // 2
    members = []
    for pair in range(k):
        i = pair + 1
        if (idx >> (k - 1 - pair)) & 1:
            members.append(n - i)
        else:
            members.append(i)
    return Symbol(n, frozenset(members))
