"""Shared constructions and brute-force oracles for the test suite."""

import random
from itertools import combinations

from quadtour import cli
from quadtour.core import Tournament, dual, iter_bits, validate
from quadtour.generators import (
    Symbol,
    augment,
    make_symbol,
    quadratic_residue,
    random_tournament,
    rotational,
)


def three_cycle() -> Tournament:
    # 0 -> 1 -> 2 -> 0
    return validate(3, [0b010, 0b100, 0b001])


def transitive_triple() -> Tournament:
    # 0 beats 1 and 2, 1 beats 2
    return validate(3, [0b110, 0b100, 0b000])


def single_arc() -> Tournament:
    return validate(2, [0b10, 0b00])


def degree_one(r: Tournament, miss=None) -> Tournament:
    """D(R): R plus y beating all of R and x beating only y, so x has out-degree 1
    and O(y) = T - {x, y}.  With miss = v, y beats all of R but v, which beats y."""
    n = r.n
    rows = [row | 1 << (n + 1) for row in r.rows]
    y_row = r.full_mask
    if miss is not None:
        rows[miss] |= 1 << n
        y_row &= ~(1 << miss)
    return Tournament(n + 2, rows + [y_row, 1 << n])


def glue(a: Tournament, b: Tournament) -> Tournament:
    """A => B: A on labels 0..a.n-1, B after it, every vertex of A beating every vertex of B."""
    to_b = ((1 << b.n) - 1) << a.n
    return Tournament(a.n + b.n, [row | to_b for row in a.rows] + [row << a.n for row in b.rows])


def mutation_corpus() -> list:
    """Instances on which each condition of RULES decides some verdict.

    D(R) for R = QR_7 and rot11, their reversals, rot11 => rot11; near misses
    D(R) with y missing one vertex (each in turn), D(QR_7) => rot11 and its
    reversal; seeded cores R = random_tournament(k, seed), 7 <= k <= 30, 40
    seeds each, wrapped as R + s + t, R + s, R + t, D(R) and D(R)^r, and 150
    seeded glues of two cores; cli._named_instances(), QR_19 and QR_23.
    """
    qr7, rot11 = quadratic_residue(7), rotational(make_symbol(11, {1, 3, 4, 5, 9}))
    d7, d11, d7_rot11 = degree_one(qr7), degree_one(rot11), glue(degree_one(qr7), rot11)
    out = [d7, d11, dual(d7), dual(d11), glue(rot11, rot11), d7_rot11, dual(d7_rot11)]
    out += [degree_one(r, v) for r in (qr7, rot11) for v in range(r.n)]
    cores = [random_tournament(k, seed) for k in range(7, 31) for seed in range(40)]
    for r in cores:
        out += [augment(r, True, True), augment(r, True, False), augment(r, False, True),
                degree_one(r), dual(degree_one(r))]
    rng = random.Random(16)
    out += [glue(*rng.sample(cores, 2)) for _ in range(150)]
    return out + cli._named_instances() + [quadratic_residue(19), quadratic_residue(23)]


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


def brute_special_vertices(t: Tournament) -> tuple:
    """(transmitter, receiver) by counting each vertex's arcs one by one."""
    scores = [sum(t.has_arc(v, w) for w in range(t.n)) for v in range(t.n)]
    transmitters = [v for v in range(t.n) if scores[v] == t.n - 1]
    receivers = [v for v in range(t.n) if scores[v] == 0]
    assert len(transmitters) <= 1 and len(receivers) <= 1
    return (transmitters or [None])[0], (receivers or [None])[0]


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


def brute_pairs_sharing(rows, c: int) -> list:
    """All index pairs i < j whose bitmasks share exactly c set bits, lexicographic."""
    sets = [set(iter_bits(r)) for r in rows]
    return [
        (i, j)
        for i in range(len(rows))
        for j in range(i + 1, len(rows))
        if len(sets[i] & sets[j]) == c
    ]


def brute_disjoint_pairs(rows) -> list:
    """All index pairs i < j whose bitmasks share no set bit, lexicographic."""
    return brute_pairs_sharing(rows, 0)


def brute_screen(rows, c: int, spots) -> list:
    """What core._screen yields, by a bit-sliced count that walks the screen
    columns spots one at a time: for each row u past row 0, the later rows
    meeting u in at least one (c = 0) or two (c = 1) of the spots that u
    holds are settled, and the rest stay open; None for row 0 and for a row
    that leaves over a quarter of its later rows open."""
    n = len(rows)
    cols = [sum((row >> spot & 1) << r for r, row in enumerate(rows)) for spot in spots]
    out = [None]
    for u in range(1, n):
        ones = twos = 0
        for spot, col in zip(spots, cols):
            if rows[u] >> spot & 1:
                twos |= ones & col
                ones |= col
        later = (1 << n) - (2 << u)
        left = later & ~(twos if c else ones)
        out.append(left if 4 * left.bit_count() <= n - 1 - u else None)
    return out


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


def brute_subtournament_degrees(f) -> bool:
    """verify_subtournament_degrees read off row intersections, with the
    min-degree-4 corollaries checked as well: w in s = rows[v] has degree
    |rows[w] & s| in T[s], on the out-rows of t = f.t when f.out_quad and on
    the in-rows (the reversal's out-rows) when f.in_quad; f is a Facts,
    possibly with forced verdicts."""
    t = f.t
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
