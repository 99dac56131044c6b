"""Differential tests of the whole-row bitmask kernels against brute force.

Inputs: every labelled tournament with n <= 6, seeded random tournaments
with 7 <= n <= 40, and seeded relabellings of quadrangular rotational and
quadratic-residue tournaments, so both verdicts of each scan are reached at
sizes where a witness need not sit at the first pair.  Both row-pair
questions (exactly one common bit, and none) are one scan,
core._pairs_sharing(rows, c); past 200 rows it walks a screen that settles
most pairs by one count over 128 spread screen columns, read from lookup
tables.  The screen is checked on its own against brute force and against
a column-by-column count over the same columns, on ragged last groups and
all-zero rows, with one table build per scan and none for a caller that
stops at row 0 (tests/test_properties.py also draws random 201- to 300-row
patterns, which walk it unpatched).  The scan, for both c, walks it on any
input when the row gate is patched to 0: tournaments with 61 <= n <= 160
and their duals, patterns up to 300 columns wide and 0.01 to 0.9 dense,
rows with empty low words, unrelabelled glues, a transitive tournament,
all-zero rows, rows holding fewer than two screen columns, and hand-made
pairs whose common bits sit on and off the screen columns.  Tournaments of
201 to 302 vertices reach it unpatched, and so do a 300-row identity (with
and without a late common bit) and a sparse 250-row pattern, whose rows the
screen leaves mostly open, so they are tested in order.  The wide
tournaments and their duals also go through the dominant pairs, competition
graph and gamma > 2 tests built on the no-common-bit scan, both in order
and screened.  The gamma > 3 test reads
each missed set a byte at a time, so it gets inputs whose n straddles 8, 16
and 24, grown from QR_p by twin vertices, and relabelled QR_23, QR_31 and
QR_43.
DOT export is compared arc by arc on every input.  The theorem layer's
vertex deletion and its reversed-side domination test are checked against
induced() and against the reversal itself, on cores whose domination number
differs from their reversal's.  The outset/inset degree verifier, which builds
each sub-tournament by induced(), is compared with one that reads its degrees
off row intersections and also checks the min-degree-4 corollaries, with the
oracle verdicts forced both ways.
"""

import random
from itertools import combinations

import pytest

from quadtour import cli, core, domination
from quadtour.core import (
    _PLAIN_ROWS,
    _SCREEN,
    Tournament,
    _pairs_sharing,
    _screen,
    disjoint_pairs,
    first_pair_sharing_one,
    dual,
    induced,
    strong_decomposition,
    validate,
)
from quadtour.domination import (
    _exceeds_two,
    competition_edges,
    competition_graph,
    dominant_pairs,
    dominates,
    domination_graph,
    domination_number,
    gamma_exceeds,
)
from quadtour.errors import MissingOrDoubleArc, VertexOutOfRange
from quadtour.generators import (
    all_tournaments,
    augment,
    quadratic_residue,
    random_tournament,
    rotational,
    u_n,
)
from quadtour.matrixio import parse_tournament, render_tournament, to_dot
from quadtour.orthogonality import (
    BinaryPattern,
    closed_union_in_quad,
    comb_row_orthogonal,
    is_in_quadrangular,
    is_out_quadrangular,
    is_quadrangular,
    quadrangularity,
)
from quadtour.symbols import family_symbol
from quadtour.theorems import RULES, Facts, _without, verify_subtournament_degrees

from helpers import (
    brute_bad_pair,
    brute_competition_edges,
    brute_disjoint_pairs,
    brute_dominant_pairs,
    brute_dominates,
    brute_dot,
    brute_gamma,
    brute_gamma_exceeds,
    brute_in_quadrangular,
    brute_induced,
    brute_out_quadrangular,
    brute_pairs_sharing,
    brute_render,
    brute_row_pair,
    brute_screen,
    brute_subtournament_degrees,
    brute_transpose,
    brute_witness,
    degree_one,
)


_WORD = (1 << 30) - 1  # the low 30-bit word some wide inputs leave empty


def relabel(t: Tournament, rng: random.Random) -> Tournament:
    perm = list(range(t.n))
    rng.shuffle(perm)
    rows = [0] * t.n
    for u in range(t.n):
        for v in range(t.n):
            if t.has_arc(u, v):
                rows[perm[u]] |= 1 << perm[v]
    return Tournament(t.n, rows)


def _small():
    return [t for n in range(1, 7) for t in all_tournaments(n)]


def _larger():
    rng = random.Random(2004)
    out = [random_tournament(rng.randint(7, 40), seed) for seed in range(120)]
    named = [quadratic_residue(p) for p in (7, 11, 19, 23)]
    named += [rotational(family_symbol(n)) for n in (11, 15, 19)]
    named += [augment(t, a, b) for t in named[:2] for a, b in ((1, 0), (0, 1), (1, 1))]
    out += [relabel(t, rng) for t in named for _ in range(3)]
    return out


SMALL = _small()
LARGER = _larger()
ALL = SMALL + LARGER


def test_inputs_reach_both_verdicts():
    assert len(SMALL) == 1 + 2 + 8 + 64 + 1024 + 32768
    verdicts = {brute_in_quadrangular(t) for t in LARGER}
    assert verdicts == {True, False}


@pytest.mark.parametrize("side", ["out", "in"])
def test_scan_witness_matches_brute(side):
    for t in ALL:
        rep = quadrangularity(t, side)
        want = brute_witness(t, side)
        assert rep.verdict == (want is None)
        assert (None if rep.witness is None else tuple(rep.witness)) == want


def test_closed_union_matches_in_scan():
    for t in ALL:
        assert closed_union_in_quad(t) == brute_in_quadrangular(t)


@pytest.mark.parametrize("side", ["out", "in"])
def test_predicates_match_report_and_brute(side):
    predicate, brute = {"out": (is_out_quadrangular, brute_out_quadrangular),
                        "in": (is_in_quadrangular, brute_in_quadrangular)}[side]
    for t in ALL:
        assert predicate(t) == quadrangularity(t, side).verdict == brute(t)


def test_row_orthogonal_matches_brute():
    rng = random.Random(11)
    for _ in range(3000):
        rows, cols = rng.randint(0, 9), rng.randint(0, 9)
        bits = tuple(rng.getrandbits(cols) if cols else 0 for _ in range(rows))
        ok, pair = comb_row_orthogonal(BinaryPattern(rows, cols, bits))
        want = brute_row_pair(bits)
        assert (ok, pair) == (want is None, want)


def _glue(t: Tournament) -> Tournament:
    """Not strong: a copy of t beating a second copy, labelled n..2n-1.

    For n >= 30 the second copy's rows have empty low words."""
    high = t.full_mask << t.n
    return Tournament(2 * t.n, [row | high for row in t.rows] + [row << t.n for row in t.rows])


def _late_witness(m: int, seed: int, k: int) -> Tournament:
    """A random tournament R on m vertices plus y = m, beaten only by R's last
    k vertices, and x = m + 1, beating only y.  The out-side witnesses are the
    pairs (u, x) with u among those k, so the smallest comes after nearly
    every other pair; the common out-neighbour y lies above the low word."""
    r = random_tournament(m, seed)
    beaten_by_y = (1 << (m - k)) - 1
    rows = [row | (1 << m if v >= m - k else 0) | 1 << (m + 1) for v, row in enumerate(r.rows)]
    return validate(m + 2, rows + [beaten_by_y, 1 << m])


def _wide():
    rng = random.Random(61)
    out = [random_tournament(rng.randint(61, 160), seed) for seed in range(16)]
    named = [quadratic_residue(p) for p in (67, 103, 131)]
    named += [rotational(family_symbol(n)) for n in (63, 99, 151)]
    named += [augment(named[3], 1, 1), u_n(61), u_n(101), u_n(159)]
    out += [relabel(t, rng) for t in named for _ in range(2)]
    out += [_glue(t) for t in (rotational(family_symbol(35)), rotational(family_symbol(79)),
                               u_n(31), u_n(45), quadratic_residue(43))]
    out += [_late_witness(rng.randint(60, 150), seed, 3) for seed in range(4)]
    return out


WIDE = _wide()


def test_wide_inputs_reach_the_word_test_and_both_verdicts():
    assert all(61 <= t.n <= 160 and max(t.rows) > _WORD for t in WIDE)
    assert {brute_out_quadrangular(t) for t in WIDE} == {True, False}
    assert {brute_in_quadrangular(t) for t in WIDE} == {True, False}
    empty_low_words = [t for t in WIDE if not any(row & _WORD for row in t.rows[t.n // 2:])]
    assert len(empty_low_words) == 5


@pytest.mark.parametrize("side", ["out", "in"])
def test_wide_scan_witness_matches_brute(side):
    for t in WIDE + [dual(t) for t in WIDE]:
        rep = quadrangularity(t, side)
        want = brute_witness(t, side)
        assert (None if rep.witness is None else tuple(rep.witness)) == want, t
        assert rep.verdict == (want is None)


def test_wide_predicates_match_brute():
    for t in WIDE:
        witness = brute_witness(t, "out")
        out_ok, in_ok = witness is None, brute_in_quadrangular(t)
        assert (is_out_quadrangular(t), is_in_quadrangular(t)) == (out_ok, in_ok)
        assert is_quadrangular(t) == (out_ok and in_ok)
        pair = None if witness is None else witness[:2]
        assert comb_row_orthogonal(BinaryPattern(t.n, t.n, t.rows)) == (out_ok, pair)


def test_late_witness_follows_many_settled_pairs():
    for t in WIDE[-4:]:
        u, v, common = brute_witness(t, "out")
        assert (v, common) == (t.n - 1, (t.n - 2,)) and u >= t.n - 5
        assert tuple(quadrangularity(t, "out").witness) == (u, v, common)
        assert tuple(quadrangularity(dual(t), "in").witness) == (u, v, common)


def test_wide_row_orthogonal_matches_brute():
    rng = random.Random(200)
    for _ in range(300):
        rows, cols = rng.randint(31, 60), rng.randint(31, 200)
        density = rng.choice((0.5, 0.1, 0.03))
        bits = tuple(sum(1 << c for c in range(cols) if rng.random() < density)
                     for _ in range(rows))
        want = brute_row_pair(bits)
        assert comb_row_orthogonal(BinaryPattern(rows, cols, bits)) == (want is None, want)


def _screen_columns(width: int) -> list:
    return sorted({i * width // _SCREEN for i in range(_SCREEN)})


def _bits(*cols) -> int:
    return sum(1 << col for col in cols)


SCREEN_200 = _screen_columns(200)  # 0, 1, 3, 4, 6, ..., 196, 198: 128 of the 200 columns
OFF_200 = [col for col in range(200) if col not in SCREEN_200]  # 2, 5, 8, ..., 197, 199
HIGH = 1 << next(col for col in OFF_200 if col > 100)  # above the low word, off the screen


def _by_word(common: int) -> tuple:
    return (common & _WORD).bit_count(), (common & ~_WORD).bit_count()


def _by_screen(common: int) -> tuple:
    on = sum(common >> col & 1 for col in SCREEN_200)
    return on, common.bit_count() - on


def _past_the_screen(common: int) -> tuple:
    return _by_screen(common)[0], (common >> SCREEN_200[-1] + 1).bit_count()


# (row a, row b, a witness?, split, counts): common bits on either side of
# the old 30-bit word boundary, and on and off the screen columns of a
# 200-wide scan; split(a & b) gives the counts the comment states.
HAND_PAIRS = [
    # The only common bit is above the word.
    (HIGH | 0b0101, HIGH | 0b1010, True, _by_word, (0, 1)),
    # One inside, one above.
    (HIGH | 1 << 5, HIGH | 1 << 5 | 1 << 7, False, _by_word, (1, 1)),
    # The only common bit is inside.
    (1 << 5 | HIGH, 1 << 5 | HIGH << 1, True, _by_word, (1, 0)),
    # One each side of the boundary.
    (1 << 29 | 1 << 30, 1 << 29 | 1 << 30, False, _by_word, (1, 1)),
    # The lowest bit above the word.
    (1 << 30 | 1, 1 << 30 | 2, True, _by_word, (0, 1)),
    # The highest bit inside the word.
    (1 << 29 | HIGH, 1 << 29 | 1 << 28, True, _by_word, (1, 0)),
    # Two inside.
    (0b11 | HIGH, 0b11, False, _by_word, (2, 0)),
    # Two above, empty low words.
    (HIGH | HIGH << 1, HIGH | HIGH << 1, False, _by_word, (0, 2)),
    # Two on the screen.
    (_bits(SCREEN_200[2], SCREEN_200[-2], OFF_200[0]),
     _bits(SCREEN_200[2], SCREEN_200[-2], OFF_200[1]), False, _by_screen, (2, 0)),
    # One on the screen, one off.
    (_bits(SCREEN_200[2], OFF_200[0]), _bits(SCREEN_200[2], OFF_200[0]), False, _by_screen, (1, 1)),
    # Two off the screen.
    (_bits(OFF_200[0], OFF_200[-2]), _bits(OFF_200[0], OFF_200[-2]), False, _by_screen, (0, 2)),
    # The only common bit is on the screen.
    (_bits(SCREEN_200[2], OFF_200[0]), _bits(SCREEN_200[2], OFF_200[1]), True, _by_screen, (1, 0)),
    # The only common bit is off it.
    (_bits(OFF_200[-2], SCREEN_200[2]), _bits(OFF_200[-2], SCREEN_200[4]), True, _by_screen, (0, 1)),
    # The only common bit is off it, past the last screen column.
    (_bits(SCREEN_200[-1], OFF_200[-1]), _bits(OFF_200[-1], OFF_200[0]), True, _past_the_screen,
     (0, 1)),
]


@pytest.mark.parametrize("a, b, witness, split, counts", HAND_PAIRS, ids=range(len(HAND_PAIRS)))
def test_hand_made_pairs_across_the_word_boundary(a, b, witness, split, counts):
    assert split(a & b) == counts
    assert (brute_row_pair((a, b)) == (0, 1)) == witness
    want = (0, 1) if witness else None
    assert comb_row_orthogonal(BinaryPattern(2, 200, (a, b))) == (want is None, want)
    # The pair alone, and after 40 dense rows disjoint from it whose low words
    # share two bits pairwise.  Both take the in-order loop, since neither has
    # more than _PLAIN_ROWS rows; the 42 rows also go through the kernel.
    rng = random.Random(a ^ b)
    dense = []
    while len(dense) < 40:
        row = (rng.getrandbits(200) | HIGH << 50) & ~(a | b)
        if all((row & d & _WORD).bit_count() >= 2 for d in dense):
            dense.append(row)
    bits = tuple(dense) + (a, b)
    want = brute_row_pair(bits)
    assert want == ((40, 41) if witness else None)
    assert comb_row_orthogonal(BinaryPattern(42, 200, bits)) == (want is None, want)
    # The dense rows make the scan 200 wide, so the pair's screen columns
    # are those of SCREEN_200.
    assert max(bits).bit_length() == 200
    _assert_kernel_matches_brute(bits)


def _kernel_patterns():
    """Seeded random patterns, 31 to 120 rows, 1 to 300 columns and densities
    0.01 to 0.9, so the screen settles the later rows of some rows and leaves
    those of sparse ones open."""
    rng = random.Random(64)
    out = []
    for _ in range(150):
        rows, width, density = rng.randint(31, 120), rng.randint(1, 300), rng.uniform(0.01, 0.9)
        out.append(tuple(sum(1 << c for c in range(width) if rng.random() < density)
                         for _ in range(rows)))
    return out


KERNEL_PATTERNS = _kernel_patterns()


def _assert_kernel_matches_brute(rows):
    disjoint, one = (brute_pairs_sharing(rows, c) for c in (0, 1))
    want = one[0] if one else None
    pattern = BinaryPattern(len(rows), max(rows).bit_length(), tuple(rows))
    # The scan tests every pair in order up to _PLAIN_ROWS rows, and walks
    # the screen past it; with the gate at 0 it walks the screen on any rows.
    for gate in (_PLAIN_ROWS, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_PLAIN_ROWS", gate)
            assert list(_pairs_sharing(rows, 0)) == disjoint
            assert list(_pairs_sharing(rows, 1)) == one
            assert list(disjoint_pairs(rows)) == disjoint
            assert first_pair_sharing_one(rows) == want
            assert comb_row_orthogonal(pattern) == (want is None, want)


def test_kernel_on_random_patterns_matches_brute():
    # Past row 0, which is always tested in order, the screen settles most
    # later rows of some rows and leaves more than a quarter open on others.
    opened = {left is None for rows in KERNEL_PATTERNS for left in list(_screen(rows, 1))[1:-4]}
    assert opened == {True, False}
    for rows in KERNEL_PATTERNS:
        _assert_kernel_matches_brute(rows)


def test_screen_matches_column_by_column_reference(monkeypatch):
    build = core._screen_tables
    built = []

    def counted(screen, n, c):
        built.append(len(screen))
        return build(screen, n, c)

    monkeypatch.setattr(core, "_screen_tables", counted)
    rng = random.Random(128)
    glue = _glue(rotational(family_symbol(151)))
    # Widths 45 and 100 end the screen in a group of fewer than 8 columns.
    ragged = [tuple(rng.getrandbits(width) | 1 << width - 1 for _ in range(70))
              for width in (45, 100)]
    zeros = [(0,) * 40, tuple(0 if i % 5 == 0 else row for i, row in enumerate(ragged[1]))]
    inputs = KERNEL_PATTERNS + ragged + zeros + [
        rows for t in [glue, relabel(glue, rng)] + WIDE for rows in (t.rows, dual(t).rows)]
    assert all(len(_screen_columns(width)) % 8 for width in (45, 100))
    for rows in inputs:
        screen = _screen_columns(max(rows).bit_length() or 1)
        for c in (0, 1):
            del built[:]
            assert list(_screen(rows, c)) == brute_screen(rows, c, screen), (rows, c)
            # One table build per screened scan, over every screen column.
            assert built == [len(screen)]
            # A caller that stops at row 0 builds nothing.
            del built[:]
            assert next(_screen(rows, c)) is None and built == []


def _transitive(n: int) -> Tournament:
    full = (1 << n) - 1
    return validate(n, [full & ~((2 << u) - 1) for u in range(n)])


def test_kernel_on_glues_transitive_and_zero_rows():
    # The glues are unrelabelled: their second copy's rows hold only high columns.
    inputs = [_glue(rotational(family_symbol(n))) for n in (79, 151)] + [_transitive(100)]
    rng = random.Random(0)
    dense = [rng.getrandbits(150) | 1 << 149 for _ in range(50)]
    rows_sets = [t.rows for t in inputs] + [dual(t).rows for t in inputs]
    rows_sets += [(0,) * 40, tuple(0 if i % 7 == 0 else row for i, row in enumerate(dense))]
    # Past _PLAIN_ROWS with the gate unpatched: the identity, the identity
    # whose row 250 also holds bit 10 (its only pair sharing one bit is
    # (10, 250)), and a sparse pattern.
    identity = tuple(1 << u for u in range(300))
    late = identity[:250] + (identity[250] | 1 << 10,) + identity[251:]
    sparse = tuple(sum(1 << col for col in range(250) if rng.random() < 0.05)
                   for _ in range(250))
    assert brute_pairs_sharing(late, 1) == [(10, 250)]
    rows_sets += [identity, late, sparse]
    for rows in rows_sets:
        _assert_kernel_matches_brute(rows)
    # On the identity a row holds at most one screen column and meets no
    # later row in it, so the screen leaves every row but the last more than
    # a quarter open, for both c: those rows are tested in order.
    for c in (0, 1):
        assert [left is None for left in _screen(identity, c)] == [True] * 299 + [False]
    # In a transitive tournament O(v) is inside O(u) for u < v, so u's pairs
    # with n - 2 share one out-neighbour and with n - 1 none.
    n = 100
    assert brute_pairs_sharing(inputs[-1].rows, 1) == [(u, n - 2) for u in range(n - 2)]


def test_screen_settles_most_pairs_of_the_unrelabelled_glue():
    # A window of low columns would mark nothing on the second copy, whose low
    # columns are empty; spread columns settle both copies.
    t = _glue(rotational(family_symbol(151)))
    for rows in (t.rows, dual(t).rows):
        n = len(rows)
        for c in (0, 1):
            lefts = list(_screen(rows, c))
            open_pairs = sum(n - 1 - u if left is None else left.bit_count()
                             for u, left in enumerate(lefts))
            assert open_pairs < n * (n - 1) // 2 // 20, (c, open_pairs)


def test_kernel_on_rows_holding_few_screen_columns():
    rng = random.Random(2)
    width = 200
    off = [col for col in range(width) if col not in SCREEN_200]
    rows = [rng.getrandbits(width) | 1 << (width - 1) for _ in range(50)]
    rows[5] = sum(1 << col for col in rng.sample(off, 40))  # no screen column
    rows[17] = sum(1 << col for col in rng.sample(off, 40)) | 1 << SCREEN_200[30]  # one
    rows[49] = 1 << SCREEN_200[7]  # the last row, one screen column and nothing else
    held = [sum(row >> col & 1 for col in SCREEN_200) for row in rows]
    assert (held[5], held[17], held[49]) == (0, 1, 1)
    _assert_kernel_matches_brute(rows)
    # Row 17's off-screen columns with another screen column: no screen
    # column in common with row 17, so only the full test sees the 40 shared bits.
    rows[6] = rows[17] ^ 1 << SCREEN_200[30] ^ 1 << SCREEN_200[31]
    _assert_kernel_matches_brute(rows)


@pytest.mark.parametrize("gate", [_PLAIN_ROWS, 0], ids=["in-order", "screened"])
def test_wide_c0_scans_match_brute(gate, monkeypatch):
    monkeypatch.setattr(core, "_PLAIN_ROWS", gate)
    inputs = WIDE + [dual(t) for t in WIDE]
    assert {bool(brute_dominant_pairs(t)) for t in inputs} == {True, False}
    assert {brute_gamma_exceeds(t, 2) for t in inputs} == {True, False}
    for t in inputs:
        assert list(disjoint_pairs(t.rows)) == brute_disjoint_pairs(t.rows)
        want = brute_dominant_pairs(t)
        assert dominant_pairs(t) == tuple(want)
        assert domination_graph(t).edges == frozenset(want)
        assert competition_graph(t).edges == brute_competition_edges(t)
        exceeds = brute_gamma_exceeds(t, 2)
        assert gamma_exceeds(t, 2) == _exceeds_two(dual(t).rows) == exceeds, t


def test_wide_witness_through_the_screen(monkeypatch):
    # WIDE has at most 160 vertices; with the gate at 0 both sides are screened.
    monkeypatch.setattr(core, "_PLAIN_ROWS", 0)
    for t in WIDE:
        for side in ("out", "in"):
            rep = quadrangularity(t, side)
            want = brute_witness(t, side)
            assert rep.witness == want and rep.verdict == (want is None), (t, side)
        assert is_quadrangular(t) == (brute_out_quadrangular(t) and brute_in_quadrangular(t))


def _past_the_gate():
    """Tournaments of more than _PLAIN_ROWS vertices: the public scans of
    their out- and in-rows go through the kernel."""
    rng = random.Random(227)
    return [_glue(rotational(family_symbol(151))), relabel(quadratic_residue(227), rng),
            relabel(u_n(201), rng), random_tournament(230, 5), _late_witness(210, 1, 3),
            _transitive(205)]


def test_scans_past_the_row_gate_run_the_kernel(monkeypatch):
    sizes = []

    def counted(rows, c):
        sizes.append(len(rows))
        return _screen(rows, c)

    monkeypatch.setattr(core, "_screen", counted)
    inputs = _past_the_gate()
    assert min(t.n for t in inputs) > _PLAIN_ROWS
    assert {brute_out_quadrangular(t) for t in inputs} == {True, False}
    assert {brute_in_quadrangular(t) for t in inputs} == {True, False}
    assert {bool(brute_dominant_pairs(t)) for t in inputs} == {True, False}
    for t in inputs:
        for side in ("out", "in"):
            want = brute_witness(t, side)
            assert quadrangularity(t, side).witness == want, (t.n, side)
        want = brute_dominant_pairs(t)
        assert dominant_pairs(t) == tuple(want)
        assert list(disjoint_pairs(t.rows)) == brute_disjoint_pairs(t.rows)
        edges = brute_competition_edges(t)
        assert competition_graph(t).edges == edges
        assert list(competition_edges(t)) == sorted(edges)
        assert gamma_exceeds(t, 2) == (0 not in dual(t).rows and not want)
    assert sizes and all(size > _PLAIN_ROWS for size in sizes)
    # At _PLAIN_ROWS rows the scans test every pair in order.
    t = random_tournament(_PLAIN_ROWS, 5)
    del sizes[:]
    assert list(disjoint_pairs(t.rows)) == brute_disjoint_pairs(t.rows)
    assert quadrangularity(t, "out").witness == brute_witness(t, "out")
    assert not sizes


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gamma_exceeds_matches_brute(k):
    for t in ALL:
        assert gamma_exceeds(t, k) == brute_gamma_exceeds(t, k)


def _with_twins(t: Tournament, n: int, rng: random.Random) -> Tournament:
    """Grow t to n vertices, each new vertex copying a random vertex y's arcs
    to the others and taking a random arc with y.  A twin keeps gamma > 2 (y's
    in-set covers the pair {twin, y}) and cannot lower gamma: putting y in
    its place in a dominating set dominates the tournament it was added to."""
    rows = list(t.rows)
    for x in range(t.n, n):
        y = rng.randrange(x)
        beats_y = rng.getrandbits(1)
        rows = [row | ((row >> y) & 1) << x for row in rows]
        if not beats_y:
            rows[y] |= 1 << x
        rows.append(rows[y] & ~(1 << x) | beats_y << y)
    return validate(n, rows)


def _gamma_three_inputs():
    rng = random.Random(24)
    out = []
    for n in (7, 8, 9, 15, 16, 17, 24, 25):
        bases = [quadratic_residue(p) for p in (7, 11, 19, 23) if p <= n]
        out += [relabel(_with_twins(base, n, rng), rng) for base in bases for _ in range(2)]
        out += [random_tournament(n, seed) for seed in range(10)]
    return out


GAMMA_THREE = _gamma_three_inputs()


@pytest.mark.parametrize("n", [7, 8, 9, 15, 16, 17, 24, 25])
def test_gamma_three_across_chunk_boundaries(n):
    # A pair's missed set is read a byte at a time: n straddles 8, 16 and 24.
    # Only inputs with gamma > 2 reach that walk.
    inputs = [t for t in GAMMA_THREE if t.n == n]
    assert sum(_exceeds_two(dual(t).rows) for t in inputs) >= 2
    for t in inputs:
        assert gamma_exceeds(t, 3) == brute_gamma_exceeds(t, 3)
    if n >= 24:
        assert any(gamma_exceeds(t, 3) for t in inputs)


@pytest.mark.parametrize("p", [23, 31, 43])
def test_gamma_three_on_relabelled_residue_tournaments(p, monkeypatch):
    build = domination._chunk_table
    built = []

    def counting_build(chunk, full):
        built.append(chunk)
        return build(chunk, full)

    monkeypatch.setattr(domination, "_chunk_table", counting_build)
    rng = random.Random(p)
    for _ in range(3):
        built.clear()
        t = relabel(quadratic_residue(p), rng)
        assert gamma_exceeds(t, 3) and brute_gamma_exceeds(t, 3)
        assert len(built) >= 2  # the pairs need a table past the first one built


def test_in_row_gamma_kernel_matches_reversal():
    # The in-rows of t's reversal are t's out-rows, and the other way round.
    for t in ALL:
        assert _exceeds_two(t.rows) == gamma_exceeds(dual(t), 2)
        assert _exceeds_two(dual(t).rows) == gamma_exceeds(t, 2)


def test_disjoint_pairs_matches_brute():
    for t in ALL:
        for rows in (t.rows, dual(t).rows):
            assert list(disjoint_pairs(rows)) == brute_disjoint_pairs(rows)


def test_dominant_pairs_match_brute():
    for t in ALL:
        want = brute_dominant_pairs(t)
        assert dominant_pairs(t) == tuple(want)
        assert domination_graph(t).edges == frozenset(want)


def test_competition_graph_matches_brute():
    for t in ALL:
        want = brute_competition_edges(t)
        assert competition_graph(t).edges == want
        assert list(competition_edges(t)) == sorted(want)


def test_dominates_matches_brute():
    rng = random.Random(17)
    for t in ALL:
        assert not dominates(t, [])
        for _ in range(1 if t.n <= 6 else 10):
            s = rng.sample(range(t.n), rng.randint(1, t.n))
            assert dominates(t, s) == brute_dominates(t, s)


def test_domination_number_matches_brute():
    for t in ALL:
        if t.n > 12:
            continue
        gamma = brute_gamma(t)
        min_set = next(c for c in combinations(range(t.n), gamma) if brute_dominates(t, c))
        info = domination_number(t)
        assert (info.gamma, info.min_set) == (gamma, min_set)


def test_validate_reports_smallest_bad_pair():
    rng = random.Random(5)
    for seed in range(3000):
        t = random_tournament(rng.randint(2, 40), seed)
        rows = list(t.rows)
        for _ in range(rng.randint(1, 4)):
            u, v = rng.sample(range(t.n), 2)
            rows[u] ^= 1 << v
        want = brute_bad_pair(t.n, rows)
        if want is None:
            assert validate(t.n, rows) == Tournament(t.n, rows)
            continue
        with pytest.raises(MissingOrDoubleArc) as info:
            validate(t.n, rows)
        assert (info.value.u, info.value.v) == want


def test_render_matches_brute_and_round_trips():
    for t in ALL:
        text = render_tournament(t)
        assert text == brute_render(t)
        assert parse_tournament(text) == t


def test_to_dot_matches_brute():
    inputs = ALL + WIDE
    assert any(t.n == 1 for t in inputs) and any(0 in t.rows for t in inputs)
    assert any(t.n > 10 for t in inputs)
    for t in inputs:
        assert to_dot(t) == brute_dot(t)


def test_transpose_matches_brute():
    rng = random.Random(3)
    shapes = [(rng.randint(0, 12), rng.randint(0, 12)) for _ in range(2000)]
    shapes += [(rng.randint(1, 70), rng.randint(1, 70)) for _ in range(50)]
    for rows, cols in shapes:
        bits = tuple(rng.getrandbits(cols) if cols else 0 for _ in range(rows))
        p = BinaryPattern(rows, cols, bits)
        q = p.transpose()
        assert (q.rows, q.cols, q.bits) == (cols, rows, brute_transpose(rows, cols, bits))
        assert q.transpose() == p


def test_induced_matches_brute():
    rng = random.Random(9)
    for t in LARGER + SMALL[::97]:
        for _ in range(5):
            keep = [rng.randrange(t.n) for _ in range(rng.randint(1, 2 * t.n))]
            assert induced(t, keep) == brute_induced(t, keep)
    # A relabelled glue of two QR_103 copies: its two strong components are
    # scattered over all 206 labels.
    t = relabel(_glue(quadratic_residue(103)), rng)
    keeps = list(strong_decomposition(t).components)
    keeps += [rng.sample(range(t.n), t.n // 2) for _ in range(4)]
    keeps += [[rng.randrange(t.n)], range(t.n)]
    assert [len(keep) for keep in keeps[:2]] == [103, 103]
    for keep in keeps:
        assert induced(t, keep) == brute_induced(t, keep)


def test_induced_names_smallest_out_of_range_vertex():
    rng = random.Random(13)
    for seed in range(500):
        t = random_tournament(rng.randint(1, 12), seed)
        keep = [rng.randint(-3, t.n + 3) for _ in range(rng.randint(1, 8))]
        bad = [v for v in sorted(set(keep)) if not 0 <= v < t.n]
        if not bad:
            assert induced(t, keep) == brute_induced(t, keep)
            continue
        with pytest.raises(VertexOutOfRange, match=rf"^vertex {bad[0]} not in"):
            induced(t, keep)


def _asymmetric_cores():
    """Seeded random tournaments R, 10 <= n <= 20, for which gamma(R) > 2 and
    gamma(R^r) > 2 differ, both ways round."""
    cores = []
    for seed in range(60):
        r = random_tournament(10 + seed % 11, seed)
        if brute_gamma_exceeds(r, 2) != brute_gamma_exceeds(dual(r), 2):
            cores.append(r)
    assert {brute_gamma_exceeds(r, 2) for r in cores} == {True, False}
    return cores


def _around_cores():
    rng = random.Random(404)
    out = []
    for r in _asymmetric_cores():
        for t in (augment(r, 1, 1), augment(r, 1, 0), augment(r, 0, 1), degree_one(r)):
            out += [t, dual(t), relabel(t, rng)]
    return out


AROUND_CORES = _around_cores()


def _deleted(t: Tournament, rule: str, subject) -> tuple:
    """The vertices whose deletion a rule's conditions speak about."""
    if rule in ("out-degree-one", "in-degree-one"):
        beats = t.has_arc if rule == "out-degree-one" else lambda u, v: t.has_arc(v, u)
        return subject, next(w for w in range(t.n) if w != subject and beats(subject, w))
    scores = [sum(t.has_arc(v, w) for w in range(t.n)) for v in range(t.n)]
    transmitter = tuple(v for v in range(t.n) if scores[v] == t.n - 1)
    receiver = tuple(v for v in range(t.n) if scores[v] == 0)
    return {"transmitter-receiver": transmitter + receiver,
            "transmitter-only": transmitter, "receiver-only": receiver}[rule]


def test_without_matches_induced():
    cuts = {n: [(drop, [v for v in range(n) if v not in drop])
                for size in (1, 2) for drop in combinations(range(n), size) if size < n]
            for n in range(1, 7)}
    for t in SMALL:
        for drop, keep in cuts[t.n]:
            assert _without(t, drop) == induced(t, keep), (t, drop)


def test_without_matches_induced_at_n_1000():
    rng = random.Random(1000)
    family = rotational(family_symbol(999))
    for a, b in ((1, 1), (1, 0), (0, 1)):
        t = relabel(augment(family, a, b), rng)
        drops = [tuple(v for v, row in enumerate(t.rows) if row.bit_count() in (0, t.n - 1))]
        drops += [(0,), (t.n - 1,), (0, t.n - 1), tuple(rng.sample(range(t.n), 2))]
        for drop in drops:
            assert _without(t, drop) == induced(t, set(range(t.n)) - set(drop))


def test_rule_gamma_conditions_match_brute():
    # Each rule that deletes vertices tests gamma > 2 on the rest, and on its
    # reversal, against subset search on the deleted-then-reversed tournament.
    for t in LARGER + AROUND_CORES:
        facts = Facts(t)
        for name in ("transmitter-receiver", "transmitter-only", "receiver-only",
                     "out-degree-one", "in-degree-one"):
            for subject in RULES[name].subjects(facts):
                dropped = _deleted(t, name, subject)
                rest = brute_induced(t, [v for v in range(t.n) if v not in dropped])
                for cond, value in RULES[name].conditions(facts, subject):
                    if cond.startswith("gamma("):
                        side = dual(rest) if cond.endswith("^r)>2") else rest
                        assert value == brute_gamma_exceeds(side, 2), (name, cond, t)


def test_subtournament_degrees_match_row_reference():
    # Forcing each (out_quad, in_quad) pair runs both sides' scans on inputs
    # the oracle rejects, which reaches their False verdicts.
    verdicts = set()
    for t in SMALL + cli._named_instances() + WIDE:
        for out_quad in (True, False):
            for in_quad in (True, False):
                f = Facts(t)
                f.out_quad, f.in_quad = out_quad, in_quad
                verdict = verify_subtournament_degrees(f)
                assert verdict == brute_subtournament_degrees(f), (t, out_quad, in_quad)
                verdicts.add((out_quad, in_quad, verdict))
    assert verdicts == {(o, i, v) for o in (True, False) for i in (True, False)
                        for v in (True, False)} - {(False, False, False)}
