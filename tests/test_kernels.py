"""Differential tests of the whole-row bitmask kernels against brute force.

Inputs: every labelled tournament with n <= 6, seeded random tournaments
with 7 <= n <= 40, and seeded relabellings of quadrangular rotational and
quadratic-residue tournaments, so both verdicts of each scan are reached at
sizes where a witness need not sit at the first pair.
"""

import random
from itertools import combinations

import pytest

from quadtour.core import Tournament, disjoint_pairs, dual, induced, validate
from quadtour.domination import (
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
)
from quadtour.matrixio import parse_tournament, render_tournament
from quadtour.orthogonality import (
    BinaryPattern,
    closed_union_in_quad,
    comb_row_orthogonal,
    is_in_quadrangular,
    quadrangularity,
)
from quadtour.symbols import family_symbol

from helpers import (
    brute_bad_pair,
    brute_competition_edges,
    brute_disjoint_pairs,
    brute_dominant_pairs,
    brute_dominates,
    brute_gamma,
    brute_gamma_exceeds,
    brute_in_quadrangular,
    brute_induced,
    brute_render,
    brute_row_pair,
    brute_transpose,
    brute_witness,
)


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
        assert closed_union_in_quad(t) == is_in_quadrangular(t)


def test_row_orthogonal_matches_brute():
    rng = random.Random(11)
    for _ in range(3000):
        rows, cols = rng.randint(0, 9), rng.randint(0, 9)
        bits = tuple(rng.getrandbits(cols) if cols else 0 for _ in range(rows))
        ok, pair = comb_row_orthogonal(BinaryPattern(rows, cols, bits))
        want = brute_row_pair(bits)
        assert (ok, pair) == (want is None, want)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gamma_exceeds_matches_brute(k):
    for t in ALL:
        assert gamma_exceeds(t, k) == brute_gamma_exceeds(t, k)


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
        assert competition_graph(t).edges == brute_competition_edges(t)


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
