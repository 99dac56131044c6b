"""Tests for combinatorial orthogonality and quadrangularity predicates."""

import random
import re

import pytest

from quadtour.core import Tournament, dual, validate
from quadtour.errors import DimensionMismatch, InvalidSide, NotSquare, QuadTourError
from quadtour.generators import (
    all_tournaments,
    make_symbol,
    quadratic_residue,
    random_tournament,
    rotational,
    u_n,
)
from quadtour.orthogonality import (
    BinaryPattern,
    adjacency_pattern,
    closed_union_in_quad,
    comb_orthogonal,
    comb_row_orthogonal,
    is_in_quadrangular,
    is_out_quadrangular,
    is_quadrangular,
    nnz_report,
    pattern_of,
    quadrangularity,
)

from helpers import (
    brute_failing_pairs,
    brute_in_quadrangular,
    brute_quadrangular,
    single_arc,
    three_cycle,
    transitive_triple,
)

ROT11 = rotational(make_symbol(11, {1, 3, 4, 5, 9}))


class TestPatternOf:
    def test_zero_matrix(self):
        p = pattern_of([[0, 0], [0, 0]])
        assert p.bits == (0, 0)

    def test_identity(self):
        p = pattern_of([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert p.bits == (0b001, 0b010, 0b100)

    def test_nonzero_map(self):
        p = pattern_of([[0, 2.5, -1]])
        assert p.rows == 1 and p.cols == 3 and p.bits == (0b110,)

    def test_empty_matrix(self):
        p = pattern_of([])
        assert (p.rows, p.cols, p.bits) == (0, 0, ())

    @pytest.mark.parametrize("matrix, bad, length", [
        ([[1, 0], [0, 1, 1]], 1, 3),
        ([[1, 0, 1], [0, 1, 1], [1, 1]], 2, 2),
        ([[1, 0], [0, 1], [1], [1, 1, 1]], 2, 1),
    ])
    def test_ragged_rows_raise_naming_first_bad_row(self, matrix, bad, length):
        width = len(matrix[0])
        with pytest.raises(DimensionMismatch,
                           match=rf"^row {bad} has {length} entries, row 0 has {width}$"):
            pattern_of(matrix)


class TestBinaryPattern:
    @pytest.mark.parametrize("rows, cols, bits, message", [
        (2, 2, (0b111, 0b001), "row 0 has bits outside 2 columns"),
        (2, 2, (0b01, 0b100), "row 1 has bits outside 2 columns"),
        (2, 2, (-1, 1), "row 0 has bits outside 2 columns"),
        (3, 2, (1, 2), "2 rows of bits for a 3x2 pattern"),
        (-1, 2, (), "0 rows of bits for a -1x2 pattern"),
        (0, -1, (), "0 rows of bits for a 0x-1 pattern"),
    ])
    def test_bits_must_fit(self, rows, cols, bits, message):
        # Unchecked, the first transposed to (3, 3) and the second to three
        # columns of a 2-row pattern; the third raised a bare ValueError.
        with pytest.raises(DimensionMismatch, match=rf"^{re.escape(message)}$"):
            BinaryPattern(rows, cols, bits)
        with pytest.raises(DimensionMismatch, match=rf"^{re.escape(message)}$"):
            BinaryPattern(rows=rows, cols=cols, bits=bits)

    @pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0), (0, 0)])
    def test_empty_transpose(self, rows, cols):
        p = BinaryPattern(rows, cols, (0,) * rows)
        assert p.transpose() == BinaryPattern(cols, rows, (0,) * cols)
        assert p.transpose().transpose() == p


class TestCombRowOrthogonal:
    def test_identity(self):
        p = pattern_of([[int(i == j) for j in range(4)] for i in range(4)])
        assert comb_row_orthogonal(p) == (True, None)

    def test_single_overlap(self):
        p = pattern_of([[1, 1, 0], [1, 0, 0]])
        assert comb_row_orthogonal(p) == (False, (0, 1))

    def test_rot11_adjacency(self):
        verdict, witness = comb_row_orthogonal(adjacency_pattern(ROT11))
        assert verdict and witness is None

    def test_permutation_invariance(self):
        rng = random.Random(11)
        for seed in range(30):
            t = random_tournament(7, seed)
            p = adjacency_pattern(t)
            verdict, _ = comb_row_orthogonal(p)
            rows = list(p.bits)
            rng.shuffle(rows)
            cols = list(range(7))
            rng.shuffle(cols)
            shuffled = tuple(
                sum(((row >> c) & 1) << i for i, c in enumerate(cols)) for row in rows
            )
            assert comb_row_orthogonal(BinaryPattern(7, 7, shuffled))[0] == verdict


class TestCombOrthogonal:
    def test_identity(self):
        assert comb_orthogonal(pattern_of([[1, 0], [0, 1]]))

    def test_transitive_triple(self):
        assert not comb_orthogonal(adjacency_pattern(transitive_triple()))

    def test_three_cycle(self):
        assert comb_orthogonal(adjacency_pattern(three_cycle()))

    def test_not_square(self):
        with pytest.raises(NotSquare):
            comb_orthogonal(pattern_of([[1, 0, 0], [0, 1, 0]]))


class TestQuadrangularity:
    def test_three_cycle_both(self):
        out_rep, in_rep = quadrangularity(three_cycle(), "both")
        assert out_rep.verdict and in_rep.verdict

    def test_u5_witness(self):
        rep = quadrangularity(u_n(5), "out")
        assert not rep.verdict
        assert (rep.witness.u, rep.witness.v) == (0, 1)
        assert rep.witness.common == (2,)

    def test_qr7_witness(self):
        rep = quadrangularity(quadratic_residue(7), "out")
        assert not rep.verdict
        assert (rep.witness.u, rep.witness.v) == (0, 1)
        assert rep.witness.common == (2,)

    @pytest.mark.parametrize("side", ["", "OUT", "both ", None])
    def test_bad_side_is_library_error_and_value_error(self, side):
        with pytest.raises(InvalidSide, match="side must be out, in or both") as info:
            quadrangularity(three_cycle(), side)
        assert isinstance(info.value, QuadTourError) and isinstance(info.value, ValueError)

    def test_tiny_tournaments_quadrangular(self):
        assert is_quadrangular(validate(1, [0]))
        assert is_quadrangular(single_arc())

    def test_witness_is_lexicographic_minimum(self):
        for seed in range(100):
            t = random_tournament(8, seed)
            for side in ("out", "in"):
                rep = quadrangularity(t, side)
                failing = brute_failing_pairs(t, side)
                if failing:
                    assert not rep.verdict
                    assert (rep.witness.u, rep.witness.v) == failing[0]
                else:
                    assert rep.verdict and rep.witness is None

    def test_matches_brute_oracle_exhaustive(self):
        for n in range(1, 6):
            for t in all_tournaments(n):
                assert is_quadrangular(t) == brute_quadrangular(t)

    def test_duality(self):
        for n in range(1, 6):
            for t in all_tournaments(n):
                assert is_out_quadrangular(t) == is_in_quadrangular(dual(t))
        for seed in range(100):
            t = random_tournament(3 + seed % 10, seed)
            assert is_out_quadrangular(t) == is_in_quadrangular(dual(t))


class TestBridge:
    def test_equivalence_with_comb_orthogonal(self):
        for n in range(1, 6):
            for t in all_tournaments(n):
                out_rep, in_rep = quadrangularity(t, "both")
                both = out_rep.verdict and in_rep.verdict
                assert both == comb_orthogonal(adjacency_pattern(t))

    def test_equivalence_random(self):
        for seed in range(200):
            t = random_tournament(3 + seed % 10, seed)
            assert is_quadrangular(t) == comb_orthogonal(adjacency_pattern(t))


class TestClosedUnion:
    def test_three_cycle(self):
        assert closed_union_in_quad(three_cycle())

    def test_u5(self):
        assert not closed_union_in_quad(u_n(5))

    def test_transitive_triple(self):
        assert not closed_union_in_quad(transitive_triple())

    def test_equals_in_quadrangularity_exhaustive(self):
        for n in range(1, 7):
            for t in all_tournaments(n):
                assert closed_union_in_quad(t) == brute_in_quadrangular(t)


class TestNnzReport:
    def test_identity(self):
        rep = nnz_report(pattern_of([[int(i == j) for j in range(4)] for i in range(4)]))
        assert rep == (4, 12, False)

    def test_rot11(self):
        rep = nnz_report(adjacency_pattern(ROT11))
        assert rep == (55, 40, True)

    def test_all_ones_2x2(self):
        assert nnz_report(pattern_of([[1, 1], [1, 1]])) == (4, 4, True)

    def test_not_square(self):
        with pytest.raises(NotSquare):
            nnz_report(pattern_of([[1, 0]]))
