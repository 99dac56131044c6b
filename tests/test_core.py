"""Tests for the tournament representation and structural queries."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import quadtour

from quadtour.core import (
    Tournament,
    dual,
    induced,
    is_isomorphic,
    neighborhoods,
    special_vertices,
    strong_decomposition,
    validate,
)
from quadtour.errors import (
    DimensionMismatch,
    EmptyVertexSet,
    InvariantViolation,
    MissingOrDoubleArc,
    SelfLoop,
    SizeLimitExceeded,
    VertexOutOfRange,
)
from quadtour.generators import (
    all_tournaments,
    augment,
    make_symbol,
    quadratic_residue,
    random_tournament,
    rotational,
)

from helpers import is_strongly_connected, single_arc, three_cycle, transitive_triple


class TestValidate:
    def test_single_arc(self):
        t = validate(2, [0b10, 0b00])
        assert t.n == 2 and t.has_arc(0, 1) and not t.has_arc(1, 0)

    def test_double_arc_rejected(self):
        with pytest.raises(MissingOrDoubleArc):
            validate(3, [0b010, 0b101, 0b000])

    def test_missing_arc_rejected(self):
        with pytest.raises(MissingOrDoubleArc):
            validate(2, [0b00, 0b00])

    def test_three_cycle(self):
        t = validate(3, [0b010, 0b100, 0b001])
        assert t.scores() == (1, 1, 1)

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            validate(2, [0b11, 0b00])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            validate(3, [0b010, 0b100])
        with pytest.raises(DimensionMismatch):
            validate(2, [0b110, 0b000])

    def test_degree_sum(self):
        for seed in range(20):
            t = random_tournament(9, seed)
            assert sum(t.scores()) == 9 * 8 // 2


class TestNeighborhoods:
    def test_three_cycle(self):
        nb = neighborhoods(three_cycle(), 0)
        assert nb.outset == (1,) and nb.inset == (2,)

    def test_transmitter(self):
        nb = neighborhoods(transitive_triple(), 0)
        assert nb.outset == (1, 2) and nb.inset == ()

    def test_rotational_seven(self):
        t = rotational(make_symbol(7, {1, 2, 4}))
        assert neighborhoods(t, 0).outset == (1, 2, 4)

    def test_partition_and_degrees(self):
        t = random_tournament(10, 3)
        for v in range(10):
            nb = neighborhoods(t, v)
            assert nb.out_degree + nb.in_degree == 9
            assert sorted(nb.outset + nb.inset + (v,)) == list(range(10))

    def test_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            neighborhoods(three_cycle(), 3)


class TestDual:
    def test_single_arc(self):
        d = dual(single_arc())
        assert d.has_arc(1, 0) and not d.has_arc(0, 1)

    def test_three_cycle(self):
        d = dual(three_cycle())
        assert d.has_arc(1, 0) and d.has_arc(2, 1) and d.has_arc(0, 2)

    def test_rotational_symbol_reversal(self):
        t = rotational(make_symbol(7, {1, 2, 4}))
        assert dual(t) == rotational(make_symbol(7, {3, 5, 6}))

    def test_involution_and_min_degrees(self):
        for seed in range(30):
            t = random_tournament(1 + seed % 12, seed)
            assert dual(dual(t)) == t
            assert dual(t).min_out_degree() == t.min_in_degree()


class TestInduced:
    def test_drop_transmitter(self):
        t = induced(transitive_triple(), [1, 2])
        assert t == single_arc()

    def test_middle_of_augmented(self):
        qr7 = quadratic_residue(7)
        big = augment(qr7, True, True)
        assert induced(big, range(7)) == qr7

    def test_identity(self):
        t = random_tournament(8, 1)
        assert induced(t, range(8)) == t

    def test_empty_rejected(self):
        with pytest.raises(EmptyVertexSet):
            induced(three_cycle(), [])


class TestStrongDecomposition:
    def test_three_cycle(self):
        d = strong_decomposition(three_cycle())
        assert d.components == ((0, 1, 2),)
        assert d.is_strong()

    def test_transitive_triple(self):
        d = strong_decomposition(transitive_triple())
        assert d.components == ((0,), (1,), (2,))

    def test_transmitter_plus_cycle(self):
        t = augment(three_cycle(), True, False)
        d = strong_decomposition(t)
        assert d.components == ((3,), (0, 1, 2))

    def test_cross_arcs_random(self):
        for seed in range(1000):
            t = random_tournament(1 + seed % 12, seed)
            comps = strong_decomposition(t).components
            flat = [v for comp in comps for v in comp]
            assert sorted(flat) == list(range(t.n))
            for i, a in enumerate(comps):
                for b in comps[i + 1 :]:
                    assert all(t.has_arc(u, v) for u in a for v in b)

    def test_strong_iff_reachability(self):
        for seed in range(300):
            t = random_tournament(1 + seed % 8, seed)
            assert strong_decomposition(t).is_strong() == is_strongly_connected(t)

    def test_components_strongly_connected(self):
        for seed in range(100):
            t = random_tournament(2 + seed % 9, seed)
            for comp in strong_decomposition(t).components:
                assert is_strongly_connected(induced(t, comp))

    @pytest.mark.parametrize("rows, message", [
        ([0b110, 0b101, 0b011], "cuts must consume"),  # every pair has two arcs
        ([0b000, 0b100, 0b011], "condensation order"),  # pair (0,1) has none
    ])
    def test_non_tournament_rows_raise(self, rows, message):
        with pytest.raises(InvariantViolation, match=message):
            strong_decomposition(Tournament(3, rows))

    def test_non_tournament_rows_raise_under_optimize(self):
        # python -O strips assert statements; the certificate must survive it.
        script = (
            "import sys\n"
            "from quadtour.core import Tournament, strong_decomposition\n"
            "from quadtour.errors import InvariantViolation\n"
            "assert sys.flags.optimize == 0, 'unreachable under -O'\n"
            "try:\n"
            "    strong_decomposition(Tournament(3, [0b110, 0b101, 0b011]))\n"
            "except InvariantViolation:\n"
            "    print('raised', sys.flags.optimize)\n"
        )
        src = str(Path(quadtour.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (0, "raised 1\n"), proc.stderr


class TestSpecialVertices:
    def test_transitive_triple(self):
        sv = special_vertices(transitive_triple())
        assert sv == (0, 2)

    def test_three_cycle(self):
        assert special_vertices(three_cycle()) == (None, None)

    def test_augmented_qr7(self):
        sv = special_vertices(augment(quadratic_residue(7), True, True))
        assert sv == (7, 8)


class TestIsomorphism:
    def test_self(self):
        t = random_tournament(6, 5)
        assert is_isomorphic(t, t)

    def test_score_sequences_differ(self):
        assert not is_isomorphic(three_cycle(), transitive_triple())

    def test_qr7_self_dual(self):
        qr7 = quadratic_residue(7)
        assert is_isomorphic(qr7, dual(qr7))

    def test_size_limit(self):
        t = random_tournament(13, 0)
        with pytest.raises(SizeLimitExceeded):
            is_isomorphic(t, t)
        assert is_isomorphic(t, t, max_n=13)

    def test_relabeling_is_isomorphic(self):
        rng = random.Random(4)
        for seed in range(30):
            t = random_tournament(7, seed)
            perm = list(range(7))
            rng.shuffle(perm)
            rows = [0] * 7
            for u in range(7):
                for v in range(7):
                    if t.has_arc(u, v):
                        rows[perm[u]] |= 1 << perm[v]
            assert is_isomorphic(t, Tournament(7, rows))

    def test_reflexive_exhaustive_n4(self):
        for t in all_tournaments(4):
            assert is_isomorphic(t, t)

    def test_symmetric_sampled_n5(self):
        pool = list(all_tournaments(5))
        rng = random.Random(0)
        for _ in range(300):
            a, b = rng.choice(pool), rng.choice(pool)
            assert is_isomorphic(a, b) == is_isomorphic(b, a)
