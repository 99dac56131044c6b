"""Tests for named, random and exhaustively enumerated tournaments."""

from itertools import product

import pytest

from quadtour.core import dual, induced, validate
from quadtour.errors import (
    EvenOrTooSmall,
    InvalidSeed,
    InvalidSymbol,
    NotPrime,
    QuadTourError,
    SizeLimitExceeded,
    WrongResidueClass,
)
from quadtour.generators import (
    all_tournaments,
    augment,
    make_symbol,
    quadratic_residue,
    quadratic_residue_symbol,
    random_tournament,
    regular_tournaments,
    rotational,
    u_n,
)

from helpers import (brute_all_tournaments, brute_is_regular, brute_tournament,
                     is_strongly_connected, orientation_index, three_cycle)


class TestSymbol:
    def test_complement_pair_rejected(self):
        with pytest.raises(InvalidSymbol):
            make_symbol(7, {1, 6, 2})

    def test_wrong_size_rejected(self):
        with pytest.raises(InvalidSymbol):
            make_symbol(7, {1, 2})

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidSymbol):
            make_symbol(7, {0, 1, 2})

    def test_even_rejected(self):
        with pytest.raises(EvenOrTooSmall):
            make_symbol(6, {1, 2})


class TestRotational:
    def test_smallest_is_three_cycle(self):
        assert rotational(make_symbol(3, {1})) == three_cycle()

    def test_qr7_symbol(self):
        assert quadratic_residue(7) == rotational(make_symbol(7, {1, 2, 4}))

    def test_regular(self):
        for n, members in [(7, {1, 2, 4}), (11, {1, 3, 4, 5, 9}), (9, {1, 2, 3, 4})]:
            t = rotational(make_symbol(n, members))
            assert t.scores() == tuple([(n - 1) // 2] * n)
            validate(t.n, t.rows)

    def test_every_symbol_matches_difference_rule(self):
        for n in range(3, 12, 2):
            for members in product(*[(i, n - i) for i in range(1, (n + 1) // 2)]):
                sym = make_symbol(n, members)
                want = [sum(1 << j for j in range(n) if (j - i) % n in sym.members) for i in range(n)]
                assert rotational(sym).rows == tuple(want), (n, members)

    def test_dual_equals_complement_symbol(self):
        sym = make_symbol(11, {1, 3, 4, 5, 9})
        t = rotational(sym)
        assert dual(t) == rotational(make_symbol(11, {11 - i for i in sym.members}))


class TestUn:
    def test_u3(self):
        assert u_n(3) == three_cycle()

    def test_u5(self):
        assert u_n(5) == rotational(make_symbol(5, {1, 2}))

    def test_even_rejected(self):
        with pytest.raises(EvenOrTooSmall):
            u_n(4)
        with pytest.raises(EvenOrTooSmall):
            u_n(1)


class TestQuadraticResidue:
    def test_p7(self):
        assert quadratic_residue_symbol(7).members == {1, 2, 4}

    def test_p11(self):
        assert quadratic_residue_symbol(11).members == {1, 3, 4, 5, 9}

    def test_wrong_residue_class(self):
        with pytest.raises(WrongResidueClass):
            quadratic_residue(5)

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            quadratic_residue(15)


class TestRandomTournament:
    def test_deterministic(self):
        assert random_tournament(8, 42) == random_tournament(8, 42)

    def test_different_seeds_differ(self):
        assert random_tournament(8, 1) != random_tournament(8, 2)

    def test_degenerate(self):
        t = random_tournament(1, 0)
        assert t.n == 1 and t.rows == (0,)

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_bad_seed_is_library_error_and_value_error(self, seed):
        with pytest.raises(InvalidSeed) as info:
            random_tournament(5, seed)
        assert isinstance(info.value, QuadTourError) and isinstance(info.value, ValueError)

    def test_valid_and_forced_degree_sum(self):
        for seed in range(50):
            t = random_tournament(8, seed)
            validate(t.n, t.rows)
            assert sum(t.scores()) == 28


class TestAugment:
    def test_both_on_qr7(self):
        t = augment(quadratic_residue(7), True, True)
        assert t.n == 9
        assert t.out_degree(7) == 8  # transmitter
        assert t.in_degree(8) == 8  # receiver
        assert t.has_arc(7, 8)
        validate(t.n, t.rows)

    def test_identity(self):
        t = random_tournament(5, 0)
        assert augment(t, False, False) == t

    def test_transmitter_degrees(self):
        t = augment(three_cycle(), True, False)
        assert t.out_degree(3) == 3
        assert all(t.in_degree(v) == 2 for v in range(3))

    def test_every_small_tournament_arc_by_arc(self):
        # transmitter n beats all; receiver m - 1 loses to all, the transmitter too
        for n in range(1, 5):
            for t in brute_all_tournaments(n):
                for add_t, add_r in product((False, True), repeat=2):
                    m = n + add_t + add_r

                    def beats(u, v):
                        if add_r and m - 1 in (u, v):
                            return v == m - 1
                        if add_t and n in (u, v):
                            return u == n
                        return t.has_arc(u, v)

                    want = [sum(1 << v for v in range(m) if v != u and beats(u, v)) for u in range(m)]
                    got = augment(t, add_t, add_r)
                    assert got.n == m and got.rows == tuple(want), (t.rows, add_t, add_r)
                assert augment(t, False, False) is t

    def test_round_trip(self):
        base = random_tournament(6, 9)
        assert induced(augment(base, True, False), range(6)) == base
        assert induced(augment(base, True, True), range(6)) == base


class TestAllTournaments:
    def test_counts(self):
        assert sum(1 for _ in all_tournaments(2)) == 2
        assert sum(1 for _ in all_tournaments(3)) == 8
        assert sum(1 for _ in all_tournaments(4)) == 64

    def test_three_cycles_at_n3(self):
        strong = [t for t in all_tournaments(3) if is_strongly_connected(t)]
        assert len(strong) == 2

    def test_distinct_and_valid(self):
        for n in range(1, 6):
            seen = set()
            for t in all_tournaments(n):
                validate(t.n, t.rows)
                seen.add(t.rows)
            assert len(seen) == 1 << (n * (n - 1) // 2)

    def test_size_limit(self):
        with pytest.raises(SizeLimitExceeded):
            next(all_tournaments(8))

    def test_order_matches_bit_string_reference(self):
        for n in range(1, 7):
            assert list(all_tournaments(n)) == brute_all_tournaments(n), n


class TestRegularTournaments:
    def test_matches_brute_filter(self):
        for n in (3, 5):
            fast = [t.rows for t in regular_tournaments(n)]
            brute = [t.rows for t in all_tournaments(n) if brute_is_regular(t)]
            assert fast == brute

    def test_even_is_empty(self):
        assert list(regular_tournaments(4)) == []

    def test_seven_in_reference_order(self):
        found = list(regular_tournaments(7))
        indices = [orientation_index(t) for t in found]
        assert len(found) == 2640
        assert all(a < b for a, b in zip(indices, indices[1:]))
        for t, x in zip(found, indices):
            assert t == brute_tournament(7, x) and t.scores() == (3,) * 7

    @pytest.mark.parametrize("n", [-1, 9, 10, 0, -2])
    def test_size_limit(self, n):
        with pytest.raises(SizeLimitExceeded):
            next(regular_tournaments(n))

    def test_single_vertex(self):
        assert [t.rows for t in regular_tournaments(1)] == [(0,)]
