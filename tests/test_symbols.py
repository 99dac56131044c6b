"""Tests for symbol enumeration, the difference-pair criterion and search."""

import hashlib
import json
import random

import pytest

from quadtour import symbols
from quadtour.errors import EvenOrTooSmall, SizeLimitExceeded, TooSmall, WrongResidueClass
from quadtour.generators import Symbol, make_symbol, rotational
from quadtour.orthogonality import is_quadrangular
from quadtour.symbols import (
    enumerate_symbols,
    family_symbol,
    first_hit,
    search,
    symbol_criterion,
)

from helpers import brute_symbol_at, brute_symbol_criterion

# search(23): hit count and sha256 of the JSON hit list
GOLDEN_23 = (1850, "f342bfa64db811a98aef507882f736e05488309a0a3a980f41ca2e3a33769470")


def criterion_by_subsets(sym: Symbol) -> bool:
    """Literal restatement: two distinct 2-subsets per residue class, full range."""
    n = sym.n
    members = sorted(sym.members)
    for m in range(1, n):
        realizing = {
            frozenset((i, j))
            for i in members
            for j in members
            if i != j and (i - j) % n == m
        }
        if len(realizing) < 2:
            return False
    return True


class TestSymbolCriterion:
    def test_rot11_family(self):
        assert symbol_criterion(make_symbol(11, {1, 3, 4, 5, 9})) == (True, None)

    def test_qr7_fails(self):
        verdict, failing = symbol_criterion(make_symbol(7, {1, 2, 4}))
        assert not verdict and failing is not None

    def test_u5_fails(self):
        verdict, failing = symbol_criterion(make_symbol(5, {1, 2}))
        assert not verdict and failing == 1

    def test_too_small(self):
        with pytest.raises(TooSmall):
            symbol_criterion(make_symbol(3, {1}))

    def test_counting_form_matches_subset_form(self):
        # the half-range counting implementation equals the literal
        # full-range distinct-subset reading
        for n in (5, 7, 9, 11, 13, 15):
            for sym in enumerate_symbols(n):
                assert symbol_criterion(sym)[0] == criterion_by_subsets(sym)

    def test_mask_kernel_matches_pair_count_exhaustively(self):
        for n in range(5, 18, 2):
            for sym in enumerate_symbols(n):
                assert symbol_criterion(sym) == brute_symbol_criterion(sym)

    def test_mask_kernel_matches_pair_count_beyond_search_cap(self):
        # a per-symbol bias toward the low member of each pair reaches
        # symbols near {1..(n-1)/2} that fail at various m, not only hits
        rng = random.Random(20040404)
        verdicts = set()
        for n in range(19, 62, 2):
            for _ in range(40):
                p = rng.random()
                members = [i if rng.random() < p else n - i for i in range(1, (n + 1) // 2)]
                sym = make_symbol(n, members)
                got = symbol_criterion(sym)
                assert got == brute_symbol_criterion(sym)
                verdicts.add(got[0])
        assert verdicts == {True, False}

    def test_iff_direct_oracle(self):
        for n in (5, 7, 9, 11, 13, 15):
            for sym in enumerate_symbols(n):
                assert symbol_criterion(sym)[0] == is_quadrangular(rotational(sym))


class TestEnumerateSymbols:
    def test_n3(self):
        symbols = [s.sorted_members() for s in enumerate_symbols(3)]
        assert symbols == [(1,), (2,)]

    def test_counts(self):
        assert sum(1 for _ in enumerate_symbols(5)) == 4
        assert sum(1 for _ in enumerate_symbols(11)) == 32

    def test_contains_family_at_11(self):
        assert (1, 3, 4, 5, 9) in {s.sorted_members() for s in enumerate_symbols(11)}

    def test_invariants(self):
        for n in (5, 9, 13):
            seen = set()
            for sym in enumerate_symbols(n):
                assert len(sym.members) == (n - 1) // 2
                assert all((n - i) not in sym.members for i in sym.members)
                seen.add(sym.members)
            assert len(seen) == 1 << ((n - 1) // 2)

    def test_even_rejected(self):
        with pytest.raises(EvenOrTooSmall):
            list(enumerate_symbols(6))

    def test_matches_pair_by_pair_builder(self):
        for n in range(3, 16, 2):
            expected = [brute_symbol_at(n, idx) for idx in range(1 << ((n - 1) // 2))]
            assert list(enumerate_symbols(n)) == expected


def serial_pool(monkeypatch, cpus):
    """Run search's process pool in process on a pretend count of usable
    CPUs; returns the lists of pool sizes started and of (n, start, stop)
    ranges mapped."""
    started, ranges = [], []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            ranges.extend(zip(*iterables))
            return [fn(*args) for args in ranges]

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(symbols.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    return started, ranges


class TestSearch:
    def test_no_hits_below_eleven(self):
        for n in (5, 7, 9):
            res = search(n)
            assert res.hits == ()
            assert res.examined == 1 << ((n - 1) // 2)

    def test_eleven(self):
        res = search(11)
        assert (1, 3, 4, 5, 9) in res.hits
        assert res.examined == 32

    def test_fifteen_contains_family(self):
        assert (1, 3, 5, 6, 7, 11, 13) in search(15).hits

    def test_hits_iff_quadrangular(self):
        for n in (5, 7, 9, 11, 13, 15):
            hits = set(search(n).hits)
            for sym in enumerate_symbols(n):
                expected = is_quadrangular(rotational(sym))
                assert (sym.sorted_members() in hits) == expected

    def test_threads_deterministic(self):
        seq = search(13)
        par = search(13, threads=2)
        assert seq.hits == par.hits and seq.examined == par.examined

    def test_workers_capped_at_usable_cpus(self, monkeypatch):
        # a cpuset of 2 CPUs on a 64-CPU machine starts 2 workers, not 64
        serial = search(23).hits
        started, ranges = serial_pool(monkeypatch, 2)
        monkeypatch.setattr(symbols.os, "cpu_count", lambda: 64)
        assert search(23, threads=10**6).hits == serial
        assert started == [2]
        assert ranges == [(23, 0, 1024), (23, 1024, 2048)]

    @pytest.mark.parametrize("cpus", [4, None])
    def test_workers_capped_at_cpu_count(self, monkeypatch, cpus):
        # without os.sched_getaffinity, os.cpu_count() caps the pool
        serial = search(23).hits
        started, ranges = serial_pool(monkeypatch, 1)
        monkeypatch.delattr(symbols.os, "sched_getaffinity")
        monkeypatch.setattr(symbols.os, "cpu_count", lambda: cpus)
        assert search(23, threads=10**6).hits == serial
        if cpus:
            assert started == [4]
            assert ranges == [(23, 0, 512), (23, 512, 1024), (23, 1024, 1536), (23, 1536, 2048)]
        else:  # no CPU count: one in-process worker
            assert started == ranges == []

    @pytest.mark.parametrize("cpus", [1, 3, 4])
    def test_golden_hits_23(self, monkeypatch, cpus):
        # cpus=1 scans in process; cpus=3 splits at 683 and 1366, off every
        # power of two; cpus=4 splits into four ranges
        started, _ = serial_pool(monkeypatch, cpus)
        hits = search(23, threads=4).hits
        digest = hashlib.sha256(json.dumps([list(h) for h in hits]).encode()).hexdigest()
        assert (len(hits), digest) == GOLDEN_23
        assert started == ([] if cpus == 1 else [cpus])

    @pytest.mark.parametrize("n", [13, 17, 23])
    def test_uneven_ranges_join_to_serial_hits(self, monkeypatch, n):
        # search's split: contiguous ranges of ceil(total / workers) indices,
        # most of which start off a power of two
        total = 1 << ((n - 1) // 2)
        serial = search(n).hits
        for workers in range(1, 8):
            starts = range(0, total, -(-total // workers))
            split = [(n, a, b) for a, b in zip(starts, [*starts[1:], total])]
            joined = [h for _, a, b in split for h in symbols._scan_range(n, a, b)]
            assert tuple(joined) == serial
            if total >= symbols._POOL_MIN_SYMBOLS and workers > 1:
                _, ranges = serial_pool(monkeypatch, workers)
                assert search(n, threads=workers).hits == serial
                assert ranges == split

    @pytest.mark.parametrize("threads", [0, -4])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(TooSmall):
            search(13, threads=threads)

    def test_size_limit(self):
        with pytest.raises(SizeLimitExceeded):
            search(33)

    def test_even_rejected(self):
        with pytest.raises(EvenOrTooSmall):
            search(10)


class TestFirstHit:
    def test_found_and_not_found(self):
        assert first_hit(9) == (None, 16)
        assert first_hit(11) == ((1, 3, 4, 5, 9), 9)
        # pinned up to the search cap: no hit below 11; from 13 on, symbol
        # number 2 hits: 1..k-2, then n-(k-1) and k for the last two pairs
        for n in range(5, 32, 2):
            k = (n - 1) // 2
            if n <= 9:
                assert first_hit(n) == (None, 1 << k)
            elif n >= 13:
                assert first_hit(n) == ((*range(1, k - 1), k, n - k + 1), 3)

    @pytest.mark.parametrize("n", [10, 1, -3])
    def test_even_or_too_small_rejected(self, n):
        with pytest.raises(EvenOrTooSmall):
            first_hit(n)


class TestFamilySymbol:
    def test_eleven(self):
        assert family_symbol(11).sorted_members() == (1, 3, 4, 5, 9)

    def test_fifteen(self):
        assert family_symbol(15).sorted_members() == (1, 3, 5, 6, 7, 11, 13)

    def test_nineteen(self):
        # odds up to 17 without (n+3)/2 = 11, plus (n-3)/2 = 8; nine members
        assert family_symbol(19).sorted_members() == (1, 3, 5, 7, 8, 9, 13, 15, 17)

    def test_criterion_holds(self):
        for n in (11, 15, 19, 23, 27, 31):
            assert symbol_criterion(family_symbol(n)) == (True, None)

    def test_wrong_residue_class(self):
        with pytest.raises(WrongResidueClass):
            family_symbol(13)

    def test_too_small(self):
        with pytest.raises(TooSmall):
            family_symbol(7)


class TestRotationClosure:
    def test_overlap_profile_invariant_under_rotation(self):
        for members in [(1, 3, 4, 5, 9), (2, 6, 7, 8, 10)]:
            t = rotational(make_symbol(11, members))
            n = t.n
            for u in range(n):
                for v in range(u + 1, n):
                    a = (t.out_mask(u) & t.out_mask(v)).bit_count()
                    b = (
                        t.out_mask((u + 1) % n) & t.out_mask((v + 1) % n)
                    ).bit_count()
                    assert a == b
