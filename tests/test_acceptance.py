"""Acceptance suite: one test per exit criterion, printing a pass line each."""

import json
import time

import pytest

from quadtour.cli import main
from quadtour.core import dual, is_isomorphic
from quadtour.domination import dominant_pairs, domination_number
from quadtour.generators import (
    all_tournaments,
    augment,
    quadratic_residue,
    random_tournament,
    regular_tournaments,
    rotational,
    u_n,
)
from quadtour.matrixio import parse_tournament, render_tournament
from quadtour.orthogonality import (
    adjacency_pattern,
    closed_union_in_quad,
    comb_orthogonal,
    is_in_quadrangular,
    is_out_quadrangular,
    is_quadrangular,
    quadrangularity,
)
from quadtour.symbols import enumerate_symbols, family_symbol, search, symbol_criterion
from quadtour.theorems import Facts, classify, verify_transmitter_receiver


def report(number: int, label: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {number:02d} pass ({elapsed:.2f}s): {label}")


def test_01_qr7_domination_number():
    started = time.perf_counter()
    assert domination_number(quadratic_residue(7)).gamma == 3
    report(1, "gamma(QR_7) = 3", started, 1.0)


def test_02_qr7_self_dual():
    started = time.perf_counter()
    qr7 = quadratic_residue(7)
    assert is_isomorphic(dual(qr7), qr7)
    report(2, "QR_7 isomorphic to its dual", started, 1.0)


def test_03_augmented_qr7_quadrangular():
    started = time.perf_counter()
    t = augment(quadratic_residue(7), True, True)
    assert t.n == 9
    oracle = is_quadrangular(t)
    trace = classify(t)
    assert trace.rule == "transmitter-receiver"
    assert oracle and trace.verdict and oracle == trace.verdict
    assert verify_transmitter_receiver(Facts(t))
    report(3, "augment(QR_7) quadrangular, theorem branch agrees", started, 1.0)


def test_04_u_n_witness():
    started = time.perf_counter()
    for n in (5, 7, 9, 11):
        rep = quadrangularity(u_n(n), "out")
        assert not rep.verdict
        assert (rep.witness.u, rep.witness.v) == (0, (n - 3) // 2)
        assert len(rep.witness.common) == 1
    report(4, "U_n fails with witness (0, (n-3)/2), overlap 1", started, 1.0)


def test_05_symbol_search_smallest_is_11():
    started = time.perf_counter()
    for n in (5, 7, 9):
        assert search(n).hits == ()
    assert (1, 3, 4, 5, 9) in search(11).hits
    report(5, "no hits for n in {5,7,9}; n=11 yields {1,3,4,5,9}", started, 5.0)


def test_06_family_symbols():
    started = time.perf_counter()
    assert family_symbol(11).sorted_members() == (1, 3, 4, 5, 9)
    for n in (11, 15, 19, 23):
        sym = family_symbol(n)
        assert symbol_criterion(sym) == (True, None)
        assert is_quadrangular(rotational(sym))
    report(6, "family symbols pass criterion and oracle, n in {11,15,19,23}", started, 10.0)


def test_07_symbol_criterion_iff():
    started = time.perf_counter()
    for n in (5, 7, 9, 11, 13):
        for sym in enumerate_symbols(n):
            assert symbol_criterion(sym)[0] == is_quadrangular(rotational(sym))
    report(7, "criterion verdict = direct verdict, n in {5..13}", started, 30.0)


def test_08_regular_equivalence():
    started = time.perf_counter()
    for n in (5, 7):
        for t in regular_tournaments(n):
            out_v = is_out_quadrangular(t)
            in_v = is_in_quadrangular(t)
            assert out_v == in_v == (out_v and in_v)
    report(8, "out = in = both on all regular tournaments, n in {5,7}", started, 60.0)


def test_09_exhaustive_small_sweep():
    started = time.perf_counter()
    for n in range(1, 7):
        for t in all_tournaments(n):
            if n >= 2:
                assert dominant_pairs(t)
            quad = is_quadrangular(t)
            assert classify(t).verdict == quad
            assert closed_union_in_quad(t) == is_in_quadrangular(t)
            if quad:
                assert t.min_out_degree() not in (2, 3)
                assert t.min_in_degree() not in (2, 3)
    report(9, "exhaustive n<=6: pairs, classify, closed-union, degree gaps", started, 60.0)


def test_10_bridge_property():
    started = time.perf_counter()
    for n in range(1, 6):
        for t in all_tournaments(n):
            assert is_quadrangular(t) == comb_orthogonal(adjacency_pattern(t))
    for seed in range(1000):
        t = random_tournament(3 + seed % 10, seed)
        assert is_quadrangular(t) == comb_orthogonal(adjacency_pattern(t))
    report(10, "quadrangularity = combinatorial orthogonality of adjacency", started, 30.0)


def test_11_competition_of_dual_is_domination():
    started = time.perf_counter()
    from quadtour.domination import competition_graph, domination_graph

    for n in range(1, 6):
        for t in all_tournaments(n):
            comp = competition_graph(dual(t)).edges
            dom = domination_graph(t).edges
            all_pairs = {(u, v) for u in range(n) for v in range(u + 1, n)}
            assert comp == dom, (
                "stated identity fails: dominant pairs are exactly the pairs "
                "with NO common out-neighbour in the reversal, so dom(T) is "
                "the COMPLEMENT of the reversal's competition graph "
                f"(complement holds here: {comp == all_pairs - dom}); "
                f"counterexample n={n}, rows={t.rows}"
            )
    report(11, "competition(dual(T)) = domination(T), exhaustive n<=5", started, 10.0)


def test_12_cli_golden(tmp_path, capsys):
    started = time.perf_counter()
    # matrix round-trip
    for seed in range(50):
        t = random_tournament(1 + seed % 11, seed)
        assert parse_tournament(render_tournament(t)) == t
    # exit-code contract on named instances
    rot11 = tmp_path / "rot11.txt"
    u5 = tmp_path / "u5.txt"
    bad = tmp_path / "bad.txt"
    assert main(["gen", "rotational", "--n", "11", "--symbol", "1,3,4,5,9",
                 "--out", str(rot11)]) == 0
    assert main(["gen", "un", "--n", "5", "--out", str(u5)]) == 0
    bad.write_text("2\n11\n00\n")
    assert main(["check", str(rot11)]) == 0
    assert main(["check", str(u5)]) == 1
    assert main(["check", str(bad)]) == 2
    capsys.readouterr()
    # byte-stable JSON
    outputs = []
    for _ in range(2):
        assert main(["check", str(u5), "--json"]) == 1
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert payload["result"]["out"]["witness"] == {"u": 0, "v": 1, "common": [2]}
    with capsys.disabled():
        report(12, "CLI round-trip, exit codes, byte-stable JSON", started, 5.0)
