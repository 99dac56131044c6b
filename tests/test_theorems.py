"""Tests for the classifier and the per-theorem verifiers."""

import collections
import json

import pytest

from quadtour import cli, theorems
from quadtour.core import dual
from quadtour.errors import HypothesisNotSatisfied, NotRegular, QuadTourError
from quadtour.generators import (
    all_tournaments,
    augment,
    make_symbol,
    quadratic_residue,
    random_tournament,
    regular_tournaments,
    rotational,
    u_n,
)
from quadtour.orthogonality import is_quadrangular, quadrangularity
from quadtour.symbols import family_symbol
from quadtour.theorems import (
    Facts,
    classify,
    verify_degree_lemmas,
    verify_indeg_one,
    verify_not_strong,
    verify_outdeg_one,
    verify_receiver_only,
    verify_regular,
    verify_rotational_dichotomy,
    verify_subtournament_degrees,
    verify_transmitter_only,
    verify_transmitter_receiver,
)

from helpers import single_arc, three_cycle, transitive_triple

QR7 = quadratic_residue(7)
ROT11 = rotational(make_symbol(11, {1, 3, 4, 5, 9}))


def named_corpus():
    instances = [QR7, dual(QR7), ROT11, three_cycle(), transitive_triple()]
    for base in (QR7, ROT11, three_cycle()):
        for add_t in (False, True):
            for add_r in (False, True):
                instances.append(augment(base, add_t, add_r))
    instances.extend(u_n(n) for n in (5, 7, 9, 11))
    return instances


class TestClassify:
    def test_augmented_qr7(self):
        trace = classify(augment(QR7, True, True))
        assert trace.rule == "transmitter-receiver" and trace.verdict

    def test_transitive_triple(self):
        trace = classify(transitive_triple())
        assert trace.rule == "transmitter-receiver" and not trace.verdict

    def test_qr7_regular_branch(self):
        trace = classify(QR7)
        assert trace.rule == "regular" and not trace.verdict

    def test_rot11(self):
        # gamma(ROT11) is only 3, so the classifier falls through the
        # gamma >= 4 shortcut to the out-quadrangularity check
        trace = classify(ROT11)
        assert trace.rule == "regular" and trace.verdict
        assert ("out-quadrangular", True) in trace.conditions

    def test_trivial_small(self):
        assert classify(single_arc()).rule == "trivial-small"

    def test_named_instances_agree_with_oracle(self):
        for t in named_corpus():
            assert classify(t).verdict == is_quadrangular(t)

    def test_exhaustive_small(self):
        for n in range(1, 6):
            for t in all_tournaments(n):
                assert classify(t).verdict == is_quadrangular(t)

    def test_random_corpus(self):
        for seed in range(2000):
            t = random_tournament(3 + seed % 12, seed)
            assert classify(t).verdict == is_quadrangular(t)

    def test_regular_seven_vertices(self):
        for t in regular_tournaments(7):
            trace = classify(t)
            assert trace.rule == "regular"
            assert trace.verdict == is_quadrangular(t)


class TestVerifiers:
    def test_transmitter_receiver_instances(self):
        assert verify_transmitter_receiver(augment(QR7, True, True))
        assert verify_transmitter_receiver(augment(three_cycle(), True, True))
        assert verify_transmitter_receiver(transitive_triple())

    def test_transmitter_receiver_hypothesis(self):
        with pytest.raises(HypothesisNotSatisfied):
            verify_transmitter_receiver(three_cycle())

    def test_one_sided_instances(self):
        assert verify_transmitter_only(augment(QR7, True, False))
        assert verify_receiver_only(augment(QR7, False, True))
        with pytest.raises(HypothesisNotSatisfied):
            verify_transmitter_only(augment(QR7, True, True))

    def test_exhaustive_admissible_corpus(self):
        verifiers = (
            verify_transmitter_receiver,
            verify_transmitter_only,
            verify_receiver_only,
            verify_not_strong,
            verify_outdeg_one,
            verify_indeg_one,
        )
        applied = {v.__name__: 0 for v in verifiers}
        for n in range(1, 6):
            for t in all_tournaments(n):
                for verifier in verifiers:
                    try:
                        agreed = verifier(t)
                    except HypothesisNotSatisfied:
                        continue
                    assert agreed, (verifier.__name__, t.rows)
                    applied[verifier.__name__] += 1
        assert all(count > 0 for name, count in applied.items() if "strong" not in name)

    def test_not_strong_applies_at_n6(self):
        # two 3-cycles stacked: not strong, no transmitter or receiver
        top, bottom = three_cycle(), three_cycle()
        rows = [row | (0b111 << 3) for row in top.rows] + [r << 3 for r in bottom.rows]
        from quadtour.core import validate

        t = validate(6, rows)
        assert verify_not_strong(t)

    def test_verifiers_keep_their_names(self):
        # test_exhaustive_admissible_corpus counts applications per __name__.
        for fn in cli._VERIFIERS.values():
            assert getattr(theorems, fn.__name__) is fn

    def test_random_corpus_all_verifiers(self):
        verifiers = (
            verify_transmitter_receiver,
            verify_transmitter_only,
            verify_receiver_only,
            verify_not_strong,
            verify_outdeg_one,
            verify_indeg_one,
        )
        for seed in range(400):
            t = random_tournament(3 + seed % 10, seed)
            for verifier in verifiers:
                try:
                    assert verifier(t), (verifier.__name__, t.rows)
                except HypothesisNotSatisfied:
                    pass


class TestDegreeLemmas:
    def test_three_cycle(self):
        assert verify_degree_lemmas(three_cycle())

    def test_single_arc_vacuous(self):
        assert verify_degree_lemmas(single_arc())

    def test_hypothesis(self):
        with pytest.raises(HypothesisNotSatisfied):
            verify_degree_lemmas(transitive_triple())  # not quadrangular
        with pytest.raises(HypothesisNotSatisfied):
            verify_degree_lemmas(ROT11)  # no degree-1 vertex

    def test_exhaustive_sweep(self):
        for n in range(2, 7):
            for t in all_tournaments(n):
                if not is_quadrangular(t):
                    continue
                if t.min_out_degree() == 1 or t.min_in_degree() == 1:
                    assert verify_degree_lemmas(t)


class TestSubtournamentDegrees:
    def test_three_cycle(self):
        assert verify_subtournament_degrees(three_cycle())

    def test_rot11_outsets(self):
        assert verify_subtournament_degrees(ROT11)

    def test_exhaustive_no_min_degree_two_or_three(self):
        for n in range(1, 7):
            for t in all_tournaments(n):
                assert verify_subtournament_degrees(t)


class TestRegular:
    def test_qr7_all_false(self):
        assert verify_regular(QR7)
        out_rep, in_rep = quadrangularity(QR7, "both")
        assert not out_rep.verdict and not in_rep.verdict

    def test_rot11_all_true(self):
        assert verify_regular(ROT11)
        out_rep, in_rep = quadrangularity(ROT11, "both")
        assert out_rep.verdict and in_rep.verdict

    def test_not_regular(self):
        with pytest.raises(NotRegular):
            verify_regular(transitive_triple())

    def test_gamma_at_least_4_must_imply_quadrangular(self, monkeypatch):
        # QR_7 has gamma 3; claiming gamma >= 4 for it contradicts the theorem.
        rule = theorems.RULES["regular"]
        monkeypatch.setitem(theorems.RULES, "regular", rule._replace(
            conditions=lambda f, _: [("gamma>=4", True)]))
        assert not verify_regular(QR7)

    def test_all_regular_on_five(self):
        count = 0
        for t in regular_tournaments(5):
            assert verify_regular(t)
            count += 1
        assert count == 24


class TestRotationalDichotomy:
    def test_u7_isomorphic_branch(self):
        sym = make_symbol(7, {1, 2, 3})
        assert verify_rotational_dichotomy(u_n(7), sym)

    def test_qr7_overlap_branch(self):
        assert verify_rotational_dichotomy(QR7, make_symbol(7, {1, 2, 4}))

    def test_rot11(self):
        assert verify_rotational_dichotomy(ROT11, make_symbol(11, {1, 3, 4, 5, 9}))
        # every pairwise overlap is at least 2
        for u in range(11):
            for v in range(u + 1, 11):
                assert (ROT11.out_mask(u) & ROT11.out_mask(v)).bit_count() >= 2

    def test_all_symbols_small(self):
        from quadtour.symbols import enumerate_symbols

        for n in (5, 7, 9):
            for sym in enumerate_symbols(n):
                assert verify_rotational_dichotomy(rotational(sym), sym)


class TestUnNotQuadrangular:
    @pytest.mark.parametrize("n", [5, 7, 9, 11])
    def test_witness(self, n):
        rep = quadrangularity(u_n(n), "out")
        assert not rep.verdict
        assert (rep.witness.u, rep.witness.v) == (0, (n - 3) // 2)
        assert len(rep.witness.common) == 1


class TestFamilyInstances:
    def test_family_tournaments_quadrangular(self):
        for n in (11, 15):
            t = rotational(family_symbol(n))
            assert is_quadrangular(t)
            assert classify(t).verdict


SHARED_VERIFIERS = {**cli._VERIFIERS, "regular": verify_regular}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except QuadTourError as exc:
        return type(exc)


def _sweep(capsys, *argv):
    code = cli.main(["verify", *argv, "--json"])
    return code, json.loads(capsys.readouterr().out)["result"]


class TestSharedFacts:
    def test_shared_facts_match_standalone(self):
        for t in [t for n in range(1, 7) for t in all_tournaments(n)] + cli._named_instances():
            facts = Facts(t)
            assert classify(t, facts) == classify(t), t
            for name, fn in SHARED_VERIFIERS.items():
                assert _outcome(fn, t, facts) == _outcome(fn, t), (name, t)

    def test_each_fact_computed_once_per_instance(self, monkeypatch, capsys):
        calls = {name: collections.Counter() for name in ("special_vertices", "strong_decomposition")}
        for name, counter in calls.items():
            def counted(t, _fn=getattr(theorems, name), _counter=counter):
                _counter[t] += 1
                return _fn(t)
            monkeypatch.setattr(theorems, name, counted)
        code, result = _sweep(capsys, "exhaustive", "--n-max", "5")
        assert (code, result["instances"]) == (0, 1 + 2 + 8 + 64 + 1024)
        assert sum(calls["special_vertices"].values()) == result["instances"]
        for counter in calls.values():
            assert max(counter.values()) == 1

    @pytest.mark.parametrize("name", ["out-degree-one", "in-degree-one"])
    @pytest.mark.parametrize("first", [True, False])
    def test_flipped_rule_is_reported(self, monkeypatch, capsys, name, first):
        _flip_rule(monkeypatch, name, first)
        code, result = _sweep(capsys, "exhaustive", "--n-max", "4")
        assert code == 1 and result["failure"]["verifier"] == name

    def test_subjects_after_the_traced_one_are_checked(self, monkeypatch):
        # classify traces the first low-degree vertex only; the verifier
        # sharing its facts must still evaluate the others.  (No tournament
        # with n <= 6 is classified in-degree-one with two such vertices.)
        rule = theorems.RULES["out-degree-one"]
        t = next(t for t in all_tournaments(5)
                 if classify(t).rule == rule.name and len(rule.subjects(Facts(t))) > 1)
        _flip_rule(monkeypatch, rule.name, first=False)
        facts = Facts(t)
        assert classify(t, facts) == classify(t)
        assert not verify_outdeg_one(t, facts)


def _flip_rule(monkeypatch, name, first):
    """Negate the rule's verdict on every subject, or (first=False) on every
    subject but the one classify uses."""
    rule = theorems.RULES[name]

    def flipped(f, subject):
        verdict = all(v for _, v in rule.conditions(f, subject))
        if first or subject != rule.subjects(f)[0]:
            verdict = not verdict
        return [("flipped", verdict)]

    monkeypatch.setitem(theorems.RULES, name, rule._replace(conditions=flipped))


def test_golden_sweep(capsys):
    code, result = _sweep(capsys, "all", "--n-max", "6")
    assert code == 0
    assert result == {
        "instances": 33916,
        "classify_agreements": 33916,
        "passes": {
            "transmitter-receiver": 2115, "transmitter-only": 4396, "receiver-only": 4398,
            "not-strong": 80, "out-degree-one": 24275, "in-degree-one": 24273,
            "degree-lemmas": 4, "subtournament-degrees": 33916,
        },
        "failure": None,
    }
