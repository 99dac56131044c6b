"""Tests for the classifier and the per-theorem verifiers."""

import collections
import hashlib
import inspect
import json
import math
import operator
import pickle

import pytest

from quadtour import cli, errors, theorems
from quadtour.core import Tournament, disjoint_pairs, dual, is_isomorphic
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
from quadtour.matrixio import to_json_adjacency
from quadtour.orthogonality import is_quadrangular, quadrangularity
from quadtour.symbols import enumerate_symbols, family_symbol
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

from helpers import (
    brute_all_tournaments,
    mutation_corpus,
    single_arc,
    three_cycle,
    transitive_triple,
)

QR7 = quadratic_residue(7)
ROT11 = rotational(make_symbol(11, {1, 3, 4, 5, 9}))
# The instances `verify all --n-max 6` sweeps.
SWEEP_CORPUS = [t for n in range(1, 7) for t in all_tournaments(n)] + cli._named_instances()


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

    def test_refuses_another_tournaments_facts(self):
        # augment(QR_7) is transmitter-receiver and quadrangular; QR_7 is not.
        with pytest.raises(errors.InvariantViolation, match="Facts of another tournament"):
            classify(QR7, Facts(augment(QR7, True, True)))
        copy = Tournament(QR7.n, list(QR7.rows))
        assert copy is not QR7
        assert classify(QR7, Facts(copy)) == classify(QR7)

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

    def test_trace_lists_every_condition(self):
        # classify reports each condition of its rule even after one is
        # False; only the regular rule stops, once gamma >= 4 settles it.
        counts = {"trivial-small": 1, "transmitter-receiver": 2, "transmitter-only": 2,
                  "receiver-only": 2, "not-strong": 4, "out-degree-one": 3,
                  "in-degree-one": 3, "direct-oracle": 1}
        early_false = collections.Counter()
        for t in SWEEP_CORPUS:
            trace = classify(t)
            values = [v for _, v in trace.conditions]
            if trace.rule == "regular":
                assert len(values) == (1 if values[0] else 2), t
            else:
                assert len(values) == counts[trace.rule], (trace.rule, t)
            if False in values[:-1]:
                early_false[trace.rule] += 1
        assert set(early_false) >= {"transmitter-receiver", "transmitter-only", "receiver-only",
                                    "out-degree-one", "in-degree-one"}

    def test_regular_seven_vertices(self):
        for t in regular_tournaments(7):
            trace = classify(t)
            assert trace.rule == "regular"
            assert trace.verdict == is_quadrangular(t)


# Representative arguments and the message they give, for every error.  A
# class with a template is raised with its fields; every other with its message.
ERRORS = {cls: (args, message) for cls, args, message in [
    (errors.QuadTourError, ("base",), "base"),
    (errors.DimensionMismatch, ("rows differ",), "rows differ"),
    (errors.SelfLoop, (3,), "self-loop at vertex 3"),
    (errors.MissingOrDoubleArc, (1, 2), "pair (1,2) has zero or two arcs"),
    (errors.InvariantViolation, ("bad certificate",), "bad certificate"),
    (errors.VertexOutOfRange, ("vertex 9",), "vertex 9"),
    (errors.EmptyVertexSet, ("empty",), "empty"),
    (errors.SizeLimitExceeded, ("too big",), "too big"),
    (errors.InvalidSymbol, ("symbol",), "symbol"),
    (errors.InvalidSeed, ("seed -1",), "seed -1"),
    (errors.InvalidSide, ("side",), "side"),
    (errors.EvenOrTooSmall, ("n = 4",), "n = 4"),
    (errors.NotPrime, ("p = 9",), "p = 9"),
    (errors.WrongResidueClass, ("p = 5",), "p = 5"),
    (errors.NotSquare, ("2 x 3",), "2 x 3"),
    (errors.UnsupportedK, ("k = 5",), "k = 5"),
    (errors.TooSmall, ("n = 1",), "n = 1"),
    (errors.HypothesisNotSatisfied, ("x",), "hypothesis not satisfied: x"),
    (errors.NotRegular, ("regular tournament",), "hypothesis not satisfied: regular tournament"),
    (errors.MatrixParseError, ("empty input",), "empty input"),
]}


class TestVerifiers:
    def test_transmitter_receiver_instances(self):
        assert verify_transmitter_receiver(Facts(augment(QR7, True, True)))
        assert verify_transmitter_receiver(Facts(augment(three_cycle(), True, True)))
        assert verify_transmitter_receiver(Facts(transitive_triple()))

    def test_transmitter_receiver_hypothesis(self):
        with pytest.raises(HypothesisNotSatisfied):
            verify_transmitter_receiver(Facts(three_cycle()))

    def test_hypothesis_not_satisfied_contract(self):
        # Its message and pickling are checked with every error's below.
        with pytest.raises(HypothesisNotSatisfied) as info:
            verify_transmitter_only(Facts(QR7))
        assert info.value.hypothesis == theorems.RULES["transmitter-only"].hypothesis

    def test_error_table_covers_every_error(self):
        defined = {cls for cls in vars(errors).values()
                   if isinstance(cls, type) and issubclass(cls, QuadTourError)}
        assert defined == set(ERRORS)

    @pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
    def test_error_round_trip(self, cls):
        args, message = ERRORS[cls]
        exc = cls(*args)
        assert (exc.args, str(exc)) == (args, message)
        back = pickle.loads(pickle.dumps(exc))
        assert (type(back), back.args, str(back)) == (cls, args, message)
        for name, i in (("u", 0), ("v", 1), ("hypothesis", 0)):
            if hasattr(cls, name):
                assert getattr(exc, name) == getattr(back, name) == args[i]

    def test_one_sided_instances(self):
        assert verify_transmitter_only(Facts(augment(QR7, True, False)))
        assert verify_receiver_only(Facts(augment(QR7, False, True)))
        with pytest.raises(HypothesisNotSatisfied):
            verify_transmitter_only(Facts(augment(QR7, True, True)))

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
                        agreed = verifier(Facts(t))
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
        assert verify_not_strong(Facts(t))

    def test_verifiers_keep_their_names(self):
        # test_exhaustive_admissible_corpus counts applications per __name__.
        for fn in theorems.VERIFIERS.values():
            assert getattr(theorems, fn.__name__) is fn

    def test_verifiers_take_one_facts(self):
        # A verifier reads the tournament from its Facts, so it cannot be
        # handed one tournament and another's facts.
        for fn in SHARED_VERIFIERS.values():
            params = list(inspect.signature(fn).parameters.values())
            assert len(params) == 1 and params[0].default is inspect.Parameter.empty, fn

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
                    assert verifier(Facts(t)), (verifier.__name__, t.rows)
                except HypothesisNotSatisfied:
                    pass


class TestDegreeLemmas:
    def test_three_cycle(self):
        assert verify_degree_lemmas(Facts(three_cycle()))

    def test_single_arc_vacuous(self):
        assert verify_degree_lemmas(Facts(single_arc()))

    def test_hypothesis(self):
        with pytest.raises(HypothesisNotSatisfied):
            verify_degree_lemmas(Facts(transitive_triple()))  # not quadrangular
        with pytest.raises(HypothesisNotSatisfied):
            verify_degree_lemmas(Facts(ROT11))  # no degree-1 vertex

    def test_exhaustive_sweep(self):
        for n in range(2, 7):
            for t in all_tournaments(n):
                if not is_quadrangular(t):
                    continue
                if t.min_out_degree() == 1 or t.min_in_degree() == 1:
                    assert verify_degree_lemmas(Facts(t))


class TestSubtournamentDegrees:
    def test_three_cycle(self):
        assert verify_subtournament_degrees(Facts(three_cycle()))

    def test_rot11_outsets(self):
        assert verify_subtournament_degrees(Facts(ROT11))

    def test_exhaustive_no_min_degree_two_or_three(self):
        for n in range(1, 7):
            for t in all_tournaments(n):
                assert verify_subtournament_degrees(Facts(t))


class TestRegular:
    def test_qr7_all_false(self):
        assert verify_regular(Facts(QR7))
        out_rep, in_rep = quadrangularity(QR7, "both")
        assert not out_rep.verdict and not in_rep.verdict

    def test_rot11_all_true(self):
        qr19, qr23 = quadratic_residue(19), quadratic_residue(23)
        for t in (ROT11, qr19, qr23):
            assert verify_regular(Facts(t))
            out_rep, in_rep = quadrangularity(t, "both")
            assert out_rep.verdict and in_rep.verdict
        # gamma >= 4 settles the regular rule on its own
        for t in (qr19, qr23):
            assert classify(t) == theorems.ClassificationTrace("regular", (("gamma>=4", True),), True)

    def test_not_regular(self):
        with pytest.raises(NotRegular) as info:
            verify_regular(Facts(transitive_triple()))
        assert isinstance(info.value, HypothesisNotSatisfied)
        assert info.value.hypothesis == theorems.RULES["regular"].hypothesis
        assert str(info.value) == "hypothesis not satisfied: regular tournament"

    def test_gamma_at_least_4_must_imply_quadrangular(self, monkeypatch):
        # QR_7 has gamma 3; claiming gamma >= 4 for it contradicts the theorem.
        rule = theorems.RULES["regular"]
        monkeypatch.setitem(theorems.RULES, "regular", rule._replace(
            conditions=lambda f, _: [("gamma>=4", True)]))
        assert not verify_regular(Facts(QR7))

    def test_all_regular_on_five(self):
        count = 0
        for t in regular_tournaments(5):
            assert verify_regular(Facts(t))
            count += 1
        assert count == 24


class TestRotationalDichotomy:
    def test_u7_isomorphic_branch(self):
        assert verify_rotational_dichotomy(u_n(7))

    def test_qr7_overlap_branch(self):
        assert verify_rotational_dichotomy(QR7)

    def test_rot11(self):
        assert verify_rotational_dichotomy(ROT11)
        # every pairwise overlap is at least 2
        for u in range(11):
            for v in range(u + 1, 11):
                assert (ROT11.out_mask(u) & ROT11.out_mask(v)).bit_count() >= 2

    def test_all_symbols_small(self):
        from quadtour.symbols import enumerate_symbols

        for n in (5, 7, 9):
            for sym in enumerate_symbols(n):
                assert verify_rotational_dichotomy(rotational(sym))

    @pytest.mark.parametrize("n", range(13, 26, 2))
    def test_all_symbols_past_isomorphism_limit(self, n):
        # is_isomorphic refuses n > 12; the multiplier certificate has no limit
        for sym in enumerate_symbols(n):
            assert verify_rotational_dichotomy(rotational(sym))

    def test_every_multiplier_image(self):
        # a*U_n for each unit a, -U_n included: each has a disjoint outset pair
        for n in range(3, 102, 2):
            arc = range(1, (n - 1) // 2 + 1)
            for a in filter(lambda a: math.gcd(a, n) == 1, range(1, n)):
                t = rotational(make_symbol(n, {a * x % n for x in arc}))
                assert next(disjoint_pairs(t.rows), None) is not None
                assert verify_rotational_dichotomy(t)

    @staticmethod
    def _reversed(t, arcs):
        rows = list(t.rows)
        for u, v in arcs:
            assert rows[u] >> v & 1
            rows[u] ^= 1 << v
            rows[v] |= 1 << u
        return Tournament(t.n, rows)

    def test_non_rotational_rejected(self):
        # QR_7 with 0 -> 1 reversed has a disjoint outset pair and a row 0
        # that is no multiplier image; U_7 with the 3-cycle 1 -> 2 -> 5 -> 1
        # reversed keeps row 0 = U_7's symbol, a disjoint pair and the
        # isomorphism type.  Neither is rotational, so neither says anything
        # about the dichotomy.
        flipped_u7 = self._reversed(u_n(7), [(1, 2), (2, 5), (5, 1)])
        assert flipped_u7.rows[0] == u_n(7).rows[0] and is_isomorphic(flipped_u7, u_n(7))
        assert next(disjoint_pairs(flipped_u7.rows), None) is not None
        for t in (single_arc(), self._reversed(QR7, [(0, 1)]), flipped_u7):
            with pytest.raises(HypothesisNotSatisfied):
                verify_rotational_dichotomy(t)


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


SHARED_VERIFIERS = {**theorems.VERIFIERS, "regular": verify_regular}


def _outcome(fn, facts):
    try:
        return fn(facts)
    except QuadTourError as exc:
        return type(exc)


def _sweep(capsys, *argv):
    code = cli.main(["verify", *argv, "--json"])
    return code, json.loads(capsys.readouterr().out)["result"]


class TestSharedFacts:
    def test_shared_facts_match_standalone(self):
        # Both orders: classify then the verifiers, and the verifiers first.
        for t in SWEEP_CORPUS:
            trace = classify(t)
            outcomes = {name: _outcome(fn, Facts(t))
                        for name, fn in SHARED_VERIFIERS.items()}
            facts = Facts(t)
            assert classify(t, facts) == trace, t
            for name, fn in SHARED_VERIFIERS.items():
                assert _outcome(fn, facts) == outcomes[name], (name, t)
            facts = Facts(t)
            for name, fn in SHARED_VERIFIERS.items():
                assert _outcome(fn, facts) == outcomes[name], (name, t)
            assert classify(t, facts) == trace, t

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

    def test_lazy_facts_computed_at_most_once(self, monkeypatch):
        # Conditions also call the oracles on sub-tournaments; only calls on
        # the instance itself are Facts' own.
        calls = collections.Counter()
        for name in ("is_out_quadrangular", "is_in_quadrangular", "strong_decomposition"):
            def counted(t, _fn=getattr(theorems, name), _name=name):
                calls[_name, id(t)] += 1
                return _fn(t)
            monkeypatch.setattr(theorems, name, counted)

        def run_all(t, facts):
            classify(t, facts)
            for fn in theorems.VERIFIERS.values():
                _outcome(fn, facts)
            if facts.regular:
                verify_regular(facts)

        for t in [t for n in range(1, 6) for t in all_tournaments(n)] + cli._named_instances():
            calls.clear()
            run_all(t, Facts(t))
            assert max((c for (_, i), c in calls.items() if i == id(t)), default=0) <= 1, t
            # A forced verdict is never computed, and it is the one read.
            for forced in (True, False):
                calls.clear()
                facts = Facts(t)
                facts.out_quad = facts.in_quad = forced
                run_all(t, facts)
                assert not calls["is_out_quadrangular", id(t)], t
                assert not calls["is_in_quadrangular", id(t)], t
                assert facts.out_quad is facts.in_quad is facts.quadrangular is forced

    def test_assigned_fact_overrides_computed_one(self):
        facts = Facts(QR7)
        assert (facts.out_quad, facts.in_quad, facts.quadrangular) == (False, False, False)
        facts.out_quad = facts.in_quad = True
        assert (facts.out_quad, facts.in_quad, facts.quadrangular) == (True, True, True)

    @pytest.mark.parametrize("name", ["out-degree-one", "in-degree-one"])
    @pytest.mark.parametrize("first", [True, False])
    def test_flipped_rule_is_reported(self, monkeypatch, capsys, name, first):
        _flip_rule(monkeypatch, name, first)
        code, result = _sweep(capsys, "exhaustive", "--n-max", "4")
        assert code == 1 and result["failure"]["verifier"] == name
        # the instances after the failure are counted, not checked
        assert result["instances"] == 1 + 2 + 8 + 64
        verifier = SHARED_VERIFIERS[name]
        corpus = [t for n in range(1, 5) for t in brute_all_tournaments(n)]
        first_failing = next(i for i, t in enumerate(corpus)
                             if _outcome(verifier, Facts(t)) is False)
        assert result["failure"]["matrix"] == to_json_adjacency(corpus[first_failing])
        # classify agreed on every instance up to and including the failing one
        assert result["classify_agreements"] == first_failing + 1 < result["instances"]

    def test_classify_leaves_costly_facts_unbuilt(self, monkeypatch):
        # classify on n ~ 1000 stays fast only while a rule that applies
        # early never builds the decomposition or the oracle verdicts.
        calls = collections.Counter()
        for name in ("is_out_quadrangular", "is_in_quadrangular", "strong_decomposition"):
            def counted(t, _fn=getattr(theorems, name), _name=name):
                calls[_name] += 1
                return _fn(t)
            monkeypatch.setattr(theorems, name, counted)
        t = augment(quadratic_residue(23), True, True)
        assert classify(t, Facts(t)).rule == "transmitter-receiver"
        assert not calls

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
        assert not verify_outdeg_one(facts)


# Every tournament with n <= 4, then the named corpus of `verify theorems`.
SMALL_SWEEP = [t for n in range(1, 5) for t in all_tournaments(n)] + cli._named_instances()


def _negate_classify(monkeypatch):
    classify = theorems.classify

    def negated(t, facts=None):
        trace = classify(t, facts)
        return trace._replace(verdict=not trace.verdict)

    monkeypatch.setattr(theorems, "classify", negated)


class TestSweep:
    def test_empty(self):
        assert theorems.sweep([]) == theorems.Sweep(
            0, 0, {name: 0 for name in theorems.VERIFIERS}, None)

    @pytest.mark.parametrize("fault", [None, "classify", "out-degree-one", "in-degree-one"])
    def test_iterator_sweeps_like_list(self, monkeypatch, fault):
        if fault == "classify":
            _negate_classify(monkeypatch)
        elif fault is not None:  # both ways of flipping a rule
            _flip_rule(monkeypatch, fault, first=fault == "out-degree-one")
        swept = theorems.sweep(SMALL_SWEEP)
        assert theorems.sweep(iter(SMALL_SWEEP)) == swept
        assert swept.instances == len(SMALL_SWEEP)
        if fault is None:
            assert swept.failure is None
            assert swept.classify_agreements == len(SMALL_SWEEP)
        else:
            name, t = swept.failure
            failing = next(i for i, u in enumerate(SMALL_SWEEP) if u is t)
            assert name == fault and failing + 1 < len(SMALL_SWEEP)
            assert swept.classify_agreements == failing + (fault != "classify")

    def _log_checks(self, monkeypatch, fail_at=None):
        """Record each (check name, instance) the sweep calls, in order; the
        not-strong verifier disagrees on SMALL_SWEEP[fail_at]."""
        log = []

        def logged(name, fn, instance=lambda t: t):
            def check(x, *args):
                t = instance(x)
                log.append((name, id(t)))
                if name == "not-strong" and fail_at is not None and t is SMALL_SWEEP[fail_at]:
                    return False
                return fn(x, *args)
            return check

        # classify and the oracle take the tournament, the verifiers its Facts.
        of_facts = operator.attrgetter("t")
        monkeypatch.setattr(theorems, "classify", logged("classify", theorems.classify))
        monkeypatch.setattr(theorems, "is_quadrangular",
                            logged("oracle", theorems.is_quadrangular))
        for name, fn in theorems.VERIFIERS.items():
            monkeypatch.setitem(theorems.VERIFIERS, name, logged(name, fn, of_facts))
        monkeypatch.setattr(theorems, "verify_regular",
                            logged("regular", theorems.verify_regular, of_facts))
        return log

    def _expected(self, t):
        checks = ["classify", "oracle", *theorems.VERIFIERS]
        return [(name, id(t)) for name in checks + ["regular"] * Facts(t).regular]

    def test_each_check_runs_once_per_instance(self, monkeypatch):
        log = self._log_checks(monkeypatch)
        swept = theorems.sweep(SMALL_SWEEP)
        assert swept.failure is None
        assert log == [call for t in SMALL_SWEEP for call in self._expected(t)]

    def test_no_check_runs_after_a_failure(self, monkeypatch):
        # A regular instance, so verify_regular would run next.
        fail_at = next(i for i, t in enumerate(SMALL_SWEEP) if t.n == 3 and Facts(t).regular)
        log = self._log_checks(monkeypatch, fail_at)
        swept = theorems.sweep(iter(SMALL_SWEEP))
        assert swept.failure == ("not-strong", SMALL_SWEEP[fail_at])
        assert swept.instances == len(SMALL_SWEEP)
        assert swept.classify_agreements == fail_at + 1
        failing = self._expected(SMALL_SWEEP[fail_at])
        last = failing.index(("not-strong", id(SMALL_SWEEP[fail_at])))
        assert log == [call for t in SMALL_SWEEP[:fail_at] for call in self._expected(t)] + (
            failing[:last + 1])


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


# The rules with a verifier of their own, and that verifier.
RULE_VERIFIERS = {name: fn for name, fn in SHARED_VERIFIERS.items() if name in theorems.RULES}


def _mutant(rule, target, mutate):
    """rule with the value of its condition target replaced by mutate(value);
    the rule's own control flow is unchanged."""
    def conditions(f, subject):
        for name, value in rule.conditions(f, subject):
            yield name, mutate(value) if name == target else value
    return rule._replace(conditions=conditions)


def test_every_condition_decides(monkeypatch):
    # Each condition of each verified rule, negated or made neutral (the
    # value that leaves combine's verdict to the others), must make the
    # rule's verifier disagree with the oracle somewhere on the corpus.
    corpus = [Facts(t) for t in mutation_corpus()]
    survivors = []
    for name, verifier in RULE_VERIFIERS.items():
        rule = theorems.RULES[name]
        cases = [f for f in corpus if rule.subjects(f)]
        assert cases and all(verifier(f) for f in cases), name
        conditions = dict.fromkeys(c for f in cases for s in rule.subjects(f)
                                   for c, _ in rule.conditions(f, s))
        neutral = rule.combine(())
        for condition in conditions:
            for kind, mutate in (("negated", operator.not_), ("neutral", lambda _: neutral)):
                with monkeypatch.context() as m:
                    m.setitem(theorems.RULES, name, _mutant(rule, condition, mutate))
                    if all(verifier(f) for f in cases):
                        survivors.append((name, condition, kind))
    assert not survivors


def test_golden_sweep(capsys):
    code = cli.main(["verify", "all", "--n-max", "6", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c8e11922c5f9e0541cc59e499f1a173022089999b819894d21e945165a7652c8")
    result = json.loads(out)["result"]
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
