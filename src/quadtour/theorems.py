"""The paper's characterizations as one rule table, read by classify and verify.

Each characterization is a `Rule` in RULES: its hypothesis, the subjects it
speaks about (none when the hypothesis fails) and the named conditions that
decide quadrangularity for a subject.  classify() reports every condition of
the first rule that has a subject; a rule's verify_* compares its verdict on
each subject with the direct out/in oracle, and a disagreement means a library
bug (or a falsified statement).  `Facts(t)` computes each fact the rules read
on first request and then reuses it.  It serves one tournament: build it per
instance, pass it to classify and every verifier, and drop it with the
instance.  Called without one, classify and each verifier build their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .core import (
    Tournament,
    dual,
    induced,
    is_isomorphic,
    iter_bits,
    special_vertices,
    strong_decomposition,
)
from .domination import gamma_exceeds
from .errors import HypothesisNotSatisfied, NotRegular
from .generators import Symbol, u_n
from .orthogonality import is_in_quadrangular, is_out_quadrangular, is_quadrangular


@dataclass(frozen=True)
class ClassificationTrace:
    rule: str
    conditions: tuple  # (condition name, truth value) pairs
    verdict: bool


class Rule(NamedTuple):
    name: str
    hypothesis: str  # reported by HypothesisNotSatisfied
    subjects: Callable[[Facts], Sequence]  # empty iff the hypothesis fails
    conditions: Callable[[Facts, object], Iterable]  # (name, truth value) pairs, in order
    combine: Callable = all  # the verdict from the condition values


class Facts:
    """The facts the rules read about one tournament t, each computed on
    first use, and the trace of each rule on each subject classify asked
    about.  Nothing is cached on the Tournament itself."""

    def __init__(self, t: Tournament):
        self.t = t
        self._traces = {}  # (rule name, subject) -> ClassificationTrace

    @cached_property
    def scores(self) -> tuple:
        return self.t.scores()

    @cached_property
    def special(self):
        return special_vertices(self.t)

    @cached_property
    def decomposition(self):
        return strong_decomposition(self.t)

    @cached_property
    def low_out(self) -> list:
        return [v for v, s in enumerate(self.scores) if s == 1]

    @cached_property
    def low_in(self) -> list:
        return [v for v, s in enumerate(self.scores) if s == self.t.n - 2]

    @cached_property
    def regular(self) -> bool:
        return self.t.is_regular()

    @cached_property
    def out_quad(self) -> bool:
        return is_out_quadrangular(self.t)

    @cached_property
    def in_quad(self) -> bool:
        return is_in_quadrangular(self.t)

    @cached_property
    def quadrangular(self) -> bool:
        return self.out_quad and self.in_quad

    def trace(self, rule: Rule, subject) -> ClassificationTrace:
        """Every condition of the rule on subject, and the verdict they give."""
        key = (rule.name, subject)
        if key not in self._traces:
            conds = tuple(rule.conditions(self, subject))
            verdict = rule.combine(v for _, v in conds)
            self._traces[key] = ClassificationTrace(rule.name, conds, verdict)
        return self._traces[key]

    def verdict(self, rule: Rule, subject) -> bool:
        """The rule's verdict on subject, evaluating conditions only until
        they settle it unless classify already traced them."""
        traced = self._traces.get((rule.name, subject))
        if traced is not None:
            return traced.verdict
        return rule.combine(v for _, v in rule.conditions(self, subject))


def _without(t: Tournament, drop) -> Tournament:
    dropped = set(drop)
    return induced(t, [v for v in range(t.n) if v not in dropped])


def _lone_neighbour(t: Tournament, x: int, side: str):
    """The one out- (side "O") or in-neighbour ("I") y of x, and whether
    O(y) (resp. I(y)) is V - {x, y}."""
    mask = t.out_mask if side == "O" else t.in_mask
    y = mask(x).bit_length() - 1
    return y, mask(y) == t.full_mask & ~(1 << x) & ~(1 << y)


def _if(holds: bool) -> tuple:
    """Subjects of a rule about the tournament as a whole."""
    return (None,) if holds else ()


def _transmitter_receiver_conditions(f: Facts, _):
    rest = _without(f.t, f.special)
    yield "gamma(T-{s,t})>2", gamma_exceeds(rest, 2)
    yield "gamma((T-{s,t})^r)>2", gamma_exceeds(dual(rest), 2)


def _transmitter_only_conditions(f: Facts, _):
    rest = _without(f.t, (f.special.transmitter,))
    yield "gamma(T-s)>2", gamma_exceeds(rest, 2)
    yield "T-s out-quadrangular", is_out_quadrangular(rest)
    yield "min-outdeg(T-s)>=2", rest.min_out_degree() >= 2


def _receiver_only_conditions(f: Facts, _):
    rest = _without(f.t, (f.special.receiver,))
    yield "gamma((T-t)^r)>2", gamma_exceeds(dual(rest), 2)
    yield "T-t in-quadrangular", is_in_quadrangular(rest)
    yield "min-indeg(T-t)>=2", rest.min_in_degree() >= 2


def _not_strong_conditions(f: Facts, _):
    first = induced(f.t, f.decomposition.initial)
    yield "initial in-quadrangular", is_in_quadrangular(first)
    yield "min-indeg(initial)>=2", first.min_in_degree() >= 2
    last = induced(f.t, f.decomposition.terminal)
    yield "terminal out-quadrangular", is_out_quadrangular(last)
    yield "min-outdeg(terminal)>=2", last.min_out_degree() >= 2


def _degree_one_conditions(f: Facts, x: int, side: str):
    """Conditions for a vertex x of out-degree 1 (side "O") or in-degree 1 ("I")."""
    y, forced = _lone_neighbour(f.t, x, side)
    yield f"{side}(y)=T-{{x,y}}", forced
    rest = _without(f.t, (x, y))
    yield "gamma(T-{x,y})>2", gamma_exceeds(rest, 2)
    yield "gamma((T-{x,y})^r)>2", gamma_exceeds(dual(rest), 2)
    yield "min-outdeg(T-{x,y})>=2", rest.min_out_degree() >= 2
    yield "min-indeg(T-{x,y})>=2", rest.min_in_degree() >= 2


def _regular_conditions(f: Facts, _):
    gamma_at_least_4 = gamma_exceeds(f.t, 3)
    yield "gamma>=4", gamma_at_least_4
    if not gamma_at_least_4:  # gamma >= 4 suffices; otherwise out-quadrangularity decides
        yield "out-quadrangular", f.out_quad


# In classify's order.  direct-oracle always applies, so it must stay last.
RULES = {rule.name: rule for rule in (
    Rule("trivial-small", "n <= 2",
         lambda f: _if(f.t.n <= 2), lambda f, _: [("n<=2", True)]),
    Rule("transmitter-receiver", "transmitter and receiver present, n >= 3",
         lambda f: _if(f.t.n >= 3 and None not in f.special),
         _transmitter_receiver_conditions),
    Rule("transmitter-only", "transmitter present, receiver absent",
         lambda f: _if(f.special.transmitter is not None and f.special.receiver is None),
         _transmitter_only_conditions),
    Rule("receiver-only", "receiver present, transmitter absent",
         lambda f: _if(f.special.receiver is not None and f.special.transmitter is None),
         _receiver_only_conditions),
    Rule("not-strong", "neither transmitter nor receiver, not strongly connected",
         lambda f: _if(f.special == (None, None) and not f.decomposition.is_strong()),
         _not_strong_conditions),
    Rule("out-degree-one", "a vertex of out-degree 1, n >= 4",
         lambda f: f.low_out if f.t.n >= 4 else (),
         lambda f, x: _degree_one_conditions(f, x, "O")),
    Rule("in-degree-one", "a vertex of in-degree 1, n >= 4",
         lambda f: f.low_in if f.t.n >= 4 else (),
         lambda f, x: _degree_one_conditions(f, x, "I")),
    Rule("regular", "regular tournament",
         lambda f: _if(f.regular), _regular_conditions, any),
    Rule("direct-oracle", "none",
         lambda f: (None,), lambda f, _: [("quadrangular", f.quadrangular)]),
)}


def classify(t: Tournament, facts: Optional[Facts] = None) -> ClassificationTrace:
    """Decide quadrangularity by the first applicable rule of RULES.

    facts, if given, must be Facts(t).
    """
    f = Facts(t) if facts is None else facts
    for rule in RULES.values():
        subjects = rule.subjects(f)
        if subjects:
            return f.trace(rule, subjects[0])


# --- per-theorem verifiers -------------------------------------------------
# Each takes an optional Facts(t) shared with classify and the other verifiers.


def _check(rule: Rule, t: Tournament, facts: Optional[Facts]) -> bool:
    """The rule's verdict on every subject equals the direct oracle."""
    f = Facts(t) if facts is None else facts
    subjects = rule.subjects(f)
    if not subjects:
        raise HypothesisNotSatisfied(rule.hypothesis)
    return all(f.verdict(rule, s) == f.quadrangular for s in subjects)


def verify_transmitter_receiver(t: Tournament, facts: Optional[Facts] = None) -> bool:
    return _check(RULES["transmitter-receiver"], t, facts)


def verify_transmitter_only(t: Tournament, facts: Optional[Facts] = None) -> bool:
    return _check(RULES["transmitter-only"], t, facts)


def verify_receiver_only(t: Tournament, facts: Optional[Facts] = None) -> bool:
    return _check(RULES["receiver-only"], t, facts)


def verify_not_strong(t: Tournament, facts: Optional[Facts] = None) -> bool:
    return _check(RULES["not-strong"], t, facts)


def verify_outdeg_one(t: Tournament, facts: Optional[Facts] = None) -> bool:
    return _check(RULES["out-degree-one"], t, facts)


def verify_indeg_one(t: Tournament, facts: Optional[Facts] = None) -> bool:
    return _check(RULES["in-degree-one"], t, facts)


def verify_degree_lemmas(t: Tournament, facts: Optional[Facts] = None) -> bool:
    """Forced structure around degree-1 vertices of quadrangular tournaments.

    If x has out-degree 1 with x -> y then O(y) = V - {x, y}; dually for
    in-degree 1.
    """
    f = Facts(t) if facts is None else facts
    if not f.quadrangular:
        raise HypothesisNotSatisfied("quadrangular tournament")
    if not f.low_out and not f.low_in:
        raise HypothesisNotSatisfied("a vertex of out-degree 1 or in-degree 1")
    return all(_lone_neighbour(t, x, "O")[1] for x in f.low_out) and all(
        _lone_neighbour(t, x, "I")[1] for x in f.low_in
    )


def verify_subtournament_degrees(t: Tournament, facts: Optional[Facts] = None) -> bool:
    """Outset/inset sub-tournament degree facts and the min-degree-4 corollaries.

    The two-sided corollary follows from the one-sided ones.  All statements
    are implications and hold vacuously when their hypotheses fail.
    """
    f = Facts(t) if facts is None else facts
    sides = (
        (f.out_quad, t.out_mask, Tournament.out_degree, min(f.scores)),
        (f.in_quad, t.in_mask, Tournament.in_degree, t.n - 1 - max(f.scores)),
    )
    for quad, mask, degree, min_degree in sides:
        if not quad:
            continue
        for v in range(t.n):
            if not mask(v):
                continue
            sub = induced(t, iter_bits(mask(v)))
            if any(degree(sub, w) == 1 for w in range(sub.n)):
                return False
        if 2 <= min_degree < 4:
            return False
    return True


def verify_regular(t: Tournament, facts: Optional[Facts] = None) -> bool:
    """Out/in/both verdicts coincide on regular tournaments; gamma >= 4 suffices."""
    f = Facts(t) if facts is None else facts
    if not f.regular:
        raise NotRegular("tournament is not regular")
    # The regular rule's verdict is "gamma >= 4 or out-quadrangular".
    return f.out_quad == f.in_quad == f.verdict(RULES["regular"], None)


def verify_rotational_dichotomy(t: Tournament, sym: Symbol) -> bool:
    """A rotational tournament is U_n-isomorphic or has no disjoint outsets.

    Additionally, a quadrangular rotational tournament on n > 3 vertices has
    every pairwise outset intersection nonempty.
    """
    n = t.n
    all_overlap = all(
        t.out_mask(u) & t.out_mask(v)
        for u in range(n)
        for v in range(u + 1, n)
    )
    if not all_overlap and not is_isomorphic(t, u_n(n)):
        return False
    if n > 3 and is_quadrangular(t) and not all_overlap:
        return False
    return True
