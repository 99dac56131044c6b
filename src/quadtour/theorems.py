"""The paper's characterizations as one rule table, read by classify and verify.

Each characterization is a `Rule` in RULES: its hypothesis, the subjects it
speaks about (none when the hypothesis fails) and the named conditions that
decide quadrangularity for a subject.  classify() reports every condition of
the first rule that has a subject, on its first subject; a rule's verify_*
compares its verdict on each subject, read only until the conditions settle
it, with the direct out/in oracle, and a disagreement means a library bug (or
a falsified statement).  sweep() checks classify and every verifier on each
instance of a corpus.  `Facts(t)` holds what the rules read about one
tournament: the O(n) facts are slots filled when it is built; the costlier ones
are properties over private slots, each computed at most once, on first read,
and out_quad and in_quad may be assigned to force them.  Build it per
instance, pass it to classify and every verifier, and drop it with the
instance.  Called without one, classify and each verifier build their own.  A
condition on the reversal (T - S)^r of rest = T - S reads rest's out-rows as
the reversal's in-rows, so it builds no dual.  RULES lists only conditions
that can decide a verdict: one that follows from the others of its rule is
proved in the docstring of the rule's conditions and not evaluated.
"""

from __future__ import annotations

from math import gcd
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .core import (
    Tournament,
    induced,
    iter_bits,
    special_vertices,
    strong_decomposition,
)
from .domination import _exceeds_two, gamma_exceeds
from .errors import HypothesisNotSatisfied, NotRegular
from .generators import Symbol, rotational
from .orthogonality import is_in_quadrangular, is_out_quadrangular, is_quadrangular


class ClassificationTrace(NamedTuple):
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
    """The facts the rules read about one tournament t.  The degree facts are
    slots filled when it is built.  The decomposition and the oracle verdicts,
    which cost O(n^2) or more, are properties over private slots, each
    computed at most once, on first read; assigning out_quad or in_quad
    forces that verdict, before or after a read.  Nothing is cached on the
    Tournament itself."""

    __slots__ = ("t", "scores", "special", "low_out", "low_in", "regular",
                 "_decomposition", "_out_quad", "_in_quad")

    def __init__(self, t: Tournament):
        self.t = t
        self.scores = scores = t.scores()
        self.special = special_vertices(t)
        self.low_out = [v for v, s in enumerate(scores) if s == 1]
        self.low_in = [v for v, s in enumerate(scores) if s == t.n - 2]
        self.regular = len(set(scores)) == 1
        self._decomposition = self._out_quad = self._in_quad = None  # not yet computed

    @property
    def decomposition(self):
        if self._decomposition is None:
            self._decomposition = strong_decomposition(self.t)
        return self._decomposition

    @property
    def out_quad(self) -> bool:
        if self._out_quad is None:
            self._out_quad = is_out_quadrangular(self.t)
        return self._out_quad

    @out_quad.setter
    def out_quad(self, value: bool):
        self._out_quad = value

    @property
    def in_quad(self) -> bool:
        if self._in_quad is None:
            self._in_quad = is_in_quadrangular(self.t)
        return self._in_quad

    @in_quad.setter
    def in_quad(self, value: bool):
        self._in_quad = value

    @property
    def quadrangular(self) -> bool:
        return self.out_quad and self.in_quad


def _without(t: Tournament, drop) -> Tournament:
    """t minus the vertices in drop, relabelled 0..k-1 in label order as
    induced() would.  Deleting d keeps each kept row's bits below d and shifts
    those above it down one; the highest label goes first, so the labels
    still to delete have not moved."""
    rows = t.rows
    for d in sorted(set(drop), reverse=True):
        low = (1 << d) - 1
        rows = [(row >> (d + 1) << d) | (row & low) for v, row in enumerate(rows) if v != d]
    return Tournament(len(rows), rows)


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
    yield "gamma((T-{s,t})^r)>2", _exceeds_two(rest.rows)


def _transmitter_only_conditions(f: Facts, _):
    """min-outdeg(R) >= 2 for R = T - s follows and is not evaluated.  A vertex
    of out-degree 0 in R is a receiver of T, which the hypothesis excludes.  If
    w -> y is w's only arc in R and R is out-quadrangular, y beats every u other
    than w (if u -> y, then u and w share exactly the out-neighbour y), so
    {w, y} dominates R and gamma(R) <= 2."""
    rest = _without(f.t, (f.special.transmitter,))
    yield "gamma(T-s)>2", gamma_exceeds(rest, 2)
    yield "T-s out-quadrangular", is_out_quadrangular(rest)


def _receiver_only_conditions(f: Facts, _):
    """min-indeg(R) >= 2 for R = T - t follows and is not evaluated: dually to
    the transmitter-only rule, a vertex of in-degree 0 in R is a transmitter of
    T, and if y -> w is w's only in-arc in an in-quadrangular R, every other
    vertex beats y, so {w, y} dominates R^r and gamma(R^r) <= 2."""
    rest = _without(f.t, (f.special.receiver,))
    yield "gamma((T-t)^r)>2", _exceeds_two(rest.rows)
    yield "T-t in-quadrangular", is_in_quadrangular(rest)


def _not_strong_conditions(f: Facts, _):
    first = induced(f.t, f.decomposition.initial)
    yield "initial in-quadrangular", is_in_quadrangular(first)
    yield "min-indeg(initial)>=2", first.min_in_degree() >= 2
    last = induced(f.t, f.decomposition.terminal)
    yield "terminal out-quadrangular", is_out_quadrangular(last)
    yield "min-outdeg(terminal)>=2", last.min_out_degree() >= 2


def _degree_one_conditions(f: Facts, x: int, side: str):
    """Conditions for a vertex x of out-degree 1 (side "O") or in-degree 1 ("I").

    With R = T - {x, y}, min-outdeg(R) >= 2 follows from gamma(R^r) > 2 and is
    not evaluated.  A vertex of out-degree 0 in R is a transmitter of R^r.  If
    w -> z is w's only arc in R, then {w, u} dominates R^r for any u with
    z -> u in R; if there is no such u, z is a receiver of R.  Either way
    gamma(R^r) <= 2.  Dually, gamma(R) > 2 implies min-indeg(R) >= 2.
    """
    y, forced = _lone_neighbour(f.t, x, side)
    yield f"{side}(y)=T-{{x,y}}", forced
    rest = _without(f.t, (x, y))
    yield "gamma(T-{x,y})>2", gamma_exceeds(rest, 2)
    yield "gamma((T-{x,y})^r)>2", _exceeds_two(rest.rows)


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


_value = itemgetter(1)  # the truth value of a (condition name, truth value) pair


def classify(t: Tournament, facts: Optional[Facts] = None) -> ClassificationTrace:
    """Decide quadrangularity by the first applicable rule of RULES.

    facts, if given, must be Facts(t).
    """
    f = Facts(t) if facts is None else facts
    for rule in RULES.values():
        subjects = rule.subjects(f)
        if subjects:
            conds = tuple(rule.conditions(f, subjects[0]))
            return ClassificationTrace(rule.name, conds, rule.combine(map(_value, conds)))


# --- per-theorem verifiers -------------------------------------------------
# Each takes an optional Facts(t) shared with classify and the other verifiers.


def _verdict(rule: Rule, f: Facts, subject) -> bool:
    """The rule's verdict on subject; the conditions stop once it is settled."""
    return rule.combine(map(_value, rule.conditions(f, subject)))


def _check(rule: Rule, t: Tournament, facts: Optional[Facts]) -> bool:
    """The rule's verdict on every subject equals the direct oracle."""
    f = Facts(t) if facts is None else facts
    subjects = rule.subjects(f)
    if not subjects:
        raise HypothesisNotSatisfied(rule.hypothesis)
    quadrangular = f.quadrangular
    for s in subjects:
        if _verdict(rule, f, s) != quadrangular:
            return False
    return True


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
    """Outset/inset sub-tournament degree facts, which imply the min-degree-4 corollaries.

    No vertex of T[O(v)] has out-degree 1 if T is out-quadrangular, none of T[I(v)]
    in-degree 1 if in-quadrangular.  The corollaries follow and are not evaluated: if
    |O(v)| is 2 or 3, T[O(v)] is an arc, a 3-cycle or a transitive triple, each with a
    vertex of out-degree 1; dually.
    All statements are implications and hold vacuously when their hypotheses fail.
    """
    f = Facts(t) if facts is None else facts
    sides = (
        (f.out_quad, t.out_mask, Tournament.out_degree),
        (f.in_quad, t.in_mask, Tournament.in_degree),
    )
    for quad, mask, degree in sides:
        if not quad:
            continue
        for v in range(t.n):
            if not mask(v):
                continue
            sub = induced(t, iter_bits(mask(v)))
            if any(degree(sub, w) == 1 for w in range(sub.n)):
                return False
    return True


def verify_regular(t: Tournament, facts: Optional[Facts] = None) -> bool:
    """Out/in/both verdicts coincide on regular tournaments; gamma >= 4 suffices."""
    f = Facts(t) if facts is None else facts
    if not f.regular:
        raise NotRegular(RULES["regular"].hypothesis)
    # The regular rule's verdict is "gamma >= 4 or out-quadrangular".
    return f.out_quad == f.in_quad == _verdict(RULES["regular"], f, None)


# The checks sweep() runs on every instance, keyed and ordered as its `passes`.
VERIFIERS = {
    "transmitter-receiver": verify_transmitter_receiver,
    "transmitter-only": verify_transmitter_only,
    "receiver-only": verify_receiver_only,
    "not-strong": verify_not_strong,
    "out-degree-one": verify_outdeg_one,
    "in-degree-one": verify_indeg_one,
    "degree-lemmas": verify_degree_lemmas,
    "subtournament-degrees": verify_subtournament_degrees,
}


def verify_rotational_dichotomy(t: Tournament) -> bool:
    """A rotational tournament is U_n-isomorphic or has no disjoint outsets.

    Additionally, a quadrangular rotational tournament on n > 3 vertices has
    every pairwise outset intersection nonempty.  t must be the rotational
    tournament of its row 0, whose symbol S = O(0) has k = (n - 1)/2 members;
    otherwise HypothesisNotSatisfied is raised.  The isomorphism is certified
    by a multiplier: if S = a*U for U = {1, ..., k} and a unit a of Z_n, then
    x -> x/a maps t onto U_n, as y - x is in S iff (y - x)/a is in U.

    Proof that disjoint outsets give such an a (arithmetic mod n).  O(u) =
    u + S, so O(u) and O(u + g) are disjoint iff S and S + g are.  Then g
    generates Z_n.  Otherwise H = <g> has odd order d, 3 <= d < n; take a
    coset x + H other than H and C = (x + H) - S.  S holds exactly one of z
    and -z for each z != 0, so -C lies in S.  The odd cycle x, x + g, ...,
    x + (d - 1)g, x has consecutive members y, y + g both in S or both in C,
    and then y + g or -y lies in S and in S + g.  So the positions 0, g, 2g,
    ..., 2kg are all of Z_n; 0 is not in S and no two consecutive ones are,
    so the k members of S are the positions {1, 3, ..., 2j - 1, 2j + 2, ...,
    2k} for some 0 <= j <= k, and S = 2g * A for the arc A = {j + 1, ...,
    j + k}, as (2k + 1)g = 0.  A, like S, holds no z with -z, but for
    0 < j < k it holds k and k + 1 = -k.  So A is U or -U, and a = +-2g.
    Conversely S = a*U misses S + ak = a*(-U), so the tournaments with
    disjoint outsets are exactly the multiplier images of U_n.
    """
    n, row = t.n, t.rows[0]
    if t != rotational(Symbol(n, frozenset(iter_bits(row)))):
        raise HypothesisNotSatisfied("rotational tournament")
    if all(row & r for r in t.rows[1:]):  # S meets every S + g, g != 0
        return True
    arc = range(1, n // 2 + 1)
    images = (sum(1 << (a * x % n) for x in arc) for a in iter_bits(row) if gcd(a, n) == 1)
    return row in images and (n <= 3 or not is_quadrangular(t))


class Sweep(NamedTuple):
    instances: int
    classify_agreements: int
    passes: dict  # VERIFIERS name -> instances on which that check agreed
    failure: Optional[tuple]  # (check name, tournament) of the first disagreement


def sweep(instances: Iterable[Tournament]) -> Sweep:
    """Check classify, then each VERIFIERS entry, then (on regular instances
    only, uncounted) verify_regular against the oracle on every instance.  A
    verifier whose hypothesis fails is skipped.  Every instance is counted;
    those after the first disagreement are not checked."""
    passes = dict.fromkeys(VERIFIERS, 0)
    count = agreements = 0
    failure = None
    for t in instances:
        count += 1
        if failure is not None:
            continue
        f = Facts(t)  # shared by classify and every verifier
        if classify(t, f).verdict != is_quadrangular(t):
            failure = ("classify", t)
            continue
        agreements += 1
        for name, verifier in VERIFIERS.items():
            try:
                agreed = verifier(t, f)
            except HypothesisNotSatisfied:
                continue
            if not agreed:
                failure = (name, t)
                break
            passes[name] += 1
        if failure is None and f.regular and not verify_regular(t, f):
            failure = ("regular", t)
    return Sweep(count, agreements, passes, failure)
