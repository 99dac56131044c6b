"""Theorem-driven quadrangularity classifier and per-theorem verifiers.

classify() decides quadrangularity by the first characterization whose
hypothesis matches; each verify_* evaluates both sides of one stated
equivalence independently and reports whether they agree.  A disagreement
means a library bug (or a falsified statement) and must surface loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .core import (
    StrongDecomposition,
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
from .orthogonality import (
    is_in_quadrangular,
    is_out_quadrangular,
    is_quadrangular,
)


@dataclass(frozen=True)
class ClassificationTrace:
    rule: str
    conditions: tuple  # (condition name, truth value) pairs
    verdict: bool


def _without(t: Tournament, drop) -> Tournament:
    dropped = set(drop)
    keep = [v for v in range(t.n) if v not in dropped]
    return induced(t, keep)


def _outdeg_one_vertices(t: Tournament) -> list:
    return [v for v in range(t.n) if t.out_degree(v) == 1]


def _indeg_one_vertices(t: Tournament) -> list:
    return [v for v in range(t.n) if t.in_degree(v) == 1]


def _transmitter_receiver_conditions(t: Tournament, s: int, r: int) -> list:
    rest = _without(t, (s, r))
    return [
        ("gamma(T-{s,t})>2", gamma_exceeds(rest, 2)),
        ("gamma((T-{s,t})^r)>2", gamma_exceeds(dual(rest), 2)),
    ]


def _transmitter_only_conditions(t: Tournament, s: int) -> list:
    rest = _without(t, (s,))
    return [
        ("gamma(T-s)>2", gamma_exceeds(rest, 2)),
        ("T-s out-quadrangular", is_out_quadrangular(rest)),
        ("min-outdeg(T-s)>=2", rest.min_out_degree() >= 2),
    ]


def _receiver_only_conditions(t: Tournament, r: int) -> list:
    rest = _without(t, (r,))
    return [
        ("gamma((T-t)^r)>2", gamma_exceeds(dual(rest), 2)),
        ("T-t in-quadrangular", is_in_quadrangular(rest)),
        ("min-indeg(T-t)>=2", rest.min_in_degree() >= 2),
    ]


def _not_strong_conditions(t: Tournament, decomp: StrongDecomposition) -> list:
    first = induced(t, decomp.initial)
    last = induced(t, decomp.terminal)
    return [
        ("initial in-quadrangular", is_in_quadrangular(first)),
        ("min-indeg(initial)>=2", first.min_in_degree() >= 2),
        ("terminal out-quadrangular", is_out_quadrangular(last)),
        ("min-outdeg(terminal)>=2", last.min_out_degree() >= 2),
    ]


def _outdeg_one_conditions(t: Tournament, x: int) -> list:
    y = next(iter_bits(t.out_mask(x)))
    rest = _without(t, (x, y))
    rest_mask = t.full_mask & ~(1 << x) & ~(1 << y)
    return [
        ("O(y)=T-{x,y}", t.out_mask(y) == rest_mask),
        ("gamma(T-{x,y})>2", gamma_exceeds(rest, 2)),
        ("gamma((T-{x,y})^r)>2", gamma_exceeds(dual(rest), 2)),
        ("min-outdeg(T-{x,y})>=2", rest.min_out_degree() >= 2),
        ("min-indeg(T-{x,y})>=2", rest.min_in_degree() >= 2),
    ]


def _indeg_one_conditions(t: Tournament, x: int) -> list:
    y = next(iter_bits(t.in_mask(x)))
    rest = _without(t, (x, y))
    rest_mask = t.full_mask & ~(1 << x) & ~(1 << y)
    return [
        ("I(y)=T-{x,y}", t.in_mask(y) == rest_mask),
        ("gamma(T-{x,y})>2", gamma_exceeds(rest, 2)),
        ("gamma((T-{x,y})^r)>2", gamma_exceeds(dual(rest), 2)),
        ("min-outdeg(T-{x,y})>=2", rest.min_out_degree() >= 2),
        ("min-indeg(T-{x,y})>=2", rest.min_in_degree() >= 2),
    ]


def classify(t: Tournament) -> ClassificationTrace:
    """Decide quadrangularity by the first applicable characterization.

    Branch order: trivially small; transmitter+receiver; transmitter only;
    receiver only; not strongly connected; out-degree-1 vertex (n >= 4);
    in-degree-1 vertex (n >= 4); regular; direct oracle.
    """
    n = t.n
    if n <= 2:
        return ClassificationTrace("trivial-small", (("n<=2", True),), True)

    trans, recv = special_vertices(t)
    if trans is not None and recv is not None:
        conds = _transmitter_receiver_conditions(t, trans, recv)
        return ClassificationTrace(
            "transmitter-receiver", tuple(conds), all(v for _, v in conds)
        )
    if trans is not None:
        conds = _transmitter_only_conditions(t, trans)
        return ClassificationTrace(
            "transmitter-only", tuple(conds), all(v for _, v in conds)
        )
    if recv is not None:
        conds = _receiver_only_conditions(t, recv)
        return ClassificationTrace(
            "receiver-only", tuple(conds), all(v for _, v in conds)
        )

    decomp = strong_decomposition(t)
    if not decomp.is_strong():
        conds = _not_strong_conditions(t, decomp)
        return ClassificationTrace("not-strong", tuple(conds), all(v for _, v in conds))

    if n >= 4:
        low_out = _outdeg_one_vertices(t)
        if low_out:
            conds = _outdeg_one_conditions(t, low_out[0])
            return ClassificationTrace(
                "out-degree-one", tuple(conds), all(v for _, v in conds)
            )
        low_in = _indeg_one_vertices(t)
        if low_in:
            conds = _indeg_one_conditions(t, low_in[0])
            return ClassificationTrace(
                "in-degree-one", tuple(conds), all(v for _, v in conds)
            )

    if t.is_regular():
        if gamma_exceeds(t, 3):
            return ClassificationTrace("regular", (("gamma>=4", True),), True)
        verdict = is_out_quadrangular(t)
        return ClassificationTrace(
            "regular",
            (("gamma>=4", False), ("out-quadrangular", verdict)),
            verdict,
        )

    verdict = is_quadrangular(t)
    return ClassificationTrace("direct-oracle", (("quadrangular", verdict),), verdict)


# --- per-theorem verifiers -------------------------------------------------


def verify_transmitter_receiver(t: Tournament) -> bool:
    if t.n < 3:
        raise HypothesisNotSatisfied("tournament on 3 or more vertices")
    trans, recv = special_vertices(t)
    if trans is None or recv is None:
        raise HypothesisNotSatisfied("transmitter and receiver present")
    conds = _transmitter_receiver_conditions(t, trans, recv)
    return all(v for _, v in conds) == is_quadrangular(t)


def verify_transmitter_only(t: Tournament) -> bool:
    trans, recv = special_vertices(t)
    if trans is None or recv is not None:
        raise HypothesisNotSatisfied("transmitter present, receiver absent")
    conds = _transmitter_only_conditions(t, trans)
    return all(v for _, v in conds) == is_quadrangular(t)


def verify_receiver_only(t: Tournament) -> bool:
    trans, recv = special_vertices(t)
    if recv is None or trans is not None:
        raise HypothesisNotSatisfied("receiver present, transmitter absent")
    conds = _receiver_only_conditions(t, recv)
    return all(v for _, v in conds) == is_quadrangular(t)


def verify_not_strong(t: Tournament) -> bool:
    trans, recv = special_vertices(t)
    if trans is not None or recv is not None:
        raise HypothesisNotSatisfied("neither transmitter nor receiver")
    decomp = strong_decomposition(t)
    if decomp.is_strong():
        raise HypothesisNotSatisfied("not strongly connected")
    conds = _not_strong_conditions(t, decomp)
    return all(v for _, v in conds) == is_quadrangular(t)


def verify_outdeg_one(t: Tournament) -> bool:
    if t.n < 4:
        raise HypothesisNotSatisfied("tournament on 4 or more vertices")
    low = _outdeg_one_vertices(t)
    if not low:
        raise HypothesisNotSatisfied("a vertex of out-degree 1")
    oracle = is_quadrangular(t)
    return all(
        all(v for _, v in _outdeg_one_conditions(t, x)) == oracle for x in low
    )


def verify_indeg_one(t: Tournament) -> bool:
    if t.n < 4:
        raise HypothesisNotSatisfied("tournament on 4 or more vertices")
    low = _indeg_one_vertices(t)
    if not low:
        raise HypothesisNotSatisfied("a vertex of in-degree 1")
    oracle = is_quadrangular(t)
    return all(
        all(v for _, v in _indeg_one_conditions(t, x)) == oracle for x in low
    )


def verify_degree_lemmas(t: Tournament) -> bool:
    """Forced structure around degree-1 vertices of quadrangular tournaments.

    If x has out-degree 1 with x -> y then O(y) = V - {x, y}; dually for
    in-degree 1.
    """
    if not is_quadrangular(t):
        raise HypothesisNotSatisfied("quadrangular tournament")
    low_out = _outdeg_one_vertices(t)
    low_in = _indeg_one_vertices(t)
    if not low_out and not low_in:
        raise HypothesisNotSatisfied("a vertex of out-degree 1 or in-degree 1")
    for x in low_out:
        y = next(iter_bits(t.out_mask(x)))
        if t.out_mask(y) != t.full_mask & ~(1 << x) & ~(1 << y):
            return False
    for x in low_in:
        y = next(iter_bits(t.in_mask(x)))
        if t.in_mask(y) != t.full_mask & ~(1 << x) & ~(1 << y):
            return False
    return True


def verify_subtournament_degrees(t: Tournament) -> bool:
    """Outset/inset sub-tournament degree facts and the min-degree-4 corollaries.

    All statements are implications and hold vacuously when their hypotheses
    fail.
    """
    out_quad = is_out_quadrangular(t)
    in_quad = is_in_quadrangular(t)
    if out_quad:
        for v in range(t.n):
            if t.out_degree(v) == 0:
                continue
            sub = induced(t, list(iter_bits(t.out_mask(v))))
            if any(sub.out_degree(w) == 1 for w in range(sub.n)):
                return False
        if t.min_out_degree() >= 2 and t.min_out_degree() < 4:
            return False
    if in_quad:
        for v in range(t.n):
            if t.in_degree(v) == 0:
                continue
            sub = induced(t, list(iter_bits(t.in_mask(v))))
            if any(sub.in_degree(w) == 1 for w in range(sub.n)):
                return False
        if t.min_in_degree() >= 2 and t.min_in_degree() < 4:
            return False
    if out_quad and in_quad:
        if t.min_out_degree() >= 2 and t.min_in_degree() >= 2:
            if t.min_out_degree() < 4 or t.min_in_degree() < 4:
                return False
    return True


def verify_regular(t: Tournament) -> bool:
    """Out/in/both verdicts coincide on regular tournaments; gamma >= 4 suffices."""
    if not t.is_regular():
        raise NotRegular("tournament is not regular")
    out_quad = is_out_quadrangular(t)
    in_quad = is_in_quadrangular(t)
    if not (out_quad == in_quad == (out_quad and in_quad)):
        return False
    if gamma_exceeds(t, 3) and not out_quad:
        return False
    return True


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
