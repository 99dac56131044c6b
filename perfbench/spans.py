"""In-memory span aggregation for the traced benchmark run.

`install()` replaces each public function listed in TARGETS by a timing
wrapper in every quadtour module namespace that binds it: the defining
module, modules that imported it by name (`theorems` binds `induced`,
`gamma_exceeds`, ...), the package `__init__`, and module-level dicts such
as `cli._VERIFIERS`.  Spans are aggregated per (span, parent) into call
count, total time, self time and raised count; the verify sweep makes
about a million calls, so nothing is stored per call.  `dump()` writes
the table once, when the traced process ends.

Self time is a span's duration minus the time covered by its child
spans.  Code not listed in TARGETS counts as self time of the nearest
listed caller.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

# Public functions of each layer, in the order a reader meets them.
TARGETS = {
    "quadtour.core": [
        "validate", "dual", "induced", "strong_decomposition", "special_vertices",
    ],
    "quadtour.matrixio": [
        "parse_pattern", "parse_tournament", "render_tournament",
        "to_json_adjacency", "to_dot",
    ],
    "quadtour.orthogonality": [
        "quadrangularity", "is_out_quadrangular", "is_in_quadrangular",
        "is_quadrangular", "comb_orthogonal", "comb_row_orthogonal",
    ],
    "quadtour.domination": ["gamma_exceeds", "domination_number", "dominant_pairs"],
    "quadtour.generators": ["all_tournaments", "rotational", "augment"],
    "quadtour.symbols": ["symbol_criterion", "search"],
    "quadtour.theorems": [
        "classify",
        "verify_transmitter_receiver", "verify_transmitter_only",
        "verify_receiver_only", "verify_not_strong", "verify_outdeg_one",
        "verify_indeg_one", "verify_degree_lemmas",
        "verify_subtournament_degrees", "verify_regular",
    ],
    "quadtour.cli": ["main"],
}

def _gamma_span(args, kwargs) -> str:
    k = args[1] if len(args) > 1 else kwargs["k"]
    return f"domination.gamma_exceeds.k{k}"


def _search_span(args, kwargs) -> str:
    return f"symbols.search.t{kwargs.get('threads', 1)}"


# Spans whose name depends on an argument: one span per k, one per worker count.
NAMERS = {
    "domination.gamma_exceeds": _gamma_span,
    "symbols.search": _search_span,
}


class Tracer:
    def __init__(self):
        self.stats = {}  # (span, parent) -> [calls, total_s, self_s, raised]
        self.stack = []  # open frames: [span, time covered by child spans]

    def _record(self, span: str, parent: str) -> list:
        rec = self.stats.get((span, parent))
        if rec is None:
            rec = self.stats[(span, parent)] = [0, 0.0, 0.0, 0]
        return rec

    def wrap(self, fn, name: str):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name)
        stack, record, clock = self.stack, self._record, time.perf_counter
        namer = NAMERS.get(name)
        count_rule = name == "theorems.classify"

        def wrapper(*args, **kwargs):
            span = namer(args, kwargs) if namer else name
            parent = stack[-1][0] if stack else ""
            frame = [span, 0.0]
            stack.append(frame)
            raised = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised = 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                rec = record(span, parent)
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
                rec[3] += raised
            if count_rule:
                record(f"theorems.classify.rule.{result.rule}", span)[0] += 1
            return result

        return wrapper

    def _wrap_generator(self, fn, name: str):
        """Count invocations; time only the work done inside each next()."""
        stack, record, clock = self.stack, self._record, time.perf_counter

        def timed(it, parent):
            rec = record(name, parent)
            while True:
                frame = [name, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    if stack:
                        stack[-1][1] += elapsed
                    rec[1] += elapsed
                    rec[2] += elapsed - frame[1]
                yield item

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            record(name, parent)[0] += 1
            return timed(fn(*args, **kwargs), parent)

        return wrapper

    def dump(self, path: str) -> None:
        rows = [[span, parent, *rec] for (span, parent), rec in sorted(self.stats.items())]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh)


def install() -> Tracer:
    """Wrap every TARGETS function wherever a quadtour namespace binds it."""
    import quadtour.cli  # noqa: F401  (loads every quadtour module)

    tracer = Tracer()
    wrappers = {}  # id(original) -> (original, wrapper)
    for modname, names in TARGETS.items():
        mod = sys.modules[modname]
        for name in names:
            orig = getattr(mod, name)
            span = f"{modname.split('.', 1)[1]}.{name}"
            wrappers[id(orig)] = (orig, tracer.wrap(orig, span))

    def replacement(value):
        hit = wrappers.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else None

    modules = [m for n, m in sys.modules.items() if n == "quadtour" or n.startswith("quadtour.")]
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            new = replacement(value)
            if new is not None:
                setattr(mod, attr, new)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    new = replacement(item)
                    if new is not None:
                        value[key] = new
    return tracer
