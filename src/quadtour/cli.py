"""Command-line interface: generate, check, dominate, search, verify, export.

Exit codes: 0 when the queried property holds (or the command simply
succeeded), 1 when a checked property fails or a search finds nothing, 2 on
usage, parse or size-limit errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from . import core, domination, generators, matrixio, orthogonality, symbols, theorems
from .errors import (HypothesisNotSatisfied, InvalidSymbol, MatrixParseError,
                     QuadTourError, SizeLimitExceeded)

SCHEMA_VERSION = "1"


def _report(command: str, inputs: dict, result: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "result": result,
    }


def _emit(args, report: dict, human_lines) -> None:
    if args.json:
        print(json.dumps(report, separators=(", ", ": ")))
    else:
        for line in human_lines:
            print(line)


def _read_tournament(path: str) -> core.Tournament:
    with open(path, "r", encoding="utf-8") as fh:
        return matrixio.parse_tournament(fh.read())


def _read_pattern(path: str) -> orthogonality.BinaryPattern:
    with open(path, "r", encoding="utf-8") as fh:
        return matrixio.parse_pattern(fh.read())


def _parse_symbol_arg(n: int, text: str) -> generators.Symbol:
    try:
        members = [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise InvalidSymbol(f"symbol members must be integers, got {text!r}") from None
    return generators.make_symbol(n, members)


def _threads(args) -> int:
    if args.threads is not None:
        return max(1, args.threads)
    env = os.environ.get("QL_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


# --- gen ---------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.kind == "rotational":
        sym = _parse_symbol_arg(args.n, args.symbol)
        t = generators.rotational(sym)
    elif args.kind == "un":
        t = generators.u_n(args.n)
    elif args.kind == "qr":
        t = generators.quadratic_residue(args.p)
    elif args.kind == "random":
        t = generators.random_tournament(args.n, args.seed)
    else:  # augment
        t = _read_tournament(args.input)
        t = generators.augment(t, args.transmitter, args.receiver)
    text = matrixio.render_tournament(t)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.json:
        inputs = {"kind": args.kind}
        report = _report("gen", inputs, matrixio.to_json_adjacency(t))
        print(json.dumps(report, separators=(", ", ": ")))
    elif not args.out:
        sys.stdout.write(text)
    return 0


# --- check -------------------------------------------------------------


def _witness_payload(w) -> Optional[dict]:
    if w is None:
        return None
    return {"u": w.u, "v": w.v, "common": list(w.common)}


def cmd_check(args) -> int:
    inputs = {"input": args.input, "what": args.what}
    if args.what == "orth":
        p = _read_pattern(args.input)
        if p.rows != p.cols:
            raise MatrixParseError("pattern is not square")
        verdict = orthogonality.comb_orthogonal(p)
        row_witness = col_witness = None
        if not verdict:  # a True verdict means neither side has a witness
            _, row_witness = orthogonality.comb_row_orthogonal(p)
            _, col_witness = orthogonality.comb_row_orthogonal(p.transpose())
        result = {
            "verdict": verdict,
            "row_witness": list(row_witness) if row_witness else None,
            "col_witness": list(col_witness) if col_witness else None,
        }
        _emit(args, _report("check", inputs, result),
              [f"combinatorially orthogonal: {verdict}"])
        return 0 if verdict else 1

    t = _read_tournament(args.input)
    if args.what == "quad":
        out_rep, in_rep = orthogonality.quadrangularity(t, "both")
        verdict = out_rep.verdict and in_rep.verdict
        result = {
            "verdict": verdict,
            "out": {"verdict": out_rep.verdict, "witness": _witness_payload(out_rep.witness)},
            "in": {"verdict": in_rep.verdict, "witness": _witness_payload(in_rep.witness)},
        }
        lines = [f"quadrangular: {verdict}"]
    else:
        rep = orthogonality.quadrangularity(t, args.what)
        verdict = rep.verdict
        result = {
            "verdict": verdict,
            "side": rep.side,
            "witness": _witness_payload(rep.witness),
        }
        lines = [f"{args.what}-quadrangular: {verdict}"]
    _emit(args, _report("check", inputs, result), lines)
    return 0 if verdict else 1


# --- dom ---------------------------------------------------------------


def cmd_dom(args) -> int:
    t = _read_tournament(args.input)
    inputs = {"input": args.input, "what": args.what}
    if args.what == "number":
        info = domination.domination_number(t)
        result = {
            "gamma": info.gamma,
            "min_set": list(info.min_set),
            "pairs": [list(p) for p in info.pairs],
        }
        lines = [f"gamma = {info.gamma}", f"min dominating set: {list(info.min_set)}"]
    else:
        graph = (
            domination.domination_graph(t)
            if args.what == "graph"
            else domination.competition_graph(t)
        )
        edges = graph.sorted_edges()
        result = {"n": graph.n, "edges": [list(e) for e in edges]}
        lines = [f"{args.what}: {len(edges)} edges"] + [f"  {u} -- {v}" for u, v in edges]
    _emit(args, _report("dom", inputs, result), lines)
    return 0


# --- search ------------------------------------------------------------


def cmd_search(args) -> int:
    inputs = {"n": args.n, "mode": args.mode}
    if args.mode == "family":
        sym = symbols.family_symbol(args.n)
        ok, failing = symbols.symbol_criterion(sym)
        quad = orthogonality.is_quadrangular(generators.rotational(sym))
        verified = ok and quad
        result = {
            "symbol": list(sym.sorted_members()),
            "criterion": ok,
            "quadrangular": quad,
            "verified": verified,
        }
        _emit(args, _report("search", inputs, result),
              [f"family symbol: {list(sym.sorted_members())}", f"verified: {verified}"])
        return 0 if verified else 1

    if args.mode == "first":
        first = None
        examined = 0
        for sym in symbols.enumerate_symbols(args.n):
            examined += 1
            ok, _ = symbols.symbol_criterion(sym)
            if ok:
                first = sym.sorted_members()
                break
        result = {"first": list(first) if first else None, "examined": examined}
        _emit(args, _report("search", inputs, result),
              [f"first hit: {list(first) if first else 'none'}"])
        return 0 if first else 1

    res = symbols.search(args.n, threads=_threads(args))
    result = {
        "hits": [list(h) for h in res.hits],
        "hit_count": len(res.hits),
        "examined": res.examined,
    }
    report = _report("search", inputs, result)
    report["elapsed_ms"] = round(res.elapsed * 1000.0, 3)
    _emit(args, report,
          [f"examined {res.examined} symbols, {len(res.hits)} hits"]
          + [f"  {list(h)}" for h in res.hits])
    return 0


# --- verify ------------------------------------------------------------

_VERIFIERS = {
    "transmitter-receiver": theorems.verify_transmitter_receiver,
    "transmitter-only": theorems.verify_transmitter_only,
    "receiver-only": theorems.verify_receiver_only,
    "not-strong": theorems.verify_not_strong,
    "out-degree-one": theorems.verify_outdeg_one,
    "in-degree-one": theorems.verify_indeg_one,
    "degree-lemmas": theorems.verify_degree_lemmas,
    "subtournament-degrees": theorems.verify_subtournament_degrees,
}


def _named_instances():
    qr7 = generators.quadratic_residue(7)
    rot11 = generators.rotational(symbols.family_symbol(11))
    named = [qr7, core.dual(qr7), rot11]
    for base in (qr7, rot11, generators.random_tournament(5, 7)):
        for add_t in (False, True):
            for add_r in (False, True):
                named.append(generators.augment(base, add_t, add_r))
    for n in (5, 7, 9, 11):
        named.append(generators.u_n(n))
    for seed in range(30):
        named.append(generators.random_tournament(4 + seed % 7, seed))
    return named


def _run_verifiers(instances):
    passes = {name: 0 for name in _VERIFIERS}
    classify_checked = 0
    for t in instances:
        facts = theorems.Facts(t)  # shared by classify and every verifier
        if theorems.classify(t, facts).verdict != orthogonality.is_quadrangular(t):
            return passes, classify_checked, ("classify", t)
        classify_checked += 1
        for name, fn in _VERIFIERS.items():
            try:
                agreed = fn(t, facts)
            except HypothesisNotSatisfied:
                continue
            if not agreed:
                return passes, classify_checked, (name, t)
            passes[name] += 1
        if facts.regular and not theorems.verify_regular(t, facts):
            return passes, classify_checked, ("regular", t)
    return passes, classify_checked, None


def cmd_verify(args) -> int:
    inputs = {"suite": args.suite, "n_max": args.n_max}
    instances = []
    if args.suite in ("theorems", "all"):
        instances.extend(_named_instances())
    if args.suite in ("exhaustive", "all"):
        if not 1 <= args.n_max <= 7:
            raise SizeLimitExceeded(
                f"exhaustive verification needs 1 <= n_max <= 7, got {args.n_max}")
        for n in range(1, args.n_max + 1):
            instances.extend(generators.all_tournaments(n))
    passes, classify_checked, failure = _run_verifiers(instances)
    result = {
        "instances": len(instances),
        "classify_agreements": classify_checked,
        "passes": passes,
        "failure": None,
    }
    if failure is not None:
        name, t = failure
        result["failure"] = {
            "verifier": name,
            "matrix": matrixio.to_json_adjacency(t),
        }
    _emit(args, _report("verify", inputs, result),
          [f"instances: {len(instances)}"]
          + [f"  {name}: {count} pass" for name, count in passes.items()]
          + ([f"FAILURE in {failure[0]}"] if failure else ["all agree"]))
    return 0 if failure is None else 1


# --- export ------------------------------------------------------------


def cmd_export(args) -> int:
    t = _read_tournament(args.input)
    if args.format == "dot":
        sys.stdout.write(matrixio.to_dot(t))
    else:
        report = _report("export", {"input": args.input, "format": "json"},
                         matrixio.to_json_adjacency(t))
        print(json.dumps(report, separators=(", ", ": ")))
    return 0


# --- parser ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadtour",
        description="Tournament quadrangularity toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a tournament matrix file")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    g_rot = gen_sub.add_parser("rotational")
    g_rot.add_argument("--n", type=int, required=True)
    g_rot.add_argument("--symbol", required=True, help="comma-separated members")
    g_un = gen_sub.add_parser("un")
    g_un.add_argument("--n", type=int, required=True)
    g_qr = gen_sub.add_parser("qr")
    g_qr.add_argument("--p", type=int, required=True)
    g_rand = gen_sub.add_parser("random")
    g_rand.add_argument("--n", type=int, required=True)
    g_rand.add_argument("--seed", type=int, required=True)
    g_aug = gen_sub.add_parser("augment")
    g_aug.add_argument("--input", required=True)
    g_aug.add_argument("--transmitter", action="store_true")
    g_aug.add_argument("--receiver", action="store_true")
    for g in (g_rot, g_un, g_qr, g_rand, g_aug):
        g.add_argument("--out")
        g.add_argument("--json", action="store_true")
        g.set_defaults(func=cmd_gen)

    check = sub.add_parser("check", help="quadrangularity / orthogonality checks")
    check.add_argument("input")
    check.add_argument("--what", choices=["quad", "out", "in", "orth"], default="quad")
    check.add_argument("--json", action="store_true")
    check.set_defaults(func=cmd_check)

    dom = sub.add_parser("dom", help="domination quantities")
    dom.add_argument("input")
    dom.add_argument("--what", choices=["number", "graph", "competition"], default="number")
    dom.add_argument("--json", action="store_true")
    dom.set_defaults(func=cmd_dom)

    search = sub.add_parser("search", help="exhaustive symbol search")
    search.add_argument("--n", type=int, required=True)
    mode = search.add_mutually_exclusive_group()
    mode.add_argument("--all", dest="mode", action="store_const", const="all")
    mode.add_argument("--first", dest="mode", action="store_const", const="first")
    mode.add_argument("--family", dest="mode", action="store_const", const="family")
    search.set_defaults(mode="all")
    search.add_argument("--threads", type=int)
    search.add_argument("--json", action="store_true")
    search.set_defaults(func=cmd_search)

    verify = sub.add_parser("verify", help="run theorem verifiers over corpora")
    verify.add_argument("suite", choices=["all", "theorems", "exhaustive"])
    verify.add_argument("--n-max", type=int, default=5)
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=cmd_verify)

    export = sub.add_parser("export", help="export as DOT or JSON")
    export.add_argument("input")
    export.add_argument("--format", choices=["dot", "json"], default="dot")
    export.set_defaults(func=cmd_export)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (QuadTourError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
