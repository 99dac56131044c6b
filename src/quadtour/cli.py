"""Command-line interface: generate, check, dominate, search, verify, export.

Exit codes: 0 when the queried property holds (or the command simply
succeeded), 1 when a checked property fails or a search finds nothing, 2 on
usage, parse or size-limit errors and when memory runs out. Settings come
from argv alone: `search --threads` (default 1) sets the worker count.

`_emit` writes every JSON report: one line, `json.dumps`'s default separators.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from itertools import chain
from typing import List, Optional

from . import core, domination, generators, matrixio, orthogonality, symbols, theorems
from .errors import InvalidSymbol, MatrixParseError, QuadTourError, SizeLimitExceeded

SCHEMA_VERSION = "1"


def _report(command: str, inputs: dict, result: dict) -> dict:
    return {"schema_version": SCHEMA_VERSION, "command": command,
            "inputs": inputs, "result": result}


def _emit(as_json: bool, report: dict, human_lines) -> None:
    if as_json:
        print(json.dumps(report))
    else:
        for line in human_lines:
            print(line)


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise MatrixParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


# int()'s base-10 grammar without its digit limit (\x1c-\x1f are not space to int()).
_INTEGER = r"[^\S\x1c-\x1f]*([+-]?)(\d+(?:_\d+)*)[^\S\x1c-\x1f]*"


def _parse_symbol_arg(n: int, text: str) -> generators.Symbol:
    # Members are read without leading zeros, as the matrix header is; one still
    # past int()'s digit limit, which n is within, lies outside [1, n - 1].
    members, too_long = [], ""
    for part in filter(None, text.split(",")):
        match = re.fullmatch(_INTEGER, part)
        if match is None:
            raise InvalidSymbol(f"symbol members must be integers, got {text!r}")
        sign, digits = match[1], match[2].replace("_", "")
        digits = digits.lstrip("".join(d for d in set(digits) if int(d) == 0)) or "0"
        try:
            members.append(int(sign + digits))
        except ValueError:
            too_long = too_long or sign + digits
    if too_long:
        raise InvalidSymbol(f"member {too_long} outside [1, {n - 1}]")
    return generators.make_symbol(n, members)


# --- gen ---------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.kind == "rotational":
        t = generators.rotational(_parse_symbol_arg(args.n, args.symbol))
    elif args.kind == "un":
        t = generators.u_n(args.n)
    elif args.kind == "qr":
        t = generators.quadratic_residue(args.p)
    elif args.kind == "random":
        t = generators.random_tournament(args.n, args.seed)
    else:  # augment
        t = matrixio.parse_tournament(_read_text(args.input))
        t = generators.augment(t, args.transmitter, args.receiver)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(matrixio.render_tournament(t))
    if args.json:
        _emit(True, _report("gen", {"kind": args.kind}, matrixio.to_json_adjacency(t)), ())
    elif not args.out:
        sys.stdout.write(matrixio.render_tournament(t))
    return 0


# --- check -------------------------------------------------------------


def _side(rep, **extra) -> dict:
    """One side's verdict and witness (None when the side holds)."""
    return {"verdict": rep.verdict, **extra, "witness": rep.witness and rep.witness._asdict()}


def cmd_check(args) -> int:
    text = _read_text(args.input)
    if args.what == "orth":
        p = matrixio.parse_pattern(text)
        verdict = orthogonality.comb_orthogonal(p)
        row_witness = col_witness = None
        if not verdict:  # a True verdict means neither side has a witness
            _, row_witness = orthogonality.comb_row_orthogonal(p)
            _, col_witness = orthogonality.comb_row_orthogonal(p.transpose())
        result = {"verdict": verdict, "row_witness": row_witness, "col_witness": col_witness}
        lines = [f"combinatorially orthogonal: {verdict}"]
    elif args.what == "quad":
        out_rep, in_rep = orthogonality.quadrangularity(matrixio.parse_tournament(text), "both")
        verdict = out_rep.verdict and in_rep.verdict
        result = {"verdict": verdict, "out": _side(out_rep), "in": _side(in_rep)}
        lines = [f"quadrangular: {verdict}"]
    else:
        rep = orthogonality.quadrangularity(matrixio.parse_tournament(text), args.what)
        verdict, result = rep.verdict, _side(rep, side=rep.side)
        lines = [f"{args.what}-quadrangular: {verdict}"]
    _emit(args.json, _report("check", {"input": args.input, "what": args.what}, result), lines)
    return 0 if verdict else 1


# --- dom ---------------------------------------------------------------


def cmd_dom(args) -> int:
    t = matrixio.parse_tournament(_read_text(args.input))
    inputs = {"input": args.input, "what": args.what}
    if args.what == "number":
        info = domination.domination_number(t)
        result = {
            "gamma": info.gamma,
            "min_set": info.min_set,
            "pairs": info.pairs,
        }
        lines = [f"gamma = {info.gamma}", f"min dominating set: {list(info.min_set)}"]
    else:
        # Both scans yield their edges in lexicographic order: no sort.
        edges = (
            domination.dominant_pairs(t)
            if args.what == "graph"
            else tuple(domination.competition_edges(t))
        )
        result = {"n": t.n, "edges": edges}
        lines = [f"{args.what}: {len(edges)} edges"] + [f"  {u} -- {v}" for u, v in edges]
    _emit(args.json, _report("dom", inputs, result), lines)
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
            "symbol": sym.sorted_members(),
            "criterion": ok,
            "quadrangular": quad,
            "verified": verified,
        }
        _emit(args.json, _report("search", inputs, result),
              [f"family symbol: {list(sym.sorted_members())}", f"verified: {verified}"])
        return 0 if verified else 1

    if args.mode == "first":
        first, examined = symbols.first_hit(args.n)
        result = {"first": first, "examined": examined}
        _emit(args.json, _report("search", inputs, result),
              [f"first hit: {list(first) if first else 'none'}"])
        return 0 if first else 1

    res = symbols.search(args.n, threads=args.threads)
    # tuples serialize as JSON arrays; the hit lines render only in text mode
    result = {"hits": res.hits, "hit_count": len(res.hits), "examined": res.examined}
    report = _report("search", inputs, result)
    report["elapsed_ms"] = round(res.elapsed * 1000.0, 3)
    _emit(args.json, report,
          chain([f"examined {res.examined} symbols, {len(res.hits)} hits"],
                (f"  {list(h)}" for h in res.hits)))
    return 0 if res.hits else 1


# --- verify ------------------------------------------------------------

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


def cmd_verify(args) -> int:
    inputs = {"suite": args.suite, "n_max": args.n_max}
    exhaustive = args.suite in ("exhaustive", "all")
    top = generators.ENUMERATION_MAX_N
    if exhaustive and not 1 <= args.n_max <= top:
        raise SizeLimitExceeded(f"exhaustive verification needs 1 <= n_max <= {top}, got {args.n_max}")
    corpora = [_named_instances()] if args.suite in ("theorems", "all") else []
    if exhaustive:
        corpora += map(generators.all_tournaments, range(1, args.n_max + 1))
    swept = theorems.sweep(chain.from_iterable(corpora))
    failure = swept.failure
    result = {**swept._asdict(), "failure": None if failure is None else {
        "verifier": failure[0], "matrix": matrixio.to_json_adjacency(failure[1])}}
    _emit(args.json, _report("verify", inputs, result),
          [f"instances: {swept.instances}"]
          + [f"  {name}: {n} pass" for name, n in swept.passes.items()]
          + ([f"FAILURE in {failure[0]}"] if failure else ["all agree"]))
    return 0 if failure is None else 1


# --- export ------------------------------------------------------------


def cmd_export(args) -> int:
    t = matrixio.parse_tournament(_read_text(args.input))
    if args.format == "dot":
        sys.stdout.write(matrixio.to_dot(t))
    else:
        _emit(True, _report("export", {"input": args.input, "format": "json"},
                            matrixio.to_json_adjacency(t)), ())
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
    search.add_argument("--threads", type=int, default=1)
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
    except MemoryError:  # str() of a MemoryError is usually empty
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
