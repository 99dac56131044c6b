"""One benchmark child process: a quadtour command or a batch of library calls.

    python3 perfbench/child.py [--spans OUT.json | --profile OUT.prof] cli ARG...
    python3 perfbench/child.py [--spans OUT.json | --profile OUT.prof] classify FILE...

`cli` runs `quadtour ARG...` exactly as the console script does.
`classify` loads each matrix file with `matrixio.parse_tournament`, then
calls `theorems.classify` and `orthogonality.is_quadrangular` on it, and
prints one JSON list with the rule and both verdicts per file.

`--spans` installs the span tracer of spans.py before the work starts and
writes its table when the work ends; `--profile` runs the work under
cProfile instead.  Without either, nothing but quadtour is imported.
"""

import sys


def classify_files(paths) -> int:
    import json

    from quadtour import matrixio, orthogonality, theorems

    out = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            t = matrixio.parse_tournament(fh.read())
        trace = theorems.classify(t)
        out.append({
            "rule": trace.rule,
            "verdict": trace.verdict,
            "quadrangular": orthogonality.is_quadrangular(t),
        })
    print(json.dumps(out))
    return 0


def run(mode: str, rest) -> int:
    if mode == "cli":
        from quadtour.cli import main

        return main(rest)
    if mode == "classify":
        return classify_files(rest)
    print(f"child: unknown mode {mode!r}", file=sys.stderr)
    return 2


def main(argv) -> int:
    option = path = None
    if argv[:1] in (["--spans"], ["--profile"]):
        option, path, argv = argv[0], argv[1], argv[2:]
    mode, rest = argv[0], argv[1:]
    if option == "--spans":
        import spans

        tracer = spans.install()
        try:
            return run(mode, rest)
        finally:
            tracer.dump(path)
    if option == "--profile":
        import cProfile

        profile = cProfile.Profile()
        try:
            return profile.runcall(run, mode, rest)
        finally:
            profile.dump_stats(path)
    return run(mode, rest)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
