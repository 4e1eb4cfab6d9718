"""Command-line front end: solve / maximize / reduce / detect / suppress /
generate / verify over the library.

Exit codes: 0 success (or YES), 1 NO or a failed check, 2 usage or input
errors. With --json the only stdout output is one JSON document.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import FORMAT_VERSION, __version__
from .generators import RANDOM_MAX_N, FamilySpec, GeneratorError, family_names, generate
from .graphs import (
    Graph,
    GraphError,
    ParseError,
    parse_graph,
    suppress,
    to_dot,
    write_graph,
)
from .patterns import (
    check_invariant,
    find_2blossoms,
    find_2necklaces,
    find_2terminal,
    find_cubic_diamonds,
)
from .reductions import ReductionStep, fpt_preprocess, reduce_to_irreducible
from .potential import greedy_spanning_tree, heuristic_bound, theorem_bound
from .solver import CapacityError, exact_max_leaves, fpt_decide

EXIT_OK = 0
EXIT_NO = 1
EXIT_ERROR = 2


class InputError(Exception):
    """A file could not be read or written, or does not hold what it should,
    or the options given do not fit together."""


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (byte {exc.start})") from exc


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(str(exc)) from exc


def _write_output(path: str | None, text: str) -> None:
    """Write to the -o file if one was given, else to stdout."""
    if path:
        _write_text(path, text)
    else:
        sys.stdout.write(text)


def _read_graph(path: str) -> Graph:
    return parse_graph(_read_text(path))


def _emit_tree(edges) -> str:
    lines = [f"p {len({v for e in edges for v in e})} {len(edges)}"]
    for u, v in sorted(edges):
        lines.append(f"e {u} {v}")
    return "\n".join(lines)


def cmd_solve(args) -> int:
    g = _read_graph(args.graph)
    verdict = fpt_decide(g, args.k, want_witness=args.witness)
    payload = {"answer": verdict.answer, "k": args.k}
    if args.stats:
        payload["stats"] = asdict(verdict.stats)
    if args.witness and verdict.witness is not None:
        payload["witness"] = [list(e) for e in verdict.witness]
    if args.json:
        print(json.dumps(payload))
    else:
        print(verdict.answer)
        if args.stats:
            print(json.dumps(payload["stats"]))
        if args.witness and verdict.witness is not None:
            print(_emit_tree(verdict.witness))
    return EXIT_OK if verdict.is_yes else EXIT_NO


def cmd_maximize(args) -> int:
    if args.cap is not None and not args.exact:
        raise InputError("--cap is read only with --exact")
    g = _read_graph(args.graph)
    if args.exact:
        best, tree = exact_max_leaves(g, cap=30 if args.cap is None else args.cap)
        if args.json:
            print(json.dumps({"leaves": best, "tree": [list(e) for e in tree]}))
        else:
            print(best)
            print(_emit_tree(tree))
        return EXIT_OK
    edges, report = greedy_spanning_tree(g)
    bound = heuristic_bound(g)
    met = report.leaves >= bound
    payload = {
        "leaves": report.leaves,
        "bound_num": bound.numerator,
        "bound_den": bound.denominator,
        "met": met,
        "tree": [list(e) for e in sorted(edges)],
    }
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"leaves {report.leaves} bound {bound} met {met}")
        print(_emit_tree(sorted(edges)))
    return EXIT_OK


def cmd_reduce(args) -> int:
    if args.replay and (args.fpt or args.k is not None or args.trace):
        raise InputError("--replay takes no --fpt, -k or --trace")
    if args.k is not None and not args.fpt:
        raise InputError("-k is read only with --fpt")
    g = _read_graph(args.graph)
    if args.replay:
        for number, line in enumerate(_read_text(args.replay).splitlines(), 1):
            if line.strip():
                try:
                    step = ReductionStep.from_json_dict(json.loads(line))
                except (ValueError, KeyError, TypeError, AttributeError) as exc:
                    raise InputError(f"{args.replay} line {number}: not a step ({exc!r})") from exc
                step.apply(g)
        _write_output(args.output, write_graph(g, comment="replayed"))
        return EXIT_OK
    if args.fpt:
        reduced, k_left, steps = fpt_preprocess(g, args.k if args.k is not None else g.n)
    else:
        reduced, steps = reduce_to_irreducible(g)
        k_left = None
    if args.trace:
        _write_text(args.trace, "".join(json.dumps(step.to_json_dict()) + "\n" for step in steps))
    comment = f"{len(steps)} reductions applied" + (f", k now {k_left}" if k_left is not None else "")
    _write_output(args.output, write_graph(reduced, comment=comment))
    return EXIT_OK


_PATTERNS = {
    "cubic-diamond": find_cubic_diamonds,
    "2necklace": find_2necklaces,
    "2blossom": find_2blossoms,
    "2terminal-diamond": lambda g: find_2terminal(g, "2-terminal-diamond"),
    "2terminal-blossom": lambda g: find_2terminal(g, "2-terminal-blossom"),
}


def cmd_detect(args) -> int:
    g = _read_graph(args.graph)
    if args.pattern == "invariant":
        report = check_invariant(g)
        if args.json:
            witness = None
            if report.witness is not None:
                witness = (
                    report.witness.to_json_dict()
                    if hasattr(report.witness, "to_json_dict")
                    else sorted(report.witness)
                )
            print(json.dumps({"ok": report.ok, "violated": report.violated_clause, "witness": witness}))
        else:
            print("ok" if report.ok else f"violated: {report.violated_clause}")
        return EXIT_OK if report.ok else EXIT_NO
    matches = _PATTERNS[args.pattern](g)
    if args.json:
        print(json.dumps([m.to_json_dict() for m in matches]))
    else:
        for m in matches:
            print(f"{m.kind} vertices={list(m.vertices)} terminals={list(m.terminals)}")
        print(f"{len(matches)} match(es)")
    return EXIT_OK


def cmd_suppress(args) -> int:
    g = _read_graph(args.graph)
    s = suppress(g)
    if args.json:
        print(json.dumps(s.to_json_dict()))
    else:
        if s.is_empty():
            print("empty")
        for e in s.sedges:
            tag = "loop" if e.is_loop else "edge"
            print(f"{tag} {e.u} {e.v} internal={e.internal_count} cost={e.cost}")
    return EXIT_OK


def cmd_generate(args) -> int:
    if args.family != "random" and (args.n, args.min_degree, args.seed) != (None, None, None):
        raise InputError("--n, --min-degree and --seed are read only with --family random")
    if args.param is not None and args.family not in ("necklace", "necklace-ring", "flowerbed"):
        raise InputError("--param is read only with --family necklace, necklace-ring or flowerbed")
    spec = FamilySpec(
        family=args.family,
        k=args.param,
        n=args.n,
        min_degree_target=3 if args.min_degree is None else args.min_degree,
        seed=0 if args.seed is None else args.seed,
    )
    g = generate(spec)
    text = write_graph(g, comment=f"family {args.family}")
    if args.dot:
        text = to_dot(g)
    _write_output(args.output, text)
    return EXIT_OK


_CHECKS = ("g7", "q3", "flowerbed", "theorem1-sample")


def cmd_verify(args) -> int:
    from .generators import flowerbed, g7, q3, random_invariant_graph

    for name in args.checks:
        if name not in _CHECKS:
            raise InputError(f"unknown check {name} (choose from {' '.join(_CHECKS)})")
    checks = args.checks or _CHECKS
    failures = 0

    def report(name: str, ok: bool, detail: str = ""):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'} {name}{(' ' + detail) if detail else ''}")
        if not ok:
            failures += 1

    for name in checks:
        if name == "g7":
            graph = g7()
            best, _ = exact_max_leaves(graph)
            ok = best == 4
            deg4 = sorted(v for v in graph.vertices if graph.degree(v) == 4)
            for u in deg4:
                for v in deg4:
                    if u < v and graph.has_edge(u, v):
                        h = graph.copy()
                        h.remove_edge(u, v)
                        ok = ok and bool(find_2blossoms(h))
            report("g7", ok, f"optimum={best}")
        elif name == "q3":
            best, _ = exact_max_leaves(q3())
            report("q3", best == 4, f"optimum={best}")
        elif name == "flowerbed":
            r2 = flowerbed(2)
            yes = fpt_decide(r2, 10).is_yes
            no = not fpt_decide(r2, 11).is_yes
            report("flowerbed", yes and no, f"k=10:{'YES' if yes else 'NO'} k=11:{'NO' if no else 'YES'}")
        elif name == "theorem1-sample":
            bad = 0
            for i in range(args.samples):
                target = 3 if i % 2 == 0 else 2
                n = 6 + (i % 9)
                try:
                    graph = random_invariant_graph(n, target, seed=1000 + i)
                except GeneratorError:
                    continue
                best, _ = exact_max_leaves(graph)
                if best < theorem_bound(graph):
                    bad += 1
            report("theorem1-sample", bad == 0, f"violations={bad}/{args.samples}")
    return EXIT_OK if failures == 0 else EXIT_NO


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="maxleaf", description=__doc__)
    p.add_argument("--version", action="version", version=f"maxleaf {__version__} (format {FORMAT_VERSION})")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="decide whether a spanning tree with k leaves exists")
    sp.add_argument("-k", type=int, required=True)
    sp.add_argument("graph", help="input file or - for stdin")
    sp.add_argument("--witness", action="store_true")
    sp.add_argument("--stats", action="store_true")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_solve)

    mp = sub.add_parser("maximize", help="build a many-leaf spanning tree")
    mode = mp.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--heuristic", action="store_true")
    mp.add_argument("--cap", type=int, default=None, help="with --exact: the size cap (default 30)")
    mp.add_argument("graph")
    mp.add_argument("--json", action="store_true")
    mp.set_defaults(func=cmd_maximize)

    rp = sub.add_parser("reduce", help="apply the reduction rules")
    rp.add_argument("graph")
    rp.add_argument("--fpt", action="store_true", help="apply the two-terminal rules instead")
    rp.add_argument("-k", type=int, default=None, help="with --fpt: the k the rules lower (default n)")
    rp.add_argument("--trace", help="write the applied steps as JSON lines")
    rp.add_argument("--replay", help="replay a previously written trace")
    rp.add_argument("-o", "--output")
    rp.set_defaults(func=cmd_reduce)

    dp = sub.add_parser("detect", help="find named structures")
    dp.add_argument("--pattern", choices=sorted(_PATTERNS) + ["invariant"], required=True)
    dp.add_argument("graph")
    dp.add_argument("--json", action="store_true")
    dp.set_defaults(func=cmd_detect)

    up = sub.add_parser("suppress", help="collapse degree-2 runs")
    up.add_argument("graph")
    up.add_argument("--json", action="store_true")
    up.set_defaults(func=cmd_suppress)

    gp = sub.add_parser("generate", help="build a named family")
    gp.add_argument("--family", choices=family_names(), required=True)
    gp.add_argument("--param", type=int, default=None, help="k for necklaces/rings, i for flowerbeds")
    gp.add_argument("--n", type=int, default=None, help=f"size for random graphs, 4..{RANDOM_MAX_N}")
    gp.add_argument("--min-degree", type=int, default=None, help="for random graphs (default 3)")
    gp.add_argument("--seed", type=int, default=None, help="for random graphs (default 0)")
    gp.add_argument("--dot", action="store_true", help="emit DOT instead of the text format")
    gp.add_argument("-o", "--output")
    gp.set_defaults(func=cmd_generate)

    vp = sub.add_parser("verify", help="run the named acceptance checks")
    vp.add_argument("checks", nargs="*", help=f"subset of: {' '.join(_CHECKS)}")
    vp.add_argument("--samples", type=_positive_int, default=20)
    vp.set_defaults(func=cmd_verify)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ParseError, GeneratorError, CapacityError, GraphError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
