"""Command-line front door.

Subcommands: phi (formula evaluation), construct (extremal graph builders),
solve (exact searches on a graph6 input), oracle (verification suites).
Each returns its answer, and main prints it: the fields as one key-sorted JSON
line under --json, else the text lines.

Exit codes: 0 all checks passed or a conclusive answer was produced, 1 a
verification check failed, 2 usage or domain error, 3 inconclusive under the
search budget. The default node limit can be set with PATHFORCE_NODE_LIMIT.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .formulas import PhiParams, phi, phi_conjecture_bound
from .graph import (
    BipartitionView,
    Graph,
    PathWitness,
    decode_graph6,
    encode_graph6,
    export_dot,
    export_json,
    high_degree_vertices,
)
from .oracle import CONSTRUCTIONS, SUITES, run_suite
from .solvers import (
    LemmaViolationError,
    PathCover,
    SearchBudget,
    SearchBudgetExceeded,
    contains_path,
    find_cycle_through_X,
    longest_cycle,
    longest_path,
    merge_high_end_paths,
    path_cover_of_X,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

Answer = tuple[dict | None, list[str], int]  # fields (None: no JSON form), lines, exit code


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and reused by every main
    call: parse_args keeps no state between calls, and help, usage and
    errors go to the sys.stdout and sys.stderr current at call time."""
    parser = argparse.ArgumentParser(
        prog="pathforce",
        description="Exact toolkit for the degree threshold forcing long paths.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_phi = sub.add_parser("phi", help="evaluate the closed-form threshold")
    p_phi.add_argument("n", type=int)
    p_phi.add_argument("d", type=int)
    p_phi.add_argument("k", type=int)
    p_phi.add_argument("--conjecture", action="store_true",
                       help="also print the conjectured reference bound")
    p_phi.add_argument("--json", action="store_true")

    p_con = sub.add_parser("construct", help="build an extremal graph")
    p_con.add_argument("kind", choices=list(CONSTRUCTIONS))
    p_con.add_argument("params", type=int, nargs="*")
    p_con.add_argument("--pendants",
                       help="essential-cx only: comma-separated pendant counts per X-vertex")
    p_con.add_argument("--format", dest="fmt", default="graph6",
                       choices=["graph6", "dot", "json"])
    p_con.add_argument("--verify", action="store_true",
                       help="check the construction's stated properties")

    p_sol = sub.add_parser("solve", help="run an exact solver on a graph6 input")
    p_sol.add_argument("task", choices=["longest-path", "longest-cycle",
                                        "contains-path", "cycle-through-x",
                                        "path-cover", "merge"])
    p_sol.add_argument("--input", help="graph6 file (default: standard input)")
    p_sol.add_argument("--target", type=int, help="path vertex count for contains-path")
    p_sol.add_argument("--x", help="comma-separated X-vertex indices")
    p_sol.add_argument("--t", type=int, default=1, help="path-cover budget parameter")
    p_sol.add_argument("--d", type=int, help="degree threshold for merge")
    p_sol.add_argument("--family",
                       help="merge family: semicolon-separated comma-separated paths")
    p_sol.add_argument("--node-limit", type=int)
    p_sol.add_argument("--time-limit", type=float)
    p_sol.add_argument("--force", action="store_true",
                       help="search even when the guaranteeing hypothesis fails")
    p_sol.add_argument("--json", action="store_true")

    p_orc = sub.add_parser("oracle", help="run a verification suite")
    p_orc.add_argument("suite", choices=list(SUITES))
    p_orc.add_argument("--seed", type=int, default=0)
    p_orc.add_argument("--trials", type=int)
    p_orc.add_argument("--max-n", dest="max_n", type=int)
    p_orc.add_argument("--jobs", type=int, default=1)
    p_orc.add_argument("--json", action="store_true")
    p_orc.add_argument("--timings", action="store_true",
                       help="include wall-clock runtime in JSON output")
    return parser


def _cmd_phi(args: argparse.Namespace) -> Answer:
    params = PhiParams(args.n, args.d, args.k)
    value = phi(params)
    fields = {"n": args.n, "d": args.d, "k": args.k, "phi": value}
    lines = [f"phi({args.n},{args.d},{args.k}) = {value}"]
    if args.conjecture:
        bound = phi_conjecture_bound(params)
        fields.update(conjecture_bound=bound, refutes=value > bound)
        lines.append(f"conjecture bound = {bound}")
        if value > bound:
            lines.append("REFUTES conjectured bound")
    return fields, lines, EXIT_OK


_FORMATS = {
    "graph6": lambda g, high: encode_graph6(g),
    "dot": lambda g, high: export_dot(g, highlight=high).removesuffix("\n"),
    "json": lambda g, high: export_json(g, high_degree=high),
}


def _cmd_construct(args: argparse.Namespace) -> Answer:
    kind, params = args.kind, tuple(args.params)
    spec = CONSTRUCTIONS[kind]
    if len(params) != spec.arity:
        raise ValueError(f"{kind} takes {spec.arity} integer parameter(s), got {len(params)}")
    if args.pendants is not None and kind != "essential-cx":
        raise ValueError("--pendants applies to essential-cx only")
    pendants = [[int(tok) for tok in args.pendants.split(",")]] if args.pendants else []
    built = spec.build(*params, *pendants)
    g = built.graph if isinstance(built, BipartitionView) else built
    lines = [_FORMATS[args.fmt](g, high_degree_vertices(g, params[spec.degree]))]
    code = EXIT_OK
    for name, ok, detail in spec.checks(params, built) if args.verify else ():
        lines.append(f"{name}: {'ok' if ok else 'FAIL'}" + (f" ({detail})" if detail else ""))
        code = code if ok else EXIT_FAIL
    return None, lines, code


def _read_graph(args: argparse.Namespace) -> Graph:
    if args.input:
        with open(args.input, "r", encoding="ascii") as fh:
            data = fh.read().strip()
    else:
        data = sys.stdin.read().strip()
    if not data:
        raise ValueError("empty graph input")
    return decode_graph6(data)


def _budget_from(args: argparse.Namespace) -> SearchBudget | None:
    node_limit = args.node_limit
    env = os.environ.get("PATHFORCE_NODE_LIMIT")
    if node_limit is None and env:
        try:
            node_limit = int(env)
        except ValueError:
            node_limit = 0
        if node_limit < 1:
            raise ValueError(f"PATHFORCE_NODE_LIMIT must be a positive integer, got {env!r}")
    if node_limit is None and args.time_limit is None:
        return None
    return SearchBudget(node_limit=node_limit, time_limit=args.time_limit)


def _bipartition(g: Graph, args: argparse.Namespace) -> BipartitionView:
    if not args.x:
        raise ValueError(f"task {args.task} requires --x")
    return BipartitionView.from_x(g, [int(tok) for tok in args.x.split(",")])


def _found(task: str, kind: str, wit) -> Answer:
    """A witness, or NONE after exhaustive refutation."""
    if wit is None:
        return {"task": task, "witness": None}, ["NONE"], EXIT_OK
    return ({"task": task, "kind": kind, "vertices": list(wit.vertices)},
            [f"WITNESS {kind} {' '.join(map(str, wit.vertices))}"], EXIT_OK)


def _longest(task: str, kind: str, length: int, wit) -> tuple[dict, list[str]]:
    """A length and, when there is one, its witness."""
    lines = [f"length = {length}"]
    if wit:
        lines.append(f"WITNESS {kind} {' '.join(map(str, wit.vertices))}")
    return {"task": task, "length": length,
            "witness": list(wit.vertices) if wit else None}, lines


def _longest_path(g: Graph, args: argparse.Namespace, budget: SearchBudget | None) -> Answer:
    res = longest_path(g, budget)
    fields, lines = _longest(args.task, "path", res.length, res.witness)
    fields["optimal"] = res.optimal
    if not res.optimal:
        lines.append("INCONCLUSIVE (budget exhausted; length is a lower bound)")
    return fields, lines, EXIT_OK if res.optimal else EXIT_INCONCLUSIVE


def _contains_path(g: Graph, args: argparse.Namespace, budget: SearchBudget | None) -> Answer:
    if args.target is None:
        raise ValueError("contains-path requires --target")
    return _found(args.task, "path", contains_path(g, args.target, budget))


def _path_cover(g: Graph, args: argparse.Namespace, budget: SearchBudget | None) -> Answer:
    cover = path_cover_of_X(_bipartition(g, args), args.t, budget,
                            require_hypothesis=not args.force)
    if cover is None:
        return {"task": args.task, "paths": None}, ["NONE"], EXIT_OK
    return ({"task": args.task, "paths": [list(p.vertices) for p in cover.paths]},
            [f"PATH {i}: {' '.join(map(str, p.vertices))}" for i, p in enumerate(cover.paths)],
            EXIT_OK)


def _merge(g: Graph, args: argparse.Namespace, budget: SearchBudget | None) -> Answer:
    if args.d is None or not args.family:
        raise ValueError("merge requires --d and --family")
    family = PathCover(tuple(PathWitness(tuple(int(tok) for tok in chunk.split(",")))
                             for chunk in args.family.split(";")))
    return _found(args.task, "path", merge_high_end_paths(g, args.d, family, budget))


_TASKS = {
    "longest-path": _longest_path,
    "longest-cycle": lambda g, args, budget: (
        *_longest(args.task, "cycle", *longest_cycle(g, budget)), EXIT_OK),
    "contains-path": _contains_path,
    "cycle-through-x": lambda g, args, budget: _found(
        args.task, "cycle", find_cycle_through_X(_bipartition(g, args), budget)),
    "path-cover": _path_cover,
    "merge": _merge,
}


def _cmd_solve(args: argparse.Namespace) -> Answer:
    g = _read_graph(args)
    budget = _budget_from(args)
    try:
        return _TASKS[args.task](g, args, budget)
    except SearchBudgetExceeded as exc:
        # plain text even under --json: bench/checks.py reads this line on exit 3
        return None, [f"INCONCLUSIVE ({exc})"], EXIT_INCONCLUSIVE


def _cmd_oracle(args: argparse.Namespace) -> Answer:
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        raise ValueError(f"--jobs must be between 1 and {cpus}, got {args.jobs}")
    report = run_suite(args.suite, seed=args.seed, trials=args.trials,
                       max_n=args.max_n, jobs=args.jobs)
    counts = " ".join(f"{key}={value}" for key, value in sorted(report.counts.items()))
    lines = [f"suite {args.suite}: {report.outcome} ({counts})"]
    if report.witness:
        lines.append(f"witness: {report.witness}")
    code = {"pass": EXIT_OK, "fail": EXIT_FAIL, "inconclusive": EXIT_INCONCLUSIVE}[report.outcome]
    return report.payload(args.timings), lines, code


_COMMANDS = {"phi": _cmd_phi, "construct": _cmd_construct,
             "solve": _cmd_solve, "oracle": _cmd_oracle}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        fields, lines, code = _COMMANDS[args.command](args)
        if fields is not None and args.json:
            print(json.dumps(fields, sort_keys=True))
        else:
            print("\n".join(lines))
        return code
    except LemmaViolationError as exc:
        print(f"LEMMA VIOLATION: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
