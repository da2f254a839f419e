"""Command-line front door.

Subcommands: phi (formula evaluation), construct (extremal graph builders),
solve (exact searches on a graph6 input), oracle (verification suites).

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


def _cmd_phi(args: argparse.Namespace) -> int:
    params = PhiParams(args.n, args.d, args.k)
    value = phi(params)
    if args.conjecture:
        bound = phi_conjecture_bound(params)
        refutes = value > bound
    if args.json:
        payload = {"n": args.n, "d": args.d, "k": args.k, "phi": value}
        if args.conjecture:
            payload["conjecture_bound"] = bound
            payload["refutes"] = refutes
        print(json.dumps(payload, sort_keys=True))
        return EXIT_OK
    print(f"phi({args.n},{args.d},{args.k}) = {value}")
    if args.conjecture:
        print(f"conjecture bound = {bound}")
        if refutes:
            print("REFUTES conjectured bound")
    return EXIT_OK


_FORMATS = {
    "graph6": lambda g, high: encode_graph6(g) + "\n",
    "dot": lambda g, high: export_dot(g, highlight=high),
    "json": lambda g, high: export_json(g, high_degree=high) + "\n",
}


def _cmd_construct(args: argparse.Namespace) -> int:
    kind, params = args.kind, tuple(args.params)
    spec = CONSTRUCTIONS[kind]
    if len(params) != spec.arity:
        raise ValueError(f"{kind} takes {spec.arity} integer parameter(s), got {len(params)}")
    if args.pendants is not None and kind != "essential-cx":
        raise ValueError("--pendants applies to essential-cx only")
    pendants = [[int(tok) for tok in args.pendants.split(",")]] if args.pendants else []
    built = spec.build(*params, *pendants)
    g = built.graph if isinstance(built, BipartitionView) else built
    print(_FORMATS[args.fmt](g, high_degree_vertices(g, params[spec.degree])), end="")
    if not args.verify:
        return EXIT_OK
    failed = False
    for name, ok, detail in spec.checks(params, built):
        suffix = f" ({detail})" if detail else ""
        print(f"{name}: {'ok' if ok else 'FAIL'}{suffix}")
        failed = failed or not ok
    return EXIT_FAIL if failed else EXIT_OK


def _read_graph(args: argparse.Namespace) -> Graph:
    if args.input:
        with open(args.input, "r", encoding="ascii") as fh:
            data = fh.read()
    else:
        data = sys.stdin.read()
    data = data.strip()
    if not data:
        raise ValueError("empty graph input")
    return decode_graph6(data)


def _budget_from(args: argparse.Namespace) -> SearchBudget | None:
    node_limit = args.node_limit
    if node_limit is None:
        env = os.environ.get("PATHFORCE_NODE_LIMIT")
        if env:
            node_limit = int(env)
    if node_limit is None and args.time_limit is None:
        return None
    return SearchBudget(node_limit=node_limit, time_limit=args.time_limit)


def _parse_x(args: argparse.Namespace) -> list[int]:
    if not args.x:
        raise ValueError(f"task {args.task} requires --x")
    return [int(tok) for tok in args.x.split(",")]


def _print_witness(kind: str, vertices, as_json: bool, extra: dict | None = None) -> None:
    if as_json:
        payload = {"kind": kind, "vertices": list(vertices)}
        if extra:
            payload.update(extra)
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"WITNESS {kind} " + " ".join(str(v) for v in vertices))


def _cmd_solve(args: argparse.Namespace) -> int:
    g = _read_graph(args)
    budget = _budget_from(args)
    task = args.task
    try:
        if task == "longest-path":
            res = longest_path(g, budget)
            if args.json:
                payload = {"task": task, "length": res.length, "optimal": res.optimal,
                           "witness": list(res.witness.vertices) if res.witness else None}
                print(json.dumps(payload, sort_keys=True))
            else:
                print(f"length = {res.length}")
                if res.witness:
                    _print_witness("path", res.witness.vertices, False)
            if not res.optimal:
                if not args.json:
                    print("INCONCLUSIVE (budget exhausted; length is a lower bound)")
                return EXIT_INCONCLUSIVE
            return EXIT_OK
        if task == "longest-cycle":
            length, wit = longest_cycle(g, budget)
            if args.json:
                payload = {"task": task, "length": length,
                           "witness": list(wit.vertices) if wit else None}
                print(json.dumps(payload, sort_keys=True))
            else:
                print(f"length = {length}")
                if wit:
                    _print_witness("cycle", wit.vertices, False)
            return EXIT_OK
        if task == "contains-path":
            if args.target is None:
                raise ValueError("contains-path requires --target")
            wit = contains_path(g, args.target, budget)
            if wit is None:
                print(json.dumps({"task": task, "witness": None}, sort_keys=True)
                      if args.json else "NONE")
            else:
                _print_witness("path", wit.vertices, args.json, {"task": task})
            return EXIT_OK
        if task == "cycle-through-x":
            b = BipartitionView.from_x(g, _parse_x(args))
            wit = find_cycle_through_X(b, budget)
            if wit is None:
                print(json.dumps({"task": task, "witness": None}, sort_keys=True)
                      if args.json else "NONE")
            else:
                _print_witness("cycle", wit.vertices, args.json, {"task": task})
            return EXIT_OK
        if task == "path-cover":
            b = BipartitionView.from_x(g, _parse_x(args))
            cover = path_cover_of_X(b, args.t, budget,
                                    require_hypothesis=not args.force)
            if cover is None:
                print(json.dumps({"task": task, "paths": None}, sort_keys=True)
                      if args.json else "NONE")
                return EXIT_OK
            if args.json:
                payload = {"task": task,
                           "paths": [list(p.vertices) for p in cover.paths]}
                print(json.dumps(payload, sort_keys=True))
            else:
                for i, p in enumerate(cover.paths):
                    print(f"PATH {i}: " + " ".join(str(v) for v in p.vertices))
            return EXIT_OK
        # merge
        if args.d is None or not args.family:
            raise ValueError("merge requires --d and --family")
        paths = []
        for chunk in args.family.split(";"):
            paths.append(PathWitness(tuple(int(tok) for tok in chunk.split(","))))
        wit = merge_high_end_paths(g, args.d, PathCover(tuple(paths)), budget)
        _print_witness("path", wit.vertices, args.json, {"task": task})
        return EXIT_OK
    except SearchBudgetExceeded as exc:
        print(f"INCONCLUSIVE ({exc})")
        return EXIT_INCONCLUSIVE
    except LemmaViolationError as exc:
        print(f"LEMMA VIOLATION: {exc}", file=sys.stderr)
        return EXIT_FAIL


def _cmd_oracle(args: argparse.Namespace) -> int:
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        raise ValueError(f"--jobs must be between 1 and {cpus}, got {args.jobs}")
    report = run_suite(args.suite, seed=args.seed, trials=args.trials,
                       max_n=args.max_n, jobs=args.jobs)
    if args.json:
        print(report.to_json(include_runtime=args.timings))
    else:
        counts = " ".join(f"{key}={value}" for key, value in sorted(report.counts.items()))
        print(f"suite {args.suite}: {report.outcome} ({counts})")
        if report.witness:
            print(f"witness: {report.witness}")
    if report.outcome == "pass":
        return EXIT_OK
    if report.outcome == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_FAIL


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "phi":
            return _cmd_phi(args)
        if args.command == "construct":
            return _cmd_construct(args)
        if args.command == "solve":
            return _cmd_solve(args)
        return _cmd_oracle(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
