"""Record the reference answers that cli-queries compares against.

    python3 bench/record_reference.py

Run from the root of a source checkout. For every seed in REFERENCE_SEEDS
it runs the seed's queries through pathforce.cli.main, checks each answer on
its own (checks.py), and stores its invariant in bench/reference.json
together with a digest of the inputs, so that a changed query generator is
detected instead of compared against stale answers.

Budgeted queries that ran out of budget are solved again with a much larger
budget; when that finishes, the exact length is stored as ":e<length>",
otherwise ":e?". Unbudgeted longest-path answers (the dp engine) are
cross-checked against the dfs engine.
"""

from __future__ import annotations

import json
import os
import sys

import checks
import workloads
from worker import BENCH, call_cli, import_pathforce

REFERENCE_SEEDS = range(41)
EXACT_NODE_LIMIT = 200_000


def exact_suffix(pathforce, req: workloads.Request) -> str:
    """":e<exact length>" for a query that ran out of budget, ":e?" if unknown."""
    g = pathforce.build_graph(req.n, sorted(req.edges))
    budget = pathforce.SearchBudget(node_limit=EXACT_NODE_LIMIT)
    if req.cls == "cycle":
        try:
            return f":e{pathforce.longest_cycle(g, budget)[0]}"
        except pathforce.SearchBudgetExceeded:
            return ":e?"
    res = pathforce.longest_path(g, budget, engine="dfs")
    return f":e{res.length}" if res.optimal else ":e?"


def cross_check_dp(pathforce, req: workloads.Request, inv: str) -> None:
    g = pathforce.build_graph(req.n, sorted(req.edges))
    res = pathforce.longest_path(g, pathforce.SearchBudget(node_limit=EXACT_NODE_LIMIT),
                                 engine="dfs")
    if res.optimal and inv != f"0:{res.length}":
        raise SystemExit(f"dp and dfs disagree on {req.stdin}: {inv} vs {res.length}")


def record(pathforce, seed: int) -> dict:
    requests = workloads.cli_requests(seed, 0)
    answers = []
    for req in requests:
        code, out, err, _ = call_cli(pathforce.cli.main, req.argv, req.stdin)
        if code is None:
            raise SystemExit(f"{req.argv} crashed:\n{err}")
        inv = workloads.invariant(req, code, out)
        if req.budgeted and inv.startswith(f"{checks.EXIT_INCONCLUSIVE}:"):
            inv += exact_suffix(pathforce, req)
        elif req.cls == "lp-dp":
            cross_check_dp(pathforce, req, inv)
        answers.append(inv)
    return {"inputs": workloads.inputs_digest(requests), "answers": answers}


def main() -> int:
    # PATHFORCE_* settings (such as a default node limit) would change the
    # answers; the reference depends only on the seed.
    for key in [key for key in os.environ if key.startswith("PATHFORCE_")]:
        del os.environ[key]
    pathforce = import_pathforce()
    table = {}
    for seed in REFERENCE_SEEDS:
        table[str(seed)] = record(pathforce, seed)
        print(f"seed {seed} recorded", file=sys.stderr, flush=True)
    entries = ",\n".join(f"{json.dumps(key)}: {json.dumps(value)}"
                         for key, value in table.items())
    with open(BENCH / "reference.json", "w", encoding="utf-8") as fh:
        fh.write('{"cli-queries": {\n' + entries + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
