"""The three benchmark workloads: their requests and their answer checks.

Every request is a pathforce command line, run through `pathforce.cli.main`
in-process with stdin and stdout swapped. Requests depend only on the
workload seed and, for lemma-trials, the pass index; never on timing.

exhaustive-8  the release gate's exhaustive check, formula-vs-oracle at
              n <= 8. Time goes to canonical certificates and enumeration.
              It ignores the seed.
lemma-trials  many cheap randomized lemma trials: graph primitives and
              instance generation, no canonical form, no enumeration.
cli-queries   a seeded, shuffled stream of researcher queries through the
              CLI, covering the graph6 codec and both longest-path engines.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

import checks

# Known numbers of graphs on n = 1..8 unlabeled vertices (OEIS A000088).
CLASS_COUNTS = (1, 2, 4, 11, 34, 156, 1044, 12346)
EXHAUSTIVE_CLASSES = sum(CLASS_COUNTS[1:])  # n = 2..8
EXHAUSTIVE_TRIPLES = 84

# lemma-trials: suite -> (cells, trials per cell). Trials are sized so that
# every request costs about the same (~50 ms), which keeps the latency
# percentiles inside one dense part of the distribution.
LEMMA_SUITES = {"jackson": (4, 100), "klz": (4, 45), "essential": (4, 40),
                "lemma35": (4, 50), "merge": (3, 160)}
LEMMA_ROUNDS = 8

# cli-queries: node budget of every budgeted query.
NODE_LIMIT = 20_000


@dataclass
class Request:
    cls: str
    argv: list[str]
    stdin: str = ""
    n: int = 0
    edges: set = field(default_factory=set)
    params: tuple = ()
    budgeted: bool = False


def _gnp(rng: random.Random, n: int, p: float) -> set[tuple[int, int]]:
    return {(u, v) for v in range(n) for u in range(v) if rng.random() < p}


def _graph_request(cls: str, argv: list[str], rng: random.Random, n: int, p: float,
                   budgeted: bool) -> Request:
    edges = _gnp(rng, n, p)
    if budgeted:
        argv = argv + ["--node-limit", str(NODE_LIMIT)]
    return Request(cls, argv + ["--json"], checks.encode_graph6(n, edges), n, edges,
                   budgeted=budgeted)


def exhaustive_requests(seed: int, pass_index: int) -> list[Request]:
    return [Request("formula-vs-oracle",
                    ["oracle", "formula-vs-oracle", "--max-n", "8", "--jobs", "1", "--json"])]


def lemma_requests(seed: int, pass_index: int) -> list[Request]:
    rng = random.Random(f"lemma-trials/{seed}/{pass_index}")
    reqs = []
    for _ in range(LEMMA_ROUNDS):
        for suite, (cells, trials) in LEMMA_SUITES.items():
            sub = rng.getrandbits(48)
            reqs.append(Request(suite, ["oracle", suite, "--seed", str(sub), "--trials",
                                        str(trials), "--jobs", "1", "--json"],
                                params=(cells * trials,)))
    return reqs


# (class, argv, budgeted, count, n values, edge probabilities). The queries of
# a class walk the (n, p) grid, so every seed draws the same sizes and only the
# graphs differ.
_GRAPH_CLASSES = (
    ("lp-dp", ["solve", "longest-path"], False, 27, range(8, 17), (0.2, 0.35, 0.5)),
    ("lp-dfs-budget", ["solve", "longest-path"], True, 64, range(19, 27),
     (0.1, 0.15, 0.2, 0.3)),
    # dp ignores the node budget here, a known defect kept visible on purpose
    ("lp-dense-budget", ["solve", "longest-path"], True, 3, range(14, 17), (0.9,)),
    ("cycle", ["solve", "longest-cycle"], True, 66, range(8, 19), (0.2, 0.35, 0.5, 0.7)),
)


def cli_requests(seed: int, pass_index: int) -> list[Request]:
    """The seeded, shuffled query stream; every pass of a run repeats it, so
    that passes differ only by the host's noise and every answer has a
    recorded reference."""
    rng = random.Random(f"cli-queries/{seed}")
    reqs = []
    for _ in range(80):
        k = rng.randint(1, 8)
        d = rng.randint(k, 12)
        n = rng.randint(d + 1, 80)
        reqs.append(Request("phi", ["phi", str(n), str(d), str(k), "--conjecture"],
                            params=(n, d, k)))
    for i in range(50):
        k = 1 + i % 8
        d = rng.randint(k, 10)
        n = rng.randint(d + 1, 60)
        reqs.append(Request("construct-G", ["construct", "G", str(n), str(d), str(k), "--verify"],
                            params=(d,)))
    for d in (3, 4, 5, 6):
        reqs.append(Request("construct-ecx", ["construct", "essential-cx", str(d), "--verify"],
                            params=(d,)))
    for cls, argv, budgeted, count, ns, ps in _GRAPH_CLASSES:
        for i in range(count):
            n = ns[i % len(ns)]
            p = ps[i // len(ns) % len(ps)]
            reqs.append(_graph_request(cls, argv, rng, n, p, budgeted))
    rng.shuffle(reqs)
    return reqs


def inputs_digest(requests: list[Request]) -> str:
    blob = json.dumps([[r.argv, r.stdin] for r in requests]).encode()
    return hashlib.sha256(blob).hexdigest()


def invariant(req: Request, code: int, out: str) -> str:
    """Check one cli-queries answer on its own and return its invariant."""
    if req.cls == "phi":
        return checks.phi_invariant(code, out, *req.params)
    if req.cls.startswith("construct"):
        return checks.construct_invariant(code, out, req.params[0])
    if req.cls == "cycle":
        return checks.longest_cycle_invariant(code, out, req.n, req.edges)
    return checks.longest_path_invariant(code, out, req.n, req.edges, req.budgeted)


def compare(req: Request, inv: str, reference: str) -> None:
    if req.cls.startswith("lp-"):
        checks.compare_longest_path(inv, reference, req.budgeted)
    elif req.cls == "cycle":
        checks.compare_cycle(inv, reference)
    elif inv != reference:
        raise checks.CheckFailure(f"answer {inv} differs from reference {reference}")


def check_exhaustive(req: Request, code: int, out: str) -> int:
    report = checks.oracle_report(code, out)
    if report["counts"] != {"triples": EXHAUSTIVE_TRIPLES, "mismatches": 0}:
        raise checks.CheckFailure(f"unexpected counts {report['counts']}")
    return EXHAUSTIVE_CLASSES


def check_lemma(req: Request, code: int, out: str) -> int:
    report = checks.oracle_report(code, out)
    trials = req.params[0]
    expected = {"trials": trials, "succeeded": trials, "failed": 0, "inconclusive": 0}
    if report["counts"] != expected:
        raise checks.CheckFailure(f"unexpected counts {report['counts']}")
    return trials


WORKLOADS = {
    "exhaustive-8": exhaustive_requests,
    "lemma-trials": lemma_requests,
    "cli-queries": cli_requests,
}
