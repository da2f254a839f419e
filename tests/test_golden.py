"""Golden outputs: literal stdout and exit codes of `construct --verify` and
`oracle --json`, including the failure and inconclusive paths of the suites,
and literal stdout, stderr and exit codes of every `phi` and `solve` answer.

Every string here was captured from the command line and must not change:
the README promises byte-identical output for identical invocations.
"""

import io
import sys

import pytest

import pathforce.cli as cli
import pathforce.oracle as oracle
from pathforce.cli import main
from pathforce.graph import PathWitness
from pathforce.solvers import LemmaViolationError, SearchBudgetExceeded

BLOCKS = "blocks: ok (every block matches the one-vertex-deeper join)\n"

CONSTRUCT = [
    ("H 5 5", "E}r?\nvertex-count: ok (6)\nhigh-degree-count: ok (2)\n"),
    ("H-star 4 4",
     "Gs`AA?\nvertex-count: ok (8)\nhigh-degree-count: ok (2)\n"
     "path-free: ok (no path on 5 vertices)\n"),
    ("G 24 4 4",
     "Ws`AA???G@?C?G?C?A??_?????G??O??O??G??@???G???_\n"
     "vertex-count: ok (24)\nhigh-degree-count: ok (6)\n"
     "path-free: ok (no path on 5 vertices)\n"),
    ("theta-chain 6 4 2 2",
     "^}rE@?`?WB?K?WG?C?G?B??W?@_?B??_??O@???W??B???K???W?C???A??G???B????W???@_???B?\n"
     "vertex-count: ok (31)\nhigh-degree-count: ok (12)\ncircumference: ok (4)\n" + BLOCKS),
    # wider than the exact parameterization theta_chain_counts accepts
    ("theta-chain 5 4 2 1",
     "O}r@@CB?oEC?G@?@_?o?K\n"
     "vertex-count: ok (16)\nhigh-degree-count: ok (7)\ncircumference: ok (4)\n" + BLOCKS),
    ("psi-tree 3 7 2 3",
     "UsOGQ?@?P??@?AG???G?AC????G??O_????@???O\n"
     "vertex-count: ok (22)\nhigh-degree-count: ok (10)\nconnected: ok\n"
     "path-free: ok (no path on 8 vertices)\n"),
    ("essential-cx 4 --pendants 1,2,1,3",
     "M?~vc@?O@?A?C?C??\nx-size: ok (4)\ny-size: ok (10)\nmin-x-degree: ok (4)\n"
     "essentially-2-connected: ok\nno-cycle-through-x: ok\n"),
]


def report(claim, counts, outcome, params, witness="null"):
    return (f'{{"claim": "{claim}", "counts": {counts}, "outcome": "{outcome}", '
            f'"params": {params}, "runtime": null, "seed": 0, "witness": {witness}}}\n')


def cycle_claim(profile):
    return f"every {profile}-hypothesis instance has a cycle through all of X"


FORMULA = "closed-form threshold equals brute force over all admissible (n,d,k)"
CONSTRUCTION = ("every lower-bound construction has the stated vertex count, "
                "high-degree count, and no path on k+1 vertices")
COVER = ("every path-cover-hypothesis instance splits into at most t+1 disjoint "
         "paths covering X")
MERGE = "every valid family in a small graph merges into one high-end path"
THETA_PSI = "the cycle-threshold chains and the connected-threshold tree have their stated counts"
TRIALS_OK = '{"failed": 0, "inconclusive": 0, "succeeded": 12, "trials": 12}'
D_VALUES = '"d_values": [3, 4, 5, 6]'
COVER_CELLS = '"cells": [[3, 1], [3, 2], [4, 1], [4, 2]]'

ORACLE = [
    ("formula-vs-oracle --max-n 5",
     report(FORMULA, '{"mismatches": 0, "triples": 20}', "pass", '{"max_n": 5}')),
    ("construction-invariants --max-n 20",
     report(CONSTRUCTION, '{"failures": 0, "triples": 684}', "pass", '{"max_n": 20}')),
    *[(f"{profile} --trials 3",
       report(cycle_claim(profile), TRIALS_OK, "pass",
              f'{{{D_VALUES}, "per_d": 3, "profile": "{profile}"}}'))
      for profile in ("jackson", "klz", "essential")],
    ("lemma35 --trials 3",
     report(COVER, TRIALS_OK, "pass", f'{{{COVER_CELLS}, "per_cell": 3}}')),
    ("merge --trials 3",
     report(MERGE, '{"failed": 0, "inconclusive": 0, "succeeded": 9, "trials": 9}', "pass",
            '{"d_values": [3, 4, 5], "per_d": 3}')),
    ("theta-psi", report(THETA_PSI, '{"checks": 19, "failures": 0}', "pass", "{}")),
]


def run(capsys, argv):
    code = main(argv.split())
    return code, capsys.readouterr().out


@pytest.mark.parametrize("argv,out", CONSTRUCT, ids=[c[0] for c in CONSTRUCT])
def test_construct_verify(capsys, argv, out):
    assert run(capsys, f"construct {argv} --verify") == (0, out)


@pytest.mark.parametrize("argv,out", ORACLE, ids=[c[0] for c in ORACLE])
def test_oracle_json(capsys, argv, out):
    assert run(capsys, f"oracle {argv} --json") == (0, out)


def scripted(real, fail_at=(), budget_at=(), fail=lambda: None):
    """A solver that runs `real`, except on the given 1-based call numbers,
    where it runs out of budget or returns what `fail` gives."""
    calls = 0

    def solver(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls in budget_at:
            raise SearchBudgetExceeded("node limit reached", 1)
        if calls in fail_at:
            return fail()
        return real(*args, **kwargs)
    return solver


def violate():
    raise LemmaViolationError("no merge")


class TestFailurePaths:
    def test_cycle_fail_outranks_inconclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "find_cycle_through_X",
                            scripted(oracle.find_cycle_through_X, fail_at={5}, budget_at={2}))
        assert run(capsys, "oracle jackson --trials 3 --json") == (1, report(
            cycle_claim("jackson"),
            '{"failed": 1, "inconclusive": 1, "succeeded": 10, "trials": 12}', "fail",
            f'{{{D_VALUES}, "first_failure": {{"d": 4, "trial": 1}}, "per_d": 3, '
            '"profile": "jackson"}', '"GDxFF?"'))

    def test_cycle_inconclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "find_cycle_through_X",
                            scripted(oracle.find_cycle_through_X, budget_at={2}))
        assert run(capsys, "oracle jackson --trials 3 --json") == (3, report(
            cycle_claim("jackson"),
            '{"failed": 0, "inconclusive": 1, "succeeded": 11, "trials": 12}', "inconclusive",
            f'{{{D_VALUES}, "first_inconclusive": {{"d": 3, "trial": 1}}, "per_d": 3, '
            '"profile": "jackson"}', '"E[R?"'))

    def test_cover_fail(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "path_cover_of_X",
                            scripted(oracle.path_cover_of_X, fail_at={7}))
        assert run(capsys, "oracle lemma35 --trials 3 --json") == (1, report(
            COVER, '{"failed": 1, "inconclusive": 0, "succeeded": 11, "trials": 12}', "fail",
            f'{{{COVER_CELLS}, "first_failure": {{"d": 4, "t": 1, "trial": 0}}, "per_cell": 3}}',
            '"I?BztrW{?"'))

    def test_merge_fail(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "merge_high_end_paths",
                            scripted(oracle.merge_high_end_paths, fail_at={4}, fail=violate))
        assert run(capsys, "oracle merge --trials 3 --json") == (1, report(
            MERGE, '{"failed": 1, "inconclusive": 0, "succeeded": 8, "trials": 9}', "fail",
            '{"d_values": [3, 4, 5], "first_failure": {"d": 4, "trial": 0}, "per_d": 3}',
            '"HvdZnr@"'))

    def test_merge_inconclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "merge_high_end_paths",
                            scripted(oracle.merge_high_end_paths, budget_at={6}))
        assert run(capsys, "oracle merge --trials 3 --json") == (3, report(
            MERGE, '{"failed": 0, "inconclusive": 1, "succeeded": 8, "trials": 9}',
            "inconclusive",
            '{"d_values": [3, 4, 5], "first_inconclusive": {"d": 4, "trial": 2}, "per_d": 3}',
            '"Hw|KC^t"'))

    def test_construction_invariants_fail(self, capsys, monkeypatch):
        real = oracle.contains_path

        def contains_path(g, m, budget=None):
            # a fake 5-vertex path in every 13-vertex graph
            if (g.n, m) == (13, 5):
                return PathWitness(tuple(range(m)))
            return real(g, m, budget)
        monkeypatch.setattr(oracle, "contains_path", contains_path)
        assert run(capsys, "oracle construction-invariants --max-n 20 --json") == (1, report(
            CONSTRUCTION, '{"failures": 7, "triples": 684}', "fail",
            '{"first_failure": {"d": 4, "k": 4, "n": 13}, "max_n": 20}', '"Ls`AA???G@?C?G"'))

    def test_theta_psi_fail(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "longest_cycle", lambda g, budget=None: (99, None))
        failed = ", ".join(f'"chain({c}): circumference"'
                           for c in ("4,4,1,1", "6,4,2,2", "4,5,2,1"))
        assert run(capsys, "oracle theta-psi --json") == (1, report(
            THETA_PSI, '{"checks": 19, "failures": 3}', "fail",
            f'{{"failed_checks": [{failed}]}}'))


PHI = [
    ("40 4 4 --conjecture",
     "phi(40,4,4) = 11\nconjecture bound = 10\nREFUTES conjectured bound\n"),
    ("40 4 4 --conjecture --json",
     '{"conjecture_bound": 10, "d": 4, "k": 4, "n": 40, "phi": 11, "refutes": true}\n'),
    ("12 5 5 --conjecture", "phi(12,5,5) = 5\nconjecture bound = 5\n"),
    ("12 5 5 --conjecture --json",
     '{"conjecture_bound": 5, "d": 5, "k": 5, "n": 12, "phi": 5, "refutes": false}\n'),
]


@pytest.mark.parametrize("argv,out", PHI, ids=[c[0] for c in PHI])
def test_phi(capsys, argv, out):
    assert main(f"phi {argv}".split()) == 0
    assert capsys.readouterr() == (out, "")


C6 = "EhEG"              # the 6-cycle 0-1-2-3-4-5-0
STAR = "Cs"              # K_{1,3} centred at 0
EMPTY3 = "B?"            # three isolated vertices
C4 = "Cl"                # the 4-cycle 0-1-2-3-0
P4 = "Ch"                # the path 0-1-2-3
P5 = "DhC"               # the path 0-1-2-3-4
K44 = "G?~vf_"           # K_{4,4} with sides 0..3 and 4..7
TWO_STARS = "GS`AA?"     # 0 ~ 2,3,4 and 1 ~ 5,6,7
K5 = "D~{"
DENSE16 = "ObmvJOikeWhjtQXBwAeUG"  # G(16, 1/2), seed 1
BUDGET = "INCONCLUSIVE (node limit {} exhausted)\n"

SOLVE = [
    # README's example: echo 'EhEG' | pathforce solve longest-path
    ("longest-path", C6, 0, "length = 6\nWITNESS path 0 1 2 3 4 5\n", ""),
    ("longest-path --json", C6, 0,
     '{"length": 6, "optimal": true, "task": "longest-path", "witness": [0, 1, 2, 3, 4, 5]}\n', ""),
    ("longest-path", STAR, 0, "length = 3\nWITNESS path 1 0 2\n", ""),
    ("longest-path --json", EMPTY3, 0,
     '{"length": 1, "optimal": true, "task": "longest-path", "witness": [0]}\n', ""),
    # the lower bound of a budget-limited search
    ("longest-path --node-limit 3", DENSE16, 3,
     "length = 2\nWITNESS path 0 1\n"
     "INCONCLUSIVE (budget exhausted; length is a lower bound)\n", ""),
    ("longest-path --node-limit 3 --json", DENSE16, 3,
     '{"length": 2, "optimal": false, "task": "longest-path", "witness": [0, 1]}\n', ""),
    ("longest-cycle", C6, 0, "length = 6\nWITNESS cycle 0 1 2 3 4 5\n", ""),
    ("longest-cycle --json", C6, 0,
     '{"length": 6, "task": "longest-cycle", "witness": [0, 1, 2, 3, 4, 5]}\n', ""),
    ("longest-cycle", STAR, 0, "length = 0\n", ""),
    ("longest-cycle --json", STAR, 0,
     '{"length": 0, "task": "longest-cycle", "witness": null}\n', ""),
    ("contains-path --target 4", C6, 0, "WITNESS path 0 1 2 3\n", ""),
    ("contains-path --target 4 --json", C6, 0,
     '{"kind": "path", "task": "contains-path", "vertices": [0, 1, 2, 3]}\n', ""),
    ("contains-path --target 2", EMPTY3, 0, "NONE\n", ""),
    ("contains-path --target 2 --json", EMPTY3, 0,
     '{"task": "contains-path", "witness": null}\n', ""),
    ("cycle-through-x --x 0,2", C4, 0, "WITNESS cycle 0 1 2 3\n", ""),
    ("cycle-through-x --x 0,2 --json", C4, 0,
     '{"kind": "cycle", "task": "cycle-through-x", "vertices": [0, 1, 2, 3]}\n', ""),
    ("cycle-through-x --x 0,2", P4, 0, "NONE\n", ""),
    ("cycle-through-x --x 0,2 --json", P4, 0,
     '{"task": "cycle-through-x", "witness": null}\n', ""),
    ("path-cover --x 0,1 --t 1", TWO_STARS, 0, "PATH 0: 0\nPATH 1: 1\n", ""),
    ("path-cover --x 0,2,4 --t 2", P5, 0, "PATH 0: 0\nPATH 1: 4 3 2\n", ""),
    ("path-cover --x 0,2,4 --t 2 --json", P5, 0,
     '{"paths": [[0], [4, 3, 2]], "task": "path-cover"}\n', ""),
    ("path-cover --x 0,1,2,3 --t 1", K44, 0, "PATH 0: 0 4 1 5 2 6 3\n", ""),
    ("path-cover --x 0,1,2 --t 1 --force", EMPTY3, 0, "NONE\n", ""),
    ("path-cover --x 0,1,2 --t 1 --force --json", EMPTY3, 0,
     '{"paths": null, "task": "path-cover"}\n', ""),
    ("merge --d 4 --family 0,1;2,3", K5, 0, "WITNESS path 0 1 2 3\n", ""),
    ("merge --d 4 --family 0,1;2,3 --json", K5, 0,
     '{"kind": "path", "task": "merge", "vertices": [0, 1, 2, 3]}\n', ""),
    # An exhausted budget prints plain text even under --json. This is a known
    # defect; bench/checks.py requires the text on exit 3 until the benchmark
    # changes with it.
    *[(f"{argv}{flag}", graph, 3, BUDGET.format(limit), "")
      for argv, graph, limit in [
          ("longest-cycle --node-limit 3", DENSE16, 3),
          ("contains-path --target 16 --node-limit 3", DENSE16, 3),
          ("cycle-through-x --x 0,1,2,3 --node-limit 2", K44, 2),
          ("path-cover --x 0,1,2,3 --t 1 --node-limit 1", K44, 1),
          ("merge --d 4 --family 0,1;2,3 --node-limit 1", K5, 1)]
      for flag in ("", " --json")],
    *[(f"{argv}{flag}", graph, 2, "", f"error: {message}\n")
      for argv, graph, message in [
          ("contains-path", C6, "contains-path requires --target"),
          ("cycle-through-x", C6, "task cycle-through-x requires --x"),
          ("path-cover --t 1", TWO_STARS, "task path-cover requires --x"),
          ("path-cover --x 0,1,2 --t 1", EMPTY3,
           "path cover hypothesis violated: |X|=3 vs d+t=1, |Y|=0 vs 3d+2t-3=-1"),
          ("merge --d 4", K5, "merge requires --d and --family")]
      for flag in ("", " --json")],
]


def solve(capsys, monkeypatch, argv, graph):
    monkeypatch.setattr(sys, "stdin", io.StringIO(graph + "\n"))
    code = main(f"solve {argv}".split())
    return (code, *capsys.readouterr())


@pytest.mark.parametrize("argv,graph,code,out,err", SOLVE, ids=[c[0] for c in SOLVE])
def test_solve(capsys, monkeypatch, argv, graph, code, out, err):
    assert solve(capsys, monkeypatch, argv, graph) == (code, out, err)


@pytest.mark.parametrize("flag", ["", " --json"])
def test_solve_lemma_violation(capsys, monkeypatch, flag):
    def merge(*args):
        raise LemmaViolationError("no merge")
    monkeypatch.setattr(cli, "merge_high_end_paths", merge)
    assert solve(capsys, monkeypatch, f"merge --d 4 --family 0,1;2,3{flag}", K5) == \
        (1, "", "LEMMA VIOLATION: no merge\n")
