"""Golden outputs: literal stdout and exit codes of `construct --verify` and
`oracle --json`, including the failure and inconclusive paths of the suites.

Every string here was captured from the command line and must not change:
the README promises byte-identical output for identical invocations.
"""

import pytest

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
