"""Command-line interface: outputs, formats, and exit codes."""

import importlib
import io
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import pathforce.__main__
import pathforce.oracle
from pathforce.cli import _build_parser, main
from pathforce.graph import build_graph, decode_graph6, encode_graph6


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cycle6_text():
    return encode_graph6(build_graph(6, [(i, (i + 1) % 6) for i in range(6)]))


class TestPhiCommand:
    def test_plain_value(self, capsys):
        code, out, _ = run_cli(capsys, ["phi", "12", "5", "5"])
        assert code == 0
        assert out == "phi(12,5,5) = 5\n"

    def test_conjecture_refutation(self, capsys):
        code, out, _ = run_cli(capsys, ["phi", "40", "4", "4", "--conjecture"])
        assert code == 0
        assert "phi(40,4,4) = 11" in out
        assert "conjecture bound = 10" in out
        assert "REFUTES conjectured bound" in out

    def test_conjecture_holds_quietly(self, capsys):
        code, out, _ = run_cli(capsys, ["phi", "12", "5", "5", "--conjecture"])
        assert code == 0
        assert "REFUTES" not in out

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, ["phi", "40", "4", "4", "--conjecture", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload == {"n": 40, "d": 4, "k": 4, "phi": 11,
                           "conjecture_bound": 10, "refutes": True}

    def test_domain_error_exits_two(self, capsys):
        code, out, err = run_cli(capsys, ["phi", "10", "2", "3"])
        assert code == 2
        assert "error:" in err


class TestConstructCommand:
    def test_graph6_output_decodes(self, capsys):
        code, out, _ = run_cli(capsys, ["construct", "H", "5", "5"])
        assert code == 0
        assert decode_graph6(out.strip()).n == 6

    def test_verify_reports_ok(self, capsys):
        code, out, _ = run_cli(capsys, ["construct", "H-star", "4", "4", "--verify"])
        assert code == 0
        assert "vertex-count: ok" in out
        assert "high-degree-count: ok (2)" in out
        assert "path-free: ok" in out

    def test_theta_chain_verify(self, capsys):
        code, out, _ = run_cli(capsys, ["construct", "theta-chain", "6", "4", "2", "2", "--verify"])
        assert code == 0
        assert "circumference: ok (4)" in out
        assert "high-degree-count: ok (12)" in out

    def test_essential_cx_verify(self, capsys):
        code, out, _ = run_cli(capsys, ["construct", "essential-cx", "3", "--verify"])
        assert code == 0
        assert "no-cycle-through-x: ok" in out

    def test_essential_cx_pendants(self, capsys):
        code, out, _ = run_cli(capsys, ["construct", "essential-cx", "3",
                                        "--pendants", "2,1,3"])
        assert code == 0
        assert decode_graph6(out.strip()).n > 0

    def test_dot_format(self, capsys):
        code, out, _ = run_cli(capsys, ["construct", "G", "13", "4", "4", "--format", "dot"])
        assert code == 0
        assert out.startswith("graph")

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, ["construct", "G", "13", "4", "4", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 13
        assert len(payload["high_degree"]) == 3

    def test_wrong_arity_exits_two(self, capsys):
        code, _, err = run_cli(capsys, ["construct", "H", "5"])
        assert code == 2
        assert "takes 2 integer parameter" in err

    def test_domain_error_exits_two(self, capsys):
        code, _, err = run_cli(capsys, ["construct", "essential-cx", "2"])
        assert code == 2

    def test_pendants_only_for_essential_cx(self, capsys):
        code, out, err = run_cli(capsys, ["construct", "G", "13", "4", "4",
                                          "--pendants", "1,2"])
        assert code == 2
        assert out == ""
        assert "--pendants applies to essential-cx only" in err


class TestSolveCommand:
    def feed(self, monkeypatch, text):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text + "\n"))

    def test_longest_path_stdin(self, capsys, monkeypatch):
        self.feed(monkeypatch, cycle6_text())
        code, out, _ = run_cli(capsys, ["solve", "longest-path"])
        assert code == 0
        assert "length = 6" in out
        assert "WITNESS path" in out

    def test_longest_path_json(self, capsys, monkeypatch):
        self.feed(monkeypatch, cycle6_text())
        code, out, _ = run_cli(capsys, ["solve", "longest-path", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["length"] == 6 and payload["optimal"] is True
        assert len(payload["witness"]) == 6

    def test_engine_option_removed(self, capsys, monkeypatch):
        self.feed(monkeypatch, cycle6_text())
        with pytest.raises(SystemExit) as info:
            main(["solve", "longest-path", "--engine", "dp"])
        assert info.value.code == 2
        assert "unrecognized arguments: --engine dp" in capsys.readouterr().err

    def test_input_file(self, capsys, tmp_path):
        target = tmp_path / "g.g6"
        target.write_text(cycle6_text() + "\n")
        code, out, _ = run_cli(capsys, ["solve", "longest-cycle", "--input", str(target)])
        assert code == 0
        assert "length = 6" in out

    def test_contains_path_none(self, capsys, monkeypatch):
        self.feed(monkeypatch, encode_graph6(build_graph(3, [])))
        code, out, _ = run_cli(capsys, ["solve", "contains-path", "--target", "2"])
        assert code == 0
        assert out == "NONE\n"

    def test_contains_path_requires_target(self, capsys, monkeypatch):
        self.feed(monkeypatch, cycle6_text())
        code, _, err = run_cli(capsys, ["solve", "contains-path"])
        assert code == 2
        assert "requires --target" in err

    def test_cycle_through_x(self, capsys, monkeypatch):
        self.feed(monkeypatch, encode_graph6(build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])))
        code, out, _ = run_cli(capsys, ["solve", "cycle-through-x", "--x", "0,2"])
        assert code == 0
        assert "WITNESS cycle" in out

    @pytest.mark.parametrize("x,bad", [("-1,0", -1), ("0,99", 99)])
    def test_cycle_through_x_out_of_range_exits_two(self, capsys, monkeypatch, x, bad):
        self.feed(monkeypatch, encode_graph6(build_graph(8, [(i, (i + 1) % 8) for i in range(8)])))
        code, out, err = run_cli(capsys, ["solve", "cycle-through-x", f"--x={x}"])
        assert code == 2
        assert out == ""
        assert err == f"error: X-vertex {bad} out of range for n=8\n"

    def test_cycle_through_x_requires_x(self, capsys, monkeypatch):
        self.feed(monkeypatch, cycle6_text())
        code, _, err = run_cli(capsys, ["solve", "cycle-through-x"])
        assert code == 2

    def test_path_cover(self, capsys, monkeypatch):
        g = build_graph(8, [(0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)])
        self.feed(monkeypatch, encode_graph6(g))
        code, out, _ = run_cli(capsys, ["solve", "path-cover", "--x", "0,1", "--t", "1"])
        assert code == 0
        assert "PATH 0:" in out and "PATH 1:" in out

    def test_path_cover_t_past_vertex_limit_exits_two(self, capsys, monkeypatch):
        # t+1 apexes join the 8 vertices: t = 503 reaches MAX_VERTICES = 512
        g = build_graph(8, [(0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)])
        self.feed(monkeypatch, encode_graph6(g))
        code, _, err = run_cli(capsys, ["solve", "path-cover", "--x", "0,1", "--t", "600"])
        assert code == 2
        assert "t=600 too large: the largest allowed t is 503" in err
        self.feed(monkeypatch, encode_graph6(g))
        code, out, _ = run_cli(capsys, ["solve", "path-cover", "--x", "0,1", "--t", "503"])
        assert code == 0
        assert "PATH 1:" in out

    def test_path_cover_hypothesis_violation_exits_two(self, capsys, monkeypatch):
        # four degree-1 X-vertices on one hub: |X| = 4 > d + t = 2
        g = build_graph(5, [(i, 4) for i in range(4)])
        self.feed(monkeypatch, encode_graph6(g))
        code, _, err = run_cli(capsys, ["solve", "path-cover", "--x", "0,1,2,3", "--t", "1"])
        assert code == 2
        assert "error:" in err

    def test_merge(self, capsys, monkeypatch):
        from itertools import combinations
        k5 = build_graph(5, list(combinations(range(5), 2)))
        self.feed(monkeypatch, encode_graph6(k5))
        code, out, _ = run_cli(capsys, ["solve", "merge", "--d", "4",
                                        "--family", "0,1;2,3"])
        assert code == 0
        assert "WITNESS path" in out

    def test_merge_requires_flags(self, capsys, monkeypatch):
        self.feed(monkeypatch, cycle6_text())
        code, _, err = run_cli(capsys, ["solve", "merge"])
        assert code == 2

    def test_budget_exits_three(self, capsys, monkeypatch):
        import random
        from itertools import combinations
        rng = random.Random(1)
        g = build_graph(16, [e for e in combinations(range(16), 2) if rng.random() < 0.5])
        self.feed(monkeypatch, encode_graph6(g))
        code, out, _ = run_cli(capsys, ["solve", "contains-path", "--target", "16",
                                        "--node-limit", "3"])
        assert code == 3
        assert "INCONCLUSIVE" in out

    def test_nan_time_limit_exits_two(self, capsys, monkeypatch):
        self.feed(monkeypatch, "EhEG")
        code, out, err = run_cli(capsys, ["solve", "longest-path", "--time-limit", "nan"])
        assert code == 2
        assert out == ""
        assert "time_limit must be positive" in err

    def test_node_limit_env_var(self, capsys, monkeypatch):
        import random
        from itertools import combinations
        rng = random.Random(1)
        g = build_graph(16, [e for e in combinations(range(16), 2) if rng.random() < 0.5])
        self.feed(monkeypatch, encode_graph6(g))
        monkeypatch.setenv("PATHFORCE_NODE_LIMIT", "3")
        code, out, _ = run_cli(capsys, ["solve", "contains-path", "--target", "16"])
        assert code == 3

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5"])
    def test_node_limit_env_var_rejected(self, capsys, monkeypatch, value):
        self.feed(monkeypatch, "EhEG")
        monkeypatch.setenv("PATHFORCE_NODE_LIMIT", value)
        code, out, err = run_cli(capsys, ["solve", "longest-path"])
        assert (code, out) == (2, "")
        assert err == f"error: PATHFORCE_NODE_LIMIT must be a positive integer, got '{value}'\n"

    def test_empty_input_exits_two(self, capsys, monkeypatch):
        self.feed(monkeypatch, "")
        code, _, err = run_cli(capsys, ["solve", "longest-path"])
        assert code == 2
        assert "empty graph input" in err


class TestOracleCommand:
    def test_text_report(self, capsys):
        code, out, _ = run_cli(capsys, ["oracle", "theta-psi"])
        assert code == 0
        assert "suite theta-psi: pass" in out

    def test_json_byte_identical(self, capsys):
        code1, out1, _ = run_cli(capsys, ["oracle", "jackson", "--trials", "3", "--json"])
        code2, out2, _ = run_cli(capsys, ["oracle", "jackson", "--trials", "3", "--json"])
        assert code1 == code2 == 0
        assert out1 == out2
        assert json.loads(out1)["runtime"] is None

    def test_timings_flag(self, capsys):
        code, out, _ = run_cli(capsys, ["oracle", "theta-psi", "--json", "--timings"])
        assert code == 0
        assert json.loads(out)["runtime"] is not None

    def test_max_n_out_of_range_exits_two(self, capsys):
        code, _, err = run_cli(capsys, ["oracle", "formula-vs-oracle", "--max-n", "12"])
        assert code == 2
        assert "max-n out of range" in err

    @pytest.mark.parametrize("argv", [["jackson", "--trials", "0"],
                                      ["merge", "--trials", "-5"],
                                      ["construction-invariants", "--max-n", "1"],
                                      ["theta-psi", "--trials", "0"],
                                      ["theta-psi", "--max-n", "8"],
                                      ["jackson", "--trials", "2", "--max-n", "1"],
                                      ["formula-vs-oracle", "--max-n", "3", "--trials", "0"],
                                      ["construction-invariants", "--trials", "2"]])
    def test_empty_run_exits_two(self, capsys, argv):
        code, out, err = run_cli(capsys, ["oracle", *argv])
        assert code == 2
        assert out == ""
        assert "error:" in err

    @pytest.mark.parametrize("jobs", [0, -1, (os.cpu_count() or 1) + 1])
    def test_jobs_out_of_range_exits_two(self, capsys, monkeypatch, jobs):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")
        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        code, out, err = run_cli(capsys, ["oracle", "jackson", "--trials", "3",
                                          "--jobs", str(jobs)])
        assert code == 2
        assert out == ""
        assert "--jobs must be between 1 and" in err


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def declared_console_script(name):
    """The ``module:function`` that ``[project.scripts]`` in pyproject.toml names.

    A regex rather than ``tomllib``, which Python 3.10 lacks.
    """
    section = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)",
                        PYPROJECT.read_text(), re.M | re.S)
    match = section and re.search(rf'^{re.escape(name)}\s*=\s*"([^"]+)"', section[1], re.M)
    assert match, f"no console script {name!r} in {PYPROJECT}"
    module, _, function = match.group(1).partition(":")
    return getattr(importlib.import_module(module), function)


class TestConsoleScript:
    def test_entry_point_runs(self):
        # Without an install there is no executable; ``python -m pathforce``
        # runs the same function, as long as it is the declared target.
        assert declared_console_script("pathforce") is pathforce.__main__.main
        executable = shutil.which("pathforce")
        command = [executable] if executable else [sys.executable, "-m", "pathforce"]
        package_root = str(Path(pathforce.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(command + ["phi", "40", "4", "4", "--conjecture"],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": pythonpath})
        assert proc.returncode == 0
        assert "REFUTES conjectured bound" in proc.stdout


def test_import_leaves_multiprocessing_out():
    # a pool is started only by --jobs above one, so importing must not load it
    package_root = str(Path(pathforce.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", "import sys, pathforce, pathforce.cli; "
                           "print('multiprocessing' in sys.modules)"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": pythonpath})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def run_fresh_process(argv, env=None):
    package_root = str(Path(pathforce.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "pathforce"] + argv, capture_output=True,
                          text=True, env={**os.environ, **(env or {}), "PYTHONPATH": pythonpath})


class TestParserReuse:
    def test_repeated_main_calls_match_fresh_processes(self, capsys, monkeypatch):
        # The usage text wraps at the terminal width, so fix it for both sides.
        monkeypatch.setenv("COLUMNS", "80")
        _build_parser.cache_clear()
        sequence = [
            (["solve", "longest-path", "--engine", "dp"], 2),
            (["phi", "40", "4", "4", "--conjecture"], 0),
            (["oracle", "jackson", "--trials", "0"], 2),
            (["phi", "40", "4", "4", "--conjecture"], 0),
        ]
        for argv, expected_code in sequence:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            fresh = run_fresh_process(argv, {"COLUMNS": "80"})
            assert (code, captured.out, captured.err) == \
                (fresh.returncode, fresh.stdout, fresh.stderr), argv
            assert code == expected_code, argv
        assert _build_parser.cache_info().misses == 1
