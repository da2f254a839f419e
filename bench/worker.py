"""One pass of a benchmark workload, in a fresh process.

    python3 bench/worker.py --probe
    python3 bench/worker.py --workload NAME --seed N --pass-index I [--trace-out FILE]

--probe imports pathforce, prints "ready" and exits; run.py times it as the
set-up cost. Otherwise the worker issues the pass's requests through
pathforce.cli.main in-process, checks every answer after the timed loop,
and prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def import_pathforce():
    sys.path.insert(0, str(SRC))
    import pathforce
    import pathforce.cli
    if not Path(pathforce.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"pathforce imported from {pathforce.__file__}, not {SRC}")
    return pathforce


def call_cli(main, argv: list[str], stdin: str) -> tuple[int | None, str, str, float]:
    """Run main(argv) with swapped standard streams; exit code None on a crash."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), out, err
    start = perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed request, not a failed benchmark
        code = None
        err.write(traceback.format_exc())
    finally:
        latency = perf_counter() - start
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue(), latency


def load_reference(workload: str, seed: int):
    try:
        with open(BENCH / "reference.json", encoding="utf-8") as fh:
            return json.load(fh).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        return None


def check_pass(name: str, requests, answers, seed: int, pathforce):
    """Per-request (items, failure) after the timed loop; items count verified work."""
    import checks
    import workloads
    reference = None
    notes = []
    if name == "cli-queries":
        reference = load_reference(name, seed)
        if reference is None:
            notes.append("no recorded reference for this seed: "
                         "answers checked on their own only")
        elif reference["inputs"] != workloads.inputs_digest(requests):
            raise SystemExit("reference.json was recorded for other inputs; "
                             "re-run bench/record_reference.py")
    verdicts = []
    for i, (req, (code, out, err, _)) in enumerate(zip(requests, answers)):
        try:
            if code is None:
                raise checks.CheckFailure("exception: " + err.strip().splitlines()[-1])
            if name == "exhaustive-8":
                items = workloads.check_exhaustive(req, code, out)
            elif name == "lemma-trials":
                items = workloads.check_lemma(req, code, out)
            else:
                inv = workloads.invariant(req, code, out)
                if reference is not None:
                    workloads.compare(req, inv, reference["answers"][i])
                items = 1
            verdicts.append((items, None))
        except (checks.CheckFailure, ValueError, KeyError, TypeError) as exc:
            verdicts.append((0, f"{req.cls} {' '.join(req.argv)}: {exc}"))
    if name == "exhaustive-8":
        counts = tuple(len(pathforce.oracle.level_certs(n)) for n in range(1, 9))
        if counts != workloads.CLASS_COUNTS:
            verdicts = [(0, f"class counts {counts}, expected {workloads.CLASS_COUNTS}")
                        for _ in verdicts]
    return verdicts, notes


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--trace-out")
    args = ap.parse_args()
    pathforce = import_pathforce()
    if args.probe:
        print("ready", flush=True)
        return 0

    # imported only after the probe exit, so that set-up times pathforce alone
    import workloads
    requests = workloads.WORKLOADS[args.workload](args.seed, args.pass_index)
    tracer = None
    if args.trace_out:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    main_fn = pathforce.cli.main
    answers = []
    start = perf_counter()
    for req in requests:
        answers.append(call_cli(main_fn, req.argv, req.stdin))
    wall = perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.trace_out)
    verdicts, notes = check_pass(args.workload, requests, answers, args.seed, pathforce)
    result = {
        "pid": os.getpid(),
        "wall_s": wall,
        "requests": [[req.cls, ans[0], ans[3], items, failure]
                     for req, ans, (items, failure) in zip(requests, answers, verdicts)],
        "notes": notes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": tracer.metrics() if tracer else None,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
