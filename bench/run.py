"""pathforce benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; pathforce is imported from ./src, so
nothing needs to be installed. Workloads are defined in workloads.py and
the metrics in METRICS.md.

--trace 0 first times set-up (the median of SETUP_PROBES fresh interpreters
that import pathforce), then runs whole passes of the workload, each in a
fresh process with --jobs 1, until S seconds of passes are measured. It
reports the end-to-end metrics.

--trace 1 runs one untraced pass and one traced pass of the same requests
and reports the per-layer metrics, including trace.overhead_s. The spans go
to bench/out/.

Every answer is checked (see checks.py). The last line of standard output is
{"correct", "attempted", "failed", "metrics"}; the exit code is 0 only when
every answer was correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
OUT = BENCH / "out"

SETUP_PROBES = 11
RUN_LIMIT_S = 170  # a run must end within 180 s
# Fixed hash seed so that set and dict layouts, and with them timings, repeat.
# PATHFORCE_* settings (such as a default node limit) are left out, so that
# the workload depends only on the seed.
CHILD_ENV = {key: value for key, value in os.environ.items()
             if not key.startswith("PATHFORCE_")}
CHILD_ENV["PYTHONHASHSEED"] = "0"

sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS  # noqa: E402


def quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def probe_setup() -> float:
    """Seconds from spawning an interpreter until pathforce is imported."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), "--probe"], stdout=subprocess.PIPE,
                            text=True, cwd=ROOT, env=CHILD_ENV)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        if proc.wait(timeout=30) != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed")
    finally:
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return elapsed


def run_pass(workload: str, seed: int, pass_index: int, deadline: float,
             trace_out: Path | None = None) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--pass-index", str(pass_index)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=CHILD_ENV,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result


def provenance(seed: int) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                cwd=ROOT, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pathforce").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "jobs": 1,
    }


def summarize(passes: list[dict]) -> tuple[dict, dict, list[str]]:
    """End-to-end metrics, the per-class breakdown and the failures."""
    reqs = [r for p in passes for r in p["requests"]]
    latencies = [r[2] * 1000 for r in reqs]
    failures = [r[4] for r in reqs if r[4]]
    metrics = {
        # the median pass discounts a pass that a burst of host load slowed
        "items_per_s": (statistics.median(sum(r[3] for r in p["requests"]) / p["wall_s"]
                                          for p in passes), "1/s"),
        "latency_p50_ms": (quantile(latencies, 50), "ms"),
        "latency_p95_ms": (quantile(latencies, 95), "ms"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
    }
    by_class: dict[str, list] = defaultdict(list)
    for r in reqs:
        by_class[r[0]].append(r)
    classes = {}
    for cls, rows in sorted(by_class.items()):
        lat = [r[2] * 1000 for r in rows]
        classes[cls] = {"count": len(rows), "p50_ms": quantile(lat, 50),
                        "p95_ms": quantile(lat, 95), "total_s": sum(lat) / 1000,
                        "exit_codes": dict(Counter(str(r[1]) for r in rows))}
    return metrics, classes, failures


def run(args, deadline: float, stem: str) -> tuple[list[dict], dict]:
    """The passes of one run, plus the per-layer metrics of a traced run."""
    if args.trace:
        plain = run_pass(args.workload, args.seed, 0, deadline)
        traced = run_pass(args.workload, args.seed, 0, deadline, OUT / f"{stem}-spans.json")
        layers = dict(traced["layers"], **{"trace.overhead_s": traced["wall_s"] - plain["wall_s"]})
        return [plain, traced], {
            name: (value, "s" if name.endswith("_s") else
                   "ratio" if name.endswith("ratio") else "count")
            for name, value in layers.items()}
    setup = statistics.median(probe_setup() for _ in range(SETUP_PROBES))
    passes = []
    while not passes or sum(p["wall_s"] for p in passes) < args.seconds:
        if passes and time.monotonic() + 1.5 * passes[-1]["wall_s"] > deadline:
            break  # another pass would overrun the run's time limit
        passes.append(run_pass(args.workload, args.seed, len(passes), deadline))
    return passes, {"setup_s": (setup, "s")}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "pathforce" / "__init__.py").is_file():
        print(f"error: no pathforce sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        passes, metrics = run(args, deadline, stem)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    end_to_end, classes, failures = summarize(passes)
    if not args.trace:
        metrics.update(end_to_end)

    attempted = sum(len(p["requests"]) for p in passes)
    pids = [p["pid"] for p in passes]
    correct = not failures
    result = {"correct": correct, "attempted": attempted, "failed": len(failures),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    details = {"result": result, "provenance": provenance(args.seed),
               "workload": args.workload,
               "passes": len(passes), "measured_s": sum(p["wall_s"] for p in passes),
               "pass_pids": pids,
               "fresh_process_per_pass": len(set(pids)) == len(pids) and os.getpid() not in pids,
               "classes": classes,
               "notes": sorted({n for p in passes for n in p["notes"]}),
               "failures": failures[:50]}
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"requests {attempted}  (fresh process per pass, --jobs 1)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    if not args.trace:
        print(f"  {'error_rate':<44} {len(failures) / attempted:>14.6g} ratio"
              f"  ({len(failures)} failed / {attempted} attempted)")
    print(f"  {'class':<20} {'count':>6} {'p50_ms':>10} {'p95_ms':>10}  exit codes")
    for cls, row in classes.items():
        print(f"  {cls:<20} {row['count']:>6} {row['p50_ms']:>10.3f} {row['p95_ms']:>10.3f}  "
              f"{row['exit_codes']}")
    for note in details["notes"]:
        print(f"  note: {note}")
    for failure in failures[:10]:
        print(f"  FAILED: {failure}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
