"""Benchmark of the bargmann package, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py), each one closed loop with a single caller in
this fresh process:

    circle-map     generalized Bergman-Dirichlet forward-map rows on the
                   transforms suite's extraction circle
    point-queries  in-process ``bargmann.cli.main`` requests
    disk-batch     make_transform, isometry, Gram and round trip per case,
                   and the special, quadrature and operators verify suites

The package is imported from ``src/`` of the checkout and nowhere else.
After the timed region every output is checked against an oracle.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the line before it holds the run metadata.

A run does a fixed number of operations, the workload's nominal rate
times ``--seconds`` (Workload.operations), rather than running until a
deadline: the same seed then always runs and checks the same operations,
so its attempted and failed counts are the same on every run.  At the
baseline speed a run measures about ``--seconds``.

``--trace 0`` splits the operations over three fresh processes, each with
its own share of the seed's inputs, and pools them; one process's luck
(memory placement, huge pages) would otherwise move a whole run.  It
reports the end-to-end metrics:

    setup_s      median of six set-ups (the three processes and three more
                 fresh ones), each the import of bargmann plus the
                 workload's one-time builds
    op_p50_ms    median latency of one operation
    op_tail_ms   latency at the highest percentile with at least ten
                 operations beyond it, 1 - 10/n, never below the median
                 (about p98 on point-queries; the median where a run has
                 fewer than twenty operations)
    ops_per_s    operations completed per second of operation time
    peak_rss_mb  largest peak resident set (ru_maxrss) of the three
                 processes by the end of their timed regions

``--trace 1`` reports per-layer metrics from spans recorded around the
package's layer functions (tracing.py), and writes the spans to
``perfbench/out/``.  It also runs the same loop untraced in a fresh
process; trace.overhead_frac compares the two over their common operations.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SEGMENTS = 3          # fresh processes that share one untraced run's seconds
SETUP_SAMPLES = 6
CHILD_TIMEOUT_S = 170
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchmarkError(Exception):
    pass


def load_bargmann():
    """Import bargmann from this checkout's src/, refusing any other copy."""
    if not (SRC / "bargmann" / "__init__.py").is_file():
        raise BenchmarkError(f"no bargmann sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bargmann
    import bargmann.cli  # noqa: F401  (not imported by the package itself)
    if Path(bargmann.__file__).resolve().parent != SRC / "bargmann":
        raise BenchmarkError(f"imported bargmann from {bargmann.__file__}, not {SRC}")
    sys.path.insert(0, str(HERE))
    return bargmann


def set_up(args, workdir):
    """Import and the workload's one-time builds; returns (workload, seconds).

    Segment i of seed s draws its inputs from stream 1000 s + i.
    """
    start = time.perf_counter()
    bargmann = load_bargmann()
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](bargmann, 1000 * args.seed + args.segment,
                                        str(workdir))
    workload.setup()
    return workload, time.perf_counter() - start


def timed_loop(workload, seconds: float):
    """Run the operations of a ``seconds`` run back to back."""
    latencies, done = [], []
    inputs = workload.inputs()
    for _ in range(workload.operations(seconds)):
        item = next(inputs)
        workload.prepare(item)
        start = time.perf_counter()
        output = workload.execute(item)
        latencies.append(time.perf_counter() - start)
        done.append((item, output))
    return latencies, done


def child(args, role: str, seconds: float = 0.0, segment: int = 0) -> dict:
    """Run this script in a fresh process and return its last JSON line."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", "0",
            "--role", role, "--segment", str(segment)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          cwd=ROOT)
    if proc.returncode != 0:
        raise BenchmarkError(f"{role} child failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "bargmann").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def read_loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def read_cpu_times():
    """Machine-wide (total, steal) jiffies from /proc/stat, or None."""
    try:
        fields = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return None
    return sum(fields[:8]), fields[7]


def metadata(args) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "loadavg_at_start": read_loadavg(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "platform": platform.platform(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARIABLES},
        "git_commit": git_commit(), "source_sha256": source_digest(),
    }


def percentile(values, p: float) -> float:
    """Linear interpolation between order statistics (p in [0, 1])."""
    ordered = sorted(values)
    pos = p * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def tail_fraction(n: int) -> float:
    """The highest percentile with at least ten operations beyond it."""
    return max(0.5, 1.0 - 10.0 / n)


def run_segment(args, workdir) -> dict:
    """One fresh process's share of an untraced run, checked by the oracle."""
    workload, setup_s = set_up(args, workdir)
    if args.role == "setup-probe":
        return {"setup_s": setup_s}
    latencies, done = timed_loop(workload, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcome = workload.check(done)
    return {"setup_s": setup_s, "latencies": latencies, "peak_rss_mb": peak_rss_mb,
            "outcome": dataclasses.asdict(outcome)}


def run_untraced(args):
    """End-to-end metrics, pooled over SEGMENTS fresh processes."""
    parts = [child(args, "segment", args.seconds / SEGMENTS, i) for i in range(SEGMENTS)]
    setups = [p["setup_s"] for p in parts] + [
        child(args, "setup-probe")["setup_s"] for _ in range(SETUP_SAMPLES - SEGMENTS)]
    latencies = [t for p in parts for t in p["latencies"]]
    tail = tail_fraction(len(latencies))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ms": (1e3 * percentile(latencies, 0.5), "ms"),
        "op_tail_ms": (1e3 * percentile(latencies, tail), "ms"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in parts), "MB"),
    }
    info = {"operations": len(latencies), "tail_percentile": 100.0 * tail,
            "setup_samples_s": setups}
    return metrics, [p["outcome"] for p in parts], info


def run_traced(args, workdir, meta):
    """Per-layer metrics from one traced process, against an untraced twin."""
    from tracing import Tracer
    workload, _ = set_up(args, workdir)
    untraced = child(args, "segment", args.seconds)["latencies"]
    with Tracer(workload.b) as tracer:
        start = time.perf_counter()
        latencies, done = timed_loop(workload, args.seconds)
        wall = time.perf_counter() - start
    outcome = workload.check(done)
    n = min(len(untraced), len(latencies))
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_frac"] = (sum(latencies[:n]) / sum(untraced[:n]) - 1.0, "ratio")
    metrics["verify.checks_failed"] = (outcome.checks_failed, "count")
    metrics["oracle.accuracy_digits"] = (outcome.accuracy_digits, "digits")
    metrics["oracle.fail_frac"] = (outcome.failed / outcome.attempted, "ratio")
    metrics["oracle.uncertified"] = (outcome.uncertified, "count")
    info = {"operations": len(latencies),
            "self_time_share": dict(list(tracer.self_time_shares(wall).items())[:10])}
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl", {**meta, **info})
    return metrics, [dataclasses.asdict(outcome)], info


def run(args, workdir) -> dict:
    if args.role != "main":
        return run_segment(args, workdir)
    meta = metadata(args)
    cpu_before = read_cpu_times()
    if args.trace:
        metrics, outcomes, info = run_traced(args, workdir, meta)
    else:
        metrics, outcomes, info = run_untraced(args)
    total = {key: sum(o[key] for o in outcomes)
             for key in ("attempted", "failed", "unexpected")}
    meta.update(info, failed_known_defect=total["failed"] - total["unexpected"])
    cpu_after = read_cpu_times()
    if cpu_before and cpu_after and cpu_after[0] > cpu_before[0]:
        # share of the machine's CPU time taken by the hypervisor during the run
        meta["cpu_steal_frac"] = (cpu_after[1] - cpu_before[1]) / (cpu_after[0] - cpu_before[0])
    print(json.dumps({"run_metadata": meta}))
    return {
        "correct": total["unexpected"] == 0,
        "attempted": total["attempted"],
        "failed": total["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["circle-map", "point-queries", "disk-batch"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--role", choices=["main", "segment", "setup-probe"],
                        default="main", help=argparse.SUPPRESS)
    parser.add_argument("--segment", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        result = run(args, workdir)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
