"""riversep benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload fixture_run --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  This process starts one workload process
(``workload.py``) with BLAS/OpenMP pinned to one thread and waits for it.
It prints the workload's details on one JSON line and, as the last line,
the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones from the outside-in tracer.  ``--workload all`` runs
every workload in turn, prints each metric by name with its unit, and ends
with one result whose metrics are named ``<workload>/<metric>``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("fixture_run", "daily_record", "synth_recovery")

TIMEOUT_S = 170

THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# Gated metrics; times are at the calibration's reference speed.
UNITS = {
    "wall_ref_s": "s",
    "cpu_ref_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "success_rate": "ratio",
}
# Raw timings, in the details and in ``--workload all``'s table.  They move
# with the host's speed (see README.md, "Noise").
RAW_UNITS = {
    "wall_s": "s",
    "wall_s_tail": "s",
    "throughput_ops_s": "1/s",
    "cpu_s": "s",
    "calibration_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], deadline: float) -> str:
    """Run a child interpreter in the checkout, wait for it, return stdout.

    On a timeout or an exception the child is killed and waited for; the
    calibration process it started ends when its input closes."""
    proc = subprocess.run(
        [sys.executable] + args,
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        timeout=max(1.0, deadline - time.monotonic()),
        check=True,
        text=True,
    )
    return proc.stdout


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Returns (details, result) for one workload run."""
    deadline = time.monotonic() + TIMEOUT_S
    out = run_child(
        [
            str(BENCH / "workload.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        deadline,
    )
    report = json.loads(out.strip().splitlines()[-1])
    attempted, failed = report["attempted"], report["failed"]
    report["success_rate"] = (attempted - failed) / attempted
    if trace:
        metrics = report.pop("metrics")
    else:
        metrics = {k: {"value": report[k], "unit": u} for k, u in UNITS.items()}
    result = {
        # wrong outputs make a run incorrect; operations that end in an
        # error or miss the package's promise are counted as failed
        "correct": not any(f["kind"] == "wrong" for f in report["failures"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return report, result


def check_checkout() -> str | None:
    for need in ("src/riversep/cli.py", "tests/fixtures/pipeline.json"):
        if not (ROOT / need).is_file():
            return f"{need} not found under {ROOT}; run from the root of a checkout"
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="riversep benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a SIGTERM unwinds like an exception, so the workload process is killed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    problem = check_checkout()
    if problem:
        print(f"bench: {problem}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        runs = [(n, *run_one(n, args.seed, args.seconds, args.trace)) for n in names]
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"bench: workload process failed: {exc}", file=sys.stderr)
        return 1
    for name, report, result in runs:
        print(json.dumps(report))
    if len(runs) == 1:
        print(json.dumps(runs[0][2]))
        return 0
    for name, report, result in runs:
        for metric, m in result["metrics"].items():
            print(f"{name:15s} {metric:34s} {m['value']:12.6g} {m['unit']}")
        if not args.trace:
            for metric, unit in RAW_UNITS.items():
                print(f"{name:15s} {metric:34s} {report[metric]:12.6g} {unit}  (raw, not gated)")
        print(f"{name:15s} correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
    combined = {
        "correct": all(r["correct"] for _, _, r in runs),
        "attempted": sum(r["attempted"] for _, _, r in runs),
        "failed": sum(r["failed"] for _, _, r in runs),
        "metrics": {
            f"{name}/{metric}": m for name, _, r in runs for metric, m in r["metrics"].items()
        },
    }
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
