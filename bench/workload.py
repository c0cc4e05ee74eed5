"""Workload process: runs one workload's operations in sequence.

Started by ``run.py`` in a fresh interpreter with BLAS/OpenMP pinned to one
thread.  Each operation is one ``riversep.cli.main([...])`` call on inputs
made from the operation's seed; the next starts when the previous one has
returned and its outputs have been checked.  Between operations it takes
samples from the calibration process (``calibrate.py``) and times fresh
imports for set-up.  Prints one JSON report on stdout.

    python3 bench/workload.py --workload NAME --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import riversep  # noqa: E402
import riversep.cli  # noqa: E402

import daily  # noqa: E402
from tracer import Tracer  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"


class WrongOutput(Exception):
    """An operation's outputs contradict the reference; the run is not correct."""


class NotAchieved(Exception):
    """An operation ran and reported truthfully, but did not reach the
    result the package promises (counted as failed, not as wrong)."""


def _tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def _read_csv(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    """Header, first column and numeric body of a CSV written by the CLI."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    body = np.array([[float(c) for c in r[1:]] for r in rows])
    return header, [r[0] for r in rows], body


class FixtureRun:
    """``riversep run`` on the bundled quarterly fixture and its committed
    config; the headline number, with FA about 97% of an operation."""

    nominal_op_s = 2.2
    warmup = 1
    # calibration loops per sample: about 5% of an operation's time
    cal_loops = 4
    # manifest (rows, columns) per stage: ingest, filter, annual_mean,
    # drop_na_columns, drop_redundant, difference
    stages = [(204, 32), (200, 30), (51, 30), (51, 17), (51, 11), (50, 11)]
    loadings_atol = 1e-6
    # FA objective evaluations per k in the ROADMAP baseline.  Reported next
    # to the traced counts, not gated: an FA change may lower them.
    baseline_evals = {"fa.evals.k1": 40, "fa.evals.k2": 218, "fa.evals.k3": 49}

    def __init__(self):
        self.reference = json.loads((BENCH / "reference" / "fixture_run.json").read_text())
        self.digest = None

    def prepare(self, op_dir: Path, op_seed: int):
        op_dir.mkdir()
        for name in ("pipeline.json", "station_fixture.rdb"):
            shutil.copyfile(FIXTURES / name, op_dir / name)
        return ["run", str(op_dir / "pipeline.json")], None

    def check(self, op_dir: Path, ctx) -> None:
        out = op_dir / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        got = [(s["rows"], s["columns"]) for s in manifest["stages"]]
        if got != [tuple(s) for s in self.stages]:
            raise WrongOutput(f"stage counts {got}")
        digest = _tree_digest(out)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            raise WrongOutput("output tree differs from the first operation's")
        summary = json.loads((out / "fa_summary.json").read_text())
        if summary["selected_k"] != self.reference["selected_k"]:
            raise WrongOutput(f"selected_k {summary['selected_k']}")
        for k, ref in self.reference["fa_loadings"].items():
            header, labels, body = _read_csv(out / f"fa_k{k}_loadings.csv")
            if header != ref["header"] or labels != ref["variables"]:
                raise WrongOutput(f"fa_k{k}_loadings.csv layout")
            if not np.allclose(body, ref["values"], rtol=0.0, atol=self.loadings_atol):
                raise WrongOutput(f"fa_k{k}_loadings.csv values")


class DailyRecord:
    """``riversep preprocess`` on a seeded 60-year daily record; parse,
    every preprocessing stage and CSV writing, no model."""

    nominal_op_s = 1.5
    warmup = 1
    cal_loops = 3
    # Operations cycle over this many distinct records; generating and
    # recomputing one costs a quarter of an operation.
    distinct_inputs = 4
    rtol = 1e-10
    atol = 1e-9

    def __init__(self):
        self.records = {}  # seed -> (file name, expected preprocessed table)

    def prepare(self, op_dir: Path, op_seed: int):
        records = op_dir.parent / "records"
        if op_seed not in self.records:
            records.mkdir(exist_ok=True)
            data, values = daily.generate(op_seed)
            name = f"daily-{op_seed}.rdb"
            (records / name).write_bytes(data)
            self.records[op_seed] = (name, daily.expected_preprocessed(values))
        name, expected = self.records[op_seed]
        op_dir.mkdir()
        (op_dir / "pipeline.json").write_text(daily.config_json(f"../records/{name}", "out"))
        return ["preprocess", str(op_dir / "pipeline.json")], expected

    def check(self, op_dir: Path, reference) -> None:
        codes, years, expected = reference
        header, index, body = _read_csv(op_dir / "out" / "preprocessed.csv")
        if header != ["year"] + codes or index != [str(y) for y in years]:
            raise WrongOutput(
                f"preprocessed.csv is {len(index)}x{len(header) - 1}, "
                f"expected {expected.shape[0]}x{expected.shape[1]}"
            )
        if not np.allclose(body, expected, rtol=self.rtol, atol=self.atol):
            raise WrongOutput("preprocessed.csv values differ from the numpy recomputation")
        if not (op_dir / "out" / "ingested.csv").stat().st_size:
            raise WrongOutput("ingested.csv is empty")


class SynthRecovery:
    """``riversep synth-bench --rows 5000 --replicates 10``: 40 FastICA and
    40 PCA fits on 2-3 column data; ICA, PCA and small eigensolves."""

    # An operation takes about 0.25 s, and 0.3 s in the host's slow phases.
    # About 10% of seeds fail (see README.md), and success_rate is a share
    # over the run's seeds, so the run takes as many as fit.
    nominal_op_s = 0.25
    warmup = 2
    cal_loops = 1
    rows = 5000
    replicates = 10
    # Acceptance criterion 04 asks for at least 9 of 10 ICA recoveries with
    # Amari error below 0.05; with the tenth at most 1, the mean over 10
    # replicates stays below 0.1 * 1 + 0.9 * 0.05 = 0.145.  Gaussian sources
    # are not separable, so two_gaussian is recorded but not gated.
    ica_mean_amari_max = 0.145
    gated = ("two_uniform", "three_uniform", "two_laplace")

    def prepare(self, op_dir: Path, op_seed: int):
        argv = [
            "synth-bench",
            "--rows", str(self.rows),
            "--replicates", str(self.replicates),
            "--seed", str(op_seed),
            "--out", str(op_dir),
        ]
        return argv, None

    def check(self, op_dir: Path, ctx) -> None:
        summary = json.loads((op_dir / "synth_summary.json").read_text())
        amari = summary["mean_amari"]
        n_lines = len((op_dir / "synth_bench.csv").read_text().splitlines())
        if n_lines != 1 + 4 * self.replicates * 2 or len(amari) != 8:
            raise WrongOutput(f"synth_bench.csv has {n_lines} lines, {len(amari)} means")
        if not all(0.0 <= v <= 1.0 for v in amari.values()):
            raise WrongOutput("an Amari error outside [0, 1]")
        for name in self.gated:
            ica, pca = amari[f"{name}/ica"], amari[f"{name}/pca"]
            if not ica < self.ica_mean_amari_max:
                raise NotAchieved(f"{name}: ICA mean Amari error {ica:.4f}")
            if not pca > ica:
                raise NotAchieved(f"{name}: PCA mean Amari error {pca:.4f} <= ICA's {ica:.4f}")


WORKLOADS = {
    "fixture_run": FixtureRun,
    "daily_record": DailyRecord,
    "synth_recovery": SynthRecovery,
}


def op_seeds(seed: int, n: int, distinct: int | None = None) -> list[int]:
    """``n`` per-operation seeds drawn from the workload seed; with
    ``distinct``, that many seeds repeated in turn."""
    rng = random.Random(seed)
    drawn = [rng.randrange(2**31 - 1000) for _ in range(distinct or n)]
    return [drawn[i % len(drawn)] for i in range(n)]


# Timings are reported at the machine speed at which the calibration loop
# (calibrate.py) takes this long: about its time on the 2-core VM the
# benchmark was written on.
CAL_REF_S = 0.025


class Calibrator:
    """The calibration process (``calibrate.py``); one sample per call."""

    def __init__(self, loops: int):
        self.loops = loops
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "calibrate.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> tuple[float, float]:
        """Wall and CPU seconds per calibration loop, over ``loops`` loops."""
        self.proc.stdin.write(f"{self.loops}\n")
        self.proc.stdin.flush()
        wall, cpu = map(float, self.proc.stdout.readline().split())
        self.samples.append((wall, cpu))
        return wall, cpu

    def close(self) -> None:
        if self.proc.stdin:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import riversep.cli; "
    "print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Wall time of ``import riversep.cli`` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        check=True,
        text=True,
        timeout=60,
    ).stdout
    return float(out)


def blas_info() -> dict:
    deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    # read the thread count back from numpy's bundled OpenBLAS, where present
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        try:
            threads = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_()
        except (OSError, AttributeError):
            pass
    return {
        "name": deps.get("name"),
        "version": deps.get("version"),
        "threads_reported": threads,
        "env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "riversep": riversep.__version__,
        "blas": blas_info(),
    }


class Runner:
    def __init__(self, workload, work_dir: Path):
        self.workload = workload
        self.work_dir = work_dir
        self.n_ops = 0
        self.failures: list = []

    def op(self, op_seed: int, tracer: Tracer | None = None) -> tuple[float, float, bool]:
        """One operation: prepare, call ``main``, check, clean up.

        Returns wall and CPU seconds of the ``main`` call, and whether it
        completed (did not end in an error)."""
        op_id = self.n_ops
        self.n_ops += 1
        op_dir = self.work_dir / f"op{op_id}"
        argv, ctx = self.workload.prepare(op_dir, op_seed)
        gc.collect()
        if tracer is not None:
            tracer.begin(op_id)
            tracer.install()
        kind = problem = None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            rc = riversep.cli.main(argv)
        except Exception:  # a traceback escaping the CLI fails the op, not the run
            rc = None
            kind, problem = "error", traceback.format_exc(limit=-3)
        finally:
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
            if tracer is not None:
                tracer.uninstall()
        if rc is not None and rc != 0:
            kind, problem = "error", f"exit code {rc}"
        elif rc == 0:
            try:
                self.workload.check(op_dir, ctx)
            except NotAchieved as exc:
                kind, problem = "not_achieved", str(exc)
            except (WrongOutput, OSError, ValueError, KeyError, IndexError) as exc:
                kind, problem = "wrong", f"{type(exc).__name__}: {exc}"
        if kind is not None:
            self.failures.append({"op": op_id, "seed": op_seed, "kind": kind, "problem": problem})
        shutil.rmtree(op_dir, ignore_errors=True)
        return wall, cpu, kind != "error"


# A tail needs ten samples beyond it (see tail()).
MIN_TIMED_OPS = 11


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and that
    percentile; the maximum when failed operations left ten or fewer."""
    ordered = sorted(values)
    i = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[i], 100.0 * i / max(len(ordered) - 1, 1)


def timed_ops(workload, seconds: float) -> int:
    """Operation count: fixed by ``--seconds`` and the workload's nominal
    cost, never by a clock, so every run of a seed does the same work."""
    return max(MIN_TIMED_OPS, round(seconds / workload.nominal_op_s))


# Fresh-interpreter imports per run, spread over the timed operations.  The
# workload process has already imported riversep.cli, which wrote its .pyc.
SETUP_SAMPLES = 4


def run_plain(runner: Runner, seeds: list[int], warmup: int, cal: Calibrator) -> dict:
    """Timed operations, each between two calibration samples.

    The ``*_ref_s`` metrics are the operations' summed time over the summed
    calibration time around them, times ``CAL_REF_S``.  ``setup_s`` is the
    median of fresh imports spread over the run, in plain seconds.  An
    operation that ended in an error did not do the work: it counts as
    failed, not in the timings."""
    for s in seeds[:warmup]:
        runner.op(s)
    timed = seeds[warmup:]
    setup_at = {round(k * len(timed) / SETUP_SAMPLES) for k in range(SETUP_SAMPLES)}
    walls, cpus, cal_walls, cal_cpus, setups = [], [], [], [], []
    before = cal.sample()
    for i, s in enumerate(timed):
        if i in setup_at:
            setups.append(import_seconds())
            before = cal.sample()
        wall, cpu, completed = runner.op(s)
        after = cal.sample()
        if completed:
            walls.append(wall)
            cpus.append(cpu)
            cal_walls.append((before[0] + after[0]) / 2)
            cal_cpus.append((before[1] + after[1]) / 2)
        before = after
    value, pct = tail(walls)
    return {
        "wall_ref_s": CAL_REF_S * sum(walls) / sum(cal_walls),
        "cpu_ref_s": CAL_REF_S * sum(cpus) / sum(cal_cpus),
        "setup_s": statistics.median(setups),
        "setup_samples_s": setups,
        "wall_s": statistics.median(walls),
        "wall_s_tail": value,
        "tail_percentile": pct,
        "throughput_ops_s": len(walls) / sum(walls),
        "cpu_s": statistics.median(cpus),
        "timed_ops": len(walls),
        "walls": walls,
    }


# Deterministic work counts that two traced runs must repeat exactly.
def work_counts(summary: dict) -> dict:
    counts = {f"calls.{k}": v[0] for k, v in sorted(summary["fn"].items())}
    counts.update({f"fa.evals.k{k}": n for k, n in sorted(summary["evals_by_k"].items())})
    for key, attrs in summary["attrs"]:
        for name in ("bytes_in", "rows_in", "bytes_out", "iterations"):
            if name in attrs:
                slot = f"{key}.{name}"
                counts[slot] = counts.get(slot, 0) + attrs[name]
    return counts


LAYERS = (
    "cli", "config", "ingest", "preprocess", "pca", "ica",
    "fa", "linalg", "diagnostics", "synth", "report",
)
FN_SECONDS = (
    "fa.profiled_discrepancy", "linalg.svd",
    "ingest.parse_rdb", "ingest.emit_csv", "ingest.filter_table",
    "preprocess.annual_mean", "preprocess.emit_annual_csv",
    "preprocess.drop_redundant", "preprocess.difference",
    "ica.fast_ica", "ica.whiten", "pca.fit_pca", "pca.scores",
    "synth.generate_scenario", "synth.evaluate_recovery",
    "diagnostics.acf", "diagnostics.mutual_information_discrete",
    "report.write_json", "config.load_config",
)


def layer_metrics(summary: dict) -> dict:
    """Per-layer metrics of one traced operation, as (value, unit)."""
    fn, layer = summary["fn"], summary["layer"]
    m = {}
    for name in LAYERS:
        calls, busy, own = layer.get(name, (0, 0.0, 0.0))
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.busy_s"] = (busy, "s")
        m[f"{name}.self_s"] = (own, "s")
    for key in FN_SECONDS:
        m[f"{key}.s"] = (fn.get(key, (0, 0.0, 0.0))[1], "s")
    eig = fn.get("linalg.sym_eigen", (0, 0.0, 0.0))
    m["linalg.sym_eigen.calls"] = (eig[0], "count")
    m["linalg.sym_eigen.s"] = (eig[1], "s")
    m["linalg.sym_eigen.self_s"] = (eig[2], "s")

    fits = [a for key, a in summary["attrs"] if key == "fa.fit_fa_ml"]
    icas = [a for key, a in summary["attrs"] if key == "ica.fast_ica"]
    fit_s = summary["fit_s_by_k"]
    for k in (1, 2, 3):
        m[f"fa.fit.k{k}.s"] = (fit_s.get(k, 0.0), "s")
        m[f"fa.evals.k{k}"] = (summary["evals_by_k"].get(k, 0), "count")
    m["fa.converged_ratio"] = (
        sum(a["converged"] for a in fits) / len(fits) if fits else 0.0, "ratio"
    )
    m["ica.iterations"] = (sum(a["iterations"] for a in icas), "count")
    m["ica.converged_ratio"] = (
        sum(a["converged"] for a in icas) / len(icas) if icas else 0.0, "ratio"
    )
    for name, unit in (("bytes_in", "bytes"), ("rows_in", "count"), ("bytes_out", "bytes")):
        m[f"ingest.{name}"] = (
            sum(a.get(name, 0) for key, a in summary["attrs"] if key.startswith("ingest.")),
            unit,
        )
    return m


def run_traced(runner: Runner, seeds: list[int], warmup: int, tracer: Tracer) -> dict:
    """Each seed runs once untraced and once traced, in alternating order,
    so the traced-minus-untraced medians give the tracing overhead.  The
    first traced operation is repeated at the end and must give the same
    work counts."""
    for s in seeds[:warmup]:
        runner.op(s)
    plain, traced, per_op = [], [], []
    for i, s in enumerate(seeds[warmup:]):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                op_id = runner.n_ops
                traced.append(runner.op(s, tracer)[0])
                per_op.append(tracer.op_summary(op_id))
            else:
                plain.append(runner.op(s)[0])
    first_seed = seeds[warmup]
    op_id = runner.n_ops
    runner.op(first_seed, tracer)
    repeat = work_counts(tracer.op_summary(op_id))
    first = work_counts(per_op[0])
    mismatched = sorted(k for k in set(first) | set(repeat) if first.get(k) != repeat.get(k))

    per_metric = [layer_metrics(s) for s in per_op]
    metrics = {}
    for name, (_, unit) in per_metric[0].items():
        values = [pm[name][0] for pm in per_metric]
        # times vary with the machine, so take the median; counts are exact,
        # so take the mean, which repeats exactly for a given seed list
        value = statistics.median(values) if unit == "s" else sum(values) / len(values)
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(traced) - statistics.median(plain),
        "unit": "s",
    }
    return {
        "metrics": metrics,
        "traced_ops": len(traced),
        "work_counts": first,
        "work_counts_mismatched": mismatched,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    n_timed = timed_ops(workload, args.seconds)
    distinct = getattr(workload, "distinct_inputs", None)
    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    runner = Runner(workload, work_dir)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    cal = Calibrator(workload.cal_loops)
    try:
        if args.trace:
            tracer = Tracer()
            report["tracer_self_test"] = tracer.self_test()
            if not report["tracer_self_test"]["ok"]:
                runner.failures.append({"op": None, "kind": "wrong", "problem": "tracer self-test"})
            seeds = op_seeds(args.seed, workload.warmup + max(2, n_timed // 2), distinct)
            cal.sample()
            report.update(run_traced(runner, seeds, workload.warmup, tracer))
            cal.sample()
            baseline = getattr(workload, "baseline_evals", None)
            if baseline:
                got = {k: report["work_counts"].get(k) for k in baseline}
                report["fa_evals"] = {"baseline": baseline, "traced": got, "equal": got == baseline}
            if report["work_counts_mismatched"]:
                runner.failures.append(
                    {"op": None, "kind": "wrong", "problem": "work counts differ on repeat"}
                )
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.dump(spans_path)
            report["spans"] = str(spans_path.relative_to(ROOT))
        else:
            seeds = op_seeds(args.seed, workload.warmup + n_timed, distinct)
            report.update(run_plain(runner, seeds, workload.warmup, cal))
    finally:
        cal.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    report.update(
        {
            "attempted": runner.n_ops,
            "failed": len({f["op"] for f in runner.failures if f["op"] is not None}),
            "failures": runner.failures,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "calibration_s": statistics.median(w for w, _ in cal.samples),
            "environment": environment(),
        }
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
