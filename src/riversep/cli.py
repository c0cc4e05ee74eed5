"""Command-line surface: the full pipeline and each stage on its own.

``riversep run config.json`` ingests the configured record, applies the
preprocessing stages in order, fits the three decomposition models, writes
the diagnostics tables, and finishes with a manifest recording the config
hash, every stage's row/column counts, and the tool version.  The other
subcommands stop earlier in that chain and write only their own outputs,
which makes any stage inspectable in isolation.

Outputs carry no timestamps and all randomness is seeded, so rerunning a
command on identical inputs reproduces every file byte for byte.

Exit codes: 0 on success, 2 when the config (or command line, including a
negative ``--seed``) is invalid, 3 when a valid run fails while executing.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import replace
from functools import cache, cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, load_config
from .diagnostics import acf, mutual_information_matrix
from .errors import (
    ConfigError, MissingCells, OutOfRange, RiversepError, RuleInapplicable
)
from .fa import fa_dof, fit_fa_ml, smallest_adequate_k
from .ica import _ROWS_PER_COMPONENT, IcaConfig, fast_ica
from .ingest import Table, emit_csv, fetch_remote, parse_csv, parse_rdb
from .pca import explained_variance, fit_pca, kaiser_retain
from .preprocess import STAGES
from .report import (
    csv_field,
    csv_header,
    format_number,
    format_rows,
    keyed_lines,
    write_json,
)
from .synth import evaluate_recovery, generate_scenario

# Off-diagonal residuals at or below this make an FA fit "adequate".
_RESIDUAL_ADEQUACY = 0.05


class _StageFailure(Exception):
    """A pipeline stage raised; remembers which one for the error message."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage
        self.cause = cause


@contextmanager
def _stage(name: str, errors=RiversepError):
    """Report ``errors`` raised in the block as a failure of stage ``name``."""
    try:
        yield
    except errors as exc:
        raise _StageFailure(name, exc) from exc


class _Pipeline:
    """The configured chain from input record to model input.

    Each link (the parsed record, the staged table, the dense matrix) is
    computed on first use and kept, so a subcommand runs only the part of
    the chain its outputs read, and runs it once.
    """

    def __init__(self, cfg: RunConfig, offline=False):
        self.cfg = cfg
        self.offline = offline
        # one manifest entry per stage: its name, the table's shape after
        # it, and the codes it dropped, in input order
        self.stages = []

    def _record(self, name, before, after):
        kept = set(after.codes)
        self.stages.append(
            {
                "stage": name,
                "rows": after.n_rows,
                "columns": after.n_vars,
                "dropped": [c for c in before.codes if c not in kept],
            }
        )

    @cached_property
    def raw(self):
        """The input record as parsed."""
        cfg = self.cfg
        with _stage("ingest", (RiversepError, OSError)):
            if cfg.input_path is not None:
                data = cfg.input_path.read_bytes()
                if cfg.input_path.suffix.lower() == ".rdb":
                    raw = parse_rdb(data)
                else:
                    raw = parse_csv(data)
            else:
                r = cfg.remote
                data = fetch_remote(
                    r.site,
                    r.codes,
                    r.start,
                    r.end,
                    r.cache_dir,
                    r.url_template,
                    medium_code=r.medium_code,
                    offline=self.offline,
                )
                raw = parse_rdb(data)
        self._record("ingest", raw, raw)
        return raw

    @cached_property
    def table(self):
        """The record after the configured stages, applied in order."""
        table = self.raw
        for name in self.cfg.pipeline:
            # an overflowing stage is reported by the model-input check,
            # not by numpy warnings on stderr
            with _stage(name), np.errstate(over="ignore", invalid="ignore"):
                staged = STAGES[name].step(table, self.cfg)
            self._record(name, table, staged)
            table = staged
        return table

    @cached_property
    def model_input(self) -> Table:
        """The staged table, checked to be dense and finite."""
        table = self.table
        values = table.values
        missing = int(np.isnan(values).sum())
        if missing:
            raise _StageFailure("model input", MissingCells(missing))
        # parsed cells are finite, but a stage's arithmetic can overflow
        infinite = int(np.isinf(values).sum())
        if infinite:
            raise _StageFailure(
                "model input",
                RiversepError(f"table has {infinite} infinite cells; a stage overflowed"),
            )
        return table


def _write(out_dir: Path, name: str, text: str) -> str:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text)
    return name


def _table_csv(header, keys, lines) -> str:
    """CSV text: the header, then per key a line of the key followed by that
    row's formatted ``lines`` entry.  Header fields and keys (variable
    codes) are quoted where :mod:`csv` needs to, each distinct key once."""
    quoted = {key: csv_field(key) for key in dict.fromkeys(keys)}
    return csv_header(header) + keyed_lines(map(quoted.get, keys), lines)


def _loading_lines(rows):
    """Rows of a loading table, one ``%`` per row: ``%.7f`` writes a cell as
    :func:`~riversep.report.format_loading` does."""
    row_format = ",".join(["%.7f"] * rows.shape[1])
    return (row_format % tuple(row) for row in rows.tolist())


def _write_ingested(pipe: _Pipeline) -> list:
    return [_write(pipe.cfg.output_dir, "ingested.csv", emit_csv(pipe.raw))]


def _write_preprocessed(pipe: _Pipeline) -> list:
    return [_write(pipe.cfg.output_dir, "preprocessed.csv", emit_csv(pipe.table))]


def _write_pca(pipe: _Pipeline) -> list:
    cfg = pipe.cfg
    matrix, labels = pipe.model_input.values, pipe.model_input.codes
    with _stage("pca"):
        model = fit_pca(matrix, scale=cfg.pca_scale)
    header = ["variable"] + [f"PC{j + 1}" for j in range(model.n_components)]
    rows = np.vstack([model.loadings, model.stdevs])
    text = _table_csv(header, [*labels, "stdev"], _loading_lines(rows))
    files = [_write(cfg.output_dir, "pca_loadings.csv", text)]

    try:
        kaiser = kaiser_retain(model)
        explained = explained_variance(model, kaiser)
    except RuleInapplicable:
        # eigenvalue-above-one reasoning needs the correlation scale
        kaiser = None
        explained = None
    # eigenvalues as the model holds them, so a negative rounding one reads 0
    eigenvalues = model.stdevs**2
    smallest = float(eigenvalues[-1])
    summary = {
        "center": True,  # PCA always centers
        "scale": model.scaled,
        "n_rows": int(matrix.shape[0]),
        "stdevs": [float(s) for s in model.stdevs],
        "kaiser_components": kaiser,
        "explained_variance_kaiser": explained,
        "min_eigenvalue": smallest,
        "condition_number": float(eigenvalues[0]) / smallest if smallest > 0 else None,
    }
    write_json(cfg.output_dir / "pca_summary.json", summary)
    files.append("pca_summary.json")
    return files


def _write_ica(pipe: _Pipeline) -> list:
    cfg = pipe.cfg
    table = pipe.model_input
    k = cfg.ica_components
    with _stage("ica"):
        if k is None:
            k = kaiser_retain(fit_pca(table.values, scale=True))
        model = fast_ica(table.values, replace(cfg.ica, n_components=k))

    codes = [f"IC{j + 1}" for j in range(k)]
    sources = Table(table.index_name, table.index, codes, model.sources)
    files = [_write(cfg.output_dir, "ica_sources.csv", emit_csv(sources))]
    summary = {
        "n_components": k,
        "converged": model.converged,
        "iterations": model.iterations,
        "final_delta": model.delta_history[-1] if model.delta_history else None,
        "seed": cfg.ica.seed,
        "contrast": cfg.ica.contrast,
        "tol": cfg.ica.tol,
        "max_iter": cfg.ica.max_iter,
    }
    write_json(cfg.output_dir / "ica_summary.json", summary)
    files.append("ica_summary.json")
    return files


def _write_fa(pipe: _Pipeline) -> list:
    cfg = pipe.cfg
    matrix, labels = pipe.model_input.values, pipe.model_input.codes
    p = len(labels)
    k_used = 0
    for k in range(1, cfg.fa_k_max + 1):
        if fa_dof(p, k) < 0:
            break
        k_used = k
    if k_used == 0:
        raise _StageFailure(
            "fa", RiversepError(f"no factor count is estimable for {p} variables")
        )

    files = []
    fits = []
    for k in range(1, k_used + 1):
        with _stage("fa"):
            m = fit_fa_ml(matrix, k)
        fits.append(m)
        header = ["variable"] + [f"F{j + 1}" for j in range(k)] + ["uniqueness"]
        rows = np.column_stack([m.loadings, m.uniquenesses])
        text = _table_csv(header, labels, _loading_lines(rows))
        files.append(_write(cfg.output_dir, f"fa_k{k}_loadings.csv", text))
        text = _table_csv(["variable", *labels], labels, format_rows(m.residual))
        files.append(_write(cfg.output_dir, f"fa_k{k}_residual.csv", text))

    selection = smallest_adequate_k([m.p_value for m in fits], cfg.fa_alpha)
    entries = []
    for m in fits:
        off = m.residual - np.diag(np.diag(m.residual))
        worst = float(np.abs(off).max())
        entries.append(
            {
                "k": m.k,
                "stat": m.log_likelihood_stat,
                "dof": m.dof,
                "p_value": m.p_value,
                "converged": m.converged,
                "heywood": m.heywood,
                "max_offdiag_residual": worst,
                "residual_verdict": (
                    "adequate" if worst <= _RESIDUAL_ADEQUACY else "inadequate"
                ),
            }
        )
    summary = {
        "alpha": cfg.fa_alpha,
        "k_max_requested": cfg.fa_k_max,
        "k_max_used": k_used,
        "fits": entries,
        "selected_k": selection.k,
        "selection_adequate": selection.adequate,
    }
    write_json(cfg.output_dir / "fa_summary.json", summary)
    files.append("fa_summary.json")
    return files


def _write_diagnostics(pipe: _Pipeline) -> list:
    cfg = pipe.cfg
    matrix, labels = pipe.model_input.values, pipe.model_input.codes
    n = matrix.shape[0]
    max_lag = min(cfg.acf_max_lag, n - 2)
    with _stage("diagnose"):
        result = acf(matrix, max_lag)
    rows = np.stack(np.broadcast_arrays(result.lags, result.values, result.conf_band), -1)
    keys = [code for code in labels for _ in range(max_lag + 1)]
    header = ["variable", "lag", "value", "conf_band"]
    text = _table_csv(header, keys, format_rows(rows.reshape(-1, 3)))
    files = [_write(cfg.output_dir, "acf.csv", text)]

    with _stage("diagnose"):
        mi = mutual_information_matrix(matrix, bins=cfg.mi_bins)
    text = _table_csv(["variable", *labels], labels, format_rows(mi))
    files.append(_write(cfg.output_dir, "mi.csv", text))
    return files


def _write_manifest(pipe: _Pipeline, outputs: list) -> None:
    manifest = {
        "tool_version": __version__,
        "config_sha256": pipe.cfg.config_sha256,
        "seed": pipe.cfg.ica.seed,
        "offline": pipe.offline,
        "stages": pipe.stages,
        "outputs": sorted(set(outputs) | {"manifest.json"}),
    }
    write_json(pipe.cfg.output_dir / "manifest.json", manifest)


# Each config-driven subcommand: its help text and its output writers, in
# the order they run.  Only ``run`` also writes manifest.json.
_SUBCOMMANDS = {
    "ingest": ("parse the input record and write ingested.csv", (_write_ingested,)),
    "preprocess": (
        "run the configured stages and write preprocessed.csv",
        (_write_ingested, _write_preprocessed),
    ),
    "pca": ("fit principal components on the preprocessed table", (_write_pca,)),
    "ica": ("extract independent components on the preprocessed table", (_write_ica,)),
    "fa": ("fit maximum-likelihood factor models for k = 1..k_max", (_write_fa,)),
    "diagnose": (
        "write autocorrelation and mutual-information tables",
        (_write_diagnostics,),
    ),
    "run": (
        "full pipeline: all outputs plus manifest.json",
        (
            _write_ingested,
            _write_preprocessed,
            _write_pca,
            _write_ica,
            _write_fa,
            _write_diagnostics,
        ),
    ),
}


def _execute(pipe: _Pipeline, command: str) -> int:
    _, writers = _SUBCOMMANDS[command]
    outputs = [name for write in writers for name in write(pipe)]
    if command == "run":
        _write_manifest(pipe, outputs)
    return 0


_BENCH_SCENARIOS = (
    ("two_uniform", ("uniform", "uniform")),
    ("three_uniform", ("uniform", "uniform", "uniform")),
    ("two_laplace", ("laplace", "laplace")),
    ("two_gaussian", ("gaussian", "gaussian")),
)
# FastICA extracts one component per source of every scenario.
_BENCH_MIN_ROWS = _ROWS_PER_COMPONENT * max(len(d) for _, d in _BENCH_SCENARIOS)


def _synth_bench(out_dir: Path, rows: int, base_seed: int, replicates: int) -> int:
    """Recovery benchmark over known mixing scenarios, ICA versus PCA."""
    lines = ["scenario,distributions,method,seed,amari,mean_abs_corr"]
    aggregate = {}
    for name, dists in _BENCH_SCENARIOS:
        for r in range(replicates):
            seed = base_seed + r
            scenario = generate_scenario(dists, rows=rows, seed=seed)
            ica_model = fast_ica(
                scenario.observed,
                IcaConfig(n_components=len(dists), seed=seed),
            )
            pca_model = fit_pca(scenario.observed, scale=False)
            for method, model in (("ica", ica_model), ("pca", pca_model)):
                report = evaluate_recovery(scenario, model)
                corr = float(np.mean(report.matched_correlations))
                lines.append(
                    f"{name},{'+'.join(dists)},{method},{seed},"
                    f"{format_number(report.amari)},{format_number(corr)}"
                )
                aggregate.setdefault((name, method), []).append(report.amari)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "synth_bench.csv").write_text("\n".join(lines) + "\n")
    summary = {
        "rows": rows,
        "seed": base_seed,
        "replicates": replicates,
        "mean_amari": {
            f"{name}/{method}": float(np.mean(vals))
            for (name, method), vals in sorted(aggregate.items())
        },
    }
    write_json(out_dir / "synth_summary.json", summary)
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused: parsing
    keeps no state in it, and help text is laid out when it is printed."""
    parser = argparse.ArgumentParser(
        prog="riversep",
        description="Source-apportionment pipeline for river water-quality records.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    # the config subcommands' arguments, declared once and shared
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", type=Path, help="path to the JSON run config")
    common.add_argument(
        "--seed", type=int, default=None, help="override the configured seed"
    )
    common.add_argument(
        "--offline",
        action="store_true",
        help="forbid network access; remote inputs must be cached",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _) in _SUBCOMMANDS.items():
        sub.add_parser(name, help=text, parents=[common])
    bench = sub.add_parser(
        "synth-bench", help="recovery benchmark on synthetic mixing scenarios"
    )
    bench.add_argument("--out", type=Path, required=True, help="output directory")
    bench.add_argument(
        "--rows",
        type=int,
        default=2000,
        help=f"rows per synthetic dataset (at least {_BENCH_MIN_ROWS})",
    )
    bench.add_argument(
        "--seed",
        type=int,
        default=0,
        help="base seed (non-negative); replicate r uses seed + r, so runs at "
        "consecutive seeds share all but one replicate",
    )
    bench.add_argument(
        "--replicates", type=int, default=5, help="datasets per scenario (at least 1)"
    )
    return parser


def _bench_argument_error(args) -> str | None:
    """What is wrong with the synth-bench arguments, if anything."""
    for flag, value, least in (
        ("--seed", args.seed, 0),
        ("--rows", args.rows, _BENCH_MIN_ROWS),
        ("--replicates", args.replicates, 1),
    ):
        if value < least:
            return f"{flag} must be at least {least}, got {value}"
    return None


def _command_line_error(problem: str) -> int:
    print(f"riversep: command-line error: {problem}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "synth-bench":
            problem = _bench_argument_error(args)
            if problem is not None:
                return _command_line_error(problem)
            return _synth_bench(args.out, args.rows, args.seed, args.replicates)
        cfg = load_config(args.config)
        if args.seed is not None:
            try:
                cfg = replace(cfg, ica=replace(cfg.ica, seed=args.seed))
            except OutOfRange as exc:
                return _command_line_error(f"--seed {args.seed}: {exc}")
        return _execute(_Pipeline(cfg, offline=args.offline), args.command)
    except ConfigError as exc:
        print(f"riversep: config error: {exc}", file=sys.stderr)
        return 2
    except _StageFailure as exc:
        print(f"riversep: error in stage '{exc.stage}': {exc.cause}", file=sys.stderr)
        return 3
    except RiversepError as exc:
        print(f"riversep: error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"riversep: i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
