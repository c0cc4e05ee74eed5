"""Command-line surface: the full pipeline and each stage on its own.

``riversep run config.json`` ingests the configured record, applies the
preprocessing stages in order, fits the three decomposition models, writes
the diagnostics tables, and finishes with a manifest recording the config
hash, every stage's row/column counts, and the tool version.  The other
subcommands stop earlier in that chain and write only their own outputs,
which makes any stage inspectable in isolation.  :class:`_Pipeline` makes
each table, the correlation PCA and the ICA and FA fits once, and each
method's :class:`_Components`, the series and loadings its writer and the
truth scorecard read.  Each stage's writer, the manifest being the ``run``
stage's, turns them into
``(file name, text)`` pairs; one writer computes as well: the ``diagnose``
writer computes the autocorrelations and the mutual-information table.
:func:`_execute` writes each file as it is yielded, inside one boundary that
names the stage in any error, so a failing stage leaves the files written
before it.

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
from itertools import takewhile
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .config import RunConfig, load_config
from .diagnostics import acf, mutual_information_matrix
from .errors import (
    ConfigError, MissingCells, OutOfRange, RiversepError, RuleInapplicable, ZeroVarianceColumn,
)
from .fa import bartlett_scores, fa_dof, fit_fa_ml_corr, smallest_adequate_k
from .ica import _ROWS_PER_COMPONENT, IcaConfig, fast_ica
from .ingest import Table, emit_csv, fetch_remote, parse_csv, parse_rdb
from .linalg import _column_moments, as_matrix
from .pca import explained_variance, fit_pca, kaiser_retain, scores
from .preprocess import STAGES
from .report import format_number, json_text, loading_csv, table_csv
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
def _stage(name: str):
    """Report a package error, an i/o error or an allocation failure raised
    in the block as a failure of stage ``name``."""
    try:
        yield
    except (RiversepError, OSError, MemoryError) as exc:
        raise _StageFailure(name, exc) from exc


class _Components(NamedTuple):
    """One method's k components of the model input: ``series``, rows x k,
    and ``loadings``, variables x k, so that ``series @ loadings.T``
    approximates the standardized model input; k may be 0.  ICA's loadings
    are the variables' correlations with its series, and FA's its fit's;
    PCA's are unit eigenvectors, which times ``pca.stdevs[:k]`` are."""

    series: np.ndarray
    loadings: np.ndarray


class _Pipeline:
    """The configured chain from input record to model fits.

    Each link (the parsed record, the staged table, the dense matrix, each
    model) is computed on first use and kept, so a subcommand runs only the
    part of the chain its outputs read, and runs it once.  ``tables`` holds
    each stage's output by name, in run order, the parsed record as "ingest".
    """

    def __init__(self, cfg: RunConfig, offline=False):
        self.cfg = cfg
        self.offline = offline
        self.tables = {}
        self.outputs = []  # the files written so far, for the manifest

    @cached_property
    def raw(self):
        """The input record as parsed."""
        path = self.cfg.input_path
        csv_input = path is not None and path.suffix.lower() != ".rdb"
        with _stage("ingest"):
            if path is None:
                data = fetch_remote(**self.cfg.remote, offline=self.offline)
            else:
                data = path.read_bytes()
            raw = self.tables["ingest"] = (parse_csv if csv_input else parse_rdb)(data)
        return raw

    @cached_property
    def table(self):
        """The record after the configured stages, applied in order.  The
        config orders them from a dated record, so a year-indexed CSV input
        fails its first stage."""
        table = self.raw
        for name in self.cfg.pipeline:
            with _stage(name):
                takes = STAGES[name].takes
                if table.index_name != takes:
                    raise RuleInapplicable(
                        f"the table is indexed by {table.index_name}; "
                        f"this stage takes one indexed by {takes}"
                    )
                table = self.tables[name] = STAGES[name].step(table, self.cfg)
        return table

    @cached_property
    def model_input(self) -> Table:
        """The staged table, checked to be dense and finite and to have a
        correlation in any units: at least two rows, no constant column, and
        none whose cells lie too far from its mean to center.  Its column means,
        sds and correlation are kept as ``mean``, ``sd`` and ``correlation``."""
        table = self.table
        values = table.values
        with _stage("model input"):
            missing = int(np.isnan(values).sum())
            if missing:
                raise MissingCells(missing)
            try:
                self.mean, self.sd, self.correlation = _column_moments(
                    as_matrix(values), standardize=True
                )
            except ZeroVarianceColumn as exc:
                raise ZeroVarianceColumn(table.codes[exc.col]) from exc
        return table

    @cached_property
    def pca(self):
        """The model input's correlation PCA, the run's one PCA, read by ``pca``
        and by ICA, which whitens from it and may take Kaiser's count of it."""
        return fit_pca(self.model_input.values, scale=True)

    @cached_property
    def pca_components(self) -> _Components:
        """The correlation PCA's scores and eigenvectors at Kaiser's count."""
        k = kaiser_retain(self.pca)
        series = scores(self.pca, self.model_input.values)[:, :k]
        return _Components(series, self.pca.loadings[:, :k])

    @cached_property
    def ica(self):
        """The model input's FastICA, whitened from the correlation PCA, of the
        configured count or else Kaiser's."""
        k = self.cfg.ica.n_components
        if k is None:
            k = self.pca_components.loadings.shape[1]
        if k == 0:  # the config admits no count below 1
            raise RuleInapplicable("Kaiser's rule keeps no component: no eigenvalue exceeds 1")
        return fast_ica(self.model_input.values, self.pca, replace(self.cfg.ica, n_components=k))

    @cached_property
    def ica_components(self) -> _Components:
        """FastICA's sources and its mixing over the column sds."""
        return _Components(self.ica.sources, self.ica.mixing / self.pca.sd[:, None])

    @cached_property
    def fa(self):
        """The model input's ML factor fits, one per estimable count, and the
        smallest adequate count."""
        n, p = self.model_input.values.shape
        # the counts before the first with negative degrees of freedom: for
        # p = 3 the dof is 0 again at k = 6
        ks = list(takewhile(lambda k: fa_dof(p, k) >= 0, range(1, self.cfg.fa_k_max + 1)))
        if not ks:
            raise RiversepError(f"no factor count is estimable for {p} variables")
        fits = [fit_fa_ml_corr(self.correlation, k, n) for k in ks]
        return fits, smallest_adequate_k([m.p_value for m in fits], self.cfg.fa_alpha)

    @cached_property
    def fa_components(self) -> _Components:
        """The selected FA fit's Bartlett scores and its loadings."""
        fits, selection = self.fa
        model = fits[selection.k - 1]
        series = bartlett_scores(model, self.model_input.values, self.mean, self.sd)
        return _Components(series, model.loadings)


def _write_files(out_dir: Path, files) -> list[str]:
    """Write each ``(name, text)`` of ``files`` under ``out_dir`` as it is
    yielded, as UTF-8 bytes whatever the locale, making the directory before
    the first; the names written."""
    names = []
    for name, text in files:
        if not names:
            out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / name).write_bytes(text.encode("utf-8"))
        names.append(name)
    return names


def _write_ingested(pipe: _Pipeline):
    yield "ingested.csv", emit_csv(pipe.raw)


def _write_preprocessed(pipe: _Pipeline):
    yield "preprocessed.csv", emit_csv(pipe.table)


def _series_csv(pipe: _Pipeline, prefix: str, series: np.ndarray) -> str:
    """A method's ``series`` under the model input's index, as columns
    ``<prefix>1``, ``<prefix>2``, ..."""
    table = pipe.model_input
    codes = [f"{prefix}{j + 1}" for j in range(series.shape[1])]
    return emit_csv(Table(table.index_name, table.index, codes, series))


def _write_pca(pipe: _Pipeline):
    matrix, labels, model = pipe.model_input.values, pipe.model_input.codes, pipe.pca
    header = ["variable"] + [f"PC{j + 1}" for j in range(model.n_components)]
    rows = np.vstack([model.loadings, model.stdevs])
    yield "pca_loadings.csv", loading_csv(header, [*labels, "stdev"], rows)
    series = pipe.pca_components.series
    yield "pca_scores.csv", _series_csv(pipe, "PC", series)

    kaiser = series.shape[1]
    # a share of the variance needs at least one component
    explained = explained_variance(model, kaiser) if kaiser else None
    # eigenvalues as the model holds them, so a negative rounding one reads 0
    eigenvalues = model.stdevs**2
    smallest = float(eigenvalues[-1])
    summary = {
        "n_rows": int(matrix.shape[0]),
        "stdevs": [float(s) for s in model.stdevs],
        "kaiser_components": kaiser,
        "explained_variance_kaiser": explained,
        "min_eigenvalue": smallest,
        "condition_number": float(eigenvalues[0]) / smallest if smallest > 0 else None,
    }
    yield "pca_summary.json", json_text(summary)


def _write_ica(pipe: _Pipeline):
    model, settings, (sources, mixing) = pipe.ica, pipe.cfg.ica, pipe.ica_components
    k = mixing.shape[1]  # the configured count or else Kaiser's
    yield "ica_sources.csv", _series_csv(pipe, "IC", sources)
    codes = [f"IC{j + 1}" for j in range(k)]
    yield "ica_mixing.csv", loading_csv(["variable", *codes], pipe.model_input.codes, mixing)
    summary = {
        "n_components": k,
        "converged": model.converged,
        "iterations": model.iterations,
        "final_delta": model.delta_history[-1],
        "seed": settings.seed,
        "tol": settings.tol,
        "max_iter": settings.max_iter,
    }
    yield "ica_summary.json", json_text(summary)


def _write_fa(pipe: _Pipeline):
    labels = pipe.model_input.codes
    fits, selection = pipe.fa
    entries = []
    for m in fits:
        header = ["variable"] + [f"F{j + 1}" for j in range(m.k)] + ["uniqueness"]
        rows = np.column_stack([m.loadings, m.uniquenesses])
        yield f"fa_k{m.k}_loadings.csv", loading_csv(header, labels, rows)
        yield f"fa_k{m.k}_residual.csv", table_csv(["variable", *labels], labels, m.residual)
        off = m.residual - np.diag(np.diag(m.residual))
        worst = float(np.abs(off).max())
        entries.append(
            {
                "k": m.k,
                "stat": m.log_likelihood_stat,
                "dof": fa_dof(len(labels), m.k),
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
        "alpha": pipe.cfg.fa_alpha,
        "k_max_requested": pipe.cfg.fa_k_max,
        "k_max_used": len(fits),
        "fits": entries,
        "selected_k": selection.k,
        "selection_adequate": selection.adequate,
    }
    yield "fa_summary.json", json_text(summary)
    yield "fa_scores.csv", _series_csv(pipe, "F", pipe.fa_components.series)


def _write_diagnostics(pipe: _Pipeline):
    cfg = pipe.cfg
    matrix, labels = pipe.model_input.values, pipe.model_input.codes
    max_lag = min(cfg.acf_max_lag, matrix.shape[0] - 2)
    result = acf(matrix, max_lag)
    lags = np.arange(max_lag + 1)
    rows = np.stack(np.broadcast_arrays(lags, result.values, result.conf_band), -1)
    keys = [code for code in labels for _ in range(max_lag + 1)]
    header = ["variable", "lag", "value", "conf_band"]
    yield "acf.csv", table_csv(header, keys, rows.reshape(-1, 3))

    mi = mutual_information_matrix(matrix, bins=cfg.mi_bins)
    yield "mi.csv", table_csv(["variable", *labels], labels, mi)


def _write_manifest(pipe: _Pipeline):
    # each stage's table shape, and the codes it dropped from the one before
    tables = list(pipe.tables.items())
    stages = []
    for (_, before), (name, after) in zip(tables[:1] + tables, tables):
        kept = set(after.codes)
        dropped = [c for c in before.codes if c not in kept]
        stages.append(dict(stage=name, rows=after.n_rows, columns=after.n_vars, dropped=dropped))
    manifest = {
        "tool_version": __version__,
        "config_sha256": pipe.cfg.config_sha256,
        "seed": pipe.cfg.ica.seed,
        "stages": stages,
        "outputs": sorted({*pipe.outputs, "manifest.json"}),
    }
    yield "manifest.json", json_text(manifest)


# Each stage's writer, in the order ``run`` runs them, the manifest last.
_WRITERS = {
    "ingest": _write_ingested,
    "preprocess": _write_preprocessed,
    "pca": _write_pca,
    "ica": _write_ica,
    "fa": _write_fa,
    "diagnose": _write_diagnostics,
    "run": _write_manifest,
}

# Each config subcommand: its help text and the stages it runs, in order.
_SUBCOMMANDS = {
    "ingest": ("parse the input record and write ingested.csv", ("ingest",)),
    "preprocess": (
        "run the configured stages and write preprocessed.csv",
        ("ingest", "preprocess"),
    ),
    "pca": ("fit principal components on the preprocessed table", ("pca",)),
    "ica": ("extract independent components on the preprocessed table", ("ica",)),
    "fa": ("fit maximum-likelihood factor models for k = 1..k_max", ("fa",)),
    "diagnose": ("write autocorrelation and mutual-information tables", ("diagnose",)),
    "run": ("full pipeline: all outputs plus manifest.json", tuple(_WRITERS)),
}


def _execute(pipe: _Pipeline, command: str) -> int:
    _, stages = _SUBCOMMANDS[command]
    for stage in stages:
        # the boundary wraps the writer's consumer, so no yield sits in a with
        with _stage(stage):
            pipe.outputs += _write_files(pipe.cfg.output_dir, _WRITERS[stage](pipe))
    return 0


_BENCH_SCENARIOS = (
    ("two_uniform", ("uniform", "uniform")),
    ("three_uniform", ("uniform", "uniform", "uniform")),
    ("two_laplace", ("laplace", "laplace")),
    ("two_gaussian", ("gaussian", "gaussian")),
)
# FastICA extracts one component per source of every scenario.
_BENCH_MIN_ROWS = _ROWS_PER_COMPONENT * max(len(d) for _, d in _BENCH_SCENARIOS)
# The longest float64 array numpy can hold: a source column has one cell a row.
_BENCH_MAX_ROWS = np.iinfo(np.intp).max // np.dtype(float).itemsize


def _synth_bench(rows: int, base_seed: int, replicates: int):
    """Recovery benchmark over known mixing scenarios, ICA versus PCA."""
    lines = ["scenario,distributions,method,seed,amari,mean_abs_corr"]
    aggregate = {}
    for name, dists in _BENCH_SCENARIOS:
        for r in range(replicates):
            seed = base_seed + r
            scenario = generate_scenario(dists, rows=rows, seed=seed)
            # ICA whitens from the covariance PCA that is scored beside it
            pca_model = fit_pca(scenario.observed, scale=False)
            ica_model = fast_ica(
                scenario.observed,
                pca_model,
                IcaConfig(n_components=len(dists), seed=seed),
            )
            for method, model in (("ica", ica_model), ("pca", pca_model)):
                amari, matched = evaluate_recovery(scenario, model)
                corr = float(np.mean(matched))
                lines.append(
                    f"{name},{'+'.join(dists)},{method},{seed},"
                    f"{format_number(amari)},{format_number(corr)}"
                )
                aggregate.setdefault((name, method), []).append(amari)
    yield "synth_bench.csv", "\n".join(lines) + "\n"
    summary = {
        "rows": rows,
        "seed": base_seed,
        "replicates": replicates,
        "mean_amari": {
            f"{name}/{method}": float(np.mean(vals))
            for (name, method), vals in sorted(aggregate.items())
        },
    }
    yield "synth_summary.json", json_text(summary)


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
    if args.rows > _BENCH_MAX_ROWS:
        return f"--rows must be at most {_BENCH_MAX_ROWS}, got {args.rows}"
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
            with _stage("synth-bench"):
                _write_files(args.out, _synth_bench(args.rows, args.seed, args.replicates))
            return 0
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
        cause = str(exc.cause) or type(exc.cause).__name__  # a bare MemoryError
        print(f"riversep: error in stage '{exc.stage}': {cause}", file=sys.stderr)
        return 3
    except RiversepError as exc:
        print(f"riversep: error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"riversep: i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
