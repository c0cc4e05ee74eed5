"""End-to-end tests of the command-line pipeline on the bundled fixture.

The fixture was constructed so every stage's row/column counts are known
in advance; the tests here pin those counts and the determinism contract
(rerunning a command reproduces every output byte for byte).
"""

import csv
import hashlib
import importlib.util
import io
import json
import os
import shutil
import subprocess
import sys
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import riversep
import riversep.cli
import riversep.errors
import riversep.ingest
import riversep.linalg
import riversep.pca
import riversep.report
import scorecard
import station_builder
from riversep.cli import main
from riversep.config import load_config
from riversep.ica import IcaConfig, fast_ica
from riversep.pca import fit_pca
from riversep.report import format_number
from riversep.synth import evaluate_recovery, generate_scenario
from test_diagnostics import reference_mi_table
from test_ingest import daily, daily_records

# every warning a run raises fails its test, as in a fresh `python -W error`
pytestmark = pytest.mark.filterwarnings("error")

FIXTURES = Path(__file__).parent / "fixtures"

EXPECTED_STAGES = [
    ("ingest", 204, 32),
    ("filter", 200, 30),
    ("annual_mean", 51, 30),
    ("drop_na_columns", 51, 17),
    ("drop_redundant", 51, 11),
    ("difference", 50, 11),
]

FINAL_CODES = [
    "00010",
    "00300",
    "00400",
    "00405",
    "00605",
    "00608",
    "00613",
    "00618",
    "00660",
    "00665",
    "00940",
]


@pytest.fixture
def workdir(tmp_path):
    shutil.copy(FIXTURES / "station_fixture.rdb", tmp_path)
    shutil.copy(FIXTURES / "pipeline.json", tmp_path)
    return tmp_path


def set_00300_cells(workdir, year, cells):
    """Overwrite column 00300 in the first rows of ``year`` that survive the
    fixture's filter (those with 00618 present), in order."""
    record = workdir / "station_fixture.rdb"
    lines = record.read_text().splitlines(keepends=True)
    header = lines[3].split("\t")
    column, required = header.index("00300"), header.index("00618")
    rows = [
        i for i, line in enumerate(lines)
        if line.startswith(year + "-") and line.split("\t")[required].strip()
    ]
    for row, cell in zip(rows, cells):
        fields = lines[row].split("\t")
        fields[column] = cell
        lines[row] = "\t".join(fields)
    record.write_text("".join(lines))


def edit_00300_cells(workdir, edit):
    """Replace every non-empty cell of column 00300 with ``edit(cell)``."""
    record = workdir / "station_fixture.rdb"
    lines = record.read_text().splitlines(keepends=True)
    column = lines[3].split("\t").index("00300")
    for row in range(5, len(lines)):
        fields = lines[row].split("\t")
        if fields[column].strip():
            fields[column] = edit(fields[column])
            lines[row] = "\t".join(fields)
    record.write_text("".join(lines))


def write_config(workdir, variant="committed") -> Path:
    """The config of ``variant`` in ``workdir``, which holds the fixture's.

    "committed" is the fixture's config as shipped.  "kaiser" drops
    ``ica.n_components``, so ICA extracts Kaiser's count of the correlation
    PCA.  Each variant writes to its own ``out_<variant>``.
    """
    config = workdir / "pipeline.json"
    if variant == "committed":
        return config
    doc = json.loads(config.read_text())
    del doc["ica"]["n_components"]
    doc["output_dir"] = f"out_{variant}"
    target = workdir / f"{variant}.json"
    target.write_text(json.dumps(doc))
    return target


def riversep_in_subprocess(*args, patch=None, env=None):
    """``riversep <args>`` in a fresh interpreter that turns every warning
    into an error.  ``patch``, Python source run first with ``cli`` bound to
    :mod:`riversep.cli`, can replace a part of the program; ``env`` adds to
    or overrides the environment."""
    env = {**os.environ, "PYTHONPATH": str(Path(riversep.__file__).parents[1]), **(env or {})}
    if patch is None:
        launch = ["-m", "riversep.cli"]
    else:
        launch = ["-c", f"import sys\nimport riversep.cli as cli\n{patch}\nsys.exit(cli.main())"]
    return subprocess.run(
        [sys.executable, "-W", "error", *launch, *map(str, args)],
        env=env, capture_output=True, text=True,
    )


def kaiser_zero_cells(columns=(1, 2, 4), scales=(3.0, 0.5, 7.0)) -> np.ndarray:
    """Columns ``columns`` (counting from 0) of the 16 x 16
    Sylvester-Hadamard matrix, scaled by ``scales`` and shifted by 10, 20
    and 30: orthogonal, zero-sum sign patterns, so every centered cell and
    cross product is exact, and the correlation matrix is the identity."""
    hadamard = np.ones((1, 1))
    for _ in range(4):
        hadamard = np.block([[hadamard, hadamard], [hadamard, -hadamard]])
    return hadamard[:, list(columns)] * scales + [10.0, 20.0, 30.0]


def write_kaiser_zero_record(workdir, cells=None) -> Path:
    """A 16-year record of three variables whose correlation matrix is the
    identity (``cells``, by default :func:`kaiser_zero_cells`' own), and a
    config that runs it through ``annual_mean`` alone.

    No eigenvalue exceeds 1, and Kaiser's rule keeps no component.  The
    config has no ``ica.n_components``, so ICA reads that count.
    """
    cells = kaiser_zero_cells() if cells is None else cells
    rows = [f"{1980 + i}-06-01," + ",".join(map(str, row)) for i, row in enumerate(cells)]
    (workdir / "kaiser_zero.csv").write_text("\n".join(["date,00300,00618,00660", *rows]) + "\n")
    doc = json.loads((FIXTURES / "pipeline.json").read_text())
    del doc["filter"], doc["ica"]["n_components"]
    doc.update(input={"path": "kaiser_zero.csv"}, redundancy_rules=[], pipeline=["annual_mean"])
    config = workdir / "kaiser_zero.json"
    config.write_text(json.dumps(doc))
    return config


def remote_input(workdir, **overrides) -> Path:
    """The fixture's config with a remote input in place of its path."""
    doc = json.loads((workdir / "pipeline.json").read_text())
    doc["input"] = {
        "site": "11447650",
        "codes": ["00618"],
        "start": "1950-01-01",
        "end": "2000-12-31",
        "url_template": "https://example.invalid/{site}",
        **overrides,
    }
    config = workdir / "remote.json"
    config.write_text(json.dumps(doc))
    return config


def read_csv(path: Path) -> list:
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def hash_tree(directory: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
    }


def test_fixture_file_matches_its_builder():
    # The committed record must be exactly what the builder produces, so
    # the stage counts asserted below are traceable to the build recipe.
    committed = (FIXTURES / "station_fixture.rdb").read_text()
    assert committed == station_builder.station().text


# Lower bounds on the truth scorecard (tests/scorecard.py) of each variant:
# per method its component count, then each value rounded down at the second
# decimal: the matched mean |r| and, for PCA and FA, the series' canonical
# correlations with the drivers and the loading cosines.  A change that
# moves a value moves its bound and says so in CHANGES.md.
SCORECARD_BOUNDS = {
    "committed": {
        "PCA": (3, 0.62, (0.98, 0.91, 0.05), (0.99, 0.97, 0.29)),
        "FA": (3, 0.67, (0.97, 0.91, 0.22), (0.99, 0.99, 0.36)),
        "ICA": (3, 0.56),
    },
    "no required_variable": {
        "PCA": (3, 0.75, (0.97, 0.91, 0.58), (0.99, 0.97, 0.75)),
        "FA": (2, 0.62, (0.97, 0.91), (0.99, 0.98)),
        "ICA": (3, 0.74),
    },
    "levels": {
        "PCA": (3, 0.59, (0.99, 0.98, 0.89), (0.99, 0.99, 0.95)),
        "FA": (3, 0.60, (0.99, 0.99, 0.95), (0.99, 0.99, 0.98)),
        "ICA": (3, 0.73),
    },
    "levels, no required_variable": {
        "PCA": (2, 0.50, (0.99, 0.98), (0.99, 0.99)),
        "FA": (3, 0.58, (0.99, 0.99, 0.96), (0.99, 0.99, 0.99)),
        "ICA": (3, 0.81),
    },
}

# Whether each variant's ICA fit converges.  Without required_variable it
# runs out its 200 iterations, so its row scores the 200th iterate.
SCORECARD_ICA_CONVERGED = {
    "committed": True,
    "no required_variable": False,
    "levels": True,
    "levels, no required_variable": True,
}


def test_scorecard_recovers_the_fixtures_drivers_and_loadings():
    # The fixture blends three known latent random walks; each variant's
    # rows are the fixture's years, less the first when it differences.
    configs = scorecard.variants()
    assert list(configs) == list(SCORECARD_BOUNDS)
    for name, cfg in configs.items():
        card = scorecard.scorecard(cfg)
        first = 1 if "difference" in cfg.pipeline else 0
        assert card.years == list(station_builder.YEARS)[first:], name
        assert list(card.rows) == list(SCORECARD_BOUNDS[name]), name
        for method, (k, matched, *subspace) in SCORECARD_BOUNDS[name].items():
            row = card.rows[method]
            where = f"{name} {method}"
            assert row.k == k, where
            assert row.matched >= matched, (where, row.matched)
            if method == "ICA":
                assert row.series is None and row.loadings is None, where
                assert row.converged is SCORECARD_ICA_CONVERGED[name], where
                continue
            for got, bounds in zip((row.series, row.loadings), subspace):
                assert len(got) == len(bounds) and (got >= bounds).all(), (where, got)
            assert row.converged is None, where


@pytest.mark.parametrize("name", list(SCORECARD_BOUNDS))
def test_ica_spans_pcas_top_k_scores_and_loadings(name):
    # FastICA rotates the correlation PCA's top k scores, so the scorecard's
    # subspace measures of ICA would be PCA's at ICA's k: at Kaiser's count,
    # ICA's series span PCA's and its loadings PCA's
    cfg = scorecard.variants()[name]
    pipe = riversep.cli._Pipeline(replace(cfg, ica=replace(cfg.ica, n_components=None)))
    ica, pca = pipe.ica_components, pipe.pca_components
    k = pca.loadings.shape[1]
    assert ica.loadings.shape[1] == k
    for got in (
        scorecard.cosines(ica.series, pca.series),
        scorecard.cosines(ica.loadings, pca.loadings),
    ):
        np.testing.assert_allclose(got, np.ones(k), rtol=0, atol=1e-12)


def test_each_component_record_relates_its_loadings_to_the_standardized_input(workdir):
    # ICA's loadings are each variable's correlation with each source; PCA's
    # are unit eigenvectors, and its scores carry variance lambda, so the
    # correlations are its loadings times the component sds; FA's are the
    # selected fit's loadings
    pipe = riversep.cli._Pipeline(load_config(workdir / "pipeline.json"))
    z = (pipe.model_input.values - pipe.mean) / pipe.sd

    def correlations(series):
        return np.corrcoef(z, series, rowvar=False)[: z.shape[1], z.shape[1] :]

    ica, pca = pipe.ica_components, pipe.pca_components
    k = pca.loadings.shape[1]
    np.testing.assert_allclose(ica.loadings, correlations(ica.series), rtol=0, atol=1e-14)
    np.testing.assert_allclose(
        pca.loadings * pipe.pca.stdevs[:k], correlations(pca.series), rtol=0, atol=1e-14
    )
    assert np.abs(pca.loadings - correlations(pca.series)).max() > 0.4
    fits, selection = pipe.fa
    np.testing.assert_array_equal(pipe.fa_components.loadings, fits[selection.k - 1].loadings)


# What each command computes from the model input: the calls of each function
# and the shapes handed to np.linalg.svd.
MODEL_CALLS = {
    "run": ({"_column_moments": 2, "fit_pca": 1, "fast_ica": 1, "fit_fa_ml_corr": 3}, {(3, 3)}),
    "fa": ({"_column_moments": 1, "fit_pca": 0, "fast_ica": 0, "fit_fa_ml_corr": 3}, set()),
}


@pytest.mark.parametrize("variant", ["committed", "kaiser"])
@pytest.mark.parametrize("command", list(MODEL_CALLS))
def test_run_and_fa_compute_the_model_input_moments_once_in_the_gate_and_once_per_pca(
    workdir, monkeypatch, command, variant
):
    # the model-input gate makes the correlation every FA fit reads and the
    # means and sds the Bartlett scores standardize with, so fa fits no PCA;
    # PCA and ICA share one correlation PCA, which ICA whitens from and may
    # take Kaiser's count of, and each model is fit once: one ICA, and one FA
    # per count k = 1..3.  No QR or SVD of the model input is made: the one
    # SVD is FastICA's decorrelation of its 3 x 3 unmixing.
    calls = dict.fromkeys(MODEL_CALLS[command][0], 0)
    factored = {"qr": set(), "svd": set()}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    def log_shapes(name):
        original = getattr(np.linalg, name)

        def logged(a, *args, **kwargs):
            factored[name].add(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, logged)

    count(riversep.linalg, "_column_moments")
    count(riversep.pca, "_column_moments")
    count(riversep.cli, "_column_moments")
    count(riversep.cli, "fit_pca")
    count(riversep.cli, "fast_ica")
    count(riversep.cli, "fit_fa_ml_corr")
    log_shapes("qr")
    log_shapes("svd")
    assert main([command, str(write_config(workdir, variant))]) == 0
    expected_calls, svd_shapes = MODEL_CALLS[command]
    assert calls == expected_calls
    assert factored == {"qr": set(), "svd": svd_shapes}


@pytest.mark.parametrize("variant", ["committed", "kaiser"])
def test_run_keeps_each_stages_table_by_name_and_the_manifest_reads_them(workdir, variant):
    # the parsed record is "ingest", each configured stage's output is kept
    # under its name, and each manifest entry is the shape of one table and
    # the codes of the one before it that it lacks
    cfg = load_config(write_config(workdir, variant))
    pipe = riversep.cli._Pipeline(cfg)
    assert riversep.cli._execute(pipe, "run") == 0
    assert list(pipe.tables) == ["ingest", *cfg.pipeline]
    assert pipe.tables["ingest"] is pipe.raw
    assert pipe.tables[cfg.pipeline[-1]] is pipe.table
    manifest = json.loads((cfg.output_dir / "manifest.json").read_text())
    tables = list(pipe.tables.values())
    assert [entry["stage"] for entry in manifest["stages"]] == list(pipe.tables)
    for entry, before, after in zip(manifest["stages"], [tables[0], *tables], tables):
        assert (entry["rows"], entry["columns"]) == after.values.shape, entry["stage"]
        dropped = [code for code in before.codes if code not in after.codes]
        assert entry["dropped"] == dropped, entry["stage"]
    assert [(s["stage"], s["rows"], s["columns"]) for s in manifest["stages"]] == EXPECTED_STAGES


class TestRun:
    def test_exit_zero_and_manifest_counts(self, workdir):
        assert main(["run", str(workdir / "pipeline.json")]) == 0
        manifest = json.loads((workdir / "out" / "manifest.json").read_text())
        got = [(s["stage"], s["rows"], s["columns"]) for s in manifest["stages"]]
        assert got == EXPECTED_STAGES

    def test_manifest_names_the_columns_each_stage_dropped(self, workdir):
        assert main(["run", str(workdir / "pipeline.json")]) == 0
        manifest = json.loads((workdir / "out" / "manifest.json").read_text())
        dropped = {s["stage"]: s["dropped"] for s in manifest["stages"]}
        assert dropped == {
            "ingest": [],
            # the two sparse variables, below min_count
            "filter": ["00078", "71820"],
            "annual_mean": [],
            # each misses one full year
            "drop_na_columns": [
                "00095", "00530", "00535", "00545", "00550", "00915", "00925",
                "00930", "00935", "00945", "00950", "00955", "70300",
            ],
            # the config's six composites, in column order
            "drop_redundant": ["00600", "00625", "00631", "71845", "71851", "71887"],
            "difference": [],
        }

    def test_variable_codes_are_quoted_in_every_csv_output(self, workdir):
        # A CSV record whose header holds the code "00,618": every output
        # must read back with one field count per file and the code whole.
        config = workdir / "pipeline.json"
        assert main(["ingest", str(config)]) == 0
        header, *rows = read_csv(workdir / "out" / "ingested.csv")
        header = ["00,618" if code == "00618" else code for code in header]
        with open(workdir / "station.csv", "w", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerows([header, *rows])
        doc = json.loads(config.read_text().replace('"00618"', '"00,618"'))
        doc["input"] = {"path": "station.csv"}
        config.write_text(json.dumps(doc))
        shutil.rmtree(workdir / "out")

        assert main(["run", str(config)]) == 0
        holding = set()
        for path in sorted((workdir / "out").glob("*.csv")):
            rows = read_csv(path)
            assert len({len(row) for row in rows}) == 1, path.name
            if any("00,618" in row for row in rows):
                holding.add(path.name)
        assert holding == {
            "ingested.csv",
            "preprocessed.csv",
            "pca_loadings.csv",
            "ica_mixing.csv",
            "mi.csv",
            "acf.csv",
            *(f"fa_k{k}_{kind}.csv" for k in (1, 2, 3) for kind in ("loadings", "residual")),
        }

    def test_table_csv_quotes_repeated_keys_alike(self):
        # Repeated, empty, comma-holding and non-ASCII keys; a key is quoted
        # as csv writes it alone in a row, and with no cells it is the row.
        keys = ["00,618", "", "00618", "00,618", "", 'a"b', "x\ny", "µ618"]
        values = np.arange(1.0, 17.0).reshape(8, 2)
        got = riversep.report.table_csv(["variable", "a", "b"], keys, values)
        assert got == (
            'variable,a,b\n"00,618",1,2\n"",3,4\n00618,5,6\n"00,618",7,8\n"",9,10\n'
            '"a""b",11,12\n"x\ny",13,14\nµ618,15,16\n'
        )
        got = riversep.report.table_csv(["variable"], keys, np.empty((8, 0)))
        assert got == 'variable\n"00,618"\n""\n00618\n"00,618"\n""\n"a""b"\n"x\ny"\nµ618\n'

    @pytest.mark.parametrize(
        "keys",
        [
            np.array([1990, 1991, 2024, 1990, 0, -5], dtype=np.int64),
            ["a,b", 'say "hi"', "x\ny", "x\ry", '""', "", "plain", "a,b"],
        ],
        ids=["int64", "text"],
    )
    def test_table_csv_writes_each_key_as_csv_writes_it_alone(self, keys):
        def alone(key):
            out = io.StringIO()
            csv.writer(out, lineterminator="\n").writerow([key])
            return out.getvalue()[:-1]

        values = np.arange(2.0 * len(keys)).reshape(-1, 2) / 3.0
        got = riversep.report.table_csv(["key", "a", "b"], keys, values)
        rows = [",".join([alone(key), *map(format_number, row)]) for key, row in zip(keys, values)]
        assert got == "\n".join(["key,a,b", *rows]) + "\n"

    def test_tables_keyed_by_code_write_each_code_as_csv_does(self, workdir):
        # Renaming "00010" to "00,010" (which csv quotes) and "00660" to a
        # non-ASCII code changes only their keys and header fields in every
        # table keyed by variable code.
        assert main(["ingest", str(workdir / "pipeline.json")]) == 0
        header, *rows = read_csv(workdir / "out" / "ingested.csv")
        names = {"00010": "00,010", "00660": "Nitrat-µg"}
        for variant, codes in [("plain", header), ("renamed", [names.get(c, c) for c in header])]:
            with open(workdir / f"{variant}.csv", "w", newline="", encoding="utf-8") as handle:
                csv.writer(handle, lineterminator="\n").writerows([codes, *rows])
            doc = json.loads((workdir / "pipeline.json").read_text())
            doc["input"] = {"path": f"{variant}.csv"}
            doc["output_dir"] = f"out_{variant}"
            (workdir / f"{variant}.json").write_text(json.dumps(doc))
            assert main(["run", str(workdir / f"{variant}.json")]) == 0

        def csv_line(fields):
            out = io.StringIO()
            csv.writer(out, lineterminator="\n").writerow(fields)
            return out.getvalue()

        for name in ["mi.csv", "acf.csv", *(f"fa_k{k}_residual.csv" for k in (1, 2, 3))]:
            first, *lines = (workdir / "out_plain" / name).read_text(encoding="utf-8").splitlines()
            want = csv_line([names.get(c, c) for c in first.split(",")])
            for line in lines:
                key, cells = line.split(",", 1)
                want += csv_line([names.get(key, key)])[:-1] + "," + cells + "\n"
            assert names["00010"] in want and names["00660"] in want
            assert (workdir / "out_renamed" / name).read_text(encoding="utf-8") == want, name

    def test_manifest_lists_exactly_the_files_written(self, workdir):
        main(["run", str(workdir / "pipeline.json")])
        manifest = json.loads((workdir / "out" / "manifest.json").read_text())
        on_disk = sorted(p.name for p in (workdir / "out").iterdir())
        assert manifest["outputs"] == on_disk

    def test_rerun_is_byte_identical(self, workdir):
        main(["run", str(workdir / "pipeline.json")])
        first = hash_tree(workdir / "out")
        main(["run", str(workdir / "pipeline.json")])
        assert hash_tree(workdir / "out") == first

    def test_offline_rerun_of_a_local_record_is_byte_identical(self, workdir):
        # --offline only forbids a download, which a local record never needs
        assert main(["run", str(workdir / "pipeline.json")]) == 0
        first = hash_tree(workdir / "out")
        shutil.rmtree(workdir / "out")
        assert main(["run", str(workdir / "pipeline.json"), "--offline"]) == 0
        assert hash_tree(workdir / "out") == first

    @pytest.mark.parametrize("command", ["ingest", "run"])
    def test_outputs_are_utf8_under_any_locale(self, workdir, command):
        # a variable code outside ASCII, written under the C locale with
        # neither UTF-8 mode nor locale coercion, where Python's default
        # text encoding is ASCII: the files hold the bytes of a run under
        # the inherited locale
        record = workdir / "station_fixture.rdb"
        header = "datetime\t00010\t".encode()
        assert header in record.read_bytes()
        record.write_bytes(record.read_bytes().replace(header, "datetime\tnitraté\t".encode()))
        config = workdir / "pipeline.json"
        proc = riversep_in_subprocess(command, config)
        assert (proc.returncode, proc.stderr) == (0, "")
        inherited = hash_tree(workdir / "out")
        assert "nitraté".encode() in (workdir / "out" / "ingested.csv").read_bytes()
        shutil.rmtree(workdir / "out")
        c_locale = {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}
        proc = riversep_in_subprocess(command, config, env=c_locale)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert hash_tree(workdir / "out") == inherited

    def test_manifest_records_config_hash_and_version(self, workdir):
        main(["run", str(workdir / "pipeline.json")])
        manifest = json.loads((workdir / "out" / "manifest.json").read_text())
        expected = hashlib.sha256((workdir / "pipeline.json").read_bytes()).hexdigest()
        assert manifest["config_sha256"] == expected
        assert manifest["tool_version"]


class TestExitCodes:
    def test_bad_stage_order_is_a_config_error(self, workdir, capsys):
        doc = json.loads((workdir / "pipeline.json").read_text())
        doc["pipeline"] = ["filter", "difference", "annual_mean"]
        bad = workdir / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["run", str(bad)]) == 2
        assert "difference" in capsys.readouterr().err

    def test_unknown_key_is_a_config_error(self, workdir, capsys):
        doc = json.loads((workdir / "pipeline.json").read_text())
        doc["plots"] = True
        bad = workdir / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["run", str(bad)]) == 2
        assert "plots" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, line, reason",
        [
            (
                "date,00618,00300\n1990-01-01,1," + "9" * 200_000 + "\n",
                2,
                "field larger than field limit (131072)",
            ),
            ("date,00618,00300\r1990-01-01,1,2\r", 1, "new-line character seen in unquoted field"),
            ("date,00618,00300\n1990-01-01,1\r2,3\n", 2, "new-line character seen in unquoted field"),
        ],
        ids=["oversized_cell", "bare_cr_line_ends", "cr_in_a_cell"],
    )
    def test_a_csv_syntax_error_names_its_line_in_the_ingest_stage(
        self, workdir, capsys, text, line, reason
    ):
        (workdir / "station.csv").write_text(text, newline="")
        config = workdir / "pipeline.json"
        doc = json.loads(config.read_text())
        doc["input"] = {"path": "station.csv"}
        config.write_text(json.dumps(doc))
        assert main(["ingest", str(config)]) == 3
        [message] = capsys.readouterr().err.splitlines()
        assert message.startswith(f"riversep: error in stage 'ingest': line {line}: {reason}")
        assert not (workdir / "out").exists()

    def test_runtime_failure_names_its_stage(self, workdir, capsys):
        doc = json.loads((workdir / "pipeline.json").read_text())
        doc["filter"]["required_variable"] = "99999"
        bad = workdir / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["run", str(bad)]) == 3
        err = capsys.readouterr().err
        assert "filter" in err
        assert "99999" in err

    @pytest.mark.parametrize(
        "routine, command, stage",
        [("eigh", "run", "pca"), ("svd", "ica", "ica"),
         ("eigh", "synth-bench", "synth-bench"), ("svd", "synth-bench", "synth-bench")],
    )
    def test_lapack_failure_is_a_runtime_error(
        self, workdir, capsys, monkeypatch, routine, command, stage
    ):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, routine, fail)
        if command == "synth-bench":
            args = ["--out", str(workdir / "bench"), "--rows", "300", "--replicates", "1"]
        else:
            args = [str(workdir / "pipeline.json")]
        assert main([command, *args]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"riversep: error in stage '{stage}': LAPACK {routine} did not converge"
        ]

    def test_missing_input_file_is_a_runtime_error(self, workdir, capsys):
        doc = json.loads((workdir / "pipeline.json").read_text())
        doc["input"] = {"path": "no_such_file.rdb"}
        bad = workdir / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["run", str(bad)]) == 3
        assert "ingest" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("tol", 0), ("seed", -1), ("n_components", 0)],
    )
    def test_invalid_ica_setting_is_a_config_error(self, workdir, capsys, key, value):
        doc = json.loads((workdir / "pipeline.json").read_text())
        doc["ica"][key] = value
        bad = workdir / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert key in err
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("pca", "scale", False, "pca.scale must be true: PCA always standardizes its input"),
            ("pca", "scale", 1, "pca.scale must be true: PCA always standardizes its input"),
            ("pca", "scale", None, "pca.scale must be true: PCA always standardizes its input"),
            ("ica", "contrast", "cube", 'ica.contrast must be "logcosh": FastICA\'s one contrast'),
            ("ica", "contrast", None, 'ica.contrast must be "logcosh": FastICA\'s one contrast'),
            ("ica", "logcosh_alpha", 1.5, "unknown key 'logcosh_alpha' in 'ica'"),
        ],
        ids=["scale_false", "scale_1", "scale_null", "contrast_cube", "contrast_null",
             "logcosh_alpha"],
    )
    def test_a_fixed_setting_admits_one_value(
        self, workdir, capsys, section, key, value, message
    ):
        # PCA is always the correlation PCA and FastICA's contrast always
        # logcosh; a config that asks for another is refused before any stage
        doc = json.loads((workdir / "pipeline.json").read_text())
        doc[section][key] = value
        bad = workdir / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["run", str(bad)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"riversep: config error: {message}"]
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize(
        "number",
        ["1e400", "-1e400", "NaN", pytest.param("1" + "0" * 400, id="401-digit-int")],
    )
    @pytest.mark.parametrize("section, key", [("ica", "tol"), ("fa", "alpha")])
    def test_non_finite_number_is_a_config_error(
        self, workdir, capsys, section, key, number
    ):
        # json reads 1e400 as inf and NaN as nan; a 401-digit integer has no
        # float at all
        doc = json.loads((workdir / "pipeline.json").read_text())
        doc[section][key] = "@"
        bad = workdir / "bad.json"
        bad.write_text(json.dumps(doc).replace('"@"', number))
        assert main(["run", str(bad)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert f"config error: {section}.{key} must be a finite number" in err[0]
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize(
        "command", ["ingest", "preprocess", "pca", "ica", "fa", "diagnose", "run"]
    )
    def test_negative_seed_is_a_command_line_error(self, workdir, capsys, command):
        assert main([command, str(workdir / "pipeline.json"), "--seed", "-1"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "riversep: command-line error: --seed -1: seed must be non-negative"
        ]
        assert not (workdir / "out").exists()

    def test_non_finite_cells_do_not_escape_as_a_traceback(self, workdir, capsys):
        record = workdir / "station_fixture.rdb"
        lines = record.read_text().splitlines(keepends=True)
        # one cell of a variable that survives to the models, in three rows
        column = lines[3].split("\t").index("00300")
        for row, token in ((10, "inf"), (20, "-inf"), (30, "1e400")):
            fields = lines[row].split("\t")
            fields[column] = token
            lines[row] = "\t".join(fields)
        record.write_text("".join(lines))
        code = main(["run", str(workdir / "pipeline.json")])
        err = capsys.readouterr().err
        assert code in (0, 2, 3)
        assert "Traceback" not in err
        messages = err.splitlines()
        assert len(messages) == (0 if code == 0 else 1)
        assert all(m.startswith("riversep:") for m in messages)

    def test_stage_overflow_is_a_runtime_error(self, workdir, capsys):
        # one kept sample in each of two adjacent years: the annual means
        # are finite, but their difference overflows to -inf
        set_00300_cells(workdir, "1960", ["1.7e308", "", "", ""])
        set_00300_cells(workdir, "1961", ["-1.7e308", "", "", ""])
        assert main(["run", str(workdir / "pipeline.json")]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "riversep: error in stage 'difference': "
            "difference of 00300 in 1961 is -inf: it overflows"
        ]

    @pytest.mark.parametrize("years", [("1960",), ("1960", "1961")])
    def test_annual_mean_overflow_is_reported_where_it_happens(self, workdir, capsys, years):
        # two samples of a year sum past the largest float; in two adjacent
        # years inf - inf would reach the model input as a missing cell
        for year in years:
            set_00300_cells(workdir, year, ["1.7e308", "1.7e308"])
        assert main(["run", str(workdir / "pipeline.json")]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "riversep: error in stage 'annual_mean': annual mean of 00300 in "
            "1960 is inf: its samples overflow or are infinite"
        ]

    @pytest.mark.parametrize("power", [-1000, -600, 600, 900])
    def test_a_column_in_other_units_gives_the_same_models(self, workdir, power):
        # every 00300 cell times 2**power, written exactly by repr: each
        # correlation is scale-free, and so is every file past preprocessing
        assert main(["run", str(workdir / "pipeline.json")]) == 0
        want = hash_tree(workdir / "out")
        shutil.rmtree(workdir / "out")
        edit_00300_cells(workdir, lambda cell: repr(float(cell) * 2.0**power))
        assert main(["run", str(workdir / "pipeline.json")]) == 0
        got = hash_tree(workdir / "out")
        for name in ("ingested.csv", "preprocessed.csv"):
            assert got.pop(name) != want.pop(name)
        assert got == want

    # The fixture's 1998-2000 window leaves two differenced rows of 24
    # variables: the model-input gate passes them, and each command fails in
    # its first model stage by the rows that method needs: PCA's three, which
    # ICA meets first in the correlation PCA it whitens from, FA's p + 1 and
    # the mutual-information table's ten (acf reads lag 0 of two rows).
    TWO_ROW_FAILURES = {
        "run": ("pca", "need at least 3 rows, got 2"),
        "pca": ("pca", "need at least 3 rows, got 2"),
        "ica": ("ica", "need at least 3 rows, got 2"),
        "fa": ("fa", "need at least 25 rows, got 2"),
        "diagnose": ("diagnose", "need at least 10 rows, got 2"),
    }

    @pytest.mark.parametrize("variant", ["committed", "kaiser"])
    @pytest.mark.parametrize("command", list(TWO_ROW_FAILURES))
    def test_each_command_on_two_model_rows_fails_in_its_first_model_stage(
        self, workdir, capsys, command, variant
    ):
        config = write_config(workdir, variant)
        doc = json.loads(config.read_text())
        doc["filter"].update(start="1998-01-01", min_count=4)
        config.write_text(json.dumps(doc))
        stage, message = self.TWO_ROW_FAILURES[command]
        assert main([command, str(config)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"riversep: error in stage '{stage}': {message}"
        ]

    def test_one_annual_row_fails_in_the_difference_stage(self, workdir, capsys):
        # the fixture's last year alone leaves one annual mean to difference
        config = workdir / "pipeline.json"
        doc = json.loads(config.read_text())
        doc["filter"].update(start="2000-01-01", min_count=1)
        config.write_text(json.dumps(doc))
        assert main(["preprocess", str(config)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "riversep: error in stage 'difference': need at least 2 rows, got 1"
        ]

    def test_ica_needs_ten_rows_per_component_past_pca(self, workdir, capsys):
        # the fixture's 1975-2000 window leaves 25 differenced rows of 11
        # variables: enough for PCA's 3, FA's 12 and the MI table's 10, not
        # for the 30 of FastICA's 3 components
        config = write_config(workdir)
        doc = json.loads(config.read_text())
        doc["filter"].update(start="1975-01-01")
        config.write_text(json.dumps(doc))
        assert main(["pca", str(config)]) == 0
        assert main(["ica", str(config)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "riversep: error in stage 'ica': need at least 30 rows, got 25"
        ]

    @pytest.mark.parametrize(
        "short, message",
        [
            ("one_row_window", "need at least 2 rows, got 1"),
            ("two_year_csv", "need at least 2 rows, got 1"),
        ],
    )
    @pytest.mark.parametrize("variant", ["committed", "kaiser"])
    @pytest.mark.parametrize("command", ["run", "pca", "ica", "fa", "diagnose"])
    def test_a_model_input_of_fewer_than_two_rows_fails_in_the_model_input_stage(
        self, workdir, capsys, command, variant, short, message
    ):
        # the fixture's 1999-2000 window leaves one differenced row of 24
        # variables, and two CSV years annually averaged and differenced
        # leave one row of two; no method sees either, and run keeps the
        # staged table
        config = write_config(workdir, variant)
        doc = json.loads(config.read_text())
        if short == "one_row_window":
            doc["filter"].update(start="1999-01-01", min_count=4)
        else:
            (workdir / "two_years.csv").write_text(
                "date,00300,00618\n1990-06-01,1,2\n1991-06-01,3,5\n"
            )
            del doc["filter"]
            doc.update(
                input={"path": "two_years.csv"}, redundancy_rules=[],
                pipeline=["annual_mean", "difference"],
            )
        config.write_text(json.dumps(doc))
        assert main([command, str(config)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"riversep: error in stage 'model input': {message}"
        ]
        out = workdir / doc["output_dir"]
        on_disk = sorted(p.name for p in out.iterdir()) if out.exists() else []
        assert on_disk == (["ingested.csv", "preprocessed.csv"] if command == "run" else [])

    @pytest.mark.parametrize("command", ["preprocess", "run", "pca", "ica", "fa", "diagnose"])
    def test_a_record_with_no_sample_fails_in_the_annual_mean_stage(
        self, workdir, capsys, command
    ):
        # the fixture's comment, header and format lines alone parse to a
        # table of no row, which annual_mean refuses before drop_na_columns
        # could keep every column of it; preprocess and run keep ingested.csv
        header = (workdir / "station_fixture.rdb").read_text().splitlines(keepends=True)[:5]
        (workdir / "header_only.rdb").write_text("".join(header))
        doc = json.loads((workdir / "pipeline.json").read_text())
        doc.update(input={"path": "header_only.rdb"}, pipeline=["annual_mean", "drop_na_columns"])
        config = workdir / "header_only.json"
        config.write_text(json.dumps(doc))
        assert main([command, str(config)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "riversep: error in stage 'annual_mean': the table has no rows to average"
        ]
        out = workdir / "out"
        on_disk = sorted(p.name for p in out.iterdir()) if out.exists() else []
        assert on_disk == (["ingested.csv"] if command in ("preprocess", "run") else [])

    @pytest.mark.parametrize(
        "section, message",
        [
            (
                {"start": "2001-01-01", "end": "2001-12-31", "required_variable": "00618"},
                "no rows remain",
            ),
            ({"min_count": 10000}, "no variable has at least 10000 samples"),
        ],
        ids=["empty_window", "unmet_min_count"],
    )
    @pytest.mark.parametrize("command", ["preprocess", "run", "pca", "ica", "fa", "diagnose"])
    def test_a_filter_that_empties_the_table_fails_in_the_filter_stage(
        self, workdir, capsys, command, section, message
    ):
        # a window with no sample leaves no row, and a min_count above the
        # record's length no variable; preprocess and run keep ingested.csv
        doc = json.loads((workdir / "pipeline.json").read_text())
        doc.update(filter=section, pipeline=["filter"])
        config = workdir / "emptied.json"
        config.write_text(json.dumps(doc))
        assert main([command, str(config)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"riversep: error in stage 'filter': {message}"
        ]
        out = workdir / "out"
        on_disk = sorted(p.name for p in out.iterdir()) if out.exists() else []
        assert on_disk == (["ingested.csv"] if command in ("preprocess", "run") else [])

    def test_a_preprocessed_table_as_input_reads_back_but_fails_the_first_stage(
        self, workdir, capsys
    ):
        # a run's preprocessed.csv is year-indexed: ingest writes it back byte
        # for byte, and the configured stages, which start from a dated
        # record, refuse it in the first one
        assert main(["preprocess", str(workdir / "pipeline.json")]) == 0
        annual = (workdir / "out" / "preprocessed.csv").read_bytes()
        (workdir / "annual.csv").write_bytes(annual)
        doc = json.loads((workdir / "pipeline.json").read_text())
        doc.update(input={"path": "annual.csv"}, output_dir="annual_out")
        config = workdir / "annual.json"
        config.write_text(json.dumps(doc))
        assert main(["ingest", str(config)]) == 0
        assert (workdir / "annual_out" / "ingested.csv").read_bytes() == annual
        for command in ("preprocess", "run"):
            assert main([command, str(config)]) == 3
            assert capsys.readouterr().err.splitlines() == [
                "riversep: error in stage 'filter': the table is indexed by year; "
                "this stage takes one indexed by date"
            ]

    def test_a_failing_writer_keeps_the_files_it_already_wrote(
        self, workdir, capsys, monkeypatch
    ):
        # each file is written as its writer yields it, so the files of the
        # stages before the failure stay on disk
        fit = riversep.cli.fit_fa_ml_corr

        def fail_at_k2(r, k, n):
            if k == 2:
                raise riversep.errors.RiversepError("k = 2 failed")
            return fit(r, k, n)

        monkeypatch.setattr(riversep.cli, "fit_fa_ml_corr", fail_at_k2)
        assert main(["run", str(workdir / "pipeline.json")]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "riversep: error in stage 'fa': k = 2 failed"
        ]
        assert sorted(path.name for path in (workdir / "out").iterdir()) == [
            "ica_mixing.csv",
            "ica_sources.csv",
            "ica_summary.json",
            "ingested.csv",
            "pca_loadings.csv",
            "pca_scores.csv",
            "pca_summary.json",
            "preprocessed.csv",
        ]

    # Value-level edits of column 00300, and how each config subcommand ends:
    # None when it succeeds, else the stage it fails in and the message.  ica
    # runs on the committed config, which extracts three components, and on
    # the "kaiser" variant, which counts them by Kaiser's rule; fa reads the
    # "kaiser" variant and the others the committed config.  Every edit is a
    # finite number, so ingest and preprocess, which fit no model, succeed on
    # each.  A column no method can analyse fails every model subcommand in
    # the model-input gate, whichever method would have met it first.
    _MODELS = ("pca", "ica", "fa", "diagnose", "run")
    _OVERFLOW = ("model input", "column sums of squares overflow")
    _ZERO_VARIANCE = ("model input", "column 00300 has zero sample variance")
    _UNMIXING = ("ica", "the unmixing overflows in the input's units")
    VALUE_MUTANTS = {
        # the one kept 1960 sample: its column's raw sum of squares would
        # overflow, but every model reads the column in correlation units,
        # which its sums reach scaled by a power of two
        "1e154_in_1960": (
            lambda workdir: set_00300_cells(workdir, "1960", ["1e154", "", "", ""]),
            dict.fromkeys(_MODELS),
        ),
        "1e153_in_1960": (
            lambda workdir: set_00300_cells(workdir, "1960", ["1e153", "", "", ""]),
            dict.fromkeys(_MODELS),
        ),
        # the one kept sample enters both of its differences, so the column's
        # range overflows and the gate fails before acf or the binning
        "1.7e308_in_1960": (
            lambda workdir: set_00300_cells(workdir, "1960", ["1.7e308", "", "", ""]),
            dict.fromkeys(_MODELS, _OVERFLOW),
        ),
        # the column varies, and its raw squares would underflow
        "times_1e-300": (
            lambda workdir: edit_00300_cells(workdir, lambda cell: cell + "e-300"),
            dict.fromkeys(_MODELS),
        ),
        # subnormal cells: every model analyses them but ICA, whose unmixing
        # in the input's units divides by the column's sd, about 1e-310
        "subnormal": (
            lambda workdir: edit_00300_cells(workdir, lambda cell: cell + "e-310"),
            {**dict.fromkeys(_MODELS), "ica": _UNMIXING, "run": _UNMIXING},
        ),
        "plus_1e12": (
            lambda workdir: edit_00300_cells(
                workdir, lambda cell: f"{float(cell) + 1e12:.3f}"
            ),
            dict.fromkeys(_MODELS),
        ),
        "constant": (
            lambda workdir: edit_00300_cells(workdir, lambda cell: "9.500"),
            dict.fromkeys(_MODELS, _ZERO_VARIANCE),
        ),
    }

    @pytest.mark.parametrize("mutant", sorted(VALUE_MUTANTS))
    def test_value_level_mutants_keep_the_exit_code_contract(self, workdir, capsys, mutant):
        edit, outcomes = self.VALUE_MUTANTS[mutant]
        outcomes = {"ingest": None, "preprocess": None, **outcomes}
        assert list(outcomes) == list(riversep.cli._SUBCOMMANDS)
        edit(workdir)
        committed, kaiser = workdir / "pipeline.json", write_config(workdir, "kaiser")
        runs = [(c, kaiser if c == "fa" else committed) for c in outcomes] + [("ica", kaiser)]
        for command, config in runs:
            code = main([command, str(config)])
            err = capsys.readouterr().err
            if outcomes[command] is None:
                assert (code, err) == (0, ""), (command, config.name, err)
            else:
                stage, message = outcomes[command]
                line = f"riversep: error in stage '{stage}': {message}"
                assert (code, err.splitlines()) == (3, [line]), (command, config.name, err)

    @pytest.mark.parametrize(
        "error, line",
        [
            (riversep.errors.RiversepError("injected"), "riversep: error: injected"),
            (OSError(5, "Input/output error"), "riversep: i/o error: [Errno 5] Input/output error"),
        ],
        ids=["package_error", "os_error"],
    )
    def test_an_error_outside_every_stage_is_one_line(
        self, workdir, capsys, monkeypatch, error, line
    ):
        # main's last-resort handlers: an error raised outside every stage
        # boundary that is not a config error still exits 3 with one line
        def fail(path):
            raise error

        monkeypatch.setattr(riversep.cli, "load_config", fail)
        assert main(["run", str(workdir / "pipeline.json")]) == 3
        assert capsys.readouterr().err.splitlines() == [line]
        assert not (workdir / "out").exists()

    def test_offline_without_cache_is_a_runtime_error(self, workdir, capsys):
        assert main(["ingest", str(remote_input(workdir)), "--offline"]) == 3
        assert "ingest" in capsys.readouterr().err

    def test_a_cache_dir_that_is_a_file_fails_in_the_ingest_stage(self, workdir, capsys, monkeypatch):
        body = (workdir / "station_fixture.rdb").read_bytes()
        monkeypatch.setattr(urllib.request, "urlopen", lambda *a, **k: _Served(body))
        cache = workdir / "cache"
        cache.write_bytes(b"not a directory\n")
        assert main(["ingest", str(remote_input(workdir))]) == 3
        cached = cache / "89bd5704a094020a03911517ca2af4262c666e2c447aa5bae77a0345fff9f518.rdb"
        assert capsys.readouterr().err.splitlines() == [
            f"riversep: error in stage 'ingest': download succeeded, but its cache file "
            f"{cached} could not be written: [Errno 17] File exists: '{cache}'"
        ]
        assert not (workdir / "out").exists()

    def test_a_record_where_kaiser_keeps_no_component(self, workdir, capsys):
        # pca reports the count of 0 with no explained share and scores of no
        # component, the index column alone; ica, which reads that count,
        # fails in its own stage, and run keeps the files of the stages
        # before it
        config = str(write_kaiser_zero_record(workdir))
        assert main(["pca", config]) == 0
        assert capsys.readouterr().err == ""
        summary = json.loads((workdir / "out" / "pca_summary.json").read_text())
        assert summary["kaiser_components"] == 0
        assert summary["explained_variance_kaiser"] is None
        years = "".join(f"{1980 + i}\n" for i in range(16))
        assert (workdir / "out" / "pca_scores.csv").read_text() == "year\n" + years
        shutil.rmtree(workdir / "out")
        for command in ("ica", "run"):
            code = main([command, config])
            err = capsys.readouterr().err
            assert code == 3, (command, err)
            [line] = err.splitlines()
            assert line.startswith("riversep: error in stage 'ica': "), command
            assert "Kaiser" in line, command
        assert sorted(p.name for p in (workdir / "out").iterdir()) == [
            "ingested.csv",
            "pca_loadings.csv",
            "pca_scores.csv",
            "pca_summary.json",
            "preprocessed.csv",
        ]

    def test_kaiser_keeps_no_component_whose_stdev_is_1_up_to_rounding(self, workdir, capsys):
        # another orthogonal record, whose scales 1.7 and 0.1 are not exact
        # in binary: its largest stdev rounds to the double just above 1
        # (1 + 2.2e-16 with numpy 2.4 on OpenBLAS 0.3.31; another BLAS may
        # sum in another order, still within a few eps of 1), which a count
        # of stdevs strictly above 1 would keep
        cells = kaiser_zero_cells(columns=(1, 2, 5), scales=(1.7, 0.1, 7.0))
        config = write_kaiser_zero_record(workdir, cells)
        assert main(["pca", str(config)]) == 0
        assert capsys.readouterr().err == ""
        summary = json.loads((workdir / "out" / "pca_summary.json").read_text())
        assert abs(summary["stdevs"][0] - 1.0) <= 4 * np.finfo(float).eps
        assert summary["kaiser_components"] == 0
        assert summary["explained_variance_kaiser"] is None

    @pytest.mark.parametrize("command", list(riversep.cli._SUBCOMMANDS))
    def test_an_output_dir_that_is_a_file_fails_in_the_first_writing_stage(
        self, workdir, capsys, command
    ):
        # the directory is made as the first file is written, inside the
        # boundary of the stage that writes it
        out = workdir / "out"
        out.write_bytes(b"not a directory\n")
        assert main([command, str(workdir / "pipeline.json")]) == 3
        stage = riversep.cli._SUBCOMMANDS[command][1][0]
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"riversep: error in stage '{stage}': ")
        assert str(out) in line
        assert out.read_bytes() == b"not a directory\n"

    def test_a_manifest_write_failure_is_reported_in_the_run_stage(self, workdir, capsys):
        (workdir / "out" / "manifest.json").mkdir(parents=True)
        assert main(["run", str(workdir / "pipeline.json")]) == 3
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("riversep: error in stage 'run': ")
        assert "manifest.json" in line
        assert (workdir / "out" / "fa_summary.json").exists()

    @pytest.mark.parametrize("command", ["run", "pca", "ica", "fa", "diagnose"])
    def test_a_model_input_with_missing_cells_fails_in_the_model_input_stage(
        self, workdir, capsys, command
    ):
        # with no drop_na_columns, each of the 13 variables that misses one
        # year has one missing annual mean; run keeps the staged table
        doc = json.loads((workdir / "pipeline.json").read_text())
        doc["pipeline"] = ["filter", "annual_mean"]
        config = workdir / "sparse.json"
        config.write_text(json.dumps(doc))
        assert main([command, str(config)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "riversep: error in stage 'model input': "
            "table has 13 missing cells; a dense table is required"
        ]
        out = workdir / "out"
        on_disk = sorted(p.name for p in out.iterdir()) if out.exists() else []
        assert on_disk == (["ingested.csv", "preprocessed.csv"] if command == "run" else [])

    def test_a_two_variable_record_has_no_estimable_factor_count(self, workdir, capsys):
        # at p = 2 every factor count has negative degrees of freedom; run
        # keeps the files of the stages before fa
        rng = np.random.default_rng(0)
        cells = rng.uniform(0.0, 1.0, (40, 2)) @ [[1.0, 1.0], [0.0, 1.0]]
        rows = [f"{1960 + i}-06-01,{a:.3f},{b:.3f}" for i, (a, b) in enumerate(cells)]
        (workdir / "two.csv").write_text("\n".join(["date,00300,00618", *rows]) + "\n")
        doc = json.loads((FIXTURES / "pipeline.json").read_text())
        del doc["filter"], doc["ica"]["n_components"]
        doc.update(input={"path": "two.csv"}, redundancy_rules=[], pipeline=["annual_mean"])
        config = workdir / "two.json"
        config.write_text(json.dumps(doc))
        for command in ("fa", "run"):
            assert main([command, str(config)]) == 3, command
            assert capsys.readouterr().err.splitlines() == [
                "riversep: error in stage 'fa': no factor count is estimable for 2 variables"
            ]
            if command == "fa":
                assert not (workdir / "out").exists()
        assert sorted(p.name for p in (workdir / "out").iterdir()) == [
            "ica_mixing.csv",
            "ica_sources.csv",
            "ica_summary.json",
            "ingested.csv",
            "pca_loadings.csv",
            "pca_scores.csv",
            "pca_summary.json",
            "preprocessed.csv",
        ]

    @pytest.mark.parametrize("stage", list(riversep.cli._WRITERS))
    def test_a_writer_failure_is_reported_in_its_stage(self, workdir, capsys, monkeypatch, stage):
        # the stage's writer yields one file and then raises: run names the
        # stage, and keeps that file and those of the stages before it
        def fail(pipe):
            yield stage + ".txt", "written before the failure"
            raise riversep.errors.RiversepError("injected")

        monkeypatch.setitem(riversep.cli._WRITERS, stage, fail)
        code = main(["run", str(workdir / "pipeline.json")])
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.splitlines() == [f"riversep: error in stage '{stage}': injected"]
        stages = list(riversep.cli._WRITERS)
        before = [name for s in stages[: stages.index(stage)] for name in SUBCOMMAND_OUTPUTS[s]]
        on_disk = sorted(p.name for p in (workdir / "out").iterdir())
        assert on_disk == sorted({*before, stage + ".txt"})


def mutate(data: bytes, rng, first_op: int) -> bytes:
    """``data`` with one to three byte edits: flip (xor a byte), insert a
    byte, delete a byte, or truncate, which ends the edits.  ``first_op``
    picks the first edit, so a caller can cover all four."""
    data = bytearray(data)
    ops = [first_op, *rng.integers(0, 4, size=rng.integers(0, 3))]
    for op in ops:
        i = int(rng.integers(0, len(data) + 1))
        if op == 0 and i < len(data):
            data[i] ^= int(rng.integers(1, 256))
        elif op == 1:
            data.insert(i, int(rng.integers(0, 256)))
        elif op == 2 and i < len(data):
            del data[i]
        elif op == 3:
            del data[i:]
            break
    return bytes(data)


MUTANTS_PER_TARGET = 40


@pytest.mark.parametrize("target", ["rdb", "csv", "config"])
def test_mutated_inputs_keep_the_exit_code_contract(workdir, capsys, target):
    # Seeded byte-level damage to the record or the config: every command
    # must exit 0 with a silent stderr, or 2 or 3 with a one-line message,
    # and no exception may escape main.
    rng = np.random.default_rng(["rdb", "csv", "config"].index(target))
    config = workdir / "pipeline.json"
    if target == "csv":
        assert main(["ingest", str(config)]) == 0
        shutil.copy(workdir / "out" / "ingested.csv", workdir / "station.csv")
        doc = json.loads(config.read_text())
        doc["input"] = {"path": "station.csv"}
        config.write_text(json.dumps(doc))
    name = {"rdb": "station_fixture.rdb", "csv": "station.csv", "config": "pipeline.json"}
    path = workdir / name[target]
    original = path.read_bytes()
    for i in range(MUTANTS_PER_TARGET):
        path.write_bytes(mutate(original, rng, first_op=i % 4))
        for command in ("ingest", "run"):
            code = main([command, str(config)])
            err = capsys.readouterr().err
            assert (code, len(err.splitlines())) in {(0, 0), (2, 1), (3, 1)}, (
                i, command, code, err,
            )


# The files each subcommand writes; run writes all of them plus manifest.json.
SUBCOMMAND_OUTPUTS = {
    "ingest": ["ingested.csv"],
    "preprocess": ["ingested.csv", "preprocessed.csv"],
    "pca": ["pca_loadings.csv", "pca_scores.csv", "pca_summary.json"],
    "ica": ["ica_sources.csv", "ica_mixing.csv", "ica_summary.json"],
    "fa": [f"fa_k{k}_{kind}.csv" for k in (1, 2, 3) for kind in ("loadings", "residual")]
    + ["fa_summary.json", "fa_scores.csv"],
    "diagnose": ["acf.csv", "mi.csv"],
}


@pytest.fixture(scope="module")
def run_outputs_of(tmp_path_factory):
    """The output directory of a fixture ``run`` on a config variant (see
    :func:`write_config`), each variant run once per module."""
    outputs = {}

    def run(variant):
        if variant not in outputs:
            work = tmp_path_factory.mktemp(f"{variant}_run")
            shutil.copy(FIXTURES / "station_fixture.rdb", work)
            shutil.copy(FIXTURES / "pipeline.json", work)
            config = write_config(work, variant)
            assert main(["run", str(config)]) == 0
            outputs[variant] = load_config(config).output_dir
        return outputs[variant]

    return run


@pytest.fixture(scope="module")
def run_outputs(run_outputs_of):
    return run_outputs_of("committed")


class TestSubcommands:
    def test_run_writes_every_subcommand_output_and_the_manifest(self, run_outputs):
        expected = {name for files in SUBCOMMAND_OUTPUTS.values() for name in files}
        on_disk = sorted(p.name for p in run_outputs.iterdir())
        assert on_disk == sorted(expected | {"manifest.json"})

    @pytest.mark.parametrize("variant", ["committed", "kaiser"])
    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_OUTPUTS))
    def test_subcommand_writes_its_files_as_run_does(
        self, workdir, capsys, run_outputs_of, command, variant
    ):
        config = write_config(workdir, variant)
        assert main([command, str(config)]) == 0
        out, expected = load_config(config).output_dir, run_outputs_of(variant)
        assert capsys.readouterr().err == ""
        assert sorted(p.name for p in out.iterdir()) == sorted(SUBCOMMAND_OUTPUTS[command])
        for name in SUBCOMMAND_OUTPUTS[command]:
            assert (out / name).read_bytes() == (expected / name).read_bytes(), name

    def test_ica_extracts_kaiser_count_of_the_correlation_pca(self, run_outputs_of):
        out = run_outputs_of("kaiser")
        assert json.loads((out / "ica_summary.json").read_text())["n_components"] == 3
        assert json.loads((out / "pca_summary.json").read_text())["kaiser_components"] == 3

    def test_preprocess_writes_reparseable_table(self, workdir):
        assert main(["preprocess", str(workdir / "pipeline.json")]) == 0
        out = workdir / "out"
        assert sorted(p.name for p in out.iterdir()) == [
            "ingested.csv",
            "preprocessed.csv",
        ]
        header, *rows = read_csv(out / "preprocessed.csv")
        assert header == ["year", *FINAL_CODES]
        assert len(rows) == 50
        assert rows[0][0] == "1951"
        values = np.array([row[1:] for row in rows], dtype=float)
        assert np.isfinite(values).all()

    def test_pca_outputs(self, workdir):
        assert main(["pca", str(workdir / "pipeline.json")]) == 0
        lines = (workdir / "out" / "pca_loadings.csv").read_text().splitlines()
        assert lines[0].split(",")[0] == "variable"
        assert len(lines) == 1 + 11 + 1  # header, variables, stdev row
        assert lines[-1].startswith("stdev,")
        summary = json.loads((workdir / "out" / "pca_summary.json").read_text())
        stdevs = summary["stdevs"]
        assert sorted(stdevs, reverse=True) == stdevs
        assert sum(s**2 for s in stdevs) == pytest.approx(11.0, abs=1e-8)
        assert 1 <= summary["kaiser_components"] <= 11
        assert 0.0 < summary["explained_variance_kaiser"] <= 1.0
        assert summary["min_eigenvalue"] == stdevs[-1] ** 2
        assert summary["condition_number"] == stdevs[0] ** 2 / stdevs[-1] ** 2

    def test_pca_scores_times_loadings_are_the_rank_k_approximation(self, run_outputs):
        # the written scores have variances the eigenvalues, and with the
        # written eigenvectors rebuild the standardized model input's best
        # rank-k approximation (Eckart-Young), up to the files' rounding
        x = np.array([row[1:] for row in read_csv(run_outputs / "preprocessed.csv")[1:]], float)
        z = (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)
        header, *rows = read_csv(run_outputs / "pca_scores.csv")
        scores = np.array([row[1:] for row in rows], float)
        k = scores.shape[1]
        assert header == ["year", *(f"PC{j + 1}" for j in range(k))]
        summary = json.loads((run_outputs / "pca_summary.json").read_text())
        assert k == summary["kaiser_components"]
        np.testing.assert_allclose(
            scores.var(axis=0, ddof=1), np.square(summary["stdevs"][:k]), rtol=1e-9
        )
        _, *rows = read_csv(run_outputs / "pca_loadings.csv")
        loadings = np.array([row[1 : k + 1] for row in rows[:-1]], float)  # less the stdevs
        u, s, vt = np.linalg.svd(z, full_matrices=False)
        rank_k = (u[:, :k] * s[:k]) @ vt[:k]
        # 7-decimal loadings times k = 3 scores each below 6 in magnitude
        np.testing.assert_allclose(scores @ loadings.T, rank_k, rtol=0, atol=1e-6)

    def test_pca_summary_has_no_condition_number_for_a_singular_spectrum(
        self, workdir, monkeypatch
    ):
        fit = riversep.cli.fit_pca

        def singular(*args, **kwargs):
            model = fit(*args, **kwargs)
            return replace(model, stdevs=np.append(model.stdevs[:-1], 0.0))

        monkeypatch.setattr(riversep.cli, "fit_pca", singular)
        assert main(["pca", str(workdir / "pipeline.json")]) == 0
        summary = json.loads((workdir / "out" / "pca_summary.json").read_text())
        assert summary["min_eigenvalue"] == 0.0
        assert summary["condition_number"] is None

    def test_ica_outputs_and_seed_override(self, workdir):
        assert main(["ica", str(workdir / "pipeline.json")]) == 0
        base = (workdir / "out" / "ica_sources.csv").read_bytes()
        lines = base.decode().splitlines()
        assert lines[0] == "year,IC1,IC2,IC3"
        assert len(lines) == 51  # header + 50 differenced years
        summary = json.loads((workdir / "out" / "ica_summary.json").read_text())
        assert summary["seed"] == 7

        assert main(["ica", str(workdir / "pipeline.json"), "--seed", "99"]) == 0
        summary = json.loads((workdir / "out" / "ica_summary.json").read_text())
        assert summary["seed"] == 99

    def test_ica_mixing_is_each_variables_correlation_with_each_source(self, run_outputs):
        # the least-squares mixing of the standardized input by unit-variance
        # sources; its columns descend in sum of squares, each with its
        # largest-magnitude entry positive
        header, *rows = read_csv(run_outputs / "ica_mixing.csv")
        assert header == ["variable", "IC1", "IC2", "IC3"]
        assert [row[0] for row in rows] == FINAL_CODES
        mixing = np.array([[float(cell) for cell in row[1:]] for row in rows])
        model_input = np.array([row[1:] for row in read_csv(run_outputs / "preprocessed.csv")[1:]], float)
        sources = np.array([row[1:] for row in read_csv(run_outputs / "ica_sources.csv")[1:]], float)
        r = np.corrcoef(model_input, sources, rowvar=False)[:11, 11:]
        np.testing.assert_allclose(mixing, r, rtol=0, atol=1e-6)
        assert np.all(np.diff(np.sum(mixing**2, axis=0)) < 0)
        assert (mixing[np.abs(mixing).argmax(axis=0), range(3)] > 0).all()

    def test_every_seed_writes_the_sources_in_one_order_and_sign(self, workdir):
        # over seeds 0-19 FastICA reaches one solution; the order and sign
        # rule writes each of its components in the same column, one way up
        config = str(workdir / "pipeline.json")
        first = None
        for seed in range(20):
            assert main(["ica", config, "--seed", str(seed)]) == 0
            rows = read_csv(workdir / "out" / "ica_sources.csv")[1:]
            sources = np.array([row[1:] for row in rows], float)
            if first is None:
                first = sources
            r = np.corrcoef(first, sources, rowvar=False)[:3, 3:]
            assert (np.diag(r) >= 0.999).all(), (seed, r)

    def test_ica_sources_do_not_depend_on_a_columns_units(self, workdir, run_outputs):
        # ICA whitens from the correlation PCA, so 00300 in thousandths
        # leaves every source as the committed run writes it
        edit_00300_cells(workdir, lambda cell: repr(float(cell) * 1000.0))
        assert main(["ica", str(workdir / "pipeline.json")]) == 0
        got, want = (
            np.array([row[1:] for row in read_csv(out / "ica_sources.csv")[1:]], float)
            for out in (workdir / "out", run_outputs)
        )
        np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_fa_outputs(self, workdir):
        assert main(["fa", str(workdir / "pipeline.json")]) == 0
        out = workdir / "out"
        for k in (1, 2, 3):
            assert (out / f"fa_k{k}_loadings.csv").exists()
            assert (out / f"fa_k{k}_residual.csv").exists()
        summary = json.loads((out / "fa_summary.json").read_text())
        assert [f["dof"] for f in summary["fits"]] == [44, 34, 25]
        assert summary["k_max_used"] == 3
        assert all("residual_verdict" in f for f in summary["fits"])
        header, *rows = read_csv(out / "fa_scores.csv")
        assert header == ["year", *(f"F{j + 1}" for j in range(summary["selected_k"]))]
        assert [row[0] for row in rows] == [str(year) for year in range(1951, 2001)]

    def test_diagnose_outputs(self, workdir):
        assert main(["diagnose", str(workdir / "pipeline.json")]) == 0
        acf_lines = (workdir / "out" / "acf.csv").read_text().splitlines()
        # 11 variables x lags 0..8, plus the header
        assert len(acf_lines) == 1 + 11 * 9
        mi_lines = (workdir / "out" / "mi.csv").read_text().splitlines()
        assert len(mi_lines) == 12
        header = mi_lines[0].split(",")[1:]
        assert header == FINAL_CODES
        # symmetry of the emitted matrix
        rows = [line.split(",")[1:] for line in mi_lines[1:]]
        assert rows[0][3] == rows[3][0]


    def test_mi_table_matches_one_histogram2d_per_pair(self, run_outputs):
        cfg = load_config(run_outputs.parent / "pipeline.json")
        model_input = riversep.cli._Pipeline(cfg).model_input
        table = reference_mi_table(model_input.values, cfg.mi_bins)
        lines = (run_outputs / "mi.csv").read_text().splitlines()
        assert lines[0] == ",".join(["variable", *FINAL_CODES])
        assert lines[1:] == [
            ",".join([code, *map(format_number, row)]) for code, row in zip(FINAL_CODES, table)
        ]


class TestSynthBench:
    def test_bench_writes_tables(self, tmp_path):
        rc = main(
            [
                "synth-bench",
                "--out",
                str(tmp_path / "bench"),
                "--rows",
                "300",
                "--replicates",
                "2",
            ]
        )
        assert rc == 0
        lines = (tmp_path / "bench" / "synth_bench.csv").read_text().splitlines()
        # 4 scenarios x 2 methods x 2 replicates, plus the header
        assert len(lines) == 1 + 16
        summary = json.loads((tmp_path / "bench" / "synth_summary.json").read_text())
        assert len(summary["mean_amari"]) == 8

    def test_bench_writes_the_scores_of_the_library_calls(self, tmp_path):
        out = tmp_path / "bench"
        assert main(["synth-bench", "--out", str(out), "--rows", "300",
                     "--replicates", "2", "--seed", "3"]) == 0
        expected = []
        amaris = {}
        for name, dists in [
            ("two_uniform", ["uniform", "uniform"]),
            ("three_uniform", ["uniform", "uniform", "uniform"]),
            ("two_laplace", ["laplace", "laplace"]),
            ("two_gaussian", ["gaussian", "gaussian"]),
        ]:
            for seed in (3, 4):
                sc = generate_scenario(dists, rows=300, seed=seed)
                pca_model = fit_pca(sc.observed, scale=False)
                ica_model = fast_ica(sc.observed, pca_model,
                                     IcaConfig(n_components=len(dists), seed=seed))
                for method, model in (("ica", ica_model), ("pca", pca_model)):
                    amari, matched = evaluate_recovery(sc, model)
                    expected.append([name, "+".join(dists), method, str(seed),
                                     format_number(amari), format_number(np.mean(matched))])
                    amaris.setdefault(f"{name}/{method}", []).append(amari)
        with open(out / "synth_bench.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["scenario", "distributions", "method", "seed", "amari", "mean_abs_corr"]
        assert rows[1:] == expected
        summary = json.loads((out / "synth_summary.json").read_text())
        assert summary == {
            "rows": 300,
            "seed": 3,
            "replicates": 2,
            "mean_amari": {key: float(np.mean(vals)) for key, vals in amaris.items()},
        }

    def test_bench_is_deterministic(self, tmp_path):
        args = ["synth-bench", "--rows", "300", "--replicates", "2"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        assert hash_tree(tmp_path / "a") == hash_tree(tmp_path / "b")

    def test_near_singular_unmixing_update_does_not_abort(self, tmp_path):
        # A two_gaussian replicate of this seed drives the FastICA update
        # to a near-singular matrix.
        args = ["synth-bench", "--out", str(tmp_path / "bench"), "--rows", "5000",
                "--replicates", "10", "--seed", "994300727"]
        assert main(args) == 0

    @pytest.mark.parametrize(
        "flag,value,bound",
        [
            ("--seed", -1, "at least 0"),
            ("--rows", 2, "at least 30"),
            ("--rows", 29, "at least 30"),
            # past the longest float64 array, where numpy raises "array is
            # too big" or, from 2**63, "Maximum allowed dimension exceeded"
            ("--rows", 2**60, f"at most {2**60 - 1}"),
            ("--rows", 2**63, f"at most {2**60 - 1}"),
            ("--replicates", 0, "at least 1"),
        ],
    )
    def test_bad_argument_is_a_command_line_error(self, tmp_path, capsys, flag, value, bound):
        args = ["synth-bench", "--out", str(tmp_path / "bench"), "--rows", "300",
                "--replicates", "1", flag, str(value)]
        assert main(args) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"riversep: command-line error: {flag} must be {bound}, got {value}"
        ]
        assert not (tmp_path / "bench").exists()

    def test_the_longest_float64_array_is_a_row_count_the_arguments_accept(self):
        # accepted here, refused by the allocation in the synth-bench stage;
        # checked without running, so the test asks for no memory
        args = riversep.cli._build_parser().parse_args(
            ["synth-bench", "--out", "unused", "--rows", str(2**60 - 1)]
        )
        assert riversep.cli._bench_argument_error(args) is None

    def test_a_failing_scenario_is_reported_in_the_synth_bench_stage(
        self, tmp_path, capsys, monkeypatch
    ):
        def fail(*args, **kwargs):
            raise riversep.errors.ConditioningFailed(50, 1e9)

        monkeypatch.setattr(riversep.cli, "generate_scenario", fail)
        out = tmp_path / "bench"
        assert main(["synth-bench", "--out", str(out), "--rows", "300"]) == 3
        cause = riversep.errors.ConditioningFailed(50, 1e9)
        assert capsys.readouterr().err.splitlines() == [
            f"riversep: error in stage 'synth-bench': {cause}"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "error, cause",
        [
            (MemoryError("Unable to allocate 7.28 TiB"), "Unable to allocate 7.28 TiB"),
            (MemoryError(), "MemoryError"),
        ],
        ids=["numpy", "bare"],
    )
    def test_an_allocation_failure_is_reported_in_the_synth_bench_stage(
        self, tmp_path, capsys, monkeypatch, error, cause
    ):
        # raised, never allocated: a test must not ask for the memory
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(riversep.cli, "generate_scenario", fail)
        out = tmp_path / "bench"
        assert main(["synth-bench", "--out", str(out), "--rows", "300", "--replicates", "1"]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"riversep: error in stage 'synth-bench': {cause}"
        ]
        assert not out.exists()

    def test_an_out_path_that_is_a_file_is_reported_in_the_synth_bench_stage(self, tmp_path, capsys):
        out = tmp_path / "bench"
        out.write_bytes(b"not a directory\n")
        assert main(["synth-bench", "--out", str(out), "--rows", "300", "--replicates", "1"]) == 3
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("riversep: error in stage 'synth-bench': ")
        assert str(out) in line
        assert out.read_bytes() == b"not a directory\n"

    def test_ica_separates_where_pca_cannot(self, tmp_path):
        main(["synth-bench", "--out", str(tmp_path / "bench"), "--rows", "2000"])
        summary = json.loads((tmp_path / "bench" / "synth_summary.json").read_text())
        means = summary["mean_amari"]
        assert means["two_uniform/ica"] < 0.1
        assert means["two_uniform/pca"] > means["two_uniform/ica"]


@pytest.mark.parametrize("command", ["run", "synth-bench"])
def test_fresh_processes_with_other_hash_seeds_write_the_same_bytes(workdir, command):
    # each interpreter salts str hashes with its own PYTHONHASHSEED, so an
    # output that followed the order of a set of names would differ
    args = {
        "run": [workdir / "pipeline.json"],
        "synth-bench": ["--rows", "300", "--replicates", "2", "--out", workdir / "out"],
    }[command]
    trees = []
    for seed in ("1", "2"):
        proc = riversep_in_subprocess(command, *args, env={"PYTHONHASHSEED": seed})
        assert (proc.returncode, proc.stderr) == (0, "")
        trees.append(hash_tree(workdir / "out"))
        shutil.rmtree(workdir / "out")
    assert trees[0] == trees[1]


def test_fresh_processes_with_other_hash_seeds_preprocess_the_daily_records_alike(workdir):
    # the seed-5 daily record and its three variants, each in its own
    # directory; one process per hash seed preprocesses all four, its main
    # taking each config in turn
    records = daily_records()
    for name, text in records.items():
        (workdir / name).mkdir()
        (workdir / name / "record.rdb").write_text(text)
        (workdir / name / "daily.json").write_text(daily.config_json("record.rdb", "out"))
    configs = [workdir / name / "daily.json" for name in records]
    patch = "main = cli.main\ncli.main = lambda: max(main([sys.argv[1], c]) for c in sys.argv[2:])"
    trees = []
    for seed in ("1", "2"):
        proc = riversep_in_subprocess("preprocess", *configs, patch=patch, env={"PYTHONHASHSEED": seed})
        assert (proc.returncode, proc.stderr) == (0, "")
        trees.append({name: hash_tree(workdir / name / "out") for name in records})
        for name in records:
            shutil.rmtree(workdir / name / "out")
    assert trees[0] == trees[1]
    # the row loop reads the late date's block to the C reader's table
    for file in ("ingested.csv", "preprocessed.csv"):
        assert trees[0]["late_date"][file] == trees[0]["record"][file]


class _Served:
    """What a patched ``urlopen`` returns: a 200 response with ``body``."""

    status = 200

    def __init__(self, body):
        self.body = body

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def read(self):
        return self.body


def test_remote_input_is_downloaded_once_and_ingested_as_the_path_input_is(
    workdir, monkeypatch
):
    # urlopen serves the fixture: a download, and then a cache hit with
    # --offline, each write the ingested.csv that the path input does
    assert main(["ingest", str(workdir / "pipeline.json")]) == 0
    want = (workdir / "out" / "ingested.csv").read_bytes()
    shutil.rmtree(workdir / "out")
    body = (workdir / "station_fixture.rdb").read_bytes()
    urls = []

    def serve(url, **kwargs):
        urls.append(url)
        return _Served(body)

    monkeypatch.setattr(urllib.request, "urlopen", serve)
    config = remote_input(workdir, medium_code="WS")
    for flags in ([], ["--offline"]):
        assert main(["ingest", str(config), *flags]) == 0
        assert (workdir / "out" / "ingested.csv").read_bytes() == want, flags
        shutil.rmtree(workdir / "out")
    assert urls == ["https://example.invalid/11447650"]
    # the cache name hashes site, codes, dates, medium and template; pinned
    # so that a cache written by an earlier version is still hit
    assert [p.name for p in (workdir / "cache").iterdir()] == [
        "17c965ba0f40fe06ee74d9fccc4a3c202c4733aa15045f9bfd60a6b12b40cd83.rdb"
    ]


def test_importing_the_cli_loads_no_scipy():
    code = (
        "import sys, riversep.cli; "
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(riversep.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


NETWORK_MODULES = ("urllib.request", "http.client", "ssl", "email")


def test_importing_the_cli_loads_no_network_module_until_a_fetch_runs(tmp_path):
    # one fresh interpreter: the import leaves the network stack unloaded,
    # then a download (urlopen patched) loads it, returns and caches the body
    code = f"""
import sys
import riversep.cli
from riversep.ingest import fetch_remote
print([m for m in {NETWORK_MODULES!r} if m in sys.modules])

import urllib.request

class Response:
    status = 200
    def __enter__(self):
        return self
    def __exit__(self, *exc):
        return False
    def read(self):
        return b"body"

urllib.request.urlopen = lambda url, **kwargs: Response()
print(fetch_remote("X", ["a"], "1990-01-01", "1990-12-31", sys.argv[1], "u/{{site}}"))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(riversep.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.splitlines() == ["[]", "b'body'"]
    assert [p.read_bytes() for p in tmp_path.glob("*.rdb")] == [b"body"]


# Every help text, the version, and two command-line errors argparse
# reports itself (a non-integer --rows and an unknown subcommand).
PARSER_OUTPUT_ARGS = [
    ["-h"],
    ["--version"],
    *([name, "-h"] for name in [*riversep.cli._SUBCOMMANDS, "synth-bench"]),
    ["synth-bench", "--out", "out", "--rows", "many"],
    ["no-such-command"],
]


@pytest.fixture(scope="module")
def fresh_parser_output():
    """(exit code, stdout, stderr) of each PARSER_OUTPUT_ARGS entry in a
    fresh interpreter, keyed by terminal width and arguments."""
    env = {**os.environ, "PYTHONPATH": str(Path(riversep.__file__).parents[1])}

    def fresh(key):
        columns, args = key
        proc = subprocess.run(
            [sys.executable, "-m", "riversep.cli", *args],
            env={**env, "COLUMNS": str(columns)}, capture_output=True,
        )
        return proc.returncode, proc.stdout, proc.stderr

    keys = [(columns, tuple(args)) for columns in (80, 50) for args in PARSER_OUTPUT_ARGS]
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(keys, pool.map(fresh, keys)))


@pytest.mark.parametrize("widths", [(80, 50), (50, 80)])
def test_the_cached_parser_prints_what_a_fresh_one_does(
    widths, fresh_parser_output, monkeypatch, capsysbinary
):
    # The parser is built once, at the first width, and reused at the
    # second: subcommand usage lines (whose prog add_subparsers fixes when
    # the parser is built) and help wrapping must follow the width at
    # print time, on the first call at a width and on the next.
    riversep.cli._build_parser.cache_clear()
    for columns in widths:
        monkeypatch.setenv("COLUMNS", str(columns))
        for args in PARSER_OUTPUT_ARGS:
            for _ in range(2):
                with pytest.raises(SystemExit) as exc:
                    main(args)
                out, err = capsysbinary.readouterr()
                got = (exc.value.code, out, err)
                assert got == fresh_parser_output[columns, tuple(args)], (columns, args)
    assert riversep.cli._build_parser.cache_info().misses == 1


def test_the_package_root_binds_only_its_version_and_loads_no_numpy():
    code = (
        "import sys, riversep; "
        "print([n for n in vars(riversep) if not n.startswith('_')], riversep.__version__, "
        "'numpy' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(riversep.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[] 0.1.0 False"


def test_loading_csv_writes_each_cell_with_seven_decimals():
    rng = np.random.default_rng(21)
    rows = rng.normal(size=(40, 5)) * 10.0 ** rng.integers(-9, 9, size=(40, 5))
    rows[0] = [np.nan, np.inf, -np.inf, -0.0, 0.0]
    rows[1] = [0.00000005, -0.00000005, 0.12345675, 2.5e-8, 1e300]
    codes = [f"v{i}" for i in range(len(rows))]
    want = [",".join([code, *(f"{x:.7f}" for x in row)]) for code, row in zip(codes, rows)]
    header = ["variable", *(f"F{j + 1}" for j in range(5))]
    got = riversep.report.loading_csv(header, codes, rows)
    assert got == "\n".join([",".join(header), *want]) + "\n"


def test_every_result_field_the_benchmark_tracer_probes_still_exists():
    # bench/tracer.py reads work counts off these functions' results in a
    # traced benchmark run, which no other test starts
    spec = importlib.util.spec_from_file_location("tracer", FIXTURES.parents[1] / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    rdb = (FIXTURES / "station_fixture.rdb").read_bytes()
    table = riversep.ingest.parse_rdb(rdb)
    x = np.random.default_rng(5).laplace(size=(200, 3))
    calls = {
        "ingest.parse_rdb": (rdb,),
        "ingest.parse_csv": (riversep.ingest.emit_csv(table).encode(),),
        "ingest.emit_csv": (table,),
        "fa.fit_fa_ml": (x, 1),
        "ica.fast_ica": (x, fit_pca(x, scale=True), IcaConfig(n_components=2)),
    }
    assert set(tracer.PROBES) == set(calls)
    for key, probe in tracer.PROBES.items():
        layer, name = key.split(".")
        fn = getattr(importlib.import_module(f"riversep.{layer}"), name)
        attrs = probe(calls[key], {}, fn(*calls[key]))
        assert attrs and None not in attrs.values(), key
