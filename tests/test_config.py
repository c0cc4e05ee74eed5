"""Validation tests for the JSON run configuration."""

import datetime
import hashlib
import json
import re
import shutil
from pathlib import Path

import pytest

from riversep.cli import main
from riversep.config import RunConfig, load_config
from riversep.errors import ConfigError

# every warning a run raises fails its test, as in a fresh `python -W error`
pytestmark = pytest.mark.filterwarnings("error")

FIXTURES = Path(__file__).parent / "fixtures"

MINIMAL = {
    "input": {"path": "data.rdb"},
    "pipeline": ["annual_mean"],
    "output_dir": "out",
}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_minimal_config_loads(tmp_path):
    cfg = load_config(write_config(tmp_path, MINIMAL))
    assert isinstance(cfg, RunConfig)
    assert cfg.input_path == tmp_path / "data.rdb"
    assert cfg.output_dir == tmp_path / "out"
    assert cfg.pipeline == ("annual_mean",)
    assert cfg.ica.n_components is None
    assert cfg.fa_k_max == 5
    assert cfg.fa_alpha == 0.05


def test_config_hash_matches_file_bytes(tmp_path):
    path = write_config(tmp_path, MINIMAL)
    cfg = load_config(path)
    assert cfg.config_sha256 == hashlib.sha256(path.read_bytes()).hexdigest()


def test_paths_resolve_against_config_directory(tmp_path):
    nested = tmp_path / "a" / "b"
    nested.mkdir(parents=True)
    cfg = load_config(write_config(nested, MINIMAL))
    assert cfg.input_path.parent == nested
    assert cfg.output_dir.parent == nested


def test_unknown_top_level_key(tmp_path):
    doc = dict(MINIMAL, colour="blue")
    with pytest.raises(ConfigError, match="colour"):
        load_config(write_config(tmp_path, doc))


def test_unknown_nested_key(tmp_path):
    doc = dict(MINIMAL, pca={"center": True, "rotate": True})
    with pytest.raises(ConfigError, match="rotate"):
        load_config(write_config(tmp_path, doc))


@pytest.mark.parametrize("stage", ["normalize", ["annual_mean"]])
def test_unknown_stage(tmp_path, stage):
    doc = dict(MINIMAL, pipeline=[stage])
    with pytest.raises(ConfigError, match=re.escape(f"unknown pipeline stage {stage!r}")):
        load_config(write_config(tmp_path, doc))


DATED_STAGES = ("filter", "drop_incomplete_rows")
ANNUAL_STAGES = ("drop_na_columns", "drop_redundant", "difference")
FULL_PIPELINE = [*DATED_STAGES, "annual_mean", *ANNUAL_STAGES]


def misplaced_pipelines():
    """(pipeline, stage): ``stage`` on the wrong side of ``annual_mean``."""
    yield ["difference", "annual_mean"], "difference"
    yield ["annual_mean", "drop_incomplete_rows"], "drop_incomplete_rows"
    for stage in FULL_PIPELINE:
        if stage == "annual_mean":
            continue
        rest = [s for s in FULL_PIPELINE if s != stage]
        pivot = rest.index("annual_mean")
        if stage in DATED_STAGES:
            wrong = range(pivot + 1, len(rest) + 1)
        else:
            wrong = range(pivot + 1)
        for i in wrong:
            yield rest[:i] + [stage] + rest[i:], stage
    # an annual stage with no annual_mean at all
    for stage in ANNUAL_STAGES:
        yield [stage], stage
        yield [*DATED_STAGES, stage], stage


@pytest.mark.parametrize(
    "pipeline, stage",
    list(misplaced_pipelines()),
    ids=lambda p: ">".join(p) if isinstance(p, list) else None,
)
def test_misplaced_stage(tmp_path, pipeline, stage):
    doc = dict(
        MINIMAL,
        pipeline=pipeline,
        filter={},
        redundancy_rules=[{"composite": "00600", "parts": ["00605"]}],
    )
    with pytest.raises(ConfigError) as info:
        load_config(write_config(tmp_path, doc))
    side = "before" if stage in DATED_STAGES else "after"
    assert f"stage {stage!r}" in str(info.value)
    assert f"must come {side} 'annual_mean'" in str(info.value)


def test_duplicate_stage(tmp_path):
    doc = dict(MINIMAL, pipeline=["annual_mean", "drop_na_columns", "drop_na_columns"])
    with pytest.raises(ConfigError, match="more than once"):
        load_config(write_config(tmp_path, doc))


def test_filter_stage_requires_filter_section(tmp_path):
    doc = dict(MINIMAL, pipeline=["filter", "annual_mean"])
    with pytest.raises(ConfigError, match="filter"):
        load_config(write_config(tmp_path, doc))


def test_drop_redundant_requires_rules(tmp_path):
    doc = dict(MINIMAL, pipeline=["annual_mean", "drop_redundant"])
    with pytest.raises(ConfigError, match="redundancy_rules"):
        load_config(write_config(tmp_path, doc))


def test_filter_section_parses(tmp_path):
    doc = dict(
        MINIMAL,
        pipeline=["filter", "annual_mean"],
        filter={
            "min_count": 40,
            "start": "1950-01-01",
            "end": "2000-12-31",
            "required_variable": "00618",
        },
    )
    cfg = load_config(write_config(tmp_path, doc))
    assert cfg.filter_spec.min_count == 40
    assert cfg.filter_spec.start == datetime.date(1950, 1, 1)
    assert cfg.filter_spec.required_variable == "00618"


@pytest.mark.parametrize(
    "section, match",
    [
        ({"min_count": 0}, "min_count must be at least 1"),
        ({"start": "2000-01-02", "end": "2000-01-01"}, "start date is after end date"),
    ],
)
def test_filter_range_rules_are_config_errors(tmp_path, section, match):
    doc = dict(MINIMAL, pipeline=["filter", "annual_mean"], filter=section)
    with pytest.raises(ConfigError, match=f"invalid 'filter' section: .*{match}"):
        load_config(write_config(tmp_path, doc))


def test_bad_date_rejected(tmp_path):
    doc = dict(
        MINIMAL,
        pipeline=["filter", "annual_mean"],
        filter={"start": "last tuesday"},
    )
    with pytest.raises(ConfigError, match="ISO date"):
        load_config(write_config(tmp_path, doc))


@pytest.mark.parametrize(
    "start", ["19500101", "1950-W01-1", " 1950-01-01", "1950-1-01", "\uff11950-01-01", "0000-01-01"]
)
def test_a_date_not_spelled_yyyy_mm_dd_is_rejected(tmp_path, start):
    # one rule on every Python: 3.11's fromisoformat reads the first two
    doc = dict(MINIMAL, pipeline=["filter", "annual_mean"], filter={"start": start})
    with pytest.raises(ConfigError, match="filter.start must be an ISO date"):
        load_config(write_config(tmp_path, doc))


def test_bool_is_not_an_integer(tmp_path):
    doc = dict(MINIMAL, ica={"n_components": True})
    with pytest.raises(ConfigError, match="n_components"):
        load_config(write_config(tmp_path, doc))


def test_null_ica_components_decides_from_the_data(tmp_path):
    cfg = load_config(write_config(tmp_path, dict(MINIMAL, ica={"n_components": None})))
    assert cfg.ica.n_components is None


def test_the_ica_count_has_one_home(tmp_path):
    # the ICA section is kept as written; no field beside it carries the count
    assert "ica_components" not in RunConfig.__dataclass_fields__
    cfg = load_config(write_config(tmp_path, dict(MINIMAL, ica={"n_components": 3})))
    assert cfg.ica.n_components == 3


def test_non_bool_flag_rejected(tmp_path):
    doc = dict(MINIMAL, pca={"center": 1})
    with pytest.raises(ConfigError, match="center"):
        load_config(write_config(tmp_path, doc))


def test_center_true_loads(tmp_path):
    # an absent pca.center loads as in test_minimal_config_loads; so do
    # pca.scale and ica.contrast at the one value each admits (other values
    # are refused in test_cli's TestExitCodes)
    doc = dict(MINIMAL, pca={"center": True, "scale": True}, ica={"contrast": "logcosh"})
    assert isinstance(load_config(write_config(tmp_path, doc)), RunConfig)


def fixture_config(tmp_path, old, new):
    """The fixture config with ``old`` replaced by ``new``, beside its record."""
    shutil.copy(FIXTURES / "station_fixture.rdb", tmp_path)
    text = (FIXTURES / "pipeline.json").read_text()
    assert old in text
    path = tmp_path / "cfg.json"
    path.write_text(text.replace(old, new))
    return path


@pytest.mark.parametrize(
    "command", ["ingest", "preprocess", "pca", "ica", "fa", "diagnose", "run"]
)
def test_uncentered_pca_is_a_config_error(tmp_path, capsys, command):
    # PCA always centers, so a config that asks for no centering is refused
    # before any stage runs or any file is written
    path = fixture_config(tmp_path, '"center": true', '"center": false')
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "riversep: config error: pca.center must be true: PCA always centers its input"
    ]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["diagnose", "run"])
def test_bins_past_the_cap_are_a_config_error(tmp_path, capsys, command):
    # mutual information caps bins at 1024; the config reader refuses more
    # before any stage runs, not with a traceback from the allocation
    at_cap = fixture_config(tmp_path, '"bins": 6', '"bins": 1024')
    assert load_config(at_cap).mi_bins == 1024
    path = fixture_config(tmp_path, '"bins": 6', '"bins": 100000')
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "riversep: config error: diagnostics.bins must be at most 1024, got 100000"
    ]
    assert not (tmp_path / "out").exists()


def test_integer_too_long_to_convert_is_a_config_error(tmp_path, capsys):
    # past 4300 digits json raises a plain ValueError, not a JSONDecodeError
    path = fixture_config(tmp_path, '"max_iter": 200', '"max_iter": ' + "1" * 5001)
    with pytest.raises(
        ConfigError, match=r"holds an integer too long to read \(over 4300 digits\)$"
    ):
        load_config(path)
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("riversep: config error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "keys,value,message",
    [
        (["fa", "k_max"], 0, "fa.k_max must be at least 1, got 0"),
        (["diagnostics", "max_lag"], 0, "diagnostics.max_lag must be at least 1, got 0"),
        (["diagnostics", "bins"], 1, "diagnostics.bins must be at least 2, got 1"),
        (["difference_lag"], 1, "unknown key 'difference_lag' in the config root"),
        (["filter", "start"], "19500101", "filter.start must be an ISO date, got '19500101'"),
        (["redundancy_rules"], {}, "'redundancy_rules' must be a list"),
        (["pipeline"], [], "'pipeline' must be a non-empty list of stage names"),
        ([], [], "config root must be a JSON object"),
    ],
)
def test_each_config_error_is_one_line_before_any_output(tmp_path, capsys, keys, value, message):
    # the fixture config with the value at ``keys`` (the whole document for
    # none) replaced
    shutil.copy(FIXTURES / "station_fixture.rdb", tmp_path)
    doc = json.loads((FIXTURES / "pipeline.json").read_text())
    if keys:
        *parents, last = keys
        section = doc
        for key in parents:
            section = section[key]
        section[last] = value
    else:
        doc = value
    assert main(["run", str(write_config(tmp_path, doc))]) == 2
    assert capsys.readouterr().err.splitlines() == [f"riversep: config error: {message}"]
    assert not (tmp_path / "out").exists()


def test_filter_medium_code_is_an_unknown_key(tmp_path):
    doc = dict(
        MINIMAL,
        pipeline=["filter", "annual_mean"],
        filter={"medium_code": "WS"},
    )
    with pytest.raises(ConfigError, match="medium_code"):
        load_config(write_config(tmp_path, doc))


def test_readme_configs_load_and_run(tmp_path):
    # Every JSON block in the README is a run config; it must load, and
    # run on the bundled record it names.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
    assert blocks
    for i, block in enumerate(blocks):
        work = tmp_path / f"block{i}"
        work.mkdir()
        (work / "cfg.json").write_text(block)
        shutil.copy(FIXTURES / json.loads(block)["input"]["path"], work)
        cfg = load_config(work / "cfg.json")
        assert cfg.input_path.exists()
        assert main(["run", str(work / "cfg.json")]) == 0


def test_bad_contrast(tmp_path):
    doc = dict(MINIMAL, ica={"contrast": "quartic"})
    with pytest.raises(ConfigError, match="contrast"):
        load_config(write_config(tmp_path, doc))


def test_alpha_bounds(tmp_path):
    doc = dict(MINIMAL, fa={"alpha": 1.0})
    with pytest.raises(ConfigError, match="alpha"):
        load_config(write_config(tmp_path, doc))


def test_redundancy_rules_parse(tmp_path):
    doc = dict(
        MINIMAL,
        redundancy_rules=[{"composite": "00600", "parts": ["00605", "00608"]}],
    )
    cfg = load_config(write_config(tmp_path, doc))
    assert cfg.redundancy_rules[0].composite == "00600"
    assert cfg.redundancy_rules[0].parts == ("00605", "00608")


def test_self_referential_rule_rejected(tmp_path):
    doc = dict(
        MINIMAL,
        redundancy_rules=[{"composite": "00600", "parts": ["00600"]}],
    )
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, doc))


@pytest.mark.parametrize(
    "item, message",
    [
        ("00600", "'redundancy_rules[0]' must be an object"),
        ({"composite": "00600"}, "missing required key 'parts' in 'redundancy_rules[0]'"),
        ({"parts": ["00605"]}, "missing required key 'composite' in 'redundancy_rules[0]'"),
        (
            {"composite": "00600", "parts": ["00605"], "extra": 1},
            "unknown key 'extra' in 'redundancy_rules[0]'",
        ),
        ({"composite": "00600", "parts": "00605"}, "redundancy_rules[0].parts must be a list of strings"),
        ({"composite": 600, "parts": ["00605"]}, "redundancy_rules[0].composite must be a string, got 600"),
        (
            {"composite": "00600", "parts": ["00600"]},
            "invalid 'redundancy_rules[0]' section: a composite cannot be its own part",
        ),
        (
            {"composite": "00600", "parts": []},
            "invalid 'redundancy_rules[0]' section: a redundancy rule needs at least one part",
        ),
    ],
)
def test_a_rule_item_is_read_as_every_section_is(tmp_path, item, message):
    doc = dict(MINIMAL, redundancy_rules=[item])
    with pytest.raises(ConfigError) as info:
        load_config(write_config(tmp_path, doc))
    assert str(info.value) == message


def test_remote_input_parses(tmp_path):
    doc = dict(
        MINIMAL,
        input={
            "site": "11447650",
            "codes": ["00618", "00608"],
            "start": "1950-01-01",
            "end": "2000-12-31",
            "url_template": "https://example.invalid/{site}",
        },
    )
    cfg = load_config(write_config(tmp_path, doc))
    assert cfg.input_path is None
    assert cfg.remote["site"] == "11447650"
    assert cfg.remote["codes"] == ("00618", "00608")
    assert cfg.remote["cache_dir"] == tmp_path / "cache"


def test_input_needs_path_or_site(tmp_path):
    doc = dict(MINIMAL, input={})
    with pytest.raises(ConfigError, match="path"):
        load_config(write_config(tmp_path, doc))


def test_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(path)


@pytest.mark.parametrize("data", [b"{not json", b'{"output_dir": "\xff"}'])
def test_undecodable_config_is_not_valid_json(tmp_path, data):
    # bad JSON and bad UTF-8, unlike an over-long integer, are reported as
    # not valid JSON, with the decoder's own reason
    path = tmp_path / "broken.json"
    path.write_bytes(data)
    with pytest.raises(ConfigError, match=r"broken\.json is not valid JSON: \S"):
        load_config(path)


def test_a_config_with_a_byte_order_mark_is_refused_by_name(tmp_path):
    # unlike an input record, whose reader drops one leading mark
    path = write_config(tmp_path, MINIMAL)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    with pytest.raises(ConfigError, match=r"cfg\.json is not valid JSON: Unexpected UTF-8 BOM"):
        load_config(path)


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.json")
