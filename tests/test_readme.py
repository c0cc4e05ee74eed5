"""The README's Python example runs as written, its config for the
bundled record is the committed one, and its truth scorecard quotes what
``tests/scorecard.py`` computes."""

import re
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np

import scorecard
from riversep.cli import main
from riversep.config import load_config

ROOT = Path(__file__).parents[1]
FIXTURES = Path(__file__).parent / "fixtures"


def test_python_example_runs_on_the_fixture_model_input(tmp_path, monkeypatch):
    # the example reads the preprocessed table as `riversep preprocess`
    # writes it, year column and all
    shutil.copy(FIXTURES / "station_fixture.rdb", tmp_path)
    shutil.copy(FIXTURES / "pipeline.json", tmp_path)
    assert main(["preprocess", str(tmp_path / "pipeline.json")]) == 0

    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(blocks[0], namespace)
    assert namespace["x"].shape == (50, 11)
    assert namespace["k"] == 3  # Kaiser's count on the fixture
    assert namespace["ica"].sources.shape == (50, 3)
    assert [m.k for m in namespace["fits"]] == [1, 2, 3]
    assert np.isfinite([m.p_value for m in namespace["fits"]]).all()
    assert namespace["autocorrelation"].values.shape == (11, 9)


def test_config_for_the_bundled_record_loads_to_the_committed_config(tmp_path):
    # every setting of tests/fixtures/pipeline.json, so the figures the
    # README quotes from a run of it (mi.csv's 6 bins among them) hold
    text = (ROOT / "README.md").read_text()
    block = re.search(r"A config for the bundled station record.*?```json\n(.*?)```", text, re.S)
    (tmp_path / "pipeline.json").write_text(block.group(1))
    got = load_config(tmp_path / "pipeline.json")
    want = load_config(FIXTURES / "pipeline.json")
    assert (got.input_path.name, got.output_dir.name) == (want.input_path.name, want.output_dir.name)
    same_paths = dict(input_path=want.input_path, output_dir=want.output_dir)
    assert replace(got, config_sha256=want.config_sha256, **same_paths) == want


def test_truth_scorecard_quotes_the_committed_configs_rows():
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## Truth scorecard") :].split("\n## ", 1)[0]
    quoted = {
        method: (int(k), series, matched)
        for method, k, series, matched in re.findall(
            r"^\| (PCA|FA|ICA) \| (\d+) \| ([\w.' /]+) \| ([\d.]+) \|$", section, re.M
        )
    }
    configs = scorecard.variants()
    rows = scorecard.scorecard(configs["committed"]).rows
    assert quoted == {
        method: (
            rows[method].k,
            scorecard.cells(rows[method].series) or "as PCA's",
            f"{rows[method].matched:.3f}",
        )
        for method in ("PCA", "FA", "ICA")
    }
    third = scorecard.scorecard(configs["no required_variable"]).rows["PCA"].series[2]
    assert f"raises PCA's third correlation to {third:.3f}" in " ".join(section.split())
