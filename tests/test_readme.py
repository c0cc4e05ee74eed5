"""The README's Python example runs as written."""

import re
import shutil
from pathlib import Path

import numpy as np

from riversep.cli import main

ROOT = Path(__file__).parents[1]
FIXTURES = Path(__file__).parent / "fixtures"


def test_python_example_runs_on_the_fixture_model_input(tmp_path, monkeypatch):
    # the example reads a header line and then plain numeric rows: the
    # fixture's preprocessed table without its year column
    shutil.copy(FIXTURES / "station_fixture.rdb", tmp_path)
    shutil.copy(FIXTURES / "pipeline.json", tmp_path)
    assert main(["preprocess", str(tmp_path / "pipeline.json")]) == 0
    lines = (tmp_path / "out" / "preprocessed.csv").read_text().splitlines()
    table = "".join(line.split(",", 1)[1] + "\n" for line in lines)
    (tmp_path / "annual_table.csv").write_text(table)

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
