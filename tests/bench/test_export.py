"""Tests for the JSON experiment export."""

import json
import os

import pytest

from repro.bench import experiment_to_dict, load_json, save_json


HEADERS = ["Size", "Latency (us)"]
ROWS = [("16K", 10.5), ("1M", 600.0)]


def test_experiment_to_dict_schema():
    record = experiment_to_dict("exp", HEADERS, ROWS, notes="n")
    assert record["schema"] == 1
    assert record["experiment"] == "exp"
    assert record["headers"] == HEADERS
    assert record["rows"] == [["16K", 10.5], ["1M", 600.0]]
    assert record["records"][0] == {"Size": "16K", "Latency (us)": 10.5}
    assert record["notes"] == "n"


def test_experiment_to_dict_ragged_rejected():
    with pytest.raises(ValueError):
        experiment_to_dict("exp", HEADERS, [(1,)])


def test_save_and_load_roundtrip(tmp_path):
    path = save_json("exp", HEADERS, ROWS, results_dir=str(tmp_path))
    assert os.path.basename(path) == "exp.json"
    record = load_json(path)
    assert record["rows"] == [["16K", 10.5], ["1M", 600.0]]


def test_load_rejects_bad_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": 99, "experiment": "x"}))
    with pytest.raises(ValueError):
        load_json(str(path))


def test_load_rejects_missing_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": 1, "experiment": "x"}))
    with pytest.raises(ValueError):
        load_json(str(path))


def test_cli_governor_flag_prints_summary():
    import io

    from repro.cli import main

    out = io.StringIO()
    code = main(
        ["osu", "alltoall", "--size", "64K", "--governor", "countdown"], out=out
    )
    assert code == 0
    assert "governor[countdown]:" in out.getvalue()


def test_cli_governor_theta_requires_governor():
    import io

    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["osu", "alltoall", "--governor-theta", "100"], out=io.StringIO())


def test_cli_experiment_json_flag(tmp_path):
    import io

    from repro.cli import main

    out = io.StringIO()
    code = main(["experiment", "models", "--json", str(tmp_path)], out=out)
    assert code == 0
    record = load_json(str(tmp_path / "models.json"))
    assert record["experiment"] == "models"
    assert record["rows"]
