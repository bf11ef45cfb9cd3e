"""CLI surface of the runner: --jobs/--cache-dir/--no-cache/--refresh
flags and the `bench-report` command."""

import io

import pytest

from repro.cli import main
from repro.runner import clear_memo


@pytest.fixture(autouse=True)
def _isolated(tmp_path, monkeypatch):
    # Sweep stats land in ./results; keep them (and the cache) in tmp.
    monkeypatch.chdir(tmp_path)
    clear_memo()
    yield
    clear_memo()


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_experiment_jobs_stdout_identical(tmp_path):
    """--jobs 2 must not change a single byte of experiment output."""
    code1, one = run_cli("experiment", "fig2c", "--jobs", "1", "--no-cache")
    clear_memo()
    code2, two = run_cli("experiment", "fig2c", "--jobs", "2", "--no-cache")
    assert code1 == code2 == 0
    assert one == two


def test_cache_warm_run_hits_and_matches(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    code1, cold = run_cli("experiment", "fig2c", "--cache-dir", str(cache_dir))
    clear_memo()  # second run must be served by the *disk* layer
    code2, warm = run_cli("experiment", "fig2c", "--cache-dir", str(cache_dir))
    assert code1 == code2 == 0
    assert cold == warm
    # The runner summary goes to stderr precisely so stdout stays
    # byte-comparable; the warm run must report a full hit rate there.
    err = capsys.readouterr().err
    assert "5 cache hits" in err


def test_refresh_skips_cache_reads(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    run_cli("experiment", "fig2c", "--cache-dir", str(cache_dir))
    clear_memo()
    run_cli("experiment", "fig2c", "--cache-dir", str(cache_dir), "--refresh")
    err = capsys.readouterr().err
    assert "0 cache hits" in err.splitlines()[-2] + err.splitlines()[-1]


def test_governed_experiment_honors_jobs_and_cache(tmp_path, capsys):
    """--governor rides the runner now: --jobs 2 and a warm-cache rerun
    must both reproduce the cold inline stdout byte-for-byte, including
    the governor summary line."""
    cache_dir = tmp_path / "cache"
    argv = ("experiment", "fig2c", "--governor", "countdown",
            "--cache-dir", str(cache_dir))
    code1, cold = run_cli(*argv, "--jobs", "1")
    clear_memo()
    code2, jobs2 = run_cli(*argv, "--jobs", "2")
    clear_memo()
    code3, warm = run_cli(*argv, "--jobs", "1")
    assert code1 == code2 == code3 == 0
    assert "governor[countdown]" in cold
    assert jobs2 == cold
    assert warm == cold
    err = capsys.readouterr().err
    assert "cache hits" in err


def test_faulted_experiment_honors_jobs_and_cache(tmp_path):
    cache_dir = tmp_path / "cache"
    argv = ("experiment", "fig2c", "--faults", "degrade:factor=0.5",
            "--fault-seed", "3", "--cache-dir", str(cache_dir))
    code1, cold = run_cli(*argv, "--jobs", "1")
    clear_memo()
    code2, jobs2 = run_cli(*argv, "--jobs", "2")
    clear_memo()
    code3, warm = run_cli(*argv, "--jobs", "1")
    assert code1 == code2 == code3 == 0
    assert "faults[seed=3]" in cold
    assert jobs2 == cold
    assert warm == cold


def test_governed_osu_reports_through_runner(tmp_path):
    """osu cells carry the governor config and the summary line reflects
    the reconstructed in-worker reports (warm rerun identical)."""
    cache_dir = tmp_path / "cache"
    argv = ("osu", "alltoall", "--size", "64K", "--governor", "countdown",
            "--cache-dir", str(cache_dir))
    code1, cold = run_cli(*argv)
    clear_memo()
    code2, warm = run_cli(*argv)
    assert code1 == code2 == 0
    assert "governor[countdown]" in cold
    assert warm == cold


def test_bench_report_renders_last_sweep(tmp_path):
    run_cli("experiment", "fig2c", "--no-cache")
    code, text = run_cli("bench-report")
    assert code == 0
    assert "fig2c" in text
    assert "p50" in text and "p95" in text
    assert "hit rate" in text


def test_bench_report_renders_folded_reports(tmp_path):
    """A governed sweep persists its folded reports snapshot, one
    sample per governed cell, and bench-report --metrics renders it."""
    import json

    run_cli("experiment", "fig2c", "--governor", "countdown", "--no-cache")
    with open(tmp_path / "results" / "last_sweep.json") as fh:
        reports = json.load(fh)["reports"]
    assert reports["series"]["governor.drops"]["n"] == 5
    code, text = run_cli("bench-report", "--metrics")
    assert code == 0
    assert "== reports ==" in text and "governor.drops" in text


def test_bench_report_without_stats_fails_cleanly(tmp_path):
    code, text = run_cli("bench-report", "--results-dir", str(tmp_path / "none"))
    assert code == 1
    assert "no sweep recorded" in text.lower()
