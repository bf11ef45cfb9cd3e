"""Fast smoke tests of the experiment plans with reduced parameters,
so `pytest tests/` exercises the bench code paths without the full sweeps."""

import pytest

from repro.bench import run_plan
from repro.runner import SweepCell, execute_cell

SMALL = (64 << 10,)


def _check(headers, rows, notes):
    assert headers
    assert rows
    for row in rows:
        assert len(row) == len(headers)
    assert isinstance(notes, str)


def test_fig2a_smoke():
    _check(*run_plan("fig2a", sizes=SMALL))


def test_fig2b_smoke():
    _check(*run_plan("fig2b", sizes=SMALL))


def test_fig2c_smoke():
    _check(*run_plan("fig2c", sizes=(1024,)))


def test_fig6a_smoke():
    _check(*run_plan("fig6a", sizes=SMALL))


def test_fig7a_smoke():
    headers, rows, notes = run_plan("fig7a", sizes=SMALL)
    _check(headers, rows, notes)
    # Scheme ordering holds even at one point.
    assert rows[0][1] < rows[0][2] < rows[0][3]


def test_fig8a_smoke():
    _check(*run_plan("fig8a", sizes=SMALL))


def test_alltoallv_smoke():
    _check(*run_plan("alltoallv", sizes=SMALL))


def test_models_validation_smoke():
    _check(*run_plan("models", nbytes=64 << 10))


def test_granularity_smoke():
    _check(*run_plan("ablation-granularity", nbytes=64 << 10))


def test_overheads_smoke():
    _check(*run_plan("ablation-overheads", nbytes=64 << 10, overheads_us=(0.0, 12.0)))


def test_run_collective_loop_iterations():
    """The collective cell's OSU loop: three back-to-back calls take
    about three times one."""

    def loop(iterations):
        return execute_cell(SweepCell(
            experiment="smoke", kind="collective",
            params={"op": "bcast", "nbytes": 64 << 10, "n_ranks": 16,
                    "iterations": iterations},
        ))

    one, three = loop(1), loop(3)
    assert three.duration_s == pytest.approx(3 * one.duration_s, rel=0.05)
