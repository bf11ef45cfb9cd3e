"""End-to-end determinism: experiments at --jobs 4 == --jobs 1.

The acceptance claim of the parallel runner: for a governed experiment
and a fault-perturbed experiment, the JSON-serialised result series
produced with four worker processes is byte-identical to the inline
series.  Cells carry their governor config and fault-plan seed inside
the spec, so a worker process reconstructs exactly the substrate the
inline path builds.
"""

import json

import pytest

from repro.bench import run_plan, use_runner
from repro.runner import clear_memo


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()


def _series(name, jobs, **kwargs):
    """Run an experiment through the runner and canonicalise its rows."""
    with use_runner(jobs=jobs, cache=None):
        headers, rows, _notes = run_plan(name, **kwargs)
    return json.dumps(
        {"headers": headers, "rows": [list(r) for r in rows]},
        sort_keys=True,
    )


def test_governor_experiment_jobs4_matches_jobs1():
    kwargs = {"sizes": (64 << 10,), "iterations": 2, "n_ranks": 32}
    inline = _series("ext-governor-alltoall", 1, **kwargs)
    clear_memo()  # jobs=4 must recompute, not replay the memo
    parallel = _series("ext-governor-alltoall", 4, **kwargs)
    assert parallel == inline


def test_fault_experiment_jobs4_matches_jobs1():
    kwargs = {"sizes": (64 << 10,), "iterations": 2, "n_ranks": 32}
    inline = _series("ext-faults", 1, **kwargs)
    clear_memo()
    parallel = _series("ext-faults", 4, **kwargs)
    assert parallel == inline
