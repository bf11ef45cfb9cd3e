"""Checks of the benchmark itself (about 20 s)::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import layers  # noqa: E402
import workloads  # noqa: E402

GOVERNED = "alltoall-governed"


def _traced_pass(work_dir):
    workload = workloads.WORKLOADS[GOVERNED]
    cells = workloads.prepare(GOVERNED, workloads.DEFAULT_SEED)
    tracer = layers.Tracer()
    tracer.install()
    try:
        result = workloads.run_pass(workload, cells, work_dir, tracer.clock)
    finally:
        tracer.uninstall()
    return result, tracer


def test_traced_pass_repeats_counters_and_outputs_and_tiles(tmp_path):
    first, tracer = _traced_pass(tmp_path)
    counters = tracer.counters(first.results)
    second, again = _traced_pass(tmp_path)

    assert tracer.missing == []
    assert again.counters(second.results) == counters
    for name in ("sim.events", "mpi.sends", "network.flows_rerated",
                 "runtime.drops", "power.listener_calls",
                 "faults.perturbations", "cluster.state_changes"):
        assert counters[name] > 0, name
    # Tracing leaves the simulated outputs byte-identical.
    assert first.digests == workloads.stored_digests(GOVERNED, workloads.DEFAULT_SEED)
    assert second.digests == first.digests
    # The layer times tile the timed region.
    clock = tracer.clock
    assert clock.layer == layers.UNTRACED
    assert abs(sum(clock.self_s.values()) - first.wall_s) <= 1e-3 * first.wall_s + 1e-4
    assert clock.self_s["runtime"] > 0 and clock.self_s["faults"] > 0


def test_uninstall_restores_every_hook():
    from repro.mpi.context import RankContext
    from repro.runner import cells, pool
    from repro.sim.engine import Environment

    before = (Environment.__dict__["run"], Environment.__dict__["__init__"],
              RankContext.__dict__["alltoall"], cells.execute_cell,
              pool.execute_cell, pool.run_cells)
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert pool.execute_cell is not before[4]
        assert cells.execute_cell is pool.execute_cell
    finally:
        tracer.uninstall()
    after = (Environment.__dict__["run"], Environment.__dict__["__init__"],
             RankContext.__dict__["alltoall"], cells.execute_cell,
             pool.execute_cell, pool.run_cells)
    assert after == before


def test_timed_resumptions_delegate_like_yield_from():
    clock = layers.LayerClock()

    def worker():
        try:
            yield "first"
        except KeyError:
            yield "caught"
        return "done"

    def driver():
        return (yield from layers.timed_resumptions(worker(), "mpi", clock))

    gen = driver()
    assert next(gen) == "first"
    assert gen.throw(KeyError("x")) == "caught"
    with pytest.raises(StopIteration) as stop:
        gen.send(None)
    assert stop.value.value == "done"
    assert clock.layer == layers.UNTRACED
    assert clock.self_s["mpi"] > 0


def test_refuses_program_overrides():
    env = dict(os.environ, REPRO_JOBS="2")
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", GOVERNED],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert "REPRO_JOBS" in out.stderr
