"""SelfProfile: aggregates and report, one sample per session."""

import pytest

from repro.bench.profile import JobSample, SelfProfile
from repro.mpi.job import MpiJob
from repro.obs import CaptureConfig
from repro.runner import SweepCell, execute_cell
from repro.sim.session import SimSession


def _sample(**over):
    base = dict(n_ranks=4, sim_time_s=1.0, wall_time_s=0.5,
                events_processed=100, rerate_calls=2, flows_rerated=8)
    base.update(over)
    return JobSample(**base)


def test_add_sample_feeds_aggregates():
    prof = SelfProfile()
    prof.samples.append(_sample(wall_time_s=1.0, events_processed=10))
    prof.samples.append(_sample(wall_time_s=3.0, events_processed=30))
    assert prof.total_wall_s == pytest.approx(4.0)
    assert prof.total_events == 40
    assert "sessions run        : 2" in prof.report()


def test_report_without_samples():
    assert "no sessions" in SelfProfile().report()


def _alltoall(ctx):
    yield from ctx.alltoall(16 << 10)


def test_multijob_cell_counts_its_session_once():
    # Two co-scheduled jobs share one event loop and one fabric: the
    # cell's profile must count that work once, not once per job.
    offsets = (0, 2)
    cell = SweepCell(
        experiment="profile-test", kind="multijob",
        params={"jobs": [{"n_ranks": 16, "node_offset": o, "op": "alltoall",
                          "nbytes": 16 << 10} for o in offsets]},
    )
    samples = execute_cell(cell, CaptureConfig(profile=True)).metrics["profile"]

    session = SimSession(keep_segments=False)
    jobs = [MpiJob(16, session=session, node_offset=o) for o in offsets]
    for job in jobs:
        job.launch(_alltoall)
    session.run_jobs(jobs)

    assert sum(s["events_processed"] for s in samples) == \
        session.env.events_processed
    assert sum(s["rerate_calls"] for s in samples) == \
        session.net.fabric.rerate_calls
    assert sum(s["flows_rerated"] for s in samples) == \
        session.net.fabric.flows_rerated
    assert sum(s["n_ranks"] for s in samples) == 32
