"""Exact engine-event counts of a point-to-point message.

Every collective runs as p2p messages, so the events one message costs
set the simulator's speed.  These pins count them exactly: an extra
event per message (a process start or completion, a relay, an extra
timeout) shows here as a changed count, before it shows as wall time.
The simulated outputs themselves are pinned elsewhere
(``tests/runner/cell_digests.json``); these counts are the work it took.
"""

from __future__ import annotations

from repro.cluster import ClusterSpec
from repro.mpi.job import MpiJob
from repro.runner.cells import _engine, _session_from_params
from tests.runner.test_cell_digests import CELLS


def _alltoall_events(params):
    """(events processed, messages sent) of one alltoall cell's job,
    built as the runner builds it."""
    job = MpiJob(
        int(params["n_ranks"]),
        session=_session_from_params(params, False),
        collectives=_engine(params.get("mode", "none")),
    )
    job.run(lambda ctx: ctx.alltoall(int(params["nbytes"])))
    return job.session.env.events_processed, job.engine.messages_sent


def test_plain_alltoall_event_count():
    # 8 nodes x 8 cores, 64 KiB per peer, no governor or faults: every
    # exchange takes the callback-chain sendrecv, every message the
    # rendezvous chain.
    events, messages = _alltoall_events({
        "op": "alltoall", "nbytes": 64 << 10, "n_ranks": 64, "mode": "none",
        "cluster": ClusterSpec.with_shape(8).to_dict(),
    })
    assert messages == 64 * 63
    assert events == 32_510
    # Eight events per message plus a per-rank fixed cost (start, local
    # copy, finish).
    assert 8.0 < events / messages < 8.1


def test_governed_pin_cell_event_count():
    # The countdown-governed, faulted cell of cell_digests.json: the
    # generator path, because the governor observes every wait.
    events, messages = _alltoall_events(CELLS["collective/alltoall/16r"].params)
    assert messages == 16 * 15
    assert events == 2_104
    assert 8.7 < events / messages < 8.8
