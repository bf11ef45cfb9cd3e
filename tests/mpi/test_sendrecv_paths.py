"""The two ``sendrecv`` paths give bit-identical timelines.

With nothing observing a rank's waits (no governor, no arbiter, polling
progress), ``sendrecv`` runs as a callback chain and resumes the rank
once per exchange; otherwise it runs the generator path (``isend``,
``irecv``, a wait on ``AllOf``).  An observer that only counts waits
selects the generator path without changing the simulation, so the two
runs must agree exactly: finish times, return values, energy and the
number of engine events.
"""

from __future__ import annotations

import pytest

from repro.mpi import ANY_SOURCE, MpiJob
from repro.network import NetworkSpec

#: Eager (empty, small, at the threshold) and rendezvous sizes.
SIZES = (256, 64 << 10, 0, 12 * 1024, 12 * 1024 + 1, 1 << 20)


class _WaitCounter:
    """Arbiter stand-in that only counts the waits it is told about."""

    def __init__(self):
        self.waits = 0

    def job_started(self, job):
        pass

    def rank_finished(self):
        pass

    def record_wait(self, core_id, seconds):
        self.waits += 1


def _program(ctx):
    # Shifted-ring exchanges (rank r sends to r+k, receives from r-k)
    # within and across nodes, every other round from ANY_SOURCE, with a
    # DVFS step on some cores mid-run so overheads and feed caps change.
    n = ctx.size
    for k, nbytes in enumerate(SIZES, start=1):
        dst = (ctx.rank + k) % n
        src = (ctx.rank - k) % n
        got = yield from ctx.sendrecv(
            dst, nbytes, src=ANY_SOURCE if k % 2 else src, tag=k
        )
        assert got == (src, k, nbytes)
        if k == 2 and ctx.rank % 3 == 0:
            yield from ctx.scale_frequency(ctx.core.spec.fmin, charge=False)
    yield from ctx.alltoall(4 << 10)
    return ctx.env.now


def _run(network_spec, observed):
    job = MpiJob(16, network_spec=network_spec)
    counter = _WaitCounter()
    if observed:
        job.arbiter = counter
    result = job.run(_program)
    assert (counter.waits > 0) == observed
    return (result.rank_finish_times, result.returns, result.energy_j,
            job.session.env.events_processed)


@pytest.mark.parametrize("o_send,o_recv", [
    (0.35e-6, 0.35e-6), (0.0, 0.35e-6), (0.35e-6, 0.0), (0.0, 0.0),
])
def test_callback_chain_matches_generator_path(o_send, o_recv):
    spec = NetworkSpec(o_send=o_send, o_recv=o_recv)
    assert _run(spec, observed=False) == _run(spec, observed=True)
