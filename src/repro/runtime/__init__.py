"""repro.runtime — the online slack-driven power-governor runtime.

The paper's power-aware schemes (§V) bake transitions into each
collective's schedule.  This subsystem is the complementary *control
plane*: a per-core policy engine that observes MPI slack online (through
the same notification sites the tracer uses) and drives DVFS/T-state
actuation itself, in the style of the COUNTDOWN runtime
(arXiv:1806.07258).

Layers
------
:mod:`~repro.runtime.slack`
    The sensor: EWMA + histogram slack estimates per core and a
    per-(collective, message-size) call-duration history.
:mod:`~repro.runtime.governor`
    The policy FSMs (``none`` / ``countdown`` / ``predictive``) and the
    per-run :class:`GovernorReport` they seal.
:mod:`~repro.runtime.arbiter`
    The cluster-scale dual: a global power cap arbitrated into per-node
    budgets (``uniform`` / ``redistribute``) across co-scheduled jobs.

A governor or arbiter reaches a simulation only as a constructor
argument (``SimSession(governor=..., arbiter=...)``, or the same keywords
of :class:`~repro.mpi.job.MpiJob`).  The CLI's ``--governor`` and
``--power-cap`` flags ship their configs to every cell as plain data,
and the cell executor builds a fresh instance per session from them.

Use::

    from repro.runtime import Governor, GovernorConfig, GovernorPolicy

    gov = Governor(GovernorConfig(policy=GovernorPolicy.COUNTDOWN))
    job = MpiJob(64, governor=gov)
    result = job.run(program)
    print(gov.report().one_line())
"""

from .arbiter import (
    ArbiterConfig,
    ArbiterPolicy,
    ArbiterReport,
    PowerArbiter,
)
from .governor import (
    Governor,
    GovernorConfig,
    GovernorPolicy,
    GovernorReport,
)
from .slack import EwmaEstimator, Log2Histogram, SlackMonitor

__all__ = [
    "ArbiterConfig",
    "ArbiterPolicy",
    "ArbiterReport",
    "EwmaEstimator",
    "Governor",
    "GovernorConfig",
    "GovernorPolicy",
    "GovernorReport",
    "Log2Histogram",
    "PowerArbiter",
    "SlackMonitor",
]
