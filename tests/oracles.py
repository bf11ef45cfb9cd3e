"""Reference implementations the differential tests and the kernel/power
benchmarks compare production code against.

Production builds one kernel per concern: the incremental
:class:`~repro.network.kernel.VectorFabric` and the memoized
:class:`~repro.power.model.PowerModel`.  The slower behaviours they
replaced live here, built directly by the callers that need them:

* :class:`FullRecomputeFabric` — the scalar kernel re-rating the whole
  fabric on every event instead of only the changed component;
* :class:`UncachedPowerModel` — evaluates every ``core_power`` call
  instead of memoizing per core state.

The other references (``ScalarFabric``, ``EnergyAccountant(columnar=
False)``, ``PowerMeter.from_segments_reference``) stay in ``repro``
itself; construct them directly.
"""

from __future__ import annotations

from repro.network.fabric import ScalarFabric
from repro.power.model import PowerModel


class FullRecomputeFabric(ScalarFabric):
    """Scalar kernel that water-fills every active flow on each event.

    Admission order is ``seq`` order, so the flow list is already in the
    canonical fold order the incremental re-rater uses per component.
    """

    def _component(self, seed_links):
        return list(self._flows)


class UncachedPowerModel(PowerModel):
    """Power model without the per-state memo: every call evaluates the
    same floating-point expression the memo's miss path does."""

    def core_power(self, core):
        return self.core_power_for(core.frequency_ghz, core.tstate, core.activity)
