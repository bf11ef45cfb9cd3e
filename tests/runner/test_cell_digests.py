"""Exact pin on the simulated output of instrumented cells.

For one small cell of each instrumented kind — a governed and faulted
``collective``, ``app`` and ``osu`` cell (the osu one also under a
power-cap arbiter) and one ``multijob`` cell of ``ext-arbiter`` — this
stores the sha256 of the canonical JSON of ``CellResult.to_dict()``
without the host wall time and the observability payload (sorted keys,
compact separators, floats in repr form).  Equal digests mean
byte-identical simulated numbers and reports.  A deliberate change of
the simulated outputs regenerates ``cell_digests.json`` with::

    PYTHONPATH=src python tests/runner/test_cell_digests.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict

import pytest

from repro.bench import CELL_PLANS
from repro.faults import parse_fault_spec
from repro.runner import SweepCell, execute_cell
from repro.runtime import ArbiterConfig, ArbiterPolicy, GovernorConfig, GovernorPolicy

DIGESTS_PATH = Path(__file__).with_name("cell_digests.json")

COUNTDOWN = GovernorConfig(policy=GovernorPolicy.COUNTDOWN).to_dict()
DEGRADE = "degrade:factor=0.6,frac=0.25"
DEGRADE_NOISE = DEGRADE + ";noise:period=500us,pulse=20us,frac=0.25"


def _faults(spec: str) -> dict:
    return parse_fault_spec(spec, seed=7).to_dict()


def _arbiter_cell() -> SweepCell:
    (cell,) = [c for c in CELL_PLANS["ext-arbiter"]().cells
               if c.label == "multijob/redistribute"]
    return cell


CELLS: Dict[str, SweepCell] = {
    "collective/alltoall/16r": SweepCell(
        experiment="digest", kind="collective",
        params={"op": "alltoall", "nbytes": 64 << 10, "n_ranks": 16,
                "governor": COUNTDOWN, "faults": _faults(DEGRADE_NOISE)},
    ),
    "app/nas-ft/32r": SweepCell(
        experiment="digest", kind="app",
        params={"app": "nas-ft", "ranks": 32, "mode": "none",
                "governor": COUNTDOWN, "faults": _faults(DEGRADE)},
    ),
    "osu/alltoall/64K/32r": SweepCell(
        experiment="digest", kind="osu",
        params={
            "bench": "alltoall", "nbytes": 64 << 10, "n_ranks": 32,
            "mode": "none", "blocking": False, "intra_node": False,
            "governor": COUNTDOWN, "faults": _faults(DEGRADE),
            "arbiter": ArbiterConfig(policy=ArbiterPolicy.REDISTRIBUTE,
                                     power_cap_w=16000.0).to_dict(),
        },
    ),
    "ext-arbiter/multijob/redistribute": _arbiter_cell(),
}


def output_digest(data: dict) -> str:
    data = dict(data)
    data.pop("wall_time_s")
    data.pop("metrics")
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CELLS))
def test_instrumented_cell_output_is_pinned(name):
    cell = CELLS[name]
    data = execute_cell(cell).to_dict()
    # The cell really ran under every instrumentation it names.
    for key in ("governor", "faults", "arbiter"):
        if key in cell.params:
            assert data[key] is not None, key
    expected = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    assert output_digest(data) == expected[name]


if __name__ == "__main__":
    DIGESTS_PATH.write_text(
        json.dumps({n: output_digest(execute_cell(c).to_dict())
                    for n, c in sorted(CELLS.items())},
                   indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {DIGESTS_PATH}", file=sys.stderr)
