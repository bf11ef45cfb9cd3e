"""Registry completeness: the CLI, plan, and campaign layers agree.

:data:`repro.bench.CELL_PLANS` is the one registry of experiments:
campaigns and ``repro experiment`` both resolve names through it, so
every plan must be listed by ``repro experiments``.  And every planned
cell must survive the shard wire format (``to_dict``/``from_dict``)
without changing identity.
"""

import io
import re

from repro.bench import CELL_PLANS
from repro.cli import _canonical_experiment, main
from repro.runner import SweepCell, cache_key


def _listed_experiments():
    out = io.StringIO()
    assert main(["experiments"], out=out) == 0
    return [line.split()[0] for line in out.getvalue().splitlines()]


def test_every_cli_experiment_has_a_cell_plan():
    # Every name ``repro experiments`` lists, and its zero-padded
    # spelling, must resolve to a plan campaigns can run.
    for name in _listed_experiments():
        padded = re.sub(r"^(fig|table)(\d)", r"\g<1>0\2", name)
        for spelling in {name, padded, name.upper()}:
            key = _canonical_experiment(spelling)
            assert key == name, f"{spelling!r} resolves to {key!r}"
        assert CELL_PLANS[key]().cells, f"plan {name!r} expands to no cells"


def test_every_cell_plan_is_cli_reachable():
    assert _listed_experiments() == sorted(CELL_PLANS)


def test_all_planned_cells_round_trip_the_wire_format():
    for name, producer in sorted(CELL_PLANS.items()):
        plan = producer()
        assert plan.cells, f"plan {name!r} expands to no cells"
        for cell in plan.cells:
            clone = SweepCell.from_dict(cell.to_dict())
            assert clone.to_dict() == cell.to_dict(), f"{name}: {cell.label}"
            assert cache_key(clone) == cache_key(cell), (
                f"{name}: wire format changes the cache key of {cell.label}"
            )


def test_plan_expansion_is_deterministic():
    for name, producer in sorted(CELL_PLANS.items()):
        a = [cache_key(c) for c in producer().cells]
        b = [cache_key(c) for c in producer().cells]
        assert a == b, f"plan {name!r} expands nondeterministically"
