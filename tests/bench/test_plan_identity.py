"""Exact pin on every experiment's cell plan.

For each :data:`repro.bench.CELL_PLANS` name this stores the sha256 of
the canonical JSON of its expanded cells (experiment, kind, params,
label) plus the one-line description ``repro experiments`` prints.  A
refactor of the experiment layer must leave both byte-identical; a
deliberate change regenerates ``plan_digests.json`` with::

    PYTHONPATH=src python tests/bench/test_plan_identity.py

No cell is simulated, so the check costs well under a second.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from pathlib import Path
from typing import Dict

from repro.bench import CELL_PLANS
from repro.cli import main

DIGESTS_PATH = Path(__file__).with_name("plan_digests.json")


def plan_digest(name: str) -> str:
    cells = [c.to_dict() for c in CELL_PLANS[name]().cells]
    blob = json.dumps(cells, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def listed_descriptions() -> Dict[str, str]:
    """``repro experiments`` output as name -> description."""
    out = io.StringIO()
    assert main(["experiments"], out=out) == 0
    listing = {}
    for line in out.getvalue().splitlines():
        name, _, doc = line.partition(" ")
        listing[name] = doc.strip()
    return listing


def current() -> Dict[str, Dict[str, str]]:
    docs = listed_descriptions()
    return {
        name: {"cells_sha256": plan_digest(name), "doc": docs.get(name)}
        for name in sorted(CELL_PLANS)
    }


def test_plan_expansion_and_descriptions_are_pinned():
    expected = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    assert current() == expected


if __name__ == "__main__":
    DIGESTS_PATH.write_text(
        json.dumps(current(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {DIGESTS_PATH}", file=sys.stderr)
