"""Machine-readable export of experiment results (JSON).

Every experiment returns ``(headers, rows, notes)``; these helpers wrap
that in a stable JSON schema so downstream analysis (or a CI regression
dashboard) can consume the reproduction data without scraping tables.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Sequence

SCHEMA_VERSION = 1


def experiment_to_dict(
    name: str, headers: Sequence[str], rows: Sequence[Sequence], notes: str = ""
) -> Dict:
    """Build the canonical JSON-able record for one experiment."""
    for row in rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
    return {
        "schema": SCHEMA_VERSION,
        "experiment": name,
        "headers": list(headers),
        "rows": [list(row) for row in rows],
        "records": [dict(zip(headers, row)) for row in rows],
        "notes": notes,
    }


def save_json(
    name: str,
    headers: Sequence[str],
    rows: Sequence[Sequence],
    notes: str = "",
    results_dir: str = "results",
) -> str:
    """Write the experiment record to ``results/<name>.json``."""
    record = experiment_to_dict(name, headers, rows, notes)
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return path


def load_json(path: str) -> Dict:
    """Load a record written by :func:`save_json` (validates the schema)."""
    with open(path) as fh:
        record = json.load(fh)
    if record.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema {record.get('schema')!r} in {path}"
        )
    for key in ("experiment", "headers", "rows"):
        if key not in record:
            raise ValueError(f"missing key {key!r} in {path}")
    return record
