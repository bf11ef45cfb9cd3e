"""Declarative campaign specs and their deterministic expansion.

A :class:`CampaignSpec` names *what* a campaign covers — a set of paper
experiments (by :data:`repro.bench.CELL_PLANS` name) plus any number of
explicit parameter grids — and :func:`expand` turns it into the
deduplicated, deterministically-ordered list of
:class:`~repro.runner.cells.SweepCell` the executor runs.

Specs are plain data: a python dict, a JSON file, or (when PyYAML is
available) a YAML file.  :func:`load_campaign` dispatches on suffix.

Grid expansion rules
--------------------
Each grid in ``sweeps`` is a product over its ``matrix`` axes merged
onto its fixed ``params``:

* Axes iterate in **sorted key order**; each axis's values iterate in
  spec order.  The expansion of a given spec is therefore byte-stable
  across reruns, machines, and dict-ordering accidents.
* A scalar axis value assigns ``params[axis] = value``; a *dict* value
  merges all its keys (the way to co-vary parameters, e.g. node count
  with rank count).  ``null`` deletes the key — an axis like
  ``faults: [null, "degrade:factor=0.6"]`` sweeps quiet vs perturbed.
* Convenience conversions run after the merge: a string ``governor``
  becomes a full :class:`~repro.runtime.GovernorConfig` dict, a string
  ``faults`` is parsed through the CLI grammar with the cell's
  ``fault_seed`` (consumed; default 0), and an integer ``nodes`` becomes
  a cluster-spec override (times ``ranks_per_node`` when given).  Seeds
  are explicit spec values, so per-cell fault substreams are stable by
  construction.

Deduplication is by content-addressed cache key: the first occurrence
of a cell content wins, so overlapping experiments (table1 and fig9
share their 18 application runs) expand to one execution each.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..runner import SweepCell, cache_key

__all__ = [
    "CampaignGrid",
    "CampaignPlan",
    "CampaignSpec",
    "CampaignSpecError",
    "expand",
    "load_campaign",
    "spec_digest",
]


class CampaignSpecError(ValueError):
    """A campaign spec that cannot be understood."""


_GRID_KEYS = {"name", "kind", "matrix", "params"}
_SPEC_KEYS = {
    "name", "experiments", "sweeps", "governor", "faults",
    "artifacts", "jobs", "cache_dir",
}


@dataclass(frozen=True)
class CampaignGrid:
    """One explicit parameter product (a ``sweeps`` entry)."""

    name: str
    kind: str = "collective"
    #: axis name -> list of values (scalar, dict-merge, or None-delete).
    matrix: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    #: fixed parameters every cell of the grid shares.
    params: Mapping[str, Any] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignGrid":
        unknown = set(data) - _GRID_KEYS
        if unknown:
            raise CampaignSpecError(
                f"unknown sweep keys {sorted(unknown)} "
                f"(choose from {sorted(_GRID_KEYS)})"
            )
        if "name" not in data:
            raise CampaignSpecError("every sweep needs a name")
        matrix = data.get("matrix") or {}
        for axis, values in matrix.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise CampaignSpecError(
                    f"sweep {data['name']!r}: axis {axis!r} must be a "
                    f"non-empty list, got {values!r}"
                )
        return cls(
            name=str(data["name"]),
            kind=str(data.get("kind", "collective")),
            matrix={str(k): list(v) for k, v in matrix.items()},
            params=dict(data.get("params") or {}),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "matrix": {k: list(v) for k, v in self.matrix.items()},
            "params": dict(self.params),
        }


@dataclass(frozen=True)
class CampaignSpec:
    """A whole campaign as data (see the module docstring)."""

    name: str
    #: Paper experiments to cover (keys of :data:`repro.bench.CELL_PLANS`).
    experiments: Tuple[str, ...] = ()
    #: Explicit parameter grids.
    grids: Tuple[CampaignGrid, ...] = ()
    #: Governor/fault overlays applied to every cell that does not pin
    #: its own (string forms accepted, same as the CLI flags).
    governor: Optional[Dict[str, Any]] = None
    faults: Optional[Dict[str, Any]] = None
    #: Experiments whose paper artifacts to render after the run
    #: (defaults to ``experiments``; must be a subset of it).
    artifacts: Tuple[str, ...] = ()
    #: Execution defaults the CLI flags can override.
    jobs: Optional[int] = None
    cache_dir: Optional[str] = None

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        if not isinstance(data, Mapping):
            raise CampaignSpecError(
                f"campaign spec must be a mapping, got {type(data).__name__}"
            )
        unknown = set(data) - _SPEC_KEYS
        if unknown:
            raise CampaignSpecError(
                f"unknown campaign keys {sorted(unknown)} "
                f"(choose from {sorted(_SPEC_KEYS)})"
            )
        name = data.get("name")
        if not name or not isinstance(name, str):
            raise CampaignSpecError("campaign spec needs a 'name' string")
        experiments = tuple(str(e) for e in (data.get("experiments") or ()))
        _check_experiments(experiments)
        artifacts = data.get("artifacts")
        if artifacts is None:
            artifacts = experiments
        else:
            artifacts = tuple(str(a) for a in artifacts)
            extra = set(artifacts) - set(experiments)
            if extra:
                raise CampaignSpecError(
                    f"artifacts {sorted(extra)} are not in the campaign's "
                    "experiments list — a campaign must expand every cell "
                    "its artifact stage will need"
                )
        grids = tuple(
            CampaignGrid.from_dict(g) for g in (data.get("sweeps") or ())
        )
        seen: set = set()
        for grid in grids:
            if grid.name in seen:
                raise CampaignSpecError(f"duplicate sweep name {grid.name!r}")
            seen.add(grid.name)
        jobs = data.get("jobs")
        if jobs is not None and (not isinstance(jobs, int) or jobs < 1):
            raise CampaignSpecError(f"jobs must be a positive int, got {jobs!r}")
        spec = cls(
            name=name,
            experiments=experiments,
            grids=grids,
            governor=_governor_dict(data.get("governor")),
            faults=_faults_dict(data.get("faults")),
            artifacts=artifacts,
            jobs=jobs,
            cache_dir=data.get("cache_dir"),
        )
        if not spec.experiments and not spec.grids:
            raise CampaignSpecError(
                "campaign expands to nothing: give 'experiments' or 'sweeps'"
            )
        return spec

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "experiments": list(self.experiments),
            "sweeps": [g.to_dict() for g in self.grids],
            "governor": self.governor,
            "faults": self.faults,
            "artifacts": list(self.artifacts),
            "jobs": self.jobs,
            "cache_dir": self.cache_dir,
        }


def _check_experiments(names: Sequence[str]) -> None:
    from ..bench import CELL_PLANS

    unknown = [n for n in names if n not in CELL_PLANS]
    if unknown:
        raise CampaignSpecError(
            f"unknown experiments {unknown}; every campaign experiment "
            "needs a plan producer in repro.bench.CELL_PLANS "
            f"(available: {', '.join(sorted(CELL_PLANS))})"
        )


def _governor_dict(value: Any) -> Optional[Dict[str, Any]]:
    """Normalise a spec's governor field: policy string or config dict."""
    if value is None:
        return None
    from ..runtime import GovernorConfig, GovernorPolicy

    if isinstance(value, str):
        try:
            return GovernorConfig(policy=GovernorPolicy(value)).to_dict()
        except ValueError as exc:
            raise CampaignSpecError(f"bad governor policy {value!r}") from exc
    if isinstance(value, Mapping):
        try:
            return GovernorConfig.from_dict(dict(value)).to_dict()
        except (TypeError, ValueError, KeyError) as exc:
            raise CampaignSpecError(f"bad governor config: {exc}") from exc
    raise CampaignSpecError(f"governor must be a policy name or dict, got {value!r}")


def _faults_dict(value: Any, seed: int = 0) -> Optional[Dict[str, Any]]:
    """Normalise a spec's faults field: CLI grammar string or plan dict."""
    if value is None:
        return None
    from ..faults import FaultSpecError, parse_fault_spec

    if isinstance(value, str):
        try:
            return parse_fault_spec(value, seed=seed).to_dict()
        except FaultSpecError as exc:
            raise CampaignSpecError(f"bad fault spec {value!r}: {exc}") from exc
    if isinstance(value, Mapping):
        return dict(value)
    raise CampaignSpecError(f"faults must be a spec string or dict, got {value!r}")


# ---------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------
def load_campaign(path) -> CampaignSpec:
    """Load a spec file: ``.yaml``/``.yml`` via PyYAML, ``.json`` stdlib.

    A YAML file on a machine without PyYAML raises a clear
    :class:`CampaignSpecError` instead of an ImportError.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CampaignSpecError(f"cannot read campaign spec {path}: {exc}") from exc
    if path.suffix in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError:
            raise CampaignSpecError(
                f"{path} is YAML but PyYAML is not installed; "
                "convert the spec to JSON or install pyyaml"
            ) from None
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise CampaignSpecError(f"bad YAML in {path}: {exc}") from exc
    else:
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise CampaignSpecError(f"bad JSON in {path}: {exc}") from exc
    return CampaignSpec.from_dict(data or {})


def spec_digest(spec: CampaignSpec) -> str:
    """Stable content address of a spec (pins manifests to their spec)."""
    payload = json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------
# Expansion
# ---------------------------------------------------------------------
@dataclass
class CampaignPlan:
    """A spec expanded to its deduplicated, ordered cell set."""

    spec: CampaignSpec
    cells: List[SweepCell]
    #: Content-addressed key per cell, aligned with ``cells``.
    keys: List[str]
    #: Cells dropped because an earlier cell had identical content.
    duplicates: int = 0

    def __len__(self) -> int:
        return len(self.cells)


def _scalar_label(value: Any) -> str:
    if isinstance(value, Mapping):
        return ",".join(f"{k}={_scalar_label(v)}" for k, v in sorted(value.items()))
    if isinstance(value, (list, tuple)):
        return "x".join(_scalar_label(v) for v in value)
    return str(value)


def _grid_cells(grid: CampaignGrid, experiment: str) -> List[SweepCell]:
    """Sorted-product expansion of one grid (see module docstring)."""
    import itertools

    axes = sorted(grid.matrix)
    value_lists = [grid.matrix[axis] for axis in axes]
    cells = []
    for combo in itertools.product(*value_lists):
        params: Dict[str, Any] = dict(grid.params)
        parts = []
        for axis, value in zip(axes, combo):
            parts.append(f"{axis}={_scalar_label(value)}")
            if isinstance(value, Mapping):
                params.update(value)
            elif value is None:
                params.pop(axis, None)
            else:
                params[axis] = value
        _apply_conversions(grid, params)
        label = grid.name + ("/" + "/".join(parts) if parts else "")
        try:
            cells.append(
                SweepCell(
                    experiment=experiment, kind=grid.kind,
                    params=params, label=label,
                )
            )
        except (TypeError, ValueError) as exc:
            raise CampaignSpecError(f"sweep {grid.name!r}: {exc}") from exc
    return cells


def _apply_conversions(grid: CampaignGrid, params: Dict[str, Any]) -> None:
    """In-place sugar: nodes/ranks_per_node, governor/faults strings."""
    if "nodes" in params:
        nodes = params.pop("nodes")
        cluster = dict(params.get("cluster") or {})
        cluster["nodes"] = int(nodes)
        params["cluster"] = cluster
        if "ranks_per_node" in params:
            params["n_ranks"] = int(nodes) * int(params.pop("ranks_per_node"))
    if isinstance(params.get("governor"), str):
        params["governor"] = _governor_dict(params["governor"])
    if params.get("governor") is None:
        params.pop("governor", None)
    seed = int(params.pop("fault_seed", 0))
    if isinstance(params.get("faults"), str):
        params["faults"] = _faults_dict(params["faults"], seed=seed)
    if params.get("faults") is None:
        params.pop("faults", None)


def expand(spec: CampaignSpec) -> CampaignPlan:
    """Deterministic spec -> cell set: experiments (sorted by name, plan
    order within), then grids (spec order, sorted-product within),
    deduplicated by cache key with first occurrence winning."""
    from ..bench import CELL_PLANS, instrument_cells

    raw: List[SweepCell] = []
    for name in sorted(set(spec.experiments)):
        plan = CELL_PLANS[name]()
        cells, _ = instrument_cells(plan.cells, spec.governor, spec.faults)
        raw.extend(cells)
    for grid in spec.grids:
        cells, _ = instrument_cells(
            _grid_cells(grid, experiment=f"{spec.name}:{grid.name}"),
            spec.governor, spec.faults,
        )
        raw.extend(cells)

    seen: set = set()
    cells = []
    keys = []
    duplicates = 0
    for cell in raw:
        key = cache_key(cell)
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        cells.append(cell)
        keys.append(key)
    return CampaignPlan(spec=spec, cells=cells, keys=keys, duplicates=duplicates)
