"""Deterministic work-unit plans: the contract between driver and worker.

A plan is a Study's grid flattened to self-contained units — one cell
per unit, each carrying the fully resolved
:class:`~repro.api.scenario.Scenario` (as its strict wire document,
see :mod:`repro.serve.wire`) and the cell's scenario-fingerprint cache
key.  That pair is the whole protocol: a worker anywhere evaluates the
scenario and files the result under the key; the driver merges keys
back into its cache.  Bit-identity across hosts falls out of the key
itself — a scenario fingerprint digests the complete scenario *and*
the package source digest, so a worker running different code computes
*different* keys, which the worker detects up front (it re-derives
every key and refuses the shard on the first mismatch) and the bundle
merge refuses again at the manifest level.

Plans serialise to plain JSON (:func:`write_plan` / :func:`read_plan`),
one file per shard a worker reads; :func:`shard_plan` deals units
round-robin so axes that correlate with cost (e.g. node count, usually
an early axis) spread evenly across shards.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.api.scenario import Scenario
from repro.experiments.cache import ResultCache
from repro.serve.wire import scenario_from_dict, scenario_to_dict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.api.study import Study

__all__ = [
    "PLAN_SCHEMA",
    "PlanError",
    "PlanUnit",
    "StudyPlan",
    "compile_plan",
    "read_plan",
    "registry_identity",
    "shard_plan",
    "write_plan",
]

PLAN_SCHEMA = 1

_PLAN_KIND = "repro-dist-plan"


class PlanError(ValueError):
    """A Study that cannot be compiled into a distributable plan."""


@dataclass(frozen=True)
class PlanUnit:
    """One independently computable cell of a distributed plan.

    ``cache_key`` is the cell's scenario fingerprint — the address the
    worker files its result under, and the address the driver's merge
    and final assembly read it back from.  ``label`` is the cell's
    axis-coordinate tag; ``description`` the classic progress-line
    identity.
    """

    index: int
    cache_key: str
    scenario: Scenario
    label: str
    description: str

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "cache_key": self.cache_key,
            "scenario": scenario_to_dict(self.scenario),
            "label": self.label,
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data: dict, where: str) -> "PlanUnit":
        try:
            return cls(
                index=int(data["index"]),
                cache_key=str(data["cache_key"]),
                scenario=scenario_from_dict(data["scenario"]),
                label=str(data.get("label", "")),
                description=str(data.get("description", "")),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise PlanError(f"{where}: invalid plan unit: {error}")


@dataclass(frozen=True)
class StudyPlan:
    """An ordered set of plan units plus the identities binding them.

    ``code`` is the package source digest of the compiling side;
    ``registry`` the identity of the router selections the plan's
    scenarios resolve (see :func:`registry_identity`).  ``total`` is
    the *full* grid size — a pruned or sharded plan remembers how big
    the study it came from is, so progress totals stay honest.
    """

    units: tuple[PlanUnit, ...]
    code: str
    registry: str
    total: int
    shard: str | None = None  # e.g. "shard_2" for sharded sub-plans

    def __len__(self) -> int:
        return len(self.units)

    def keys(self) -> tuple[str, ...]:
        return tuple(unit.cache_key for unit in self.units)

    def to_dict(self) -> dict:
        return {
            "schema": PLAN_SCHEMA,
            "kind": _PLAN_KIND,
            "code": self.code,
            "registry": self.registry,
            "total": self.total,
            "shard": self.shard,
            "units": [unit.to_dict() for unit in self.units],
        }

    @classmethod
    def from_dict(cls, data: dict, where: str = "plan") -> "StudyPlan":
        if not isinstance(data, dict):
            raise PlanError(f"{where}: not a JSON object")
        if data.get("kind") != _PLAN_KIND:
            raise PlanError(
                f"{where}: not a dist plan (kind={data.get('kind')!r})"
            )
        if data.get("schema") != PLAN_SCHEMA:
            raise PlanError(
                f"{where}: plan schema {data.get('schema')!r} does not "
                f"match this installation's {PLAN_SCHEMA}"
            )
        raw_units = data.get("units")
        if not isinstance(raw_units, list):
            raise PlanError(f"{where}: units must be an array")
        units = tuple(
            PlanUnit.from_dict(raw, f"{where}.units[{i}]")
            for i, raw in enumerate(raw_units)
        )
        return cls(
            units=units,
            code=str(data.get("code", "")),
            registry=str(data.get("registry", "")),
            total=int(data.get("total", len(units))),
            shard=data.get("shard"),
        )


def registry_identity(scenarios: Sequence[Scenario], registry=None) -> str:
    """One digest over every router selection the scenarios make.

    Each scenario's selection fingerprint already pins the selected
    factories' sources and options; folding the distinct fingerprints
    into one plan-level identity gives the worker and the bundle merge
    a single, cheap equality check with a *located* error ("this host
    resolves router names differently") instead of a silent
    every-key-misses outcome.
    """
    from repro.api.registry import default_registry

    registry = registry if registry is not None else default_registry
    selections = set()
    for scenario in scenarios:
        fingerprint = registry.fingerprint(
            scenario.routers or None, scenario.router_options
        )
        selections.add("-" if fingerprint is None else fingerprint)
    payload = ";".join(sorted(selections))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def compile_plan(study: "Study", cache: ResultCache | None = None) -> StudyPlan:
    """A Study's grid as a distributable plan, optionally pruned.

    Every cell must have a cacheable identity — the cache *is* the
    distributed result channel, so a cell whose scenario cannot be
    fingerprinted (anonymous router factory, non-JSON option value)
    raises :class:`PlanError` naming the cell rather than silently
    computing results that cannot come back.

    ``cache`` prunes: cells whose entry is already present locally are
    dropped from the units (the plan's ``total`` still counts them),
    which is both resumability — an interrupted distributed run re-
    plans to exactly the missing cells — and the no-double-count rule
    for progress totals.
    """
    from repro.api.study import _describe, scenario_fingerprint
    from repro.experiments.cache import _code_digest

    units = []
    scenarios = []
    index = 0
    plan = study.plan()
    for cell, scenario in plan:
        key = scenario_fingerprint(scenario, study.registry)
        if key is None:
            raise PlanError(
                f"cell {cell.label() or 'base'!s} has no cacheable "
                "identity (anonymous router factory or non-JSON option "
                "value); distributed execution needs every cell "
                "addressable in the result cache"
            )
        scenarios.append(scenario)
        if cache is not None and cache.has(key):
            index += 1
            continue
        units.append(
            PlanUnit(
                index=index,
                cache_key=key,
                scenario=scenario,
                label=cell.label(),
                description=_describe(cell, scenario),
            )
        )
        index += 1
    return StudyPlan(
        units=tuple(units),
        code=_code_digest(),
        registry=registry_identity(scenarios, study.registry),
        total=len(plan),
    )


def shard_plan(plan: StudyPlan, shards: int) -> list[StudyPlan]:
    """Deal the plan's units into ``shards`` round-robin sub-plans.

    Round-robin (not contiguous slices) because unit cost usually
    follows an axis — contiguous slicing would hand one host all the
    densest cells.  Empty shards are dropped, so the result may be
    shorter than ``shards``; unit order within a shard preserves plan
    order, keeping worker-side progress lines readable.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    dealt: list[list[PlanUnit]] = [[] for _ in range(shards)]
    for position, unit in enumerate(plan.units):
        dealt[position % shards].append(unit)
    return [
        StudyPlan(
            units=tuple(units),
            code=plan.code,
            registry=plan.registry,
            total=plan.total,
            shard=f"shard_{i}",
        )
        for i, units in enumerate(dealt)
        if units
    ]


def write_plan(plan: StudyPlan, path) -> Path:
    """Write a plan (or shard) as one JSON document; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(plan.to_dict(), sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def read_plan(path) -> StudyPlan:
    """Load a plan document, validating shape and schema."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as error:
        raise PlanError(f"{path}: cannot read plan: {error}")
    except ValueError as error:
        raise PlanError(f"{path}: plan is not valid JSON: {error}")
    return StudyPlan.from_dict(data, where=str(path))
