"""Declarative parameter studies: Scenario grids with streaming results.

The paper's evaluation is a grid — deployment model × node count × 100
random networks — but nothing about a grid is density-specific.  A
:class:`Study` generalises it: one base
:class:`~repro.api.scenario.Scenario` plus named *axes*, where an axis
is any Scenario field::

    from repro.api import RandomFailure, Scenario, Study

    study = Study(
        Scenario(deployment_model="FA", networks=10),
        nodes=range(400, 801, 50),
        vary={
            "failures": [(), (RandomFailure(20),)],
            "obstacle_count": [1, 3, 5],
        },
    )

The grid *compiles* to a deterministic work-unit plan — one
:class:`Cell` (axis coordinates) and one fully resolved Scenario per
grid point, in row-major order (last axis fastest) — evaluated through
:class:`~repro.api.session.Session` in worker processes via the
:class:`~repro.experiments.engine.ExperimentEngine` task stream.
Every Scenario feature (failure schedules, explicit obstacle fields,
mobility, per-scheme router options) is therefore a sweepable axis.

Results stream: :meth:`Study.stream` yields ``(cell, CellResult)``
pairs as workers complete, with one
:class:`~repro.experiments.progress.ProgressEvent` per cell
(completed/total counters, ETA).  :meth:`Study.run` assembles the
stream into a columnar :class:`StudyResult` — ``series()``/``table()``
projections, JSON/CSV export, and a
:meth:`StudyResult.sweep_result` adapter that feeds the figure/report
pipeline.

Caching: each cell is keyed by :func:`scenario_fingerprint` — a digest
of the *complete* scenario (failures, obstacles, mobility, router
selection and options included) plus the package source digest — so
two studies differing in any scenario feature never share a
``.repro_cache`` entry, and an interrupted study resumes cell by cell.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from typing import Iterator, Mapping, Sequence

from repro.api.registry import RouterRegistry, default_registry
from repro.api.scenario import Scenario
from repro.api.session import run_scenario
from repro.experiments.cache import (
    CACHE_SCHEMA,
    ResultCache,
    _code_digest,
    point_to_dict,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import EngineTask, ExperimentEngine
from repro.experiments.progress import Progress
from repro.experiments.sweep import PointResult, SweepResult

__all__ = [
    "Cell",
    "CellResult",
    "Study",
    "StudyResult",
    "scenario_fingerprint",
]


# -- canonical value handling -----------------------------------------------


def _freeze(value):
    """A hashable, order-canonical form of any axis value.

    Dataclasses (failure specs, obstacles, schedules) freeze to
    ``(type name, field values)``; mappings sort by key.  Two values
    that compare equal freeze identically, which is what lets a
    :class:`Cell` act as a dictionary key even when an axis carries
    ``router_options`` dicts.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple(
                (f.name, _freeze(getattr(value, f.name)))
                for f in dataclasses.fields(value)
            ),
        )
    if isinstance(value, Mapping):
        return (
            "<map>",
            tuple(sorted((str(k), _freeze(v)) for k, v in value.items())),
        )
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _jsonable(value):
    """A canonical JSON encoding of a scenario field value.

    Raises :class:`TypeError` for values with no stable encoding —
    the fingerprint then reports the scenario uncacheable instead of
    guessing an identity.
    """
    if isinstance(value, float) and not isinstance(value, bool):
        # 200 and 200.0 are the same scenario input (and compute the
        # same numbers), but json.dumps renders them differently; the
        # wire codec delivers int-valued coordinates as floats, so
        # without this a decoded scenario would never share a key
        # with the one it was encoded from.
        return int(value) if value.is_integer() else value
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # The type name disambiguates specs with coinciding fields
        # (e.g. RectObstacle vs a future shape with one rect field).
        encoded = {"__kind__": type(value).__name__}
        for f in dataclasses.fields(value):
            encoded[f.name] = _jsonable(getattr(value, f.name))
        return encoded
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    raise TypeError(f"no canonical encoding for {value!r}")


def _label(value) -> str:
    """A compact human-readable tag for one axis value."""
    if isinstance(value, str):
        return value
    if value is None or isinstance(value, (bool, int, float)):
        return str(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "-"
        return "+".join(_label(v) for v in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return type(value).__name__
    if isinstance(value, Mapping):
        inner = ",".join(
            f"{k}:{_label(v)}" for k, v in sorted(value.items(), key=str)
        )
        return "{" + inner + "}"
    return type(value).__name__


def scenario_fingerprint(
    scenario: Scenario, registry: RouterRegistry | None = None
) -> str | None:
    """Content hash identifying one scenario's complete inputs.

    Digests every Scenario field — the grid coordinates *and* the
    dynamic features (failure schedules, explicit obstacles, mobility,
    router selection and per-scheme options) — together with the
    router selection's registry fingerprint and the package source
    digest.  Two scenarios that can produce different numbers
    therefore never share a cache entry, and the digest is stable
    across processes (canonical JSON, no address- or
    hash-seed-dependent input).

    Returns ``None`` when the scenario has no cacheable identity: a
    selected router factory without a stable fingerprint
    (lambda/closure) or a scenario field value with no canonical
    encoding.  Such cells are computed every run rather than risking
    a key collision.
    """
    registry = registry if registry is not None else default_registry
    selection = registry.fingerprint(
        scenario.routers or None, scenario.router_options
    )
    if selection is None:
        return None
    fields = {}
    for f in dataclasses.fields(Scenario):
        try:
            fields[f.name] = _jsonable(getattr(scenario, f.name))
        except TypeError:
            return None
    # Normalise the selection as the Session builds it — registry
    # order, each scheme once — so every spelling that routes
    # identically shares a fingerprint: "every scheme, implicitly"
    # (routers=()) and by name, in any order, with repeats.
    chosen = set(scenario.routers or registry.names())
    fields["routers"] = [n for n in registry.names() if n in chosen]
    payload = {
        "schema": CACHE_SCHEMA,
        "code": _code_digest(),
        "kind": "scenario",
        "scenario": fields,
        "selection": selection,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# -- the grid ----------------------------------------------------------------


class Cell:
    """One grid point: axis name → value, in axis order.

    Hashable (usable as a dictionary key) even when axis values are
    unhashable containers — equality and hashing go through a frozen
    canonical form — and cheap to print: :meth:`label` renders the
    coordinates for progress lines and table rows.
    """

    __slots__ = ("_names", "_values", "_frozen")

    def __init__(self, names: Sequence[str], values: Sequence) -> None:
        self._names = tuple(names)
        self._values = tuple(values)
        self._frozen = tuple(
            (name, _freeze(value))
            for name, value in zip(self._names, self._values)
        )

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def values(self) -> tuple:
        return self._values

    def items(self) -> tuple[tuple[str, object], ...]:
        return tuple(zip(self._names, self._values))

    def get(self, name: str, default=None):
        for n, v in zip(self._names, self._values):
            if n == name:
                return v
        return default

    def __getitem__(self, name: str):
        for n, v in zip(self._names, self._values):
            if n == name:
                return v
        raise KeyError(
            f"cell has no axis {name!r}; axes: {list(self._names)}"
        )

    def __contains__(self, name: object) -> bool:
        return name in self._names

    def label(self) -> str:
        """``"node_count=400 failures=RandomFailure"`` style tag."""
        return " ".join(
            f"{name}={_label(value)}" for name, value in self.items()
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Cell) and self._frozen == other._frozen

    def __hash__(self) -> int:
        return hash(self._frozen)

    def __repr__(self) -> str:
        return f"Cell({self.label() or 'base'})"


@dataclasses.dataclass(frozen=True)
class CellResult:
    """One evaluated grid point.

    ``point`` carries the per-router aggregates the figure pipeline
    consumes (delivery, hop/length summaries, max hops, recovery
    counters) — computed through
    :func:`~repro.api.session.run_scenario`, merged over the
    scenario's ``networks`` replicas.
    """

    cell: Cell
    scenario: Scenario
    point: PointResult

    def routers(self) -> tuple[str, ...]:
        return tuple(self.point.per_router)

    def metric(self, router: str, name: str) -> float:
        """Scalar projection (``mean_hops``, ``delivery_rate``, ...)."""
        return self.point.metric(router, name)


def _evaluate_cell(
    scenario: Scenario, registry: RouterRegistry | None
) -> PointResult:
    """Worker entry point: one cell, evaluated through the Session facade.

    Module-level (hence picklable) so the engine can ship cells to
    worker processes; the registry travels along as resolved specs, so
    a worker never re-resolves router names against its own (possibly
    diverged) registry.
    """
    routes = run_scenario(scenario, registry=registry)
    return routes.point_result(
        scenario.deployment_model, scenario.node_count, scenario.networks
    )


def _describe(cell: Cell, scenario: Scenario) -> str:
    """Progress-line identity of one cell (classic unit style)."""
    head = f"[{scenario.deployment_model}] n={scenario.node_count}"
    extras = " ".join(
        f"{name}={_label(value)}"
        for name, value in cell.items()
        if name not in ("deployment_model", "node_count")
    )
    if extras:
        head = f"{head} {extras}"
    return (
        f"{head} ({scenario.networks} networks x "
        f"{scenario.routes_per_network} routes)"
    )


class Study:
    """A base Scenario swept along named axes.

    Parameters
    ----------
    base:
        The Scenario every cell starts from (default: the paper's
        ``Scenario()``).
    nodes / seeds:
        Sugar for the two most common axes — ``nodes=range(400, 801,
        50)`` is ``vary={"node_count": [...]}``, ``seeds=range(100)``
        is ``vary={"seed": [...]}``.
    vary:
        Further axes: any Scenario field name → sequence of values.
        Axis order is ``nodes``, ``seeds``, then ``vary`` in mapping
        order; the plan enumerates the product row-major (last axis
        fastest).
    registry:
        Router registry the cells resolve scheme names against
        (default: the process-wide one).  Shipped to workers as
        resolved specs.
    """

    def __init__(
        self,
        base: Scenario | None = None,
        *,
        nodes: Sequence[int] | None = None,
        seeds: Sequence[int] | None = None,
        vary: Mapping[str, Sequence] | None = None,
        registry: RouterRegistry | None = None,
    ) -> None:
        self.base = base if base is not None else Scenario()
        axes: dict[str, tuple] = {}
        if nodes is not None:
            axes["node_count"] = tuple(nodes)
        if seeds is not None:
            axes["seed"] = tuple(seeds)
        for name, values in dict(vary or {}).items():
            if name in axes:
                raise ValueError(
                    f"axis {name!r} given twice (keyword sugar and vary)"
                )
            axes[name] = tuple(values)
        known = {f.name for f in dataclasses.fields(Scenario)}
        for name, values in axes.items():
            if name not in known:
                raise ValueError(
                    f"unknown Scenario axis {name!r}; "
                    f"fields: {', '.join(sorted(known))}"
                )
            if not values:
                raise ValueError(f"axis {name!r} has no values")
            frozen = [_freeze(v) for v in values]
            if len(set(frozen)) != len(frozen):
                raise ValueError(
                    f"axis {name!r} repeats a value; cells must be "
                    "distinct grid points"
                )
        self.axes: dict[str, tuple] = axes
        self.registry = (
            registry if registry is not None else default_registry
        )
        self._plan: tuple[tuple[Cell, Scenario], ...] | None = None

    @classmethod
    def from_config(
        cls,
        config: ExperimentConfig,
        models: Sequence[str] = ("IA", "FA"),
        routers: Sequence[str] | None = None,
        router_options: Mapping[str, Mapping] | None = None,
        registry: RouterRegistry | None = None,
    ) -> "Study":
        """The classic density sweep, as a Study.

        Axes are ``deployment_model`` × ``node_count``, models outer;
        :meth:`StudyResult.sweep_result` turns the result into the
        per-model panels the figure layer consumes.
        """
        models = tuple(models)
        if not models:
            raise ValueError("need at least one deployment model")
        base = Scenario.from_config(
            config,
            models[0],
            config.node_counts[0],
            routers=tuple(routers or ()),
            router_options=dict(router_options or {}),
        )
        return cls(
            base,
            vary={
                "deployment_model": models,
                "node_count": config.node_counts,
            },
            registry=registry,
        )

    # -- the compiled plan ----------------------------------------------

    def plan(self) -> tuple[tuple[Cell, Scenario], ...]:
        """Every ``(cell, scenario)`` of the grid, in deterministic order.

        Compiling eagerly validates every combination through
        Scenario's own rules (e.g. explicit obstacles require the FA
        model), so an inexpressible cell fails here — before any work
        is dispatched — not in a worker process mid-study.
        """
        if self._plan is None:
            names = tuple(self.axes)
            compiled = []
            for values in itertools.product(*self.axes.values()):
                overrides = dict(zip(names, values))
                compiled.append(
                    (Cell(names, values), self.base.with_(**overrides))
                )
            self._plan = tuple(compiled)
        return self._plan

    def cells(self) -> tuple[Cell, ...]:
        return tuple(cell for cell, _ in self.plan())

    def scenario(self, cell: Cell) -> Scenario:
        for candidate, scenario in self.plan():
            if candidate == cell:
                return scenario
        raise KeyError(f"{cell!r} is not a cell of this study")

    def __len__(self) -> int:
        cells = 1
        for values in self.axes.values():
            cells *= len(values)
        return cells

    def __repr__(self) -> str:
        axes = ", ".join(
            f"{name}[{len(values)}]" for name, values in self.axes.items()
        )
        return f"Study({len(self)} cells: {axes or 'base only'})"

    # -- execution ------------------------------------------------------

    def _tasks(self, caching: bool) -> list[EngineTask]:
        tasks = []
        for cell, scenario in self.plan():
            # Fingerprinting is skipped entirely when the engine cannot
            # cache — a disabled cache must cost nothing extra.
            key = (
                scenario_fingerprint(scenario, self.registry)
                if caching
                else None
            )
            tasks.append(
                EngineTask(
                    key=cell,
                    fn=_evaluate_cell,
                    args=(scenario, self.registry),
                    cache_key=key,
                    description=_describe(cell, scenario),
                )
            )
        return tasks

    def stream(
        self,
        jobs: int | None = None,
        cache: ResultCache | None = None,
        progress: Progress | None = None,
    ) -> Iterator[tuple[Cell, CellResult]]:
        """Yield ``(cell, CellResult)`` as cells complete.

        Cached cells come first (plan order), computed ones follow in
        completion order — ``jobs > 1`` dispatches them over worker
        processes.  Each computed cell is persisted before it is
        yielded, so closing the stream mid-study (or Ctrl-C) leaves a
        cache the next run resumes from.  ``progress`` receives one
        :class:`~repro.experiments.progress.ProgressEvent` per cell.
        """
        engine = ExperimentEngine(jobs=jobs, cache=cache, progress=progress)
        return self.stream_through(engine)

    def stream_through(
        self, engine: ExperimentEngine
    ) -> Iterator[tuple[Cell, CellResult]]:
        """:meth:`stream` over a caller-owned engine (shared counters)."""
        scenarios = dict(self.plan())
        for task, point in engine.stream(self._tasks(engine.caching)):
            cell = task.key
            yield cell, CellResult(
                cell=cell, scenario=scenarios[cell], point=point
            )

    def run(
        self,
        jobs: int | None = None,
        cache: ResultCache | None = None,
        progress: Progress | None = None,
    ) -> "StudyResult":
        """Evaluate the whole grid and assemble a :class:`StudyResult`."""
        results = dict(
            self.stream(jobs=jobs, cache=cache, progress=progress)
        )
        return StudyResult(self, results)


# -- results -----------------------------------------------------------------


class StudyResult:
    """A completed study, columnar: cells in plan order, per-router metrics.

    Projections:

    * :meth:`cell` — one cell's result by axis coordinates;
    * :meth:`column` — one metric over every cell, in plan order;
    * :meth:`series` — one metric along one axis, the other axes fixed;
    * :meth:`table` — an aligned text table (axes × routers);
    * :meth:`to_csv` / :meth:`to_json` — exports;
    * :meth:`sweep_result` — the
      :class:`~repro.experiments.sweep.SweepResult` adapter feeding
      ``figures.py``/``report.py`` (plain density studies only).
    """

    def __init__(
        self, study: Study, results: Mapping[Cell, CellResult]
    ) -> None:
        self.study = study
        self.axes = dict(study.axes)
        self.cells = study.cells()
        missing = [cell for cell in self.cells if cell not in results]
        if missing:
            raise ValueError(
                f"study results missing {len(missing)} cell(s), "
                f"first: {missing[0]!r}"
            )
        # Plan order, whatever order the stream completed in.
        self._results = {cell: results[cell] for cell in self.cells}

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[CellResult]:
        return iter(self._results.values())

    def __getitem__(self, cell: Cell) -> CellResult:
        return self._results[cell]

    def results(self) -> dict[Cell, CellResult]:
        return dict(self._results)

    def routers(self) -> tuple[str, ...]:
        """Every router name present in any cell, first-seen order.

        Usually identical across cells; under a ``routers`` axis the
        union keeps :meth:`table` renderable (absent combinations show
        as ``-``).
        """
        seen: dict[str, None] = {}
        for cell in self.cells:
            for name in self._results[cell].routers():
                seen.setdefault(name)
        return tuple(seen)

    # -- selection ------------------------------------------------------

    def cell(self, **coords) -> CellResult:
        """The one cell matching ``coords`` (axis name = value).

        Unnamed axes must be single-valued; anything ambiguous or
        unmatched raises with the offending coordinates spelled out.
        """
        unknown = set(coords) - set(self.axes)
        if unknown:
            raise KeyError(
                f"unknown axis/axes {sorted(unknown)}; "
                f"study axes: {list(self.axes)}"
            )
        wanted = {name: _freeze(value) for name, value in coords.items()}
        matches = [
            cell
            for cell in self.cells
            if all(
                _freeze(cell[name]) == value
                for name, value in wanted.items()
            )
        ]
        if len(matches) != 1:
            raise KeyError(
                f"coordinates {coords!r} match {len(matches)} cells; "
                "fix every multi-valued axis"
            )
        return self._results[matches[0]]

    def column(self, router: str, metric: str) -> list[float]:
        """One metric for one router over every cell, in plan order."""
        return [
            self._results[cell].metric(router, metric)
            for cell in self.cells
        ]

    def series(
        self,
        router: str,
        metric: str,
        along: str | None = None,
        where: Mapping[str, object] | None = None,
    ) -> tuple[list, list[float]]:
        """One curve: ``metric`` along one axis, other axes fixed.

        Returns ``(axis values, metric values)``.  ``along`` may be
        omitted for single-axis studies; every *other* multi-valued
        axis must be pinned through ``where``.
        """
        if along is None:
            if len(self.axes) != 1:
                raise ValueError(
                    f"study has axes {list(self.axes)}; name the "
                    "one to walk with along="
                )
            along = next(iter(self.axes))
        if along not in self.axes:
            raise KeyError(
                f"unknown axis {along!r}; study axes: {list(self.axes)}"
            )
        where = dict(where or {})
        for name, values in self.axes.items():
            if name == along or name in where:
                continue
            if len(values) > 1:
                raise ValueError(
                    f"axis {name!r} is multi-valued; pin it via "
                    f"where={{'{name}': ...}}"
                )
        values = []
        for value in self.axes[along]:
            result = self.cell(**{along: value, **where})
            values.append(result.metric(router, metric))
        return list(self.axes[along]), values

    # -- rendering and export -------------------------------------------

    def table(
        self,
        metric: str = "mean_hops",
        routers: Sequence[str] | None = None,
        digits: int = 2,
    ) -> str:
        """Aligned text table: one row per cell, one column per router."""
        routers = tuple(routers) if routers is not None else self.routers()
        axis_names = tuple(self.axes)
        header = [*axis_names, *routers] if axis_names else ["cell", *routers]
        rows = [list(header)]
        for cell in self.cells:
            coords = (
                [_label(cell[name]) for name in axis_names]
                if axis_names
                else ["base"]
            )
            result = self._results[cell]
            rows.append(
                coords
                + [
                    (
                        f"{result.metric(r, metric):.{digits}f}"
                        if r in result.point.per_router
                        else "-"  # router not selected in this cell
                    )
                    for r in routers
                ]
            )
        widths = [
            max(len(row[col]) for row in rows)
            for col in range(len(header))
        ]
        lines = [f"study {metric} ({len(self.cells)} cells)"]
        for index, row in enumerate(rows):
            lines.append(
                "  ".join(
                    cell.rjust(width) for cell, width in zip(row, widths)
                )
            )
            if index == 0:
                lines.append("  ".join("-" * width for width in widths))
        return "\n".join(lines)

    def to_dicts(self) -> list[dict]:
        """One JSON-ready record per cell, in plan order."""
        records = []
        for index, cell in enumerate(self.cells):
            result = self._results[cell]
            coords = {}
            for name, value in cell.items():
                try:
                    coords[name] = _jsonable(value)
                except TypeError:
                    coords[name] = _label(value)
            records.append(
                {
                    "index": index,
                    "cell": coords,
                    "label": cell.label(),
                    "point": point_to_dict(result.point),
                }
            )
        return records

    def to_json(self, path) -> "Path":
        """Write the study as one JSON document; returns the path."""
        from pathlib import Path

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "axes": {
                name: [_label(v) for v in values]
                for name, values in self.axes.items()
            },
            "routers": list(self.routers()),
            "cells": self.to_dicts(),
        }
        path.write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
        return path

    def to_csv(
        self,
        path,
        metrics: Sequence[str] = (
            "delivery_rate",
            "mean_hops",
            "max_hops",
            "mean_length",
        ),
    ) -> "Path":
        """Columnar CSV: one row per (cell, router); returns the path."""
        import csv
        from pathlib import Path

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        axis_names = tuple(self.axes)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["cell", *axis_names, "router", *metrics])
            for index, cell in enumerate(self.cells):
                result = self._results[cell]
                coords = [_label(cell[name]) for name in axis_names]
                for router in result.routers():
                    writer.writerow(
                        [index, *coords, router]
                        + [
                            result.metric(router, metric)
                            for metric in metrics
                        ]
                    )
        return path

    # -- the figure pipeline's input -----------------------------------

    def sweep_result(self, deployment_model: str | None = None):
        """This study as a ``SweepResult`` (figures/report input).

        Only plain density studies — axes within ``deployment_model``
        × ``node_count`` — are expressible as a sweep; richer grids
        should be projected with :meth:`series`/:meth:`table` instead.
        The panel feeds ``figure_table``/``format_table``/``to_csv``.
        """
        extra = set(self.axes) - {"deployment_model", "node_count"}
        if extra:
            raise ValueError(
                f"sweep adapter needs a plain density study; extra "
                f"axes: {sorted(extra)} (use series()/table() instead)"
            )
        models = self.axes.get("deployment_model")
        if deployment_model is None:
            if models is not None and len(models) > 1:
                raise ValueError(
                    f"study spans models {list(models)}; name one"
                )
            deployment_model = (
                models[0] if models else self.study.base.deployment_model
            )
        else:
            # A model this study never evaluated must not come back
            # relabeled as if it had been.
            evaluated = (
                tuple(models)
                if models is not None
                else (self.study.base.deployment_model,)
            )
            if deployment_model not in evaluated:
                raise ValueError(
                    f"study evaluated model(s) {list(evaluated)}, "
                    f"not {deployment_model!r}"
                )
        node_counts = tuple(
            self.axes.get("node_count", (self.study.base.node_count,))
        )
        points = []
        for n in node_counts:
            coords = {}
            if "node_count" in self.axes:
                coords["node_count"] = n
            if models is not None:
                coords["deployment_model"] = deployment_model
            points.append(self.cell(**coords).point)
        config = dataclasses.replace(
            self.study.base.to_config(), node_counts=node_counts
        )
        return SweepResult(
            deployment_model=deployment_model,
            config=config,
            points=tuple(points),
        )
