"""Command-line entry point: regenerate the paper's figures.

``repro-wasn`` runs the Section 5 evaluation and prints/saves the
figure tables::

    repro-wasn --quick                 # reduced sweep, tables to stdout
    repro-wasn --full --csv-dir out/   # paper-scale sweep + CSV files
    repro-wasn --figures fig6 --models FA
    repro-wasn --routers GF SLGF2      # any registered schemes
    repro-wasn --list-routers          # what the registry knows
    repro-wasn --full --jobs 8         # 8 worker processes
    repro-wasn --full                  # second run: served from cache
    repro-wasn serve --port 8707       # routing-as-a-service (HTTP)

The CLI drives everything through :mod:`repro.api`: router selection
is by registered name (schemes added via
:func:`repro.api.register_router` appear automatically), and the
evaluation runs as a declarative :class:`repro.api.Study` — the
density grid streamed cell by cell, with one structured
:class:`repro.api.ProgressEvent` per cell (counters and ETA) printed
to stderr.

Study cells are cached under ``.repro_cache/`` keyed by their full
scenario fingerprint (override the directory with ``--cache-dir`` or
``REPRO_CACHE_DIR``; disable with ``--no-cache`` or
``REPRO_CACHE=0``), so re-running — or resuming an interrupted run —
only computes missing cells.  Worker count defaults to ``REPRO_JOBS``
(or 1).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.api import ProgressEvent, Study, default_registry
from repro.experiments import (
    PAPER_CONFIG,
    QUICK_CONFIG,
    ResultCache,
    default_cache,
    figure_table,
    format_table,
    resolve_jobs,
    to_chart,
    to_csv,
    to_json,
)

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-wasn",
        description=(
            "Regenerate the evaluation figures of 'A Straightforward "
            "Path Routing in Wireless Ad Hoc Sensor Networks' "
            "(ICDCS Workshops 2009)."
        ),
    )
    scale = parser.add_mutually_exclusive_group()
    scale.add_argument(
        "--quick",
        action="store_true",
        help="reduced sweep (default): 5 densities x 10 networks",
    )
    scale.add_argument(
        "--full",
        action="store_true",
        help="paper-scale sweep: 9 densities x 100 networks",
    )
    parser.add_argument(
        "--figures",
        nargs="+",
        default=["fig5", "fig6", "fig7"],
        choices=["fig5", "fig6", "fig7"],
        help="which figures to regenerate",
    )
    parser.add_argument(
        "--models",
        nargs="+",
        default=["IA", "FA"],
        choices=["IA", "FA"],
        help="deployment models (panels) to evaluate",
    )
    parser.add_argument(
        "--routers",
        nargs="+",
        default=None,
        metavar="NAME",
        help=(
            "routing schemes to evaluate, by registered name "
            "(default: all; see --list-routers)"
        ),
    )
    parser.add_argument(
        "--list-routers",
        action="store_true",
        help="list the registered routing schemes and exit",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker processes for the sweep (0 = one per CPU; "
            "default: $REPRO_JOBS or 1)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every point, ignoring the result cache",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="result cache directory (default: $REPRO_CACHE_DIR "
        "or .repro_cache/)",
    )
    parser.add_argument(
        "--csv-dir",
        type=Path,
        default=None,
        help="also write each panel as CSV into this directory",
    )
    parser.add_argument(
        "--json-dir",
        type=Path,
        default=None,
        help="also write each panel as JSON into this directory",
    )
    parser.add_argument(
        "--no-chart",
        action="store_true",
        help="suppress the ASCII charts",
    )
    return parser


def _resolve_cache(args: argparse.Namespace) -> ResultCache | None:
    if args.no_cache:
        return ResultCache.disabled()
    if args.cache_dir is not None:
        return ResultCache(args.cache_dir)
    return default_cache()


def _list_routers() -> None:
    width = max(len(name) for name in default_registry.names())
    for spec in default_registry.specs():
        print(f"  {spec.name:<{width}}  {spec.description}")


def main(argv: list[str] | None = None) -> int:
    """Entry point: figure sweeps, or the routing service.

    ``repro-wasn serve ...`` hands over to the service CLI
    (:mod:`repro.serve.cli`) — a resident-session query server over
    HTTP; everything else is the figure pipeline below.
    """
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        # Imported on demand: the figure pipeline must not pay for
        # (or depend on) the service layer.
        from repro.serve.cli import main as serve_main

        return serve_main(argv[1:])
    parser = _parser()
    args = parser.parse_args(argv)
    if args.list_routers:
        _list_routers()
        return 0
    config = PAPER_CONFIG if args.full else QUICK_CONFIG
    cache = _resolve_cache(args)
    try:
        jobs = resolve_jobs(args.jobs)
    except ValueError as error:
        parser.error(str(error))  # exits 2 with usage, no traceback
    if args.routers is not None:
        message = default_registry.describe_unknown(args.routers)
        if message:
            parser.error(message)

    # One ProgressEvent sink for everything the CLI says on stderr:
    # the study's per-cell events (counters/ETA ride along for any
    # richer consumer) and the CLI's own notes, as note events.
    last_unit: list[ProgressEvent] = []

    def emit(event: ProgressEvent) -> None:
        if event.kind in ("cached", "computed"):
            last_unit[:] = [event]
        print(event, file=sys.stderr)

    # Repeated --models values would repeat a grid axis value; the
    # panels are per model anyway, so duplicates simply collapse.
    models = tuple(dict.fromkeys(args.models))
    study = Study.from_config(config, models, routers=args.routers)
    results = study.run(jobs=jobs, cache=cache, progress=emit)
    if last_unit:
        # The final unit event carries the run's cached/computed split
        # (completed == cached + computed, never double-counted).
        final = last_unit[0]
        rate = 100.0 * final.cached / final.total if final.total else 0.0
        emit(
            ProgressEvent.note(
                f"[study] {final.total} cells: {final.cached} cached, "
                f"{final.computed} computed ({rate:.0f}% cache hit rate)"
            )
        )
    for model in models:
        sweep = results.sweep_result(model)
        for figure_id in args.figures:
            table = figure_table(sweep, figure_id)
            print()
            print(format_table(table))
            if not args.no_chart:
                print()
                print(to_chart(table))
            if args.csv_dir is not None:
                path = to_csv(
                    table, args.csv_dir / f"{figure_id}_{model.lower()}.csv"
                )
                emit(ProgressEvent.note(f"[csv] {path}"))
            if args.json_dir is not None:
                path = to_json(
                    table, args.json_dir / f"{figure_id}_{model.lower()}.json"
                )
                emit(ProgressEvent.note(f"[json] {path}"))
    if cache is not None and cache.enabled:
        emit(ProgressEvent.note(f"[cache] {cache.stats()} ({cache.root})"))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
