"""The headless shard worker behind ``repro-wasn dist-worker``.

One invocation evaluates one shard plan anywhere the package is
installed::

    repro-wasn dist-worker --plan shard_0.json --bundle out/shard_0/

and leaves ``out/shard_0/`` as an incremental cache bundle: manifest
first, then one atomically written entry per completed cell, then a
``done.json`` completion marker.  Because entries land atomically and
the manifest precedes them, a worker killed at *any* point leaves a
valid partial bundle — rerunning the same command resumes, skipping
cells whose entries already exist, and the driver's merge accepts the
partial bundle as-is.

Safety before work: the worker re-derives every unit's scenario
fingerprint with its *own* code and registry and refuses the shard on
the first mismatch (exit code 4) — a host running different repro
code or a diverged router registry would otherwise compute results
filed under keys the driver can never match.

Progress streams to stdout as one JSON line per event (``start`` /
``unit`` / ``done`` / ``error``), which the driver's
:class:`~repro.dist.driver.ShardMonitor` folds into one
:class:`~repro.experiments.progress.ProgressEvent` stream.  ``--limit N`` stops after N computed cells with exit code 75
(EX_TEMPFAIL), the "ran out of walltime, resubmit me" convention of
batch schedulers.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

__all__ = ["main", "run_worker"]

#: Exit codes of the worker protocol (documented, driver-visible).
EXIT_OK = 0
EXIT_FAILURE = 3
EXIT_MISMATCH = 4  # wrong code/registry for this plan: do not retry
EXIT_INCOMPLETE = 75  # EX_TEMPFAIL: partial bundle, resubmit to resume


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-wasn dist-worker",
        description=(
            "Evaluate one shard of a distributed study plan into a "
            "portable cache bundle."
        ),
    )
    parser.add_argument(
        "--plan",
        type=Path,
        required=True,
        metavar="SHARD.json",
        help="shard plan document (see repro.dist.plan)",
    )
    parser.add_argument(
        "--bundle",
        type=Path,
        required=True,
        metavar="DIR",
        help="bundle directory to create/resume (one per shard)",
    )
    parser.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help=(
            "compute at most N cells this invocation, then exit 75 "
            "(resume by rerunning; for walltime-bounded batch slots)"
        ),
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the per-cell JSON progress lines",
    )
    return parser


def _emit(quiet: bool, **event) -> None:
    if quiet:
        return
    print(json.dumps(event, sort_keys=True), flush=True)


def run_worker(
    plan_path: Path,
    bundle_dir: Path,
    limit: int | None = None,
    quiet: bool = False,
) -> int:
    """Evaluate one shard; returns the worker's exit code."""
    # Imports are deferred so `dist-worker --help` and argparse errors
    # stay instant — the evaluation stack is only paid for real runs.
    from repro.api.study import _evaluate_cell, scenario_fingerprint
    from repro.dist.plan import PlanError, read_plan, registry_identity
    from repro.experiments.cache import (
        BundleError,
        _code_digest,
        bundle_add_entry,
        bundle_has_entry,
        encode_point,
        start_bundle,
    )

    try:
        plan = read_plan(plan_path)
    except PlanError as error:
        _emit(quiet, ev="error", detail=str(error))
        print(f"dist-worker: {error}", file=sys.stderr)
        return EXIT_FAILURE

    # -- identity gate: refuse work this host cannot file correctly ----
    local_code = _code_digest()
    if plan.code != local_code:
        detail = (
            f"{plan_path}: plan was compiled by different repro code "
            f"(plan {plan.code[:12]}… vs local {local_code[:12]}…); "
            "results computed here could never merge — update the "
            "checkout on this host or recompile the plan"
        )
        _emit(quiet, ev="error", detail=detail)
        print(f"dist-worker: {detail}", file=sys.stderr)
        return EXIT_MISMATCH
    scenarios = [unit.scenario for unit in plan.units]
    local_registry = registry_identity(scenarios)
    if plan.registry != local_registry:
        detail = (
            f"{plan_path}: this host resolves router names against a "
            f"different registry (plan {plan.registry[:12]}… vs local "
            f"{local_registry[:12]}…)"
        )
        _emit(quiet, ev="error", detail=detail)
        print(f"dist-worker: {detail}", file=sys.stderr)
        return EXIT_MISMATCH
    for unit in plan.units:
        derived = scenario_fingerprint(unit.scenario)
        if derived != unit.cache_key:
            detail = (
                f"{plan_path}: unit {unit.index} ({unit.label or 'base'}) "
                f"cache key mismatch (plan {unit.cache_key[:12]}… vs "
                f"derived {derived and derived[:12]}…); the plan is "
                "stale or tampered with"
            )
            _emit(quiet, ev="error", detail=detail)
            print(f"dist-worker: {detail}", file=sys.stderr)
            return EXIT_MISMATCH

    try:
        start_bundle(
            bundle_dir,
            plan.registry,
            meta={"shard": plan.shard, "units": len(plan.units)},
        )
    except BundleError as error:
        _emit(quiet, ev="error", detail=str(error))
        print(f"dist-worker: {error}", file=sys.stderr)
        return EXIT_MISMATCH

    total = len(plan.units)
    _emit(
        quiet,
        ev="start",
        shard=plan.shard,
        units=total,
        plan_total=plan.total,
    )
    computed = 0
    skipped = 0
    for unit in plan.units:
        if bundle_has_entry(bundle_dir, unit.cache_key):
            # A previous (killed) invocation already paid for this
            # cell; resuming must not recompute it.
            skipped += 1
            _emit(
                quiet,
                ev="unit",
                kind="cached",
                key=unit.cache_key,
                done=computed + skipped,
                units=total,
                description=unit.description,
            )
            continue
        if limit is not None and computed >= limit:
            _emit(
                quiet,
                ev="limit",
                computed=computed,
                skipped=skipped,
                units=total,
            )
            return EXIT_INCOMPLETE
        point = _evaluate_cell(unit.scenario, None)
        bundle_add_entry(bundle_dir, unit.cache_key, encode_point(point))
        computed += 1
        _emit(
            quiet,
            ev="unit",
            kind="computed",
            key=unit.cache_key,
            done=computed + skipped,
            units=total,
            description=unit.description,
        )

    # The completion marker: written atomically, after every entry,
    # so its presence implies a full bundle.
    from repro.experiments.cache import _write_atomic

    _write_atomic(
        Path(bundle_dir) / "done.json",
        json.dumps(
            {"computed": computed, "skipped": skipped, "units": total},
            sort_keys=True,
        ),
    )
    _emit(quiet, ev="done", computed=computed, skipped=skipped, units=total)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.limit is not None and args.limit < 0:
        _parser().error("--limit must be >= 0")
    try:
        return run_worker(
            args.plan, args.bundle, limit=args.limit, quiet=args.quiet
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return EXIT_INCOMPLETE


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
