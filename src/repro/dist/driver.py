"""The shard driver: execute shard plans, return cache bundles.

A driver does exactly one thing — given shard-plan files, get each one
evaluated by a ``dist-worker`` and return the resulting bundle paths.
Everything else (planning, pruning, merging, assembly) is
:func:`run_study`, so the driver stays small.

:class:`LocalSubprocessDriver` runs N worker *processes* on this
machine, exercising the full protocol (plan files, JSON progress
lines, kill/resume, bundle merge) with nothing but ``subprocess``,
which is what the CI ``dist-smoke`` job and the test suite drive.

Progress: workers stream one JSON line per event; the
:class:`ShardMonitor` folds every shard's stream into the standard
:class:`~repro.experiments.progress.ProgressEvent` feed — one
completion event per cell *across all shards*, with the
``cached``/``computed`` split seeded by the cells pruned before
dispatch, so totals never double-count pre-dispatch cache hits (and a
retried shard's resumed cells, replayed by its second attempt, are
deduplicated by cache key).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.dist import worker as worker_module
from repro.dist.plan import StudyPlan, compile_plan, shard_plan, write_plan
from repro.experiments.cache import (
    BundleStats,
    ResultCache,
    default_cache,
    import_bundle,
)
from repro.experiments.engine import ExperimentEngine
from repro.experiments.progress import Progress, ProgressEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.study import Study, StudyResult

__all__ = [
    "ClusterError",
    "DistStats",
    "LocalSubprocessDriver",
    "ShardMonitor",
    "execute_plan",
    "run_study",
]


class ClusterError(RuntimeError):
    """A shard could not be completed by its worker."""


class ShardMonitor:
    """Aggregates every worker's progress stream into one event feed.

    Thread-safe (the driver pumps worker stdout from one thread per
    worker).  Cells are counted once by cache key, whatever shard or
    attempt reports them — a requeued shard replaying its resumed
    entries does not inflate the totals.
    """

    def __init__(
        self, progress: Progress | None, total: int, cached: int = 0
    ) -> None:
        self._progress = progress
        self.total = total
        self.cached = cached  # pruned before dispatch: cache hits
        self.computed = 0  # unique cells completed by workers
        self._seen: set[str] = set()
        self._lock = threading.Lock()
        self._started = time.monotonic()

    @property
    def completed(self) -> int:
        return self.cached + self.computed

    def _emit(self, event: ProgressEvent) -> None:
        if self._progress is not None:
            self._progress(event)

    def note(self, text: str) -> None:
        with self._lock:
            completed, cached, computed = (
                self.completed, self.cached, self.computed,
            )
        self._emit(
            ProgressEvent.note(
                text,
                completed,
                self.total,
                time.monotonic() - self._started,
                cached=cached,
                computed=computed,
            )
        )

    def line(self, shard: str, raw: str) -> None:
        """Ingest one raw stdout line from a worker."""
        raw = raw.rstrip("\n")
        if not raw:
            return
        try:
            event = json.loads(raw)
            if not isinstance(event, dict):
                raise ValueError
        except ValueError:
            # Anything non-protocol (a traceback, a stray print)
            # surfaces verbatim — shard-tagged, never swallowed.
            self.note(f"[{shard}] {raw}")
            return
        kind = event.get("ev")
        if kind == "unit":
            key = event.get("key")
            with self._lock:
                if not isinstance(key, str) or key in self._seen:
                    return
                self._seen.add(key)
                self.computed += 1
                completed, cached, computed = (
                    self.completed, self.cached, self.computed,
                )
            elapsed = time.monotonic() - self._started
            eta = None
            if computed and completed < self.total:
                eta = (elapsed / computed) * (self.total - completed)
            self._emit(
                ProgressEvent.unit(
                    "computed",
                    f"[{shard}] {event.get('description', '')}",
                    completed,
                    self.total,
                    elapsed,
                    eta,
                    cached=cached,
                    computed=computed,
                )
            )
        elif kind == "error":
            self.note(f"[{shard}] {event.get('detail', 'worker error')}")
        elif kind == "done":
            self.note(
                f"[{shard}] shard complete: "
                f"{event.get('computed', '?')} computed, "
                f"{event.get('skipped', 0)} resumed"
            )
        # "start"/"limit" events carry nothing the totals need.


class LocalSubprocessDriver:
    """N local worker processes, one shard each.

    ``run(shards, bundle_root, monitor)`` takes plan files
    (:func:`repro.dist.plan.write_plan` output) and returns one bundle
    directory per shard, importable by
    :func:`repro.experiments.cache.import_bundle`; worker stdout lines
    go to ``monitor.line(shard_name, line)``, and an unrecoverable
    shard raises :class:`ClusterError`.  Each shard runs as ``python -m repro.cli dist-worker`` with its
    stdout pumped into the monitor; a worker that dies (crash, OOM
    kill, ``kill -9``) is relaunched on the *same* bundle directory up
    to ``retries`` more times, so the relaunch resumes from the
    partial bundle instead of recomputing.  An identity refusal (exit
    code 4) is never retried — the plan itself is wrong for this
    installation.
    """

    def __init__(
        self,
        jobs: int | None = None,
        python: str | None = None,
        retries: int = 2,
        extra_env: dict[str, str] | None = None,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.jobs = jobs
        self.python = python or sys.executable
        self.retries = retries
        self.extra_env = dict(extra_env or {})

    def command(self, shard: Path, bundle_dir: Path) -> list[str]:
        return [
            self.python,
            "-m",
            "repro.cli",
            "dist-worker",
            "--plan",
            str(shard),
            "--bundle",
            str(bundle_dir),
        ]

    def _run_shard(
        self,
        shard: Path,
        bundle_dir: Path,
        monitor: ShardMonitor | None,
    ) -> Path:
        name = shard.stem
        attempts = self.retries + 1
        code: int | None = None
        for attempt in range(1, attempts + 1):
            process = subprocess.Popen(
                self.command(shard, bundle_dir),
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,  # tracebacks reach the monitor
                text=True,
                env={**os.environ, **self.extra_env},
            )
            assert process.stdout is not None
            for line in process.stdout:
                if monitor is not None:
                    monitor.line(name, line)
            code = process.wait()
            if code == 0:
                return bundle_dir
            if code == worker_module.EXIT_MISMATCH:
                raise ClusterError(
                    f"shard {name}: worker refused the plan (exit 4: "
                    "code/registry mismatch); retrying cannot help"
                )
            if attempt < attempts and monitor is not None:
                monitor.note(
                    f"[{name}] worker exited with code {code}; "
                    f"requeueing (attempt {attempt}/{attempts}) — the "
                    "partial bundle resumes"
                )
        raise ClusterError(
            f"shard {name} failed after {attempts} attempt(s) "
            f"(last exit code {code})"
        )

    def run(
        self,
        shards: Sequence[Path],
        bundle_root: Path,
        monitor: ShardMonitor | None = None,
    ) -> list[Path]:
        shards = [Path(shard) for shard in shards]
        bundle_root = Path(bundle_root)
        bundle_root.mkdir(parents=True, exist_ok=True)
        jobs = self.jobs if self.jobs is not None else len(shards)
        jobs = max(1, min(jobs, len(shards)))
        bundles = [bundle_root / shard.stem for shard in shards]
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(self._run_shard, shard, bundle, monitor)
                for shard, bundle in zip(shards, bundles)
            ]
            return [future.result() for future in futures]


@dataclass
class DistStats:
    """Accounting of one distributed run (see :func:`run_study`)."""

    total: int = 0  # grid cells in the study
    pre_cached: int = 0  # served from the local cache before dispatch
    shards: int = 0  # shard plans dispatched
    worker_cells: int = 0  # unique cells reported done by workers
    merged: int = 0  # bundle entries newly merged into the cache
    local_cells: int = 0  # computed locally during final assembly
    bundle: BundleStats | None = None  # raw merge accounting

    def describe(self) -> str:
        rate = 100.0 * self.pre_cached / self.total if self.total else 0.0
        return (
            f"{self.total} cells: {self.pre_cached} cached, "
            f"{self.worker_cells} from {self.shards} shard(s), "
            f"{self.local_cells} local ({rate:.0f}% cache hit rate)"
        )


def execute_plan(
    plan: StudyPlan,
    driver: LocalSubprocessDriver,
    cache: ResultCache,
    shards: int,
    workdir: Path | None = None,
    monitor: ShardMonitor | None = None,
) -> BundleStats:
    """Dispatch a (pruned) plan through ``driver`` and merge the bundles.

    The low-level half of :func:`run_study`: writes shard files under
    ``workdir`` (a temporary directory when ``None``), runs the
    driver, and imports every returned bundle into ``cache`` —
    verifying each against the plan's code digest and registry
    identity.  Returns the merge accounting.
    """
    if not plan.units:
        return BundleStats()
    own_tmp = None
    if workdir is None:
        own_tmp = tempfile.TemporaryDirectory(prefix="repro_dist_")
        workdir = Path(own_tmp.name)
    try:
        workdir = Path(workdir)
        shard_paths = [
            write_plan(sub, workdir / "shards" / f"{sub.shard}.json")
            for sub in shard_plan(plan, shards)
        ]
        bundles = driver.run(shard_paths, workdir / "bundles", monitor)
        stats = BundleStats()
        for bundle in bundles:
            stats += import_bundle(cache, bundle, registry=plan.registry)
        if monitor is not None:
            monitor.note(
                f"[dist] merged {len(bundles)} bundle(s): "
                f"{stats.describe()}"
            )
        return stats
    finally:
        if own_tmp is not None:
            own_tmp.cleanup()


def run_study(
    study: "Study",
    driver: LocalSubprocessDriver | None = None,
    *,
    shards: int | None = None,
    cache: ResultCache | None = None,
    workdir: Path | None = None,
    progress: Progress | None = None,
    stats: DistStats | None = None,
) -> "StudyResult":
    """Evaluate a Study through shard workers; bit-identical results.

    The pipeline: compile the deterministic work-unit plan, prune
    cells already in ``cache`` (resumability — only missing cells
    dispatch), deal the rest into ``shards`` round-robin shard files,
    run them through ``driver`` (default: a
    :class:`LocalSubprocessDriver`), merge the returned bundles into
    the cache, then assemble the :class:`~repro.api.study.StudyResult`
    from the cache — the same entries a local ``Study.run()`` would
    have written, so the result is bit-identical to a single-host run
    (pinned by ``tools/check_dist_identity.py`` in CI).

    Cells missing from the merged bundles (an entry skipped as corrupt
    at import) are computed locally during assembly — the run
    degrades, it does not lose work.  Pass a
    :class:`DistStats` as ``stats`` to receive the accounting.
    """
    from repro.api.study import StudyResult

    cache = default_cache() if cache is None else cache
    if cache is None or not cache.enabled:
        raise ValueError(
            "distributed execution needs an enabled result cache — the "
            "cache is the merge point bundles assemble into (set "
            "REPRO_CACHE_DIR / pass cache=ResultCache(...) instead of "
            "disabling it)"
        )
    stats = stats if stats is not None else DistStats()
    plan = compile_plan(study, cache=cache)
    stats.total = plan.total
    stats.pre_cached = plan.total - len(plan.units)
    monitor = ShardMonitor(progress, plan.total, cached=stats.pre_cached)
    if stats.pre_cached:
        monitor.note(
            f"[dist] {stats.pre_cached}/{plan.total} cell(s) already "
            "cached; dispatching the rest"
        )
    if plan.units:
        if driver is None:
            driver = LocalSubprocessDriver()
        if shards is None:
            shards = min(len(plan.units), os.cpu_count() or 1)
        stats.shards = min(shards, len(plan.units))
        stats.bundle = execute_plan(
            plan, driver, cache, shards, workdir=workdir, monitor=monitor
        )
        stats.merged = stats.bundle.merged
    stats.worker_cells = monitor.computed

    # Final assembly reads every cell back through the normal Study
    # stream — quietly (the monitor already reported each cell once;
    # replaying them as events is exactly the double-count this layer
    # is specified to avoid).  Anything still missing is computed here.
    engine = ExperimentEngine(jobs=1, cache=cache, progress=None)
    results = dict(study.stream_through(engine))
    stats.local_cells = engine.computed_units
    if stats.local_cells:
        monitor.note(
            f"[dist] {stats.local_cells} cell(s) missing from bundles; "
            "computed locally during assembly"
        )
    monitor.note(f"[dist] {stats.describe()}")
    return StudyResult(study, results)
