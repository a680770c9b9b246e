"""Task execution engine: streaming parallel dispatch with caching.

The evaluation of Section 5 is embarrassingly parallel: a Study cell
is a pure function of its :class:`~repro.api.scenario.Scenario`.  This
module turns that purity into throughput behind one generic core:

* :class:`EngineTask` names one independently computable unit — an
  opaque ``key``, a picklable ``fn(*args)``, an optional cache key and
  a progress description;
* :meth:`ExperimentEngine.stream` executes a task list *as a stream*:
  cached tasks are yielded immediately, the rest are dispatched over a
  :class:`~concurrent.futures.ProcessPoolExecutor` when ``jobs > 1``
  and yielded in completion order, each persisted to the cache the
  moment it finishes (so an interrupted run is resumable).

:meth:`repro.api.study.Study.stream` compiles Scenario grids onto this
stream, which supplies dispatch, caching, serial fallback and progress
reporting.

Because per-network RNG streams are derived from the scenario alone,
parallel results are bit-identical to serial ones regardless of worker
count or completion order; a determinism test in
``tests/experiments/test_parallel.py`` pins this.

Progress is reported as one :class:`~repro.experiments.progress.ProgressEvent`
per finished task (cached or computed) — a ``str`` subclass, so plain
line sinks keep working — carrying completed/total counters and an
ETA extrapolated from the computed tasks' pace.

Worker count resolution: explicit ``jobs`` argument, else the
``REPRO_JOBS`` environment variable (via
:func:`~repro.experiments.config.default_jobs`), else 1 (serial).
Unpicklable inputs (e.g. a registry holding a closure factory) degrade
to serial execution with a progress note rather than failing —
parallelism is an optimisation, never a requirement.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.experiments.cache import ResultCache, default_cache
from repro.experiments.config import default_jobs
from repro.experiments.progress import Progress, ProgressEvent
from repro.experiments.sweep import PointResult

__all__ = [
    "EngineTask",
    "ExperimentEngine",
    "Progress",
    "ProgressEvent",
    "resolve_jobs",
]


@dataclass(frozen=True)
class EngineTask:
    """One unit of the engine's generic stream.

    ``fn(*args)`` must be a pure function of ``args`` returning a
    :class:`~repro.experiments.sweep.PointResult`, and picklable
    (module-level) for parallel dispatch — unpicklable tasks degrade
    the whole batch to serial.  ``cache_key=None`` marks the task
    uncacheable: it is computed every run and never stored.  ``key``
    is an opaque caller identity returned with the result.
    """

    key: object = field(compare=False)
    fn: Callable[..., PointResult] = field(compare=False)
    args: tuple = field(compare=False)
    cache_key: str | None
    description: str


def resolve_jobs(jobs: int | None = None) -> int:
    """Normalise a worker count: arg > ``REPRO_JOBS`` > 1 (serial)."""
    if jobs is None:
        return default_jobs()
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def _picklable(*objects) -> bool:
    """Whether the pool can ship these objects to worker processes."""
    try:
        pickle.dumps(objects)
    except Exception:
        return False
    return True


class ExperimentEngine:
    """Executes task streams: cache lookups, then (parallel) compute.

    Parameters
    ----------
    jobs:
        Worker processes; ``None`` defers to ``REPRO_JOBS``, ``0``
        means one per CPU, ``1`` runs inline.
    cache:
        A :class:`ResultCache`; ``None`` selects the default cache
        (honouring ``REPRO_CACHE`` / ``REPRO_CACHE_DIR``).  Pass
        ``ResultCache.disabled()`` to force recomputation.
    progress:
        Optional :class:`ProgressEvent` sink (any line sink works —
        events are strings).  One event fires per finished task.
    """

    def __init__(
        self,
        jobs: int | None = None,
        cache: ResultCache | None = None,
        progress: Progress | None = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.cache = default_cache() if cache is None else cache
        self.progress = progress
        self.computed_units = 0
        self.cached_units = 0

    @property
    def caching(self) -> bool:
        """Whether this engine can serve/persist cacheable tasks."""
        return self.cache is not None and self.cache.enabled

    def _emit(self, event: ProgressEvent) -> None:
        if self.progress is not None:
            self.progress(event)

    # -- the generic stream ---------------------------------------------

    def stream(
        self, tasks: Iterable[EngineTask]
    ) -> Iterator[tuple[EngineTask, PointResult]]:
        """Yield ``(task, result)`` as tasks complete, cache-first.

        Cached tasks are yielded immediately (in task order); missing
        ones are then computed — serially at ``jobs=1``, else over a
        process pool in completion order.  Every computed result is
        persisted *before* it is yielded, so whatever a consumer has
        seen is already on disk: abandoning the stream mid-way (e.g.
        ``close()`` on the generator, or Ctrl-C) leaves a cache from
        which the next run resumes.
        """
        tasks = list(tasks)
        total = len(tasks)
        started = time.monotonic()
        done = 0
        cached = 0
        computed = 0
        missing: list[EngineTask] = []

        def emit(kind: str, description: str) -> None:
            if self.progress is None:  # skip event construction too
                return
            elapsed = time.monotonic() - started
            eta = None
            if kind == "computed" and computed and done < total:
                # Pace of the *computed* tasks only: cached loads are
                # near-free and would wreck the extrapolation.
                eta = (elapsed / computed) * (total - done)
            # Every completion event carries the cached/computed split
            # (completed == cached + computed), so consumers summing
            # several streams never double-count pre-dispatch hits.
            self._emit(
                ProgressEvent.unit(
                    kind, description, done, total, elapsed, eta,
                    cached=cached, computed=computed,
                )
            )

        for task in tasks:
            if self.caching and task.cache_key is not None:
                point = self.cache.load(task.cache_key)
                if point is not None:
                    self.cached_units += 1
                    cached += 1
                    done += 1
                    emit("cached", task.description)
                    yield task, point
                    continue
            missing.append(task)

        if not missing:
            return
        jobs = min(self.jobs, len(missing))
        if jobs > 1 and not _picklable(
            tuple((task.fn, task.args) for task in missing)
        ):
            self._emit(
                ProgressEvent.note(
                    "[engine] inputs not picklable; running serially",
                    done,
                    total,
                    time.monotonic() - started,
                )
            )
            jobs = 1

        if jobs <= 1:
            for task in missing:
                # Announce the unit before the (possibly minutes-long)
                # inline compute, so a serial run is visibly alive —
                # the classic behaviour of the pre-streaming engine.
                if self.progress is not None:
                    self._emit(
                        ProgressEvent(
                            task.description,
                            kind="start",
                            description=task.description,
                            completed=done,
                            total=total,
                            cached=cached,
                            computed=computed,
                            elapsed_s=time.monotonic() - started,
                        )
                    )
                point = task.fn(*task.args)
                self._store(task.cache_key, point)
                self.computed_units += 1
                computed += 1
                done += 1
                emit("computed", task.description)
                yield task, point
            return

        pool = ProcessPoolExecutor(max_workers=jobs)
        try:
            futures = {
                pool.submit(task.fn, *task.args): task for task in missing
            }
            for future in as_completed(futures):
                task = futures[future]
                point = future.result()
                self._store(task.cache_key, point)
                self.computed_units += 1
                computed += 1
                done += 1
                emit("computed", task.description)
                yield task, point
        finally:
            # Reached on normal exhaustion AND on generator close()
            # (stream cancellation): queued tasks are dropped, in-flight
            # ones finish but are not stored — everything already
            # yielded is on disk, so the run resumes cell by cell.
            pool.shutdown(wait=True, cancel_futures=True)

    def _store(self, key: str | None, point: PointResult) -> None:
        if self.cache is not None and key is not None:
            self.cache.store(key, point)
