"""Distributed study execution: shard Studies across processes.

The engine parallelizes across one process pool; this package is the
layer between the Study API and the engine that splits a Study's grid
— axes × seeds × schemes — into shards evaluated by separate worker
processes, each leaving a portable cache bundle:

* :mod:`~repro.dist.plan` compiles a Study's deterministic ``(cell,
  scenario-fingerprint)`` work-unit plan, prunes already-cached cells
  and splits the rest into shards (portable JSON documents);
* the headless worker (``repro-wasn dist-worker --plan shard.json
  --bundle out/``, :mod:`~repro.dist.worker`) evaluates one shard
  anywhere the package is installed, growing an incremental **cache
  bundle** and streaming JSON progress lines;
* :class:`~repro.dist.driver.LocalSubprocessDriver` runs the shards as
  N local worker processes, relaunching a dead worker on its partial
  bundle;
* :func:`~repro.dist.driver.run_study` merges the returned bundles
  into the content-addressed ``.repro_cache`` (refusing mismatched
  code digests or registry identities) and assembles one
  :class:`~repro.api.study.StudyResult` **bit-identical** to a local
  ``Study.run()`` — resumable at every stage, because the cache is
  the merge point.
"""

from repro.dist.driver import (
    ClusterError,
    DistStats,
    LocalSubprocessDriver,
    run_study,
)
from repro.dist.plan import (
    PlanError,
    PlanUnit,
    StudyPlan,
    compile_plan,
    read_plan,
    shard_plan,
    write_plan,
)

__all__ = [
    "ClusterError",
    "DistStats",
    "LocalSubprocessDriver",
    "PlanError",
    "PlanUnit",
    "StudyPlan",
    "compile_plan",
    "read_plan",
    "run_study",
    "shard_plan",
    "write_plan",
]
