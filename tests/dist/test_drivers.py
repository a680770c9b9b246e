"""The shard driver: bit-identity and failure recovery, end to end.

:class:`LocalSubprocessDriver` runs real worker subprocesses — these
tests are the protocol end-to-end, including the headline guarantee
(a sharded run's StudyResult equals a local run's, byte for byte) and
requeue-on-death.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.dist import (
    ClusterError,
    DistStats,
    LocalSubprocessDriver,
    compile_plan,
    run_study,
    shard_plan,
    write_plan,
)
from repro.experiments import ResultCache

SRC = Path(__file__).resolve().parents[2] / "src"


def _result_digest(result) -> str:
    return json.dumps(result.to_dicts(), sort_keys=True)


@pytest.fixture
def local_digest(make_study, cache):
    """The single-host truth every distributed run must reproduce."""
    return _result_digest(make_study().run(cache=cache))


class TestLocalSubprocessDriver:
    def test_bit_identical_to_local_run(
        self, make_study, local_digest, other_cache
    ):
        events: list = []
        stats = DistStats()
        driver = LocalSubprocessDriver(
            extra_env={"PYTHONPATH": str(SRC)}
        )
        result = run_study(
            make_study(),
            driver,
            shards=3,
            cache=other_cache,
            progress=events.append,
            stats=stats,
        )
        assert _result_digest(result) == local_digest
        assert (stats.total, stats.pre_cached, stats.shards) == (4, 0, 3)
        assert stats.worker_cells == 4 and stats.local_cells == 0
        # Progress invariants: one completion event per cell across
        # all shards, counters never double-counted.
        units = [e for e in events if e.kind == "computed"]
        assert len(units) == 4
        final = units[-1]
        assert final.completed == final.total == 4
        assert final.completed == final.cached + final.computed
        assert all(e.completed <= e.total for e in events)

    def test_pre_cached_cells_pruned_not_dispatched(
        self, make_study, local_digest, other_cache
    ):
        # Warm exactly one cell, then distribute: only three cells may
        # reach workers, and the pre-cached one is never re-counted.
        stream = make_study().stream(cache=other_cache)
        next(stream)
        stream.close()
        stats = DistStats()
        result = run_study(
            make_study(),
            LocalSubprocessDriver(extra_env={"PYTHONPATH": str(SRC)}),
            shards=2,
            cache=other_cache,
            stats=stats,
        )
        assert _result_digest(result) == local_digest
        assert stats.pre_cached == 1
        assert stats.worker_cells == 3

    def test_worker_death_requeues_and_resumes(
        self, make_study, local_digest, other_cache, tmp_path
    ):
        # A wrapper interpreter that dies on first launch, then execs
        # the real one — the shard must be requeued and still succeed.
        marker = tmp_path / "died_once"
        wrapper = tmp_path / "flaky_python.sh"
        wrapper.write_text(
            "#!/bin/sh\n"
            f'if [ ! -e "{marker}" ]; then touch "{marker}"; exit 13; fi\n'
            f'exec "{sys.executable}" "$@"\n'
        )
        wrapper.chmod(0o755)
        events: list = []
        driver = LocalSubprocessDriver(
            python=str(wrapper),
            retries=1,
            extra_env={"PYTHONPATH": str(SRC)},
        )
        result = run_study(
            make_study(),
            driver,
            shards=1,
            cache=other_cache,
            progress=events.append,
        )
        assert _result_digest(result) == local_digest
        assert any("requeueing" in str(e) for e in events)

    def test_exhausted_retries_raise(self, study, tmp_path, other_cache):
        wrapper = tmp_path / "dead_python.sh"
        wrapper.write_text("#!/bin/sh\nexit 13\n")
        wrapper.chmod(0o755)
        driver = LocalSubprocessDriver(python=str(wrapper), retries=1)
        with pytest.raises(ClusterError, match="after 2 attempt"):
            run_study(study, driver, shards=1, cache=other_cache)

    def test_identity_mismatch_fails_without_retry(
        self, study, tmp_path, other_cache
    ):
        plan = compile_plan(study)
        (shard,) = shard_plan(plan, 1)
        path = write_plan(shard, tmp_path / "shard_0.json")
        data = json.loads(path.read_text())
        data["code"] = "0" * 64
        path.write_text(json.dumps(data))
        driver = LocalSubprocessDriver(
            retries=5, extra_env={"PYTHONPATH": str(SRC)}
        )
        with pytest.raises(ClusterError, match="exit 4"):
            driver.run([path], tmp_path / "bundles")

    def test_distribution_requires_a_cache(self, study):
        with pytest.raises(ValueError, match="enabled result cache"):
            run_study(study, cache=ResultCache.disabled())
