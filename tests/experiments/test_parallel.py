"""The engine's core promise: parallel == serial, bit for bit."""

import pytest

from repro.api import RouterRegistry, Study
from repro.api.registry import build_gf
from repro.experiments import (
    ExperimentConfig,
    ExperimentEngine,
    ResultCache,
    default_jobs,
    resolve_jobs,
)

TINY = ExperimentConfig(
    node_counts=(250, 300),
    networks_per_point=2,
    routes_per_network=3,
)


def _no_cache():
    return ResultCache.disabled()


def _sweep(model, jobs=None, cache=None, progress=None):
    """The classic density sweep, through its Study replacement."""
    result = Study.from_config(TINY, (model,)).run(
        jobs=jobs, cache=cache, progress=progress
    )
    return result.sweep_result(model)


class TestJobsResolution:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(None) == 7
        monkeypatch.delenv("REPRO_JOBS")
        assert resolve_jobs(None) == 1

    def test_zero_and_auto_mean_cpu_count(self, monkeypatch):
        import os

        cpus = os.cpu_count() or 1
        assert resolve_jobs(0) == cpus
        monkeypatch.setenv("REPRO_JOBS", "auto")
        assert default_jobs() == cpus
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert default_jobs() == cpus

    def test_invalid_rejected(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_jobs(-1)
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError):
            default_jobs()
        monkeypatch.setenv("REPRO_JOBS", "-2")
        with pytest.raises(ValueError):
            default_jobs()


class TestPlanUnits:
    def test_product_in_order(self):
        cells = Study.from_config(TINY, ("IA", "FA")).cells()
        assert [cell.values for cell in cells] == [
            ("IA", 250),
            ("IA", 300),
            ("FA", 250),
            ("FA", 300),
        ]

    def test_describe_mentions_scale(self):
        events = []
        study = Study.from_config(TINY, ("IA",))
        study.run(jobs=1, cache=_no_cache(), progress=events.append)
        assert "[IA] n=250" in events[0]
        assert "2 networks" in events[0]


class TestParallelDeterminism:
    """ISSUE acceptance: identical Summary values at jobs=1 and jobs=2."""

    def test_jobs2_identical_to_serial(self):
        serial = _sweep("IA", jobs=1, cache=_no_cache())
        parallel = _sweep("IA", jobs=2, cache=_no_cache())
        # Full structural equality: every Summary, every counter.
        assert serial.points == parallel.points

    def test_study_grid_both_models(self):
        result = Study.from_config(TINY, ("IA", "FA")).run(
            jobs=2, cache=_no_cache()
        )
        for model in ("IA", "FA"):
            sweep = result.sweep_result(model)
            assert sweep.deployment_model == model
            assert sweep.node_counts == TINY.node_counts
        # Shared-pool execution must match a per-model serial run.
        ia = _sweep("IA", jobs=1, cache=_no_cache())
        assert result.sweep_result("IA").points == ia.points

    def test_unpicklable_factory_degrades_to_serial(self):
        """A registry holding a closure factory cannot be shipped to
        worker processes, so the Study runs its cells serially."""
        captured = []

        def local_gf(instance, **kwargs):  # a closure: not picklable
            captured.append(instance.seed)
            return build_gf(instance, **kwargs)

        registry = RouterRegistry()
        registry.register("GF", local_gf)
        events = []
        result = Study.from_config(TINY, ("IA",), registry=registry).run(
            jobs=2, cache=_no_cache(), progress=events.append
        )
        assert "[engine] inputs not picklable; running serially" in events
        reference = Study.from_config(TINY, ("IA",), routers=("GF",)).run(
            jobs=1, cache=_no_cache()
        )
        assert (
            result.sweep_result("IA").points
            == reference.sweep_result("IA").points
        )
        assert captured  # the factory really ran, in this process

    def test_empty_model_list_rejected(self):
        """The removed compat wrapper tolerated empty model lists;
        the Study grid validates its axes eagerly instead."""
        with pytest.raises(ValueError):
            Study.from_config(TINY, ())

    def test_engine_counts_computed_units(self):
        engine = ExperimentEngine(jobs=1, cache=_no_cache())
        study = Study.from_config(TINY, ("IA",))
        results = dict(study.stream_through(engine))
        assert engine.computed_units == len(study)
        assert engine.cached_units == 0
        assert set(results) == set(study.cells())

    def test_progress_lines_emitted(self):
        lines = []
        _sweep("IA", progress=lines.append, jobs=1, cache=_no_cache())
        # Serial runs announce each unit before computing it (so a
        # minutes-long cell is visibly alive) and confirm it after.
        assert len(lines) == 2 * len(TINY.node_counts)
        assert any("n=250" in line for line in lines)

    def test_progress_events_are_structured(self):
        """One protocol for every surface: events are strings (legacy
        line sinks) *and* carry counters (Study.stream, CLI ETA)."""
        from repro.experiments import ProgressEvent

        events = []
        _sweep("IA", jobs=1, cache=_no_cache(), progress=events.append)
        assert all(isinstance(e, ProgressEvent) for e in events)
        assert all(isinstance(e, str) for e in events)
        assert [e.kind for e in events] == [
            "start", "computed", "start", "computed",
        ]
        unit_events = [e for e in events if e.kind == "computed"]
        assert [e.completed for e in unit_events] == [1, 2]
        assert all(e.total == len(TINY.node_counts) for e in unit_events)
        assert all(e.elapsed_s >= 0.0 for e in unit_events)
