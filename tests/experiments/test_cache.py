"""The result cache: keying, round-tripping, replay without recompute."""

import json
import warnings as warnings_module

import pytest

from repro.api import RouterRegistry, Scenario, Study, scenario_fingerprint
from repro.api.registry import build_gf, build_lgf
from repro.experiments import (
    ExperimentConfig,
    ResultCache,
    default_cache,
    figure_table,
    point_from_dict,
    point_to_dict,
)
from repro.experiments import CacheCorruptionWarning
from repro.experiments.cache import default_cache_root

TINY = ExperimentConfig(
    node_counts=(250, 300),
    networks_per_point=2,
    routes_per_network=3,
)


def _sweep(model, jobs=None, cache=None, registry=None):
    """The classic density sweep, through its Study replacement."""
    result = Study.from_config(TINY, (model,), registry=registry).run(
        jobs=jobs, cache=cache
    )
    return result.sweep_result(model)


def _key(model="IA", n=250, config=TINY, registry=None):
    """The cache key of one figure point's Study cell."""
    return scenario_fingerprint(
        Scenario.from_config(config, model, n), registry
    )


@pytest.fixture(scope="module")
def cell():
    """One computed Study cell: its point and its cache key."""
    study = Study.from_config(TINY, ("IA",))
    result = study.run(cache=ResultCache.disabled())
    return result.cell(node_count=250).point, _key()


def _anonymous_registry():
    """A registry whose GF factory is a closure: no stable identity."""
    registry = RouterRegistry()

    def local_gf(instance, **kwargs):  # <locals>: not picklable
        return build_gf(instance, **kwargs)

    registry.register("GF", local_gf, order=0)
    registry.register("LGF", build_lgf, order=1)
    return registry


class TestKeying:
    def test_stable(self):
        a = _key()
        b = _key()
        assert a == b
        assert len(a) == 64  # sha256 hex

    def test_sensitive_to_inputs(self):
        base = _key()
        assert _key(model="FA") != base
        assert _key(n=300) != base
        reseeded = ExperimentConfig(
            node_counts=TINY.node_counts,
            networks_per_point=TINY.networks_per_point,
            routes_per_network=TINY.routes_per_network,
            seed=TINY.seed + 1,
        )
        assert _key(config=reseeded) != base

    def test_node_counts_axis_excluded(self):
        """A point cached in one sweep is reusable in any sweep."""
        wider = ExperimentConfig(
            node_counts=(250, 300, 350),
            networks_per_point=TINY.networks_per_point,
            routes_per_network=TINY.routes_per_network,
        )
        keys = {
            cell.values: scenario_fingerprint(scenario)
            for cell, scenario in Study.from_config(wider, ("IA",)).plan()
        }
        assert keys[("IA", 250)] == _key()

    def test_anonymous_factories_not_keyable(self):
        """Two lambdas share a name — refusing beats colliding."""
        import functools

        assert _key() is not None
        for factory in (
            lambda instance, **kwargs: build_lgf(instance, **kwargs),
            functools.partial(build_lgf),
        ):
            registry = RouterRegistry()
            registry.register("LGF", factory)
            assert _key(registry=registry) is None
        assert _key(registry=_anonymous_registry()) is None  # <locals>

    def test_external_factory_source_digested(self, tmp_path):
        """Editing a user-defined factory module invalidates its keys."""
        import importlib.util

        module_path = tmp_path / "user_factories.py"
        body = (
            "from repro.routing import LgfRouter\n"
            "def my_factory(instance, **kwargs):\n"
            "    return LgfRouter(instance.graph, **kwargs)\n"
        )
        module_path.write_text(body)
        spec = importlib.util.spec_from_file_location(
            "user_factories", module_path
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        registry = RouterRegistry()
        registry.register("MINE", module.my_factory)

        before = registry.fingerprint()
        assert before is not None
        module_path.write_text(body + "\n# routing behaviour changed\n")
        after = registry.fingerprint()
        assert after is not None
        assert before != after  # stale results cannot be served


class TestRoundTrip:
    def test_point_survives_json(self, cell):
        point, _ = cell
        rebuilt = point_from_dict(
            json.loads(json.dumps(point_to_dict(point)))
        )
        assert rebuilt == point

    def test_store_failure_swallowed(self, tmp_path, cell):
        """An unwritable cache must not abort a paid-for sweep."""
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        cache = ResultCache(blocker / "cache")  # mkdir will fail
        point, _ = cell
        assert cache.store("ab" * 32, point) is None
        assert cache.stores == 0

    def test_store_load(self, tmp_path, cell):
        cache = ResultCache(tmp_path)
        point, key = cell
        path = cache.store(key, point)
        assert path is not None and path.exists()
        assert cache.load(key) == point
        assert cache.hits == 1 and cache.stores == 1


class TestSweepCaching:
    def test_warm_cache_skips_recompute(self, tmp_path, monkeypatch):
        """ISSUE acceptance: warm figures identical, zero recomputation.

        The default-factory sweep path evaluates through the Study
        pipeline, so the cell evaluator is the thing that must not
        re-run on a warm cache.
        """
        import repro.api.study as study_module

        cache = ResultCache(tmp_path)
        calls = []
        real = study_module._evaluate_cell

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(study_module, "_evaluate_cell", counting)

        cold = _sweep("IA", jobs=1, cache=cache)
        assert len(calls) == len(TINY.node_counts)

        warm = _sweep("IA", jobs=1, cache=cache)
        assert len(calls) == len(TINY.node_counts)  # no new computation
        assert warm.points == cold.points
        for figure_id in ("fig5", "fig6", "fig7"):
            assert figure_table(warm, figure_id) == figure_table(
                cold, figure_id
            )

    def test_corrupt_entry_recomputed(self, tmp_path, cell):
        cache = ResultCache(tmp_path)
        point, key = cell
        cache.store(key, point)
        cache.path_for(key).write_text("{not json", encoding="utf-8")
        assert cache.load(key) is None  # miss, not an error
        # And the sweep pipeline transparently recomputes through
        # corruption: poison every stored entry, rerun, same numbers.
        cold = _sweep("IA", jobs=1, cache=cache)
        for entry in tmp_path.rglob("*.json"):
            entry.write_text("{not json", encoding="utf-8")
        warm = _sweep("IA", jobs=1, cache=cache)
        assert warm.points == cold.points
        assert warm.points[0] == point

    def test_corrupt_entry_warned_discarded_counted(self, tmp_path, cell):
        """Detect, warn, discard, recompute — and never warn twice.

        A truncated entry (a writer killed before the atomic rename
        semantics existed, or plain bit rot) must surface exactly one
        :class:`CacheCorruptionWarning`, be unlinked so it cannot
        shadow the recomputation, and show up in the stats line."""
        cache = ResultCache(tmp_path)
        point, key = cell
        cache.store(key, point)
        path = cache.path_for(key)
        path.write_text(json.dumps(point_to_dict(point))[:40])  # truncated
        with pytest.warns(CacheCorruptionWarning, match="discarding"):
            assert cache.load(key) is None
        assert cache.corrupt == 1
        assert not path.exists()  # discarded, not left to warn again
        assert "1 corrupt" in cache.stats()
        # The next load is an ordinary miss: no second warning.
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error", CacheCorruptionWarning)
            assert cache.load(key) is None
        # And recomputation repopulates the entry cleanly.
        cache.store(key, point)
        assert cache.load(key) == point

    def test_non_utf8_entry_warned_discarded_recomputed(self, tmp_path, cell):
        """Bytes that are not UTF-8 are a corrupt entry, not a crash."""
        cache = ResultCache(tmp_path)
        point, key = cell
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"\xff\xfe{garbage")
        with pytest.warns(CacheCorruptionWarning, match="discarding"):
            assert cache.load(key) is None
        assert cache.corrupt == 1
        assert not path.exists()
        # A run that meets such an entry recomputes the cell.
        path.write_bytes(b"\xff\xfe{garbage")
        with pytest.warns(CacheCorruptionWarning, match="discarding"):
            recomputed = _sweep("IA", jobs=1, cache=cache)
        uncached = _sweep("IA", jobs=1, cache=ResultCache.disabled())
        assert recomputed.points == uncached.points
        assert recomputed.points[0] == point

    def test_entry_writes_are_atomic(self, tmp_path, cell):
        """No partial entries: temp file + rename, temp never left behind."""
        cache = ResultCache(tmp_path)
        point, key = cell
        cache.store(key, point)
        leftovers = [
            p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")
        ]
        assert leftovers == []
        # Stored under the final name only, and valid.
        assert cache.load(key) == point

    def test_disabled_cache_writes_nothing(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=False)
        _sweep("IA", jobs=1, cache=cache)
        assert not list(tmp_path.iterdir())
        assert cache.hits == cache.misses == cache.stores == 0

    def test_disabled_cache_accepts_anonymous_factory(self, tmp_path):
        """--no-cache must not trip over unkeyable factories."""
        registry = _anonymous_registry()
        sweep = _sweep(
            "IA",
            jobs=1,
            cache=ResultCache(tmp_path, enabled=False),
            registry=registry,
        )
        assert sweep.node_counts == TINY.node_counts
        assert sweep.routers() == ("GF", "LGF")

    def test_anonymous_factory_computes_without_caching(self, tmp_path):
        """An enabled cache is silently bypassed, never collided."""
        cache = ResultCache(tmp_path)
        sweep = _sweep(
            "IA", jobs=1, cache=cache, registry=_anonymous_registry()
        )
        assert not list(tmp_path.iterdir())  # nothing stored
        assert cache.hits == cache.stores == 0
        reference = Study.from_config(
            TINY, ("IA",), routers=("GF", "LGF")
        ).run(cache=ResultCache.disabled())
        assert sweep.points == reference.sweep_result("IA").points


class TestDefaults:
    def test_env_disable(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert default_cache() is None

    def test_env_cache_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
        assert default_cache_root() == tmp_path / "alt"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert default_cache_root().name == ".repro_cache"

    def test_engine_without_cache_computes(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", "0")
        sweep = _sweep("IA", jobs=1)  # cache=None -> default (off)
        assert sweep.node_counts == TINY.node_counts

    def test_validation_errors_still_raise(self):
        with pytest.raises(KeyError):
            point_from_dict({"per_router": {"GF": {}}})
