"""Golden figures: pinned digests of a tiny Study, and a fifth
registered router flowing end to end.

The digests are the figure-level regression bar of the one evaluation
path (Scenario → Session → Study): any drift in per-network seeds, pair
streams, routing order or aggregation arithmetic moves them.  A change
that is *meant* to move a figure re-pins them in the same change, with
before/after numbers in ``docs/REPRODUCING.md``.
"""

import hashlib
import json
import pickle

import pytest

from repro.api import (
    Scenario,
    Session,
    Study,
    default_registry,
    scenario_fingerprint,
)
from repro.experiments import (
    ExperimentConfig,
    ResultCache,
    figure_table,
    point_to_dict,
)
from repro.routing import GreedyRouter

TINY = ExperimentConfig(
    node_counts=(250,), networks_per_point=2, routes_per_network=5
)

GOLDEN_CONFIG = ExperimentConfig(
    node_counts=(250, 300), networks_per_point=2, routes_per_network=5
)

#: sha256 of ``json.dumps(obj, sort_keys=True)`` for the two objects
#: built in :class:`TestGoldenDigests`.
GOLDEN_POINTS = (
    "9a19cb1b055f25f00278e48535494bb8d908f09a928ead2aa81de6e20ff8887f"
)
GOLDEN_TABLES = (
    "30dbe821c9f3b5b510782b9ff902a42e809510d3aeee3f62055d392aba2b3f4a"
)


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode("utf-8")
    ).hexdigest()


class TestGoldenDigests:
    @pytest.fixture(scope="class")
    def result(self):
        return Study.from_config(GOLDEN_CONFIG, ("IA", "FA")).run(
            cache=ResultCache.disabled()
        )

    def test_points_digest(self, result):
        points = [point_to_dict(cell.point) for cell in result]
        assert _digest(points) == GOLDEN_POINTS

    def test_figure_tables_digest(self, result):
        tables = []
        for model in ("IA", "FA"):
            sweep = result.sweep_result(model)
            for figure_id in ("fig5", "fig6", "fig7"):
                table = figure_table(sweep, figure_id)
                tables.append(
                    [
                        figure_id,
                        model,
                        list(table.routers),
                        list(table.node_counts),
                        [table.values[r] for r in table.routers],
                    ]
                )
        assert _digest(tables) == GOLDEN_TABLES


def build_gf_face(instance, **kwargs):
    """A trivial fifth scheme: plain greedy with face recovery."""
    return GreedyRouter(instance.graph, recovery="face", **kwargs)


@pytest.fixture()
def fifth_router():
    default_registry.register(
        "GF-FACE", build_gf_face, order=4, description="greedy + face"
    )
    try:
        yield "GF-FACE"
    finally:
        default_registry.unregister("GF-FACE")


class TestFifthRouter:
    def test_flows_through_sweep_cache_report_and_legend(
        self, fifth_router, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")

        # Cache key: the augmented selection has a different identity.
        scenario = Scenario.from_config(TINY, "IA", 250)
        four = scenario.with_(routers=("GF", "LGF", "SLGF", "SLGF2"))
        assert scenario_fingerprint(scenario) != scenario_fingerprint(four)

        # Sweep + report + figure legend, no harness edits.
        def registry_sweep():
            study = Study.from_config(TINY, ("IA",))
            return study.run(cache=cache).sweep_result("IA")

        sweep = registry_sweep()
        table = figure_table(sweep, "fig6")
        assert table.routers == ("GF", "LGF", "SLGF", "SLGF2", fifth_router)
        assert len(table.values[fifth_router]) == len(TINY.node_counts)

        # Second run is served from the cache under the same key.
        cached = registry_sweep()
        assert cache.hits >= 1
        assert cached.points == sweep.points

    def test_default_factory_cache_key_tracks_registry(
        self, fifth_router
    ):
        # Regression: the default selection (routers=()) builds
        # whatever the registry holds, so its cache identity must
        # change when the registry does — otherwise a warm cache
        # serves four-scheme points after a fifth scheme is
        # registered.
        scenario = Scenario.from_config(TINY, "IA", 250)
        with_fifth = scenario_fingerprint(scenario)
        default_registry.unregister(fifth_router)
        try:
            without_fifth = scenario_fingerprint(scenario)
        finally:
            default_registry.register(
                fifth_router, build_gf_face, order=4
            )
        assert with_fifth != without_fifth

    def test_default_factory_pickles_as_a_spec_snapshot(
        self, fifth_router
    ):
        # Regression: a Study must ship the *factories* to workers, not
        # names to re-resolve — a worker whose registry diverged
        # (spawn + __main__ registrations) must still build exactly
        # the parent's schemes.  Its registry travels with every task.
        study = Study.from_config(TINY, ("IA",))
        payload = pickle.dumps(study.registry)
        # Simulate a diverged worker registry: the fifth scheme gone.
        default_registry.unregister(fifth_router)
        try:
            clone = pickle.loads(payload)
            assert fifth_router in clone
            assert clone.get(fifth_router).factory is build_gf_face
        finally:
            default_registry.register(
                fifth_router, build_gf_face, order=4
            )

    def test_scenario_picks_it_up_by_name(self, fifth_router):
        scenario = Scenario(
            node_count=120, seed=5, routers=("GF-FACE",), routes_per_network=3
        )
        routes = Session(scenario).run()
        assert routes.routers() == ("GF-FACE",)
        assert all(r.router == "GF" for r in routes)  # scheme's own name
