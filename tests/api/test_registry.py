"""Router registry: registration rules, lookup errors, fingerprints."""

from types import SimpleNamespace

import pytest

from repro.api import RouterRegistry, default_registry
from repro.core import InformationModel
from repro.geometry import Point
from repro.network import EdgeDetector, build_unit_disk_graph
from repro.protocols import build_hole_boundaries
from repro.routing import LgfRouter, Router


def build_lgf_zone(instance, **kwargs):
    return LgfRouter(instance.graph, candidate_scope="zone", **kwargs)


def build_lgf_other(instance, **kwargs):
    return LgfRouter(instance.graph, **kwargs)


@pytest.fixture()
def instance():
    positions = [Point(x * 8.0, 0.0) for x in range(6)]
    graph = build_unit_disk_graph(positions, radius=10.0)
    graph = EdgeDetector(strategy="convex").apply(graph)
    return SimpleNamespace(
        graph=graph,
        model=InformationModel.build(graph),
        boundaries=build_hole_boundaries(graph),
    )


class TestRegistration:
    def test_default_registry_has_the_paper_schemes_in_order(self):
        assert default_registry.names() == ("GF", "LGF", "SLGF", "SLGF2")

    def test_duplicate_name_raises(self):
        registry = RouterRegistry()
        registry.register("X", build_lgf_zone)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("X", build_lgf_other)

    def test_decorator_form(self):
        registry = RouterRegistry()

        @registry.register("Y", order=2.5, description="a scheme")
        def build_y(instance, **kwargs):
            return LgfRouter(instance.graph, **kwargs)

        assert "Y" in registry
        assert registry.get("Y").order == 2.5
        assert registry.get("Y").factory is build_y

    def test_unknown_name_lists_known_routers(self):
        registry = RouterRegistry()
        registry.register("A", build_lgf_zone)
        registry.register("B", build_lgf_other)
        with pytest.raises(KeyError) as exc:
            registry.get("NOPE")
        message = str(exc.value)
        assert "NOPE" in message
        assert "A" in message and "B" in message

    def test_unregister(self):
        registry = RouterRegistry()
        registry.register("A", build_lgf_zone)
        registry.unregister("A")
        assert "A" not in registry
        with pytest.raises(KeyError):
            registry.unregister("A")

    def test_default_order_appends_after_existing(self):
        registry = RouterRegistry()
        registry.register("A", build_lgf_zone, order=10)
        registry.register("B", build_lgf_other)  # no order given
        assert registry.names() == ("A", "B")

    def test_invalid_name_rejected(self):
        registry = RouterRegistry()
        with pytest.raises(ValueError):
            registry.register("", build_lgf_zone)


class TestBuild:
    def test_build_all_in_order(self, instance):
        routers = default_registry.build(instance)
        assert list(routers) == ["GF", "LGF", "SLGF", "SLGF2"]
        assert all(isinstance(r, Router) for r in routers.values())

    def test_build_subset_keeps_registry_order(self, instance):
        routers = default_registry.build(instance, names=("SLGF2", "GF"))
        assert list(routers) == ["GF", "SLGF2"]

    def test_per_router_options_flow_through(self, instance):
        routers = default_registry.build(
            instance,
            names=("LGF",),
            options={"LGF": {"ttl": 7}},
        )
        assert routers["LGF"].ttl == 7

    def test_option_for_unselected_router_rejected(self, instance):
        with pytest.raises(KeyError, match="unselected"):
            default_registry.build(
                instance, names=("GF",), options={"LGF": {"ttl": 7}}
            )

    def test_create_unknown_name_helpful(self, instance):
        with pytest.raises(KeyError, match="known routers"):
            default_registry.create("MYSTERY", instance)


class TestFingerprint:
    def test_stable_across_calls(self):
        first = default_registry.fingerprint()
        assert first is not None
        assert first == default_registry.fingerprint()

    def test_selection_changes_fingerprint(self):
        assert default_registry.fingerprint() != default_registry.fingerprint(
            names=("GF", "LGF")
        )

    def test_name_order_does_not_change_fingerprint(self):
        # Regression: build() normalises to registry order, so the
        # fingerprint must too — same selection, same warm cache.
        assert default_registry.fingerprint(
            names=("GF", "SLGF2")
        ) == default_registry.fingerprint(names=("SLGF2", "GF"))

    def test_non_json_options_are_uncacheable(self):
        class Knob:
            pass

        assert (
            default_registry.fingerprint(
                names=("SLGF2",), options={"SLGF2": {"k": Knob()}}
            )
            is None
        )

    def test_options_change_fingerprint(self):
        base = default_registry.fingerprint(names=("SLGF2",))
        tweaked = default_registry.fingerprint(
            names=("SLGF2",), options={"SLGF2": {"perimeter_mode": "dfs"}}
        )
        assert base != tweaked

    def test_lambda_factory_is_uncacheable(self):
        registry = RouterRegistry()
        registry.register("L", lambda instance, **kw: LgfRouter(instance.graph))
        assert registry.fingerprint() is None
