"""Property-based fuzzing of the full router stack.

Hypothesis generates arbitrary small deployments (including degenerate
shapes: collinear nodes, clusters, near-duplicates); every router must
terminate, produce structurally valid paths, agree with connectivity
(no delivery across components), and the LGF-family must deliver on
every connected pair (their backtracking perimeter guarantees it).

The router pool comes from the :mod:`repro.api` registry — every
registered scheme in its registered default configuration — plus
parameterised variants built through the same registry, so a newly
registered scheme is fuzzed automatically.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import default_registry
from repro.core import InformationModel
from repro.network import (
    DynamicTopology,
    EdgeDetector,
    build_unit_disk_graph,
)
from repro.geometry import Point
from repro.protocols import build_hole_boundaries
from repro.routing import path_is_valid

coords = st.floats(min_value=0, max_value=100, allow_nan=False)
deployments = st.lists(
    st.builds(Point, coords, coords),
    min_size=2,
    max_size=25,
    unique_by=lambda p: (round(p.x, 1), round(p.y, 1)),
)

# Constructor variants beyond each scheme's registered default — the
# knob coverage the old hand-written router list exercised.
VARIANTS = (
    ("GF", {"recovery": "face"}),
    ("GF", {"recovery": "face", "planarization": "rng"}),
    ("LGF", {"candidate_scope": "zone"}),
    ("SLGF", {"candidate_scope": "zone"}),
    ("SLGF2", {"perimeter_mode": "dfs"}),
    ("SLGF2", {"perimeter_mode": "dfs-bounded"}),
    ("SLGF2", {"perimeter_hand": "either"}),
    ("SLGF2", {"adaptive_greedy": True}),
)


def _instance_for(g) -> SimpleNamespace:
    return SimpleNamespace(
        graph=g,
        model=InformationModel.build(g),
        boundaries=build_hole_boundaries(g),
    )


def _instance(positions) -> SimpleNamespace:
    g = build_unit_disk_graph(positions, radius=30.0)
    g = EdgeDetector(strategy="convex").apply(g)
    return _instance_for(g)


def _build(positions):
    instance = _instance(positions)
    routers = list(default_registry.build(instance).values())
    routers.extend(
        default_registry.create(name, instance, **options)
        for name, options in VARIANTS
    )
    return instance.graph, routers


class TestFuzz:
    @given(deployments, st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_all_routers_structurally_sound(self, positions, pair_seed):
        import random

        g, routers = _build(positions)
        rng = random.Random(pair_seed)
        s, d = rng.sample(g.node_ids, 2)
        connected = g.same_component(s, d)
        for router in routers:
            result = router.route(s, d)
            assert path_is_valid(result, g), (router.name, s, d)
            assert result.hops <= router.ttl
            if not connected:
                assert not result.delivered, (router.name, s, d)

    @given(deployments, st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_lgf_family_delivers_on_connected_pairs(
        self, positions, pair_seed
    ):
        import random

        instance = _instance(positions)
        g = instance.graph
        rng = random.Random(pair_seed)
        s, d = rng.sample(g.node_ids, 2)
        if not g.same_component(s, d):
            return
        for name, options in (
            ("LGF", {"candidate_scope": "zone"}),
            ("SLGF", {"candidate_scope": "zone"}),
            ("SLGF2", {"perimeter_mode": "dfs"}),
        ):
            router = default_registry.create(name, instance, **options)
            result = router.route(s, d)
            assert result.delivered, (router.name, s, d, result.failure_reason)


class TestMetamorphicDynamic:
    """Metamorphic relation of the dynamic-topology engine: for every
    registered scheme (default configuration and knob variants), route
    outcomes over an incrementally maintained topology must equal the
    outcomes over the equivalent from-scratch rebuild.

    Routers are bound to the initial topology and *tracked* — every
    move/fail/restore delta rebinds them — so this exercises both the
    snapshot identity (adjacency, flags) and the routers' cache
    invalidation (planarizations, safety models, hole boundaries,
    derived TTLs).  Any cached state surviving a delta diverges here.
    """

    @given(deployments, st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_route_outcomes_invariant_under_incremental_maintenance(
        self, positions, event_seed
    ):
        import random

        rng = random.Random(event_seed)
        count = len(positions)
        topology = DynamicTopology(
            positions, 30.0, edge_detector=EdgeDetector(strategy="convex")
        )
        tracked = list(
            default_registry.build(_instance_for(topology.graph)).values()
        )
        tracked.extend(
            default_registry.create(
                name, _instance_for(topology.graph), **options
            )
            for name, options in VARIANTS
        )
        for router in tracked:
            router.track(topology)

        for _ in range(6):
            draw = rng.random()
            if draw < 0.55:
                topology.move(
                    rng.randrange(count),
                    Point(rng.uniform(0, 100), rng.uniform(0, 100)),
                )
            elif draw < 0.8 and len(topology) > 2:
                topology.fail(rng.choice(topology.alive_ids))
            elif topology.down_ids:
                topology.restore(rng.choice(topology.down_ids))

        # The reference: full rebuild over the same surviving state.
        full = build_unit_disk_graph(
            [topology.position(i) for i in range(count)], radius=30.0
        )
        reference = EdgeDetector(strategy="convex").apply(
            full.without_nodes(topology.down_ids)
        )
        fresh_instance = _instance_for(reference)
        fresh = list(default_registry.build(fresh_instance).values())
        fresh.extend(
            default_registry.create(name, fresh_instance, **options)
            for name, options in VARIANTS
        )

        s, d = rng.sample(topology.alive_ids, 2)
        for maintained, rebuilt in zip(tracked, fresh):
            assert maintained.name == rebuilt.name
            assert maintained.ttl == rebuilt.ttl, maintained.name
            assert maintained.route(s, d) == rebuilt.route(s, d), (
                maintained.name,
                s,
                d,
            )
