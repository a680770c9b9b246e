"""Tests for the router base machinery and result records."""

import copy
import dataclasses
import pickle
from collections import Counter

import pytest

import _oracle
from _backend_diff import sample_pairs
from _oracle import oracle_route
from repro.geometry import Point
from repro.network import build_unit_disk_graph
from repro.routing import (
    MIN_TTL,
    GreedyRouter,
    HopEvent,
    LgfRouter,
    Phase,
    RouteResult,
    Router,
    RoutingError,
    SlgfRouter,
    Slgf2Router,
)
from repro.routing.base import _route_result


def tiny_graph():
    return build_unit_disk_graph(
        [Point(0, 0), Point(10, 0), Point(20, 0)], radius=12
    )


class TestRouteValidation:
    def test_unknown_nodes_rejected(self):
        router = GreedyRouter(tiny_graph())
        with pytest.raises(RoutingError):
            router.route(0, 99)
        with pytest.raises(RoutingError):
            router.route(99, 0)

    def test_source_equals_destination_rejected(self):
        router = GreedyRouter(tiny_graph())
        with pytest.raises(RoutingError):
            router.route(1, 1)

    def test_invalid_ttl(self):
        with pytest.raises(ValueError):
            GreedyRouter(tiny_graph(), ttl=0)
        with pytest.raises(ValueError):
            GreedyRouter(tiny_graph(), ttl=-3)

    def test_default_ttl_floor(self):
        router = GreedyRouter(tiny_graph())
        assert router.ttl >= MIN_TTL


class TestTtlRule:
    """The one consistent TTL rule (regression for the old ambiguity):
    an explicit ttl is an exact contract, honoured verbatim even below
    MIN_TTL; the MIN_TTL floor applies only to the derived default."""

    def test_explicit_ttl_below_floor_is_honoured_exactly(self):
        router = GreedyRouter(tiny_graph(), ttl=2)
        assert router.ttl == 2
        # And it is genuinely enforced: a route needing more hops than
        # the explicit budget fails with ttl_exceeded, not silence.
        positions = [Point(10.0 * i, 0.0) for i in range(6)]
        line = build_unit_disk_graph(positions, radius=12)
        result = GreedyRouter(line, ttl=2).route(0, 5)
        assert not result.delivered
        assert result.failure_reason == "ttl_exceeded"
        assert result.hops == 2

    def test_derived_default_is_floored(self):
        # 3 nodes * factor 4 = 12, well below the floor.
        assert GreedyRouter(tiny_graph()).ttl == MIN_TTL

    def test_non_integer_ttl_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            GreedyRouter(tiny_graph(), ttl=10.5)

    def test_bool_ttl_rejected(self):
        # bool is an int subclass; ttl=True would silently mean 1.
        with pytest.raises(ValueError, match="integer"):
            GreedyRouter(tiny_graph(), ttl=True)


class TestInstrumentationHooks:
    def line_graph(self, n=4):
        return build_unit_disk_graph(
            [Point(10.0 * i, 0.0) for i in range(n)], radius=12
        )

    def test_on_hop_sees_every_transmission_in_order(self):
        events = []
        router = GreedyRouter(self.line_graph())
        result = router.route(0, 3, on_hop=events.append)
        assert len(events) == result.hops
        assert [e.index for e in events] == [0, 1, 2]
        assert [(e.sender, e.receiver) for e in events] == [
            (0, 1),
            (1, 2),
            (2, 3),
        ]
        assert all(isinstance(e, HopEvent) for e in events)
        assert all(e.phase == Phase.GREEDY for e in events)
        assert sum(e.distance for e in events) == pytest.approx(
            result.length
        )

    def test_on_phase_change_fires_on_transitions_only(self):
        changes = []
        router = GreedyRouter(self.line_graph())
        router.route(
            0, 3, on_phase_change=lambda i, old, new: changes.append(
                (i, old, new)
            )
        )
        # One phase throughout: a single start-of-route transition.
        assert changes == [(0, None, Phase.GREEDY)]

    def test_observers_do_not_change_the_result(self):
        router = GreedyRouter(self.line_graph())
        plain = router.route(0, 3)
        observed = router.route(
            0, 3, on_hop=lambda e: None, on_phase_change=lambda *a: None
        )
        assert observed == plain


def observed_configs(session):
    """Every scheme configuration whose observer stream is pinned."""
    graph, model = session.graph, session.model
    return [
        GreedyRouter(graph),
        GreedyRouter(
            graph, recovery="boundhole", hole_boundaries=session.boundaries
        ),
        LgfRouter(graph),
        LgfRouter(graph, candidate_scope="quadrant"),
        SlgfRouter(model),
        SlgfRouter(model, candidate_scope="quadrant"),
        Slgf2Router(model),
        Slgf2Router(model, perimeter_mode="dfs-bounded"),
    ]


def observe(route, source, destination):
    """``route``'s result, hop events and phase changes for one pair."""
    hops, changes = [], []
    result = route(
        source,
        destination,
        on_hop=hops.append,
        on_phase_change=lambda *change: changes.append(change),
    )
    return result, hops, changes


class TestObserverStreams:
    """``route()`` replays a decided route to its observers; the events
    must be the ones the reference loops emit from inside the loop."""

    @pytest.mark.parametrize("deployment", ["IA", "FA"])
    def test_streams_equal_the_reference_loops(self, deployment, monkeypatch):
        from repro.api import Scenario, Session

        session = Session(
            Scenario(deployment_model=deployment, node_count=400, seed=2009)
        )
        # Count the hops the reference GF takes on hole boundaries
        # (walks that did not fall back to the face walk).
        walked = Counter()
        boundary_walk = _oracle.gf_boundhole_recovery
        face_walk = _oracle.face_recovery

        def face(trace, *args, **kwargs):
            walked["face entries"] += 1
            return face_walk(trace, *args, **kwargs)

        def walk(router, trace, destination):
            hops, faces = trace.hops, walked["face entries"]
            failure = boundary_walk(router, trace, destination)
            if walked["face entries"] == faces:
                walked["boundary hops"] += trace.hops - hops
            return failure

        monkeypatch.setattr(_oracle, "face_recovery", face)
        monkeypatch.setattr(_oracle, "gf_boundhole_recovery", walk)
        pairs = sample_pairs(session.graph, 60, seed=2009)
        phases = Counter()
        for router in observed_configs(session):
            for source, destination in pairs:
                got = observe(router.route, source, destination)
                want = observe(
                    lambda *args, **kwargs: oracle_route(
                        router, *args, **kwargs
                    ),
                    source,
                    destination,
                )
                assert got == want, (router.name, source, destination)
                phases.update(event.phase for event in got[1])
        # Not vacuous: the streams hold every kind of detour hop.
        assert phases[Phase.PERIMETER] > 0 and phases[Phase.BACKUP] > 0
        assert walked["boundary hops"] > 0

    def test_each_observer_alone(self, random_net):
        graph, _, model = random_net
        router = Slgf2Router(model)
        for source, destination in sample_pairs(graph, 20, seed=5):
            _, hops, changes = observe(router.route, source, destination)
            alone = []
            router.route(source, destination, on_hop=alone.append)
            assert alone == hops
            alone = []
            router.route(
                source,
                destination,
                on_phase_change=lambda *change: alone.append(change),
            )
            assert alone == changes

    def test_a_route_that_raises_emits_no_event(self, coincident_graph):
        router = LgfRouter(coincident_graph, candidate_scope="quadrant")
        events = []
        with pytest.raises(ValueError, match="coincident"):
            router.route(
                0,
                2,
                on_hop=events.append,
                on_phase_change=lambda *change: events.append(change),
            )
        assert events == []


class HopCountRouter(Router):
    """A third-party scheme with its own loop: fewest hops, by BFS."""

    name = "HOPS"

    def _run(self, trace, destination):
        graph = trace.graph
        parent = {trace.current: None}
        frontier = [trace.current]
        while frontier and destination not in parent:
            ahead = []
            for u in frontier:
                for v in graph.neighbors(u):
                    if v not in parent:
                        parent[v] = u
                        ahead.append(v)
            frontier = ahead
        if destination not in parent:
            return "unreachable"
        path = [destination]
        while parent[path[-1]] != trace.current:
            path.append(parent[path[-1]])
        for node in reversed(path):
            if trace.exhausted():
                return "ttl_exceeded"
            trace.advance(node, Phase.GREEDY)
        return None


def build_hop_count(instance, **kwargs):
    return HopCountRouter(instance.graph, **kwargs)


class TestOwnRunExtensionPoint:
    def test_route_calls_observers_from_inside_the_loop(self, random_net):
        graph, _, _ = random_net
        router = HopCountRouter(graph)
        for source, destination in sample_pairs(graph, 10, seed=3):
            result, hops, changes = observe(router.route, source, destination)
            assert result.delivered
            assert result.hops == graph.hop_distance(source, destination)
            assert [(e.sender, e.receiver) for e in hops] == list(
                zip(result.path, result.path[1:])
            )
            assert changes == [(0, None, Phase.GREEDY)]

    def test_route_batch_routes_one_pair_at_a_time(self, random_net):
        from repro.routing.batch import executor_for

        graph, _, _ = random_net
        router = HopCountRouter(graph)
        assert executor_for(router) is None
        pairs = sample_pairs(graph, 10, seed=4)
        sequential = [router.route(s, d) for s, d in pairs]
        assert router.route_batch(pairs) == sequential
        assert router.route_batch(pairs, backend="scalar") == sequential

    def test_a_router_without_a_loop_raises(self, random_net):
        graph, _, _ = random_net
        with pytest.raises(NotImplementedError, match="override _run"):
            Router(graph).route(*sample_pairs(graph, 1, seed=5)[0])

    def test_registered_scheme_in_a_tiny_study(self):
        from repro.api import RouterRegistry, Scenario, Study
        from repro.experiments import ResultCache

        registry = RouterRegistry()
        registry.register("HOPS", build_hop_count, order=0)
        study = Study(
            Scenario(
                node_count=250,
                networks=1,
                routes_per_network=5,
                seed=2009,
                routers=("HOPS",),
            ),
            nodes=(250, 300),
            registry=registry,
        )
        result = study.run(cache=ResultCache.disabled())
        cells = list(result)
        assert len(cells) == 2
        for cell in cells:
            assert cell.metric("HOPS", "delivery_rate") > 0.0


class TestRouteResult:
    def test_hops_and_phase_counts(self):
        result = RouteResult(
            router="GF",
            source=0,
            destination=2,
            delivered=True,
            path=(0, 1, 2),
            phases=(Phase.GREEDY, Phase.PERIMETER),
            length=20.0,
        )
        assert result.hops == 2
        assert result.phase_hops() == {"greedy": 1, "perimeter": 1}

    def test_phase_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RouteResult(
                router="GF",
                source=0,
                destination=2,
                delivered=True,
                path=(0, 1, 2),
                phases=(Phase.GREEDY,),
                length=20.0,
            )

    def test_delivered_must_end_at_destination(self):
        with pytest.raises(ValueError):
            RouteResult(
                router="GF",
                source=0,
                destination=2,
                delivered=True,
                path=(0, 1),
                phases=(Phase.GREEDY,),
                length=10.0,
            )

    def test_failed_route_is_fine_anywhere(self):
        result = RouteResult(
            router="GF",
            source=0,
            destination=2,
            delivered=False,
            path=(0, 1),
            phases=(Phase.GREEDY,),
            length=10.0,
            failure_reason="ttl_exceeded",
        )
        assert result.hops == 1
        assert not result.delivered


#: Field values for both constructors, positional in field order.
RESULTS = [
    ("GF", 0, 2, True, (0, 1, 2), (Phase.GREEDY, Phase.PERIMETER), 20.0),
    ("SLGF2", 5, 9, False, (5, 7), (Phase.BACKUP,), 3.5, 1, 2, 3, "loop"),
    ("LGF", 4, 1, False, (4,), (), 0.0, 0, 0, 0, "ttl_exceeded"),
]


class TestInternalConstructor:
    """``_route_result`` (what the forwarding loops build results with)
    makes the object the public constructor makes."""

    @pytest.mark.parametrize("values", RESULTS)
    def test_same_value_in_every_respect(self, values):
        public = RouteResult(*values)
        internal = _route_result(*values)
        assert type(internal) is RouteResult
        assert internal == public and hash(internal) == hash(public)
        assert repr(internal) == repr(public)
        assert dataclasses.astuple(internal) == dataclasses.astuple(public)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            restored = pickle.loads(pickle.dumps(internal, protocol))
            assert restored == public and type(restored) is RouteResult
        for clone in (copy.copy(internal), copy.deepcopy(internal)):
            assert clone == public and type(clone) is RouteResult
        assert not hasattr(internal, "__dict__")  # slotted
        with pytest.raises(dataclasses.FrozenInstanceError):
            internal.length = 1.0

    @pytest.mark.parametrize(
        "values",
        [
            # phases not labelling exactly the hops
            ("GF", 0, 2, True, (0, 1, 2), (Phase.GREEDY,), 20.0),
            ("GF", 0, 2, False, (0,), (Phase.GREEDY,), 0.0),
            # delivered, but not at the destination
            ("GF", 0, 2, True, (0, 1), (Phase.GREEDY,), 10.0),
            ("GF", 0, 2, True, (), (), 0.0),
        ],
    )
    def test_same_malformed_input_rejected(self, values):
        with pytest.raises(ValueError) as public:
            RouteResult(*values)
        with pytest.raises(ValueError) as internal:
            _route_result(*values)
        assert str(internal.value) == str(public.value)


class TestBasicDelivery:
    def test_line_delivery(self):
        router = GreedyRouter(tiny_graph())
        result = router.route(0, 2)
        assert result.delivered
        assert result.path == (0, 1, 2)
        assert result.length == pytest.approx(20.0)
        assert result.phases == (Phase.GREEDY, Phase.GREEDY)

    def test_single_hop(self):
        router = GreedyRouter(tiny_graph())
        result = router.route(0, 1)
        assert result.delivered
        assert result.path == (0, 1)

    def test_disconnected_pair_fails(self):
        g = build_unit_disk_graph([Point(0, 0), Point(100, 0)], radius=10)
        result = GreedyRouter(g).route(0, 1)
        assert not result.delivered
        assert result.failure_reason is not None


class TestRebind:
    def _graphs(self):
        import random

        rng = random.Random(3)
        small = build_unit_disk_graph(
            [Point(rng.uniform(0, 60), rng.uniform(0, 60)) for _ in range(20)],
            radius=18,
        )
        large = build_unit_disk_graph(
            [Point(rng.uniform(0, 90), rng.uniform(0, 90)) for _ in range(40)],
            radius=18,
        )
        return small, large

    def test_derived_ttl_rederives_on_rebind(self):
        small, large = self._graphs()
        router = GreedyRouter(small, recovery="face")
        router.rebind(large)
        assert router.ttl == GreedyRouter(large, recovery="face").ttl
        assert router.graph is large

    def test_explicit_ttl_survives_rebind(self):
        small, large = self._graphs()
        router = GreedyRouter(small, ttl=7, recovery="face")
        router.rebind(large)
        assert router.ttl == 7

    def test_rebind_preserves_information_model_options(self):
        # Regression: the lazy post-rebind model rebuild must keep the
        # construction options of the model the router was built with.
        from repro.core import InformationModel
        from repro.routing import Slgf2Router

        small, large = self._graphs()
        router = Slgf2Router(
            InformationModel.build(small, shape_mode="exact")
        )
        router.rebind(large)
        assert router.model.shape_mode == "exact"
        assert router.model.graph is large

    def test_routers_rebound_to_one_graph_share_one_model(self):
        """SLGF and SLGF2 rebound to the same snapshot build one model
        between them; another shape mode or graph builds its own, and
        the shared model is not kept once its routers drop it."""
        import gc
        import weakref

        from repro.core import InformationModel
        from repro.routing import Slgf2Router, SlgfRouter

        small, large = self._graphs()
        model = InformationModel.build(small)
        slgf = SlgfRouter(model)
        slgf2 = Slgf2Router(model)
        exact = Slgf2Router(InformationModel.build(small, shape_mode="exact"))
        for router in (slgf, slgf2, exact):
            router.rebind(large)
        assert slgf.model is slgf2.model
        assert slgf.model == InformationModel.build(large)
        assert exact.model is not slgf.model
        assert exact.model == InformationModel.build(large, shape_mode="exact")
        slgf2.rebind(small)
        assert slgf2.model is not model and slgf2.model == model

        shared = weakref.ref(slgf.model)
        del slgf, slgf2
        gc.collect()
        assert shared() is None

    def test_rebind_rederives_radius_thresholds(self):
        # Regression: SLGF2's radius-derived knobs must track a rebind
        # that changes the communication range.
        from repro.core import InformationModel
        from repro.routing import Slgf2Router

        small, _ = self._graphs()
        wide = build_unit_disk_graph(
            [Point(0, 0), Point(20, 0), Point(40, 0)], radius=30
        )
        router = Slgf2Router(InformationModel.build(small))
        router.rebind(wide)
        fresh = Slgf2Router(InformationModel.build(wide))
        assert router._enter_threshold == fresh._enter_threshold
        assert router._bound_margin == fresh._bound_margin

    def test_track_returns_unsubscribable_handle(self):
        from repro.network import DynamicTopology

        small, _ = self._graphs()
        topology = DynamicTopology.from_graph(small)
        router = GreedyRouter(topology.graph, recovery="face")
        handle = router.track(topology)
        topology.fail(0)
        assert 0 not in router.graph
        topology.unsubscribe(handle)
        topology.restore(0)
        assert 0 not in router.graph  # no longer tracking
