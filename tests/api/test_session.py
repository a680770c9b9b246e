"""Scenario/Session facade: materialisation, routing, schedules."""

import gc
import weakref

import pytest

from repro._optional import load_numpy
from repro.api import (
    MobilitySchedule,
    NodesFailure,
    RandomFailure,
    RegionFailure,
    Scenario,
    Session,
    connected_session,
)
from repro.geometry import Rect
from repro.network import RectObstacle

TINY = dict(node_count=120, seed=5, routes_per_network=4)


class TestScenario:
    def test_defaults_are_the_paper_setting(self):
        scenario = Scenario()
        assert scenario.deployment_model == "IA"
        assert scenario.area == Rect(0, 0, 200, 200)
        assert scenario.radius == 20.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario(deployment_model="XX")
        with pytest.raises(ValueError):
            Scenario(node_count=1)
        with pytest.raises(ValueError):
            Scenario(networks=0)
        with pytest.raises(ValueError):
            Scenario(obstacles=(RectObstacle(Rect(0, 0, 10, 10)),))

    def test_with_makes_modified_copies(self):
        scenario = Scenario(**TINY)
        denser = scenario.with_(node_count=300)
        assert denser.node_count == 300
        assert scenario.node_count == 120

    def test_scenario_is_hashable(self):
        # Frozen dataclass contract: usable as a memoisation key.
        a = Scenario(**TINY, router_options={"SLGF2": {"ttl": 9}})
        b = Scenario(**TINY, router_options={"SLGF2": {"ttl": 9}})
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        # ...while router_options stays readable as the mapping the
        # constructor was given.
        assert a.router_options["SLGF2"] == {"ttl": 9}

    def test_config_round_trip(self):
        scenario = Scenario(**TINY, networks=3)
        config = scenario.to_config()
        back = Scenario.from_config(config, "IA", scenario.node_count)
        assert back == scenario


class TestSession:
    def test_materialises_once_and_routes(self):
        session = Session(Scenario(**TINY))
        assert session.routers.keys() == {"GF", "LGF", "SLGF", "SLGF2"}
        pairs = session.sample_pairs(2)
        s, d = pairs[0]
        result = session.route(s, d, router="SLGF2")
        assert result.router == "SLGF2"
        assert result.source == s and result.destination == d

    def test_sample_pairs_is_reentrant(self):
        session = Session(Scenario(**TINY))
        assert session.sample_pairs(3) == session.sample_pairs(3)

    def test_route_requires_name_with_many_routers(self):
        session = Session(Scenario(**TINY))
        s, d = session.sample_pairs(1)[0]
        with pytest.raises(ValueError, match="name one"):
            session.route(s, d)

    def test_sole_router_needs_no_name(self):
        session = Session(Scenario(**TINY, routers=("SLGF2",)))
        s, d = session.sample_pairs(1)[0]
        assert session.route(s, d).router == "SLGF2"

    def test_unknown_router_name_lists_present(self):
        session = Session(Scenario(**TINY, routers=("GF", "SLGF2")))
        with pytest.raises(KeyError, match="present: GF, SLGF2"):
            session.router("LGF")

    def test_router_options_reach_construction(self):
        session = Session(
            Scenario(
                **TINY,
                routers=("SLGF2",),
                router_options={"SLGF2": {"ttl": 9}},
            )
        )
        assert session.router("SLGF2").ttl == 9

    def test_same_scenario_same_network(self):
        a = Session(Scenario(**TINY))
        b = Session(Scenario(**TINY))
        assert sorted(a.graph.node_ids) == sorted(b.graph.node_ids)
        assert a.graph.edge_count() == b.graph.edge_count()

    def test_network_index_varies_network(self):
        a = Session(Scenario(**TINY), network_index=0)
        b = Session(Scenario(**TINY), network_index=1)
        assert a.instance.seed != b.instance.seed

    def test_run_collects_all_routers(self):
        scenario = Scenario(**TINY)
        routes = Session(scenario).run()
        assert len(routes) == 4 * scenario.routes_per_network
        assert routes.routers() == ("GF", "LGF", "SLGF", "SLGF2")
        agg = routes.aggregate("SLGF2")
        assert agg.samples == scenario.routes_per_network
        assert 0.0 <= agg.delivery_rate <= 1.0

    def test_route_pairs_energy_tracking(self):
        session = Session(Scenario(**TINY, routers=("GF",), packet_bits=100))
        routes = session.route_pairs(2, energy=True)
        agg = routes.aggregate("GF")
        if agg.delivered:
            assert agg.energy.mean > 0

    def test_connected_session_returns_connected(self):
        # Dense enough that a connected index exists within a few tries.
        dense = Scenario(
            node_count=150, area=Rect(0, 0, 100, 100), seed=5
        )
        session = connected_session(dense)
        assert session.connected()


class TestFailureSchedules:
    def test_region_failure_removes_nodes(self):
        base = Session(Scenario(**TINY))
        jammed = Session(
            Scenario(**TINY, failures=(RegionFailure(100, 100, 40.0),))
        )
        assert len(jammed.graph) < len(base.graph)
        for u in jammed.graph.node_ids:
            p = jammed.graph.position(u)
            assert (p.x - 100) ** 2 + (p.y - 100) ** 2 > 40.0**2

    def test_nodes_failure_removes_named_nodes(self):
        base = Session(Scenario(**TINY))
        victim = sorted(base.graph.node_ids)[0]
        failed = Session(
            Scenario(**TINY, failures=(NodesFailure((victim,)),))
        )
        assert victim not in failed.graph

    def test_random_failure_removes_count(self):
        base = Session(Scenario(**TINY))
        failed = Session(Scenario(**TINY, failures=(RandomFailure(10),)))
        assert len(failed.graph) == len(base.graph) - 10

    def test_failures_are_deterministic(self):
        scenario = Scenario(**TINY, failures=(RandomFailure(7),))
        a = Session(scenario)
        b = Session(scenario)
        assert sorted(a.graph.node_ids) == sorted(b.graph.node_ids)

    def test_unknown_failure_spec_rejected(self):
        session = Session(Scenario(**TINY, failures=("jam everything",)))
        with pytest.raises(TypeError, match="unknown failure spec"):
            session.graph  # materialisation is lazy; first use raises

    def test_unknown_node_in_failure_schedule_raises(self):
        # Regression: a typo'd id must not silently fail zero nodes.
        session = Session(
            Scenario(**TINY, failures=(NodesFailure((999_999,)),))
        )
        with pytest.raises(KeyError, match="unknown nodes"):
            session.graph

    def test_fa_with_failures_keeps_random_obstacle_field(self):
        # Regression: the failure-schedule path must still draw the FA
        # model's random obstacles, not degrade to an IA deployment.
        plain = Session(Scenario(**TINY, deployment_model="FA"))
        failed = Session(
            Scenario(
                **TINY,
                deployment_model="FA",
                failures=(RandomFailure(0),),
            )
        )
        plain_positions = {
            (g.position(u).x, g.position(u).y)
            for g in (plain.graph,)
            for u in g.node_ids
        }
        failed_positions = {
            (g.position(u).x, g.position(u).y)
            for g in (failed.graph,)
            for u in g.node_ids
        }
        # Same seed, same deployment pipeline: identical positions.
        assert failed_positions == plain_positions


class TestMobility:
    def test_epochs_yield_fresh_sessions(self):
        scenario = Scenario(
            node_count=60,
            seed=3,
            routers=("SLGF2",),
            mobility=MobilitySchedule(dt=5.0, epochs=3),
        )
        snapshots = list(Session(scenario).epochs())
        assert len(snapshots) == 3
        for snapshot in snapshots:
            assert len(snapshot.graph) == 60
            assert "SLGF2" in snapshot.routers

    def test_degenerate_schedule_rejected_at_declaration(self):
        # Regression: epochs=0 must fail loudly, not yield an empty
        # "mobile" result set.
        with pytest.raises(ValueError, match="epochs"):
            MobilitySchedule(epochs=0)
        with pytest.raises(ValueError, match="dt"):
            MobilitySchedule(dt=0.0)
        with pytest.raises(ValueError, match="speed"):
            MobilitySchedule(speed_min=0.0)
        with pytest.raises(ValueError, match="pause"):
            MobilitySchedule(pause=-1.0)

    def test_epochs_without_schedule_rejected(self):
        with pytest.raises(ValueError, match="no mobility schedule"):
            list(Session(Scenario(**TINY)).epochs())

    def test_run_scenario_routes_every_epoch(self):
        from repro.api import run_scenario

        scenario = Scenario(
            node_count=60,
            seed=3,
            routers=("SLGF2",),
            routes_per_network=4,
            mobility=MobilitySchedule(dt=5.0, epochs=3),
        )
        routes = run_scenario(scenario)
        # One workload per epoch, merged in order.
        assert len(routes.results("SLGF2")) == 3 * 4
        # Deterministic: a replay merges to the identical result set.
        replay = run_scenario(scenario)
        assert list(routes) == list(replay)

    def test_static_routing_of_mobile_scenario_rejected(self):
        # Regression: a mobile scenario must not silently report
        # static-network numbers; static calls route via epochs().
        scenario = Scenario(
            **TINY, routers=("SLGF2",), mobility=MobilitySchedule(epochs=2)
        )
        with pytest.raises(ValueError, match="epochs"):
            Session(scenario).run()

    def test_mobility_with_obstacles_or_failures_rejected(self):
        with pytest.raises(ValueError, match="mobility"):
            Scenario(
                **TINY,
                mobility=MobilitySchedule(),
                failures=(RandomFailure(1),),
            )


class TestFromGraph:
    def test_wraps_existing_graph(self):
        donor = Session(Scenario(**TINY))
        session = Session.from_graph(
            donor.graph, Scenario(**TINY, routers=("LGF",))
        )
        assert session.routers.keys() == {"LGF"}
        assert len(session.graph) == len(donor.graph)


class TestClone:
    def test_shares_the_materialised_network(self):
        session = Session(Scenario(**TINY))
        clone = session.clone()
        assert clone is not session
        assert clone.instance is session.instance
        assert clone.graph is session.graph

    def test_routing_side_changes_apply(self):
        session = Session(Scenario(**TINY, routers=("GF", "SLGF2")))
        clone = session.clone(routers=("SLGF2",), routes_per_network=9)
        assert clone.instance is session.instance
        assert clone.routers.keys() == {"SLGF2"}
        assert clone.scenario.routes_per_network == 9
        # The original is untouched.
        assert session.routers.keys() == {"GF", "SLGF2"}

    def test_clone_equals_a_fresh_session_bit_for_bit(self):
        # The whole point: the shared network is a pure function of
        # the network-side fields, so cloning must be invisible in
        # the answers.
        base = Scenario(**TINY, routers=("GF", "SLGF2"))
        clone = Session(base).clone(routers=("SLGF2",))
        direct = Session(base.with_(routers=("SLGF2",)))
        assert clone.route_pairs() == direct.route_pairs()

    def test_network_side_changes_are_rejected(self):
        session = Session(Scenario(**TINY))
        with pytest.raises(ValueError, match="node_count"):
            session.clone(node_count=300)
        with pytest.raises(ValueError, match="seed"):
            session.clone(seed=99, routers=("GF",))

    def test_router_options_change(self):
        session = Session(Scenario(**TINY, routers=("SLGF2",)))
        clone = session.clone(router_options={"SLGF2": {"ttl": 3}})
        assert clone.instance is session.instance
        direct = Session(
            Scenario(
                **TINY,
                routers=("SLGF2",),
                router_options={"SLGF2": {"ttl": 3}},
            )
        )
        assert clone.route_pairs() == direct.route_pairs()


class TestNetworkRelease:
    """A dropped Session frees its network at once, without the cyclic
    collector: routers cache their executors (and numpy kernels), which
    hold their routers weakly, so no reference cycle keeps the graph,
    its core and its information bases alive."""

    @pytest.fixture
    def no_collector(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    def test_graph_freed_after_route_pairs(self, no_collector):
        session = Session(Scenario(deployment_model="FA", node_count=400))
        session.route_pairs(20)
        graph = weakref.ref(session.graph)
        del session
        assert graph() is None

    @pytest.mark.skipif(load_numpy() is None, reason="numpy required")
    def test_graph_freed_after_a_kernel_batch(self, no_collector):
        session = Session(Scenario(deployment_model="FA", node_count=400))
        pairs = (session.sample_pairs(20) * 26)[:512]
        for name in ("GF", "LGF", "SLGF"):
            router = session.router(name)
            router.route_batch(pairs)
            assert router._numpy_kernel  # the batch built the kernel
        del router
        graph = weakref.ref(session.graph)
        del session
        assert graph() is None
