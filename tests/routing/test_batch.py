"""route_batch ≡ the reference loops, bit for bit, for every scheme.

The executors (:mod:`repro.routing.batch`) are each scheme's one
forwarding loop, behind ``route()`` and ``route_batch()`` alike.  Their
results must be *indistinguishable* from the object-path loops kept
in ``_oracle.py`` — same paths, same phase labels, same float lengths,
same counters, same failure reasons, same raised errors.  These tests
pin that across both deployment models, a pocketed grid
(perimeter-heavy), every built-in scheme's option surface, sparse
networks (frequent recovery), a hand-built graph with a node
coincident with its destination, and the dynamic rebind lifecycle.
Grid fixtures matter here: their exact coordinate ties exercise the
tie-breaking paths of the angle sweep and the greedy minimum.  Each
rung of GF's recovery and of SLGF2's Algorithm 3 is shown reached;
pairs across components pin the failure reasons.
"""

import math
import random
import sys
from collections import Counter

import pytest

import _oracle
from _backend_diff import BACKENDS, assert_backends_identical
from _oracle import oracle_route
from repro._optional import load_numpy
from repro.core import InformationModel
from repro.geometry import Point, Rect
from repro.network import (
    DynamicTopology,
    EdgeDetector,
    Node,
    UniformDeployment,
    WasnGraph,
    build_unit_disk_graph,
)
from repro.network.core import TopologyCore
from repro.protocols import build_hole_boundaries
from repro.routing import (
    GreedyRouter,
    LgfRouter,
    RoutingError,
    SlgfRouter,
    Slgf2Router,
)
from repro.routing.batch import _norm

#: The rotation builds: numpy's only where it imports.
BUILDS = ("scalar", "numpy") if load_numpy() is not None else ("scalar",)


def make_grid_graph(n=8, spacing=10.0, radius=15.0):
    """n x n grid (ids row-major) — exact coordinate ties everywhere."""
    positions = [
        Point(i * spacing, j * spacing)
        for j in range(n)
        for i in range(n)
    ]
    g = build_unit_disk_graph(positions, radius)
    return EdgeDetector(strategy="convex").apply(g), positions


def make_random_graph(n=400, seed=0, area=200.0, radius=20.0):
    rng = random.Random(seed)
    positions = UniformDeployment(Rect(0, 0, area, area)).sample(n, rng)
    g = build_unit_disk_graph(positions, radius)
    return EdgeDetector(strategy="convex").apply(g), positions


def sample_pairs(graph, count, seed):
    pool = sorted(graph.connected_components()[0])
    rng = random.Random(seed)
    return [tuple(rng.sample(pool, 2)) for _ in range(count)]


def slgf2_routers(model):
    """SLGF2 across its option surface (one router per config)."""
    return [
        Slgf2Router(model),
        Slgf2Router(model, candidate_scope="zone"),
        Slgf2Router(model, perimeter_mode="dfs"),
        Slgf2Router(model, perimeter_mode="dfs-bounded"),
        Slgf2Router(model, use_superseding=False, use_backup=False),
        Slgf2Router(model, perimeter_hand="either", adaptive_greedy=True),
        Slgf2Router(model, ttl=24),  # tight budget: mid-phase cutoffs
    ]


def gf_routers(graph, before=None):
    """GF across its option surface (one router per config).

    ``before``, the graph ``graph`` was cut from, adds boundhole
    recovery fed ``before``'s boundaries: their walks meet edges that
    ``graph`` no longer has.
    """
    boundaries = build_hole_boundaries(graph)
    routers = [
        GreedyRouter(graph),
        GreedyRouter(graph, planarization="rng"),
        GreedyRouter(graph, recovery="boundhole", hole_boundaries=boundaries),
        # Tight budget: boundary walks cut mid-cycle.
        GreedyRouter(
            graph, ttl=24, recovery="boundhole", hole_boundaries=boundaries
        ),
    ]
    if before is not None:
        routers.append(
            GreedyRouter(
                graph,
                recovery="boundhole",
                hole_boundaries=build_hole_boundaries(before),
            )
        )
    return routers


def all_routers(graph, model, before=None):
    """Every scheme across its option surface (one router per config)."""
    return [
        *gf_routers(graph, before),
        LgfRouter(graph),
        LgfRouter(graph, candidate_scope="quadrant"),
        SlgfRouter(model),
        SlgfRouter(model, candidate_scope="quadrant"),
        *slgf2_routers(model),
    ]


def on_unit_disk_substrate(router, graph):
    """Make ``router``'s face walks run on the unit-disk adjacency.

    Gabriel edges do not cross, so a face walk on the planarized graph
    almost always reaches a node closer than its stuck node before any
    edge crosses the stuck-to-destination segment (no crossing in ~5000
    face-walk steps of 500 routes on an FA n = 800 network).  The
    unplanarized adjacency
    crosses itself everywhere, so the face-change test and the GPSR
    drop rule after a face change both fire.
    """
    router._planar._adjacency = {u: graph.neighbors(u) for u in graph.node_ids}
    return router


def assert_batch_equivalent(router, pairs, backend="auto"):
    expected = [oracle_route(router, s, d) for s, d in pairs]
    batched = router.route_batch(pairs, backend=backend)
    assert batched == expected  # frozen dataclasses: exact floats
    return expected


class FixedBoundary:
    """One hand-written hole boundary (the ``HoleBoundaries`` protocol)."""

    def __init__(self, cycle):
        self.cycle = cycle

    def boundary_of(self, node):
        return self.cycle if node in self.cycle else None


def spy_on_gf_recovery(monkeypatch):
    """Tally the recovery rungs the reference ``gf_run`` reaches.

    The oracle is watched, not the executor: with batches equal to
    the oracle, every rung the reference reaches is one the executor
    replicated.
    """
    tally = Counter()
    face_walk = _oracle.face_recovery
    boundary_walk = _oracle.gf_boundhole_recovery

    def face(trace, *args, **kwargs):
        tally["face walk"] += 1
        return face_walk(trace, *args, **kwargs)

    def walk(router, trace, destination):
        stuck = trace.current
        faces = tally["face walk"]
        failure = boundary_walk(router, trace, destination)
        if tally["face walk"] > faces:
            cycle = router._hole_boundaries().boundary_of(stuck)
            short = cycle is None or len(cycle) < 2
            tally["no boundary" if short else "stale edge"] += 1
        elif failure is None:
            tally["arrived" if trace.current == destination else "exit"] += 1
        else:
            tally[failure] += 1  # the whole cycle, or a TTL cut
        return failure

    monkeypatch.setattr(_oracle, "face_recovery", face)
    monkeypatch.setattr(_oracle, "gf_boundhole_recovery", walk)
    return tally


class TestBatchEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_network(self, random_net, seed):
        graph, _, model = random_net
        pairs = sample_pairs(graph, 40, seed)
        for router in all_routers(graph, model):
            assert_batch_equivalent(router, pairs)

    def test_obstacle_network(self, obstacle_net):
        graph, _, model = obstacle_net
        pairs = sample_pairs(graph, 40, seed=3)
        for router in all_routers(graph, model):
            assert_batch_equivalent(router, pairs)

    def test_pocket_grid_exact_ties(self, pocket_grid):
        """Grid coordinates produce exact distance/angle ties — the
        tie-breaking paths of the sweep and the greedy minimum."""
        graph, _, model = pocket_grid
        pairs = sample_pairs(graph, 60, seed=4)
        for router in all_routers(graph, model):
            assert_batch_equivalent(router, pairs)

    def test_sparse_network_recovery_heavy(self):
        """Low density: perimeter/backtracking on most routes."""
        graph, _ = make_random_graph(n=70, seed=9)
        model = InformationModel.build(graph)
        pairs = sample_pairs(graph, 50, seed=5)
        for router in all_routers(graph, model):
            assert_batch_equivalent(router, pairs)

    def test_batch_over_failure_restricted_graph(self, random_net):
        """Sparse ids (failures leave holes) take the padded views; GF
        also walks the boundaries of the graph before the failures, and
        every pair is routed, including where a cycle's first node is
        gone."""
        graph, _, _ = random_net
        survivor = graph.without_nodes(range(0, 400, 5))
        model = InformationModel.build(survivor)
        pairs = sample_pairs(survivor, 30, seed=6)
        for router in all_routers(survivor, model, before=graph):
            assert_batch_equivalent(router, pairs)


class TestGfOnIndices:
    def test_no_packet_hands_over(
        self, monkeypatch, random_net, obstacle_net, pocket_grid
    ):
        """Every GF config over the equivalence networks: both recovery
        modes run on indices, every rung of them is reached, and each
        route matches the reference loop bit for bit."""
        tally = spy_on_gf_recovery(monkeypatch)
        graph = random_net[0]
        cases = [(graph, None, sample_pairs(graph, 40, s)) for s in (0, 1, 2)]
        graph = obstacle_net[0]
        cases.append((graph, None, sample_pairs(graph, 40, seed=3)))
        graph = pocket_grid[0]
        cases.append((graph, None, sample_pairs(graph, 60, seed=4)))
        graph, _ = make_random_graph(n=70, seed=9)
        cases.append((graph, None, sample_pairs(graph, 50, 5)))
        # More pairs here: few packets stick on a stale boundary.
        graph = random_net[0].without_nodes(range(0, 400, 5))
        cases.append((graph, random_net[0], sample_pairs(graph, 150, 6)))
        reached = [Counter() for _ in range(5)]
        for graph, before, pairs in cases:
            for counts, router in zip(reached, gf_routers(graph, before)):
                tally.clear()
                sequential = assert_batch_equivalent(router, pairs, "scalar")
                counts.update(tally)
                counts["re-entered"] += sum(
                    result.perimeter_entries > 1 for result in sequential
                )
        # Not vacuous: each rung of the recovery is reached.
        face, rng, boundhole, tight, stale = reached
        assert face["face walk"] > 0 and rng["face walk"] > 0
        assert face["re-entered"] > 0 and boundhole["re-entered"] > 0
        assert boundhole["exit"] > 0
        assert boundhole["unreachable"] > 0  # a whole cycle, no closer
        assert tight["ttl_exceeded"] > 0  # cut mid-walk
        assert stale["stale edge"] > 0 and stale["no boundary"] > 0

    def test_lost_boundary_edge_between_live_nodes(
        self, monkeypatch, random_net
    ):
        """Boundaries traced before some of their edges were lost, both
        ends alive: each walk falls to the face walk at the step that
        crosses a lost edge, forward or backward, as the reference
        does."""
        tally = spy_on_gf_recovery(monkeypatch)
        graph = random_net[0]
        boundaries = build_hole_boundaries(graph)
        # One edge per cycle, halfway round.
        lost = {
            frozenset(cycle[len(cycle) // 2 - 1 : len(cycle) // 2 + 1])
            for cycle in boundaries.boundaries
        }
        rows = {
            u: tuple(
                v for v in graph.neighbors(u) if frozenset((u, v)) not in lost
            )
            for u in graph.node_ids
        }
        cut = WasnGraph(list(graph.nodes()), rows, graph.radius)
        router = GreedyRouter(
            cut, recovery="boundhole", hole_boundaries=boundaries
        )
        assert_batch_equivalent(router, sample_pairs(cut, 300, 8), "scalar")
        assert tally["stale edge"] > 0 and tally["exit"] > 0

    def test_boundary_hop_to_d_one_past_ttl(self):
        """The walk checks the TTL before the hop to an adjacent
        destination: a hop one past ``ttl`` is not taken."""
        positions = [
            Point(0.0, 0.0),  # the destination
            Point(10.0, 0.0),  # the source, stuck: 2 is farther
            Point(13.0, 4.0),
            Point(9.0, 7.0),
            Point(4.0, 4.0),  # the destination's only neighbour
        ]
        graph = build_unit_disk_graph(positions, 6.0)
        router = GreedyRouter(
            graph,
            ttl=3,
            recovery="boundhole",
            hole_boundaries=FixedBoundary((1, 2, 3, 4, 3, 2)),
        )
        expected = oracle_route(router, 1, 0)
        assert expected.path == (1, 2, 3, 4) and not expected.delivered
        assert expected.failure_reason == "ttl_exceeded"
        assert router.route_batch([(1, 0)]) == [expected]

    def test_boundary_exit_needs_a_clear_gain(self):
        """A walk node less than ``_EPS`` closer than the stuck node is
        no exit (``< exit_dist - 1e-9``): the walk goes on past it."""
        k = 1.0 - 5e-11  # |3| = 10 - 5e-10, inside the band
        positions = [
            Point(0.0, 0.0),  # the destination
            Point(10.0, 0.0),  # the source, stuck: 2 is farther
            Point(13.0, 4.0),
            Point(8.0 * k, 6.0 * k),
            Point(4.0, 6.0),  # the first clear gain
            Point(2.0, 3.0),
        ]
        graph = build_unit_disk_graph(positions, 6.0)
        router = GreedyRouter(
            graph,
            recovery="boundhole",
            hole_boundaries=FixedBoundary((1, 2, 3, 4, 3, 2)),
        )
        expected = oracle_route(router, 1, 0)
        assert expected.path == (1, 2, 3, 4, 5, 0)
        assert expected.phases[:3] == ("perimeter",) * 3
        assert router.route_batch([(1, 0)]) == [expected]

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [2009, 2010, 2011])
    @pytest.mark.parametrize("deployment", ["IA", "FA"])
    def test_paper_scale_sweep(self, deployment, seed):
        """Paper-scale networks, where FA's obstacle rims make boundary
        walks long and common."""
        from repro.api import Scenario, Session

        session = Session(
            Scenario(deployment_model=deployment, node_count=800, seed=seed)
        )
        pairs = sample_pairs(session.graph, 500, seed)
        for router in gf_routers(session.graph):
            assert router.route_batch(pairs, backend="scalar") == [
                oracle_route(router, s, d) for s, d in pairs
            ]


class TestSlgf2OnIndices:
    def test_no_packet_hands_over(self, random_net, obstacle_net, pocket_grid):
        """Every SLGF2 config over the equivalence networks and pairs
        above: each rung runs on indices, is reached, and matches the
        reference loop bit for bit."""
        graph, _, model = random_net
        cases = [(graph, model, sample_pairs(graph, 40, s)) for s in (0, 1, 2)]
        graph, _, model = obstacle_net
        cases.append((graph, model, sample_pairs(graph, 40, seed=3)))
        graph, _, model = pocket_grid
        cases.append((graph, model, sample_pairs(graph, 60, seed=4)))
        graph, _ = make_random_graph(n=70, seed=9)
        cases.append(
            (graph, InformationModel.build(graph), sample_pairs(graph, 50, 5))
        )
        graph = random_net[0].without_nodes(range(0, 400, 5))
        cases.append(
            (graph, InformationModel.build(graph), sample_pairs(graph, 30, 6))
        )
        reached = [Counter() for _ in slgf2_routers(cases[0][1])]
        for graph, model, pairs in cases:
            for tally, router in zip(reached, slgf2_routers(model)):
                sequential = [oracle_route(router, s, d) for s, d in pairs]
                batched = router.route_batch(pairs, backend="scalar")
                assert batched == sequential
                for result in sequential:
                    tally["backup"] += result.backup_entries > 0
                    tally["perimeter"] += result.perimeter_entries > 0
                    tally["escapes"] += result.bound_escapes
                    tally["ttl"] += result.failure_reason == "ttl_exceeded"
        # Not vacuous: each config reaches the rung it exists for.
        default, zone, dfs, bounded, plain, either, tight = reached
        for tally in reached:
            assert tally["perimeter"] > 0
        for tally in (default, zone, dfs, bounded, either, tight):
            assert tally["backup"] > 0
        assert plain["backup"] == 0
        assert bounded["escapes"] > 0
        assert dfs["escapes"] == 0
        assert tight["ttl"] > 0

    def test_inexact_lattice_all_pairs(self):
        """A pocketed grid at spacing 0.1: collinear lattice points carry
        ~1e-17 rounding residues, inside the 1e-12 band of the divider
        sides, so a superseding split must be dropped exactly where
        ``regions._side`` reads 0."""
        removed = {(6, j) for j in range(2, 7)} | {(i, 6) for i in range(2, 7)}
        positions = [
            Point(i * 0.1, j * 0.1)
            for j in range(8)
            for i in range(8)
            if (i, j) not in removed
        ]
        graph = EdgeDetector(strategy="convex").apply(
            build_unit_disk_graph(positions, 0.15)
        )
        model = InformationModel.build(graph)
        nodes = graph.node_ids
        pairs = [(s, d) for s in nodes for d in nodes if s != d]
        # The superseding rule, under the quadrant and the zone scope.
        for router in slgf2_routers(model)[:2]:
            assert_batch_equivalent(router, pairs)

    def test_face_walk_on_a_crossing_substrate(self):
        """Face changes, and the drop rule on the face entered by one."""
        graph, _ = make_random_graph(n=20, seed=18, area=100.0)
        model = InformationModel.build(graph)
        nodes = graph.node_ids
        pairs = [(s, d) for s in nodes for d in nodes if s != d]
        for router in slgf2_routers(model):
            if router._planar is not None:
                on_unit_disk_substrate(router, graph)
                assert_batch_equivalent(router, pairs)

    def test_face_change_tie_at_the_band_edge(self):
        """An edge crossing the stuck-to-destination segment exactly
        ``_EPS`` closer than the stuck node is no face change
        (``cross_dist >= best_cross - _EPS``)."""
        positions = [
            Point(0.0, 0.0),  # the stuck node
            Point(1e-9, 1.0),
            Point(1e-9, -1.0),
            Point(10.0, 0.0),  # the destination, 10 - 1e-9 from the crossing
        ]
        graph = build_unit_disk_graph(positions, 2.5)
        model = InformationModel.build(graph)
        router = on_unit_disk_substrate(
            Slgf2Router(model, use_superseding=False, use_backup=False), graph
        )
        expected = oracle_route(router, 0, 3)
        assert expected.path == (0, 1, 2, 0)
        assert expected.failure_reason == "unreachable"
        assert router.route_batch([(0, 3)]) == [expected]

    def test_backup_budgets_on_a_paper_fa_network(self):
        """An FA network at paper density, where backup episodes run out
        of their budget: each episode must get the cap of the node it
        started at."""
        from repro.api import Scenario, Session

        session = Session(
            Scenario(deployment_model="FA", node_count=400, seed=2)
        )
        pairs = sample_pairs(session.graph, 200, seed=2)
        for router in slgf2_routers(session.model)[:2]:
            assert_batch_equivalent(router, pairs)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [2009, 2010, 2011])
    @pytest.mark.parametrize("deployment", ["IA", "FA"])
    def test_paper_scale_sweep(self, deployment, seed):
        """Paper-scale networks, where obstacle rims make the backup
        and perimeter rungs common."""
        from repro.api import Scenario, Session

        session = Session(
            Scenario(deployment_model=deployment, node_count=800, seed=seed)
        )
        pairs = sample_pairs(session.graph, 500, seed)
        for router in slgf2_routers(session.model):
            assert router.route_batch(pairs, backend="scalar") == [
                oracle_route(router, s, d) for s, d in pairs
            ]


class TestDisconnectedPairs:
    def test_cross_component_pairs_every_scheme(self):
        """Pairs in different components, isolated sources included:
        the drop rules' failure reasons ("unreachable" from the GPSR
        drop rule, DFS stack exhaustion and the tried set,
        "isolated_in_planar_graph") must match the reference loop on
        every backend."""
        graph, _ = make_random_graph(n=70, seed=9)
        model = InformationModel.build(graph)
        components = [sorted(c) for c in graph.connected_components()]
        owner = {u: i for i, c in enumerate(components) for u in c}
        isolated = [c[0] for c in components if len(c) == 1]
        assert len(components) > 2 and isolated
        rng = random.Random(10)
        nodes = sorted(owner)
        pairs = [(s, rng.choice(components[0])) for s in isolated[:10]]
        while len(pairs) < 40:
            s, d = rng.sample(nodes, 2)
            if owner[s] != owner[d]:
                pairs.append((s, d))
        reasons = Counter()
        for router in all_routers(graph, model):
            assert_backends_identical(router, pairs)
            reasons.update(router.route(s, d).failure_reason for s, d in pairs)
        assert reasons["unreachable"] > 0
        assert reasons["isolated_in_planar_graph"] > 0


class TestBatchContract:
    def test_empty_batch(self, random_net):
        graph, _, _ = random_net
        assert GreedyRouter(graph).route_batch([]) == []

    def test_validation_matches_route(self, random_net):
        graph, _, _ = random_net
        router = GreedyRouter(graph)
        u = graph.node_ids[0]
        with pytest.raises(RoutingError):
            router.route_batch([(u, u)])
        with pytest.raises(RoutingError):
            router.route_batch([(u, max(graph.node_ids) + 1)])

    def test_subclasses_fall_back_to_sequential(self, random_net):
        """A subclass that replaces the forwarding loop must not inherit
        an executor that no longer matches its behaviour; one that does
        not runs its base's."""
        from repro.routing.batch import executor_for

        graph, _, model = random_net

        class Reversed(GreedyRouter):
            def _run(self, trace, destination):
                return "refused"  # never forwards

        router = Reversed(graph)
        assert executor_for(router) is None
        pairs = sample_pairs(graph, 5, seed=7)
        results = router.route_batch(pairs)
        assert results == [router.route(s, d) for s, d in pairs]
        assert all(r.path == (s,) for r, (s, _) in zip(results, pairs))
        assert {r.failure_reason for r in results} == {"refused"}

        class Renamed(SlgfRouter):
            name = "SLGF-R"

        router = Renamed(model)
        assert type(executor_for(router)) is type(
            executor_for(SlgfRouter(model))
        )
        assert_batch_equivalent(router, pairs)

    def test_executor_cached_then_invalidated_by_rebind(self):
        """rebind == fresh router holds for batches too: the cached
        executor must not outlive the topology it was built from."""
        graph, positions = make_grid_graph()
        router = Slgf2Router(InformationModel.build(graph))
        pairs = sample_pairs(graph, 10, seed=8)
        router.route_batch(pairs)
        first = router._executor
        assert first is not None
        assert router._executor is first  # reused across batches

        topology = DynamicTopology.from_graph(
            graph, edge_detector=EdgeDetector(strategy="convex")
        )
        topology.fail(27)
        router.rebind(topology.graph)
        assert router._executor is None
        fresh = Slgf2Router(InformationModel.build(topology.graph))
        rebound_pairs = [
            (s, d) for s, d in pairs if s != 27 and d != 27
        ]
        assert router.route_batch(rebound_pairs) == fresh.route_batch(
            rebound_pairs
        )

    def test_tried_set_sweep_takes_the_nearer_of_collinear_neighbours(self):
        """Two untried neighbours on one ray from the stuck node 0: the
        right-hand sweep takes the nearer one (offset, then distance)."""
        nodes = [
            Node(0, Point(0, 0)),
            Node(1, Point(0, 10)),
            Node(2, Point(0, 20)),  # on the ray 0 -> 1, farther
            Node(3, Point(20, 20)),
            Node(4, Point(40, 10)),
            Node(5, Point(40, 0)),
        ]
        adjacency = {
            0: (1, 2),
            1: (0, 2, 3),
            2: (0, 1, 3),
            3: (1, 2, 4),
            4: (3, 5),
            5: (4,),
        }
        graph = WasnGraph(nodes, adjacency, radius=25.0)
        model = InformationModel.build(graph)
        for router in (
            LgfRouter(graph),
            LgfRouter(graph, candidate_scope="quadrant"),
            SlgfRouter(model),
            SlgfRouter(model, candidate_scope="quadrant"),
        ):
            expected = oracle_route(router, 0, 5)
            assert expected.path == (0, 1, 3, 4, 5)
            assert expected.perimeter_entries == 1
            assert router.route_batch([(0, 5)]) == [expected]

    def test_unsorted_rows_route_like_sorted_twin(self, pocket_grid):
        """A hand-built graph's unsorted rows are sorted on construction,
        so it has a core and routes exactly like its sorted twin."""
        graph, _, _ = pocket_grid
        nodes = list(graph.nodes())
        shuffled = WasnGraph(
            nodes,
            {u: tuple(reversed(graph.neighbors(u))) for u in graph.node_ids},
            graph.radius,
        )
        for u in graph.node_ids:
            assert shuffled.neighbors(u) == graph.neighbors(u)
        pairs = sample_pairs(graph, 30, seed=11)
        twin = InformationModel.build(graph)
        model = InformationModel.build(shuffled)
        for router, sorted_router in zip(
            all_routers(shuffled, model), all_routers(graph, twin)
        ):
            routed = router.route_batch(pairs)
            assert routed == sorted_router.route_batch(pairs)
            assert routed == [oracle_route(router, s, d) for s, d in pairs]


def outcome(route):
    """A route's result, or the error it raised, as one comparable value."""
    try:
        return route()
    except ValueError as error:
        return (type(error), str(error))


class TestCoincidentDestination:
    """The zone machinery at a node coincident with its destination:
    the request zone degenerates to the destination's point, while the
    quadrant scope's zone type is undefined and raises."""

    def routers(self, graph):
        model = InformationModel.build(graph)
        return [
            GreedyRouter(graph),
            GreedyRouter(
                graph,
                recovery="boundhole",
                hole_boundaries=build_hole_boundaries(graph),
            ),
            LgfRouter(graph),
            LgfRouter(graph, candidate_scope="quadrant"),
            SlgfRouter(model),
            SlgfRouter(model, candidate_scope="quadrant"),
            Slgf2Router(model),
            Slgf2Router(model, candidate_scope="zone"),
        ]

    def test_outcomes(self, coincident_graph):
        raised = (ValueError, "zone type undefined for coincident points")
        around = (0, 1, 3, 2)
        want = [
            (around, ("greedy", "perimeter", "perimeter")),  # GF, face
            # GF walks 1's hole boundary, 1 -> 4 -> 1 -> 3.
            ((0, 1, 4, 1, 3, 2), ("greedy",) + ("perimeter",) * 4),
            (around, ("greedy", "perimeter", "perimeter")),  # LGF, zone
            raised,  # LGF, quadrant
            (around, ("safe", "perimeter", "perimeter")),  # SLGF, zone
            raised,  # SLGF, quadrant
            raised,  # SLGF2, quadrant
            raised,  # SLGF2, zone
        ]
        for router, expected in zip(self.routers(coincident_graph), want):
            got = outcome(lambda: oracle_route(router, 0, 2))
            if expected is raised:
                assert got == raised
            else:
                assert got.delivered
                assert (got.path, got.phases) == expected

    def test_every_path_matches_the_reference(self, coincident_graph):
        for router in self.routers(coincident_graph):
            expected = outcome(lambda: oracle_route(router, 0, 2))
            assert outcome(lambda: router.route(0, 2)) == expected
            for backend in BACKENDS:
                assert outcome(
                    lambda: router.route_batch([(0, 2)], backend=backend)[0]
                ) == expected


# ---------------------------------------------------------------------------
# The neighbourhood memos: SLGF2's quadrant lists and the rotation sweep
# ---------------------------------------------------------------------------


class CountingList(list):
    """A memo table that counts its reads and its writes."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = 0
        self.writes = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)

    def __setitem__(self, index, value):
        self.writes += 1
        super().__setitem__(index, value)


def spy_on_neighbourhoods(monkeypatch):
    """Tally the path every sweep and quadrant scan of the executors takes.

    A sweep is keyed ``(executor, caller, path)``: ``"rotation"`` when
    the rotation answered it, ``"band"`` when the row is flagged and
    ``"reference"`` when the reference lies too close to a neighbour's
    angle; ``"leaf"`` also counts flagged single-neighbour rows.  Each
    SLGF2 executor's quadrant tables count as ``("scan" | "zone",
    "built" | "memo")``.
    """
    from repro.routing import batch

    tally = Counter()
    tables = []
    sweep = batch._Executor._sweep
    scalar = batch._Executor._hand_sweep
    scalar_calls = []

    def spied_scalar(self, *args):
        scalar_calls.append(None)
        return scalar(self, *args)

    def spied_sweep(self, u, *args, **kwargs):
        caller = sys._getframe(1).f_code.co_name
        before = len(scalar_calls)
        result = sweep(self, u, *args, **kwargs)
        if len(scalar_calls) == before:
            path = "rotation"
        elif self._rotation.band[self.core.index_of(u)]:
            path = "band"
            if len(self.rows[u]) == 1:
                tally["leaf"] += 1
        else:
            path = "reference"
        tally[type(self).__name__, caller, path] += 1
        return result

    init = batch._Slgf2Executor.__init__

    def spied_init(self, *args):
        init(self, *args)
        self._scan_q = CountingList(self._scan_q)
        self._zone_q = CountingList(self._zone_q)
        tables.append((self._scan_q, self._zone_q))

    monkeypatch.setattr(batch._Executor, "_sweep", spied_sweep)
    monkeypatch.setattr(batch._Executor, "_hand_sweep", spied_scalar)
    monkeypatch.setattr(batch._Slgf2Executor, "__init__", spied_init)

    def counts():
        for scan_q, zone_q in tables:
            for name, table in (("scan", scan_q), ("zone", zone_q)):
                tally[name, "built"] += table.writes
                tally[name, "memo"] += table.reads - table.writes
        tables.clear()
        return tally

    return counts


def outcome_or_error(route):
    """A route's result, or the routing error it raised."""
    try:
        return route()
    except (ValueError, RoutingError) as error:
        return (type(error), str(error))


def memo_routers(graph, model, boundaries=None):
    """One router per converted scan or sweep: GF's face walk (and its
    boundary walk), the tried-set sweep of LGF and SLGF, and SLGF2's
    quadrant scans, backup and face sweeps in either hand, and DFS."""
    if boundaries is None:
        boundaries = build_hole_boundaries(graph)
    return [
        GreedyRouter(graph),
        GreedyRouter(
            graph, recovery="boundhole", hole_boundaries=boundaries
        ),
        LgfRouter(graph),
        SlgfRouter(model),
        Slgf2Router(model),
        Slgf2Router(model, perimeter_hand="either"),
        Slgf2Router(model, perimeter_mode="dfs"),
    ]


#: (executor, caller) of every converted sweep.
SWEEPS = (
    ("_GreedyExecutor", "_face_phase"),
    ("_LgfExecutor", "_tried_perimeter"),
    ("_SlgfExecutor", "_tried_perimeter"),
    ("_Slgf2Executor", "route"),  # the backup sweep
    ("_Slgf2Executor", "_face_phase"),
    ("_Slgf2Executor", "_dfs_phase"),
)


def make_rotated_lattice(n=12, spacing=10.0, radius=15.0, turn=0.3):
    """The pocketed grid turned by ``turn`` radians: no neighbour angle
    near an axis or near another, so no row is flagged, while every
    destination on a lattice line lies within rounding of a
    neighbour's ray."""
    removed = {(6, j) for j in range(2, 7)} | {(i, 6) for i in range(2, 7)}
    c, s = math.cos(turn), math.sin(turn)
    positions = [
        Point(spacing * (i * c - j * s), spacing * (i * s + j * c))
        for j in range(n)
        for i in range(n)
        if (i, j) not in removed
    ]
    graph = build_unit_disk_graph(positions, radius)
    return EdgeDetector(strategy="convex").apply(graph)


def make_coincident_graph():
    """A sparse random network with five positions taken twice: the
    unit-disk graph links each pair, and every row holding one is
    flagged."""
    rng = random.Random(12)
    positions = UniformDeployment(Rect(0, 0, 100, 100)).sample(60, rng)
    positions += [positions[k] for k in (3, 11, 17, 29, 41)]
    graph = build_unit_disk_graph(positions, 20.0)
    return EdgeDetector(strategy="convex").apply(graph)


class TestNeighbourhoodMemos:
    """Every converted scan and sweep takes its list or rotation path
    where the rotation decides, and today's scalar sweep where it
    cannot; either way each route equals the reference loop's."""

    def test_paper_networks_take_the_memoised_paths(self, monkeypatch):
        """IA and FA at n = 800, 200 pairs per router."""
        from repro.api import Scenario, Session

        counts = spy_on_neighbourhoods(monkeypatch)
        for deployment in ("IA", "FA"):
            session = Session(
                Scenario(
                    deployment_model=deployment, node_count=800, seed=2009
                )
            )
            graph = session.graph
            pairs = sample_pairs(graph, 200, seed=26)
            for router in memo_routers(
                graph, session.model, session.boundaries
            ):
                assert router.route_batch(pairs, backend="scalar") == [
                    oracle_route(router, s, d) for s, d in pairs
                ]
        tally = counts()
        for executor, caller in SWEEPS:
            assert tally[executor, caller, "rotation"] > 0, (executor, caller)
        for scan in ("scan", "zone"):
            assert tally[scan, "memo"] > 0 and tally[scan, "built"] > 0

    def test_flagged_rows_take_the_scalar_sweep(
        self, monkeypatch, pocket_grid
    ):
        """Every row of the pocketed lattice has a neighbour on an
        axis, and so does every row of a coincident pair; a leaf's
        single neighbour flags its row too."""
        counts = spy_on_neighbourhoods(monkeypatch)
        graph, _, model = pocket_grid
        for router in memo_routers(graph, model):
            assert_batch_equivalent(router, sample_pairs(graph, 60, seed=4))
        tally = counts()
        for executor, caller in SWEEPS:
            assert tally[executor, caller, "band"] > 0, (executor, caller)
            assert tally[executor, caller, "rotation"] == 0
            assert tally[executor, caller, "reference"] == 0

        tally.clear()
        graph = make_coincident_graph()
        model = InformationModel.build(graph)
        raised = 0
        for router in memo_routers(graph, model):
            for s, d in sample_pairs(graph, 80, seed=5):
                # A tried-set sweep whose every untried neighbour
                # coincides with the packet raises, as the reference does.
                expected = outcome_or_error(lambda: oracle_route(router, s, d))
                raised += isinstance(expected, tuple)
                assert outcome_or_error(
                    lambda: router.route_batch([(s, d)], backend="scalar")[0]
                ) == expected
        tally = counts()
        banded = sum(n for key, n in tally.items() if key[-1] == "band")
        assert banded > 0 and tally["leaf"] > 0 and raised > 0

    def test_near_reference_angles_take_the_scalar_sweep(self, monkeypatch):
        """On the turned lattice no row is flagged, and a destination on
        a lattice line puts the reference on a neighbour's ray: the
        rotation answers the other sweeps."""
        counts = spy_on_neighbourhoods(monkeypatch)
        graph = make_rotated_lattice()
        assert not any(graph.core.rotation().band)
        model = InformationModel.build(graph)
        pairs = sample_pairs(graph, 200, seed=7)
        for router in memo_routers(graph, model):
            assert_batch_equivalent(router, pairs)
        tally = counts()
        assert not any(key[-1] == "band" for key in tally if len(key) == 3)
        for executor, caller in SWEEPS:
            assert tally[executor, caller, "rotation"] > 0, (executor, caller)
        reference = Counter(
            key[:2] for key in tally if len(key) == 3 and key[2] == "reference"
        )
        for caller in ("route", "_dfs_phase"):
            assert reference[("_Slgf2Executor", caller)] > 0, caller
        for executor in ("_LgfExecutor", "_SlgfExecutor"):
            assert reference[(executor, "_tried_perimeter")] > 0, executor

    def test_sparse_ids_take_the_memoised_paths(self, monkeypatch, random_net):
        """After failures, node ids are no longer core indices."""
        counts = spy_on_neighbourhoods(monkeypatch)
        graph = random_net[0].without_nodes(range(0, 400, 5))
        assert not graph.core.dense
        model = InformationModel.build(graph)
        pairs = sample_pairs(graph, 150, seed=6)
        for router in memo_routers(graph, model):
            assert_batch_equivalent(router, pairs)
        tally = counts()
        assert sum(n for key, n in tally.items() if key[-1] == "rotation") > 0
        assert tally["scan", "memo"] > 0

    def test_quadrant_lists_admit_what_their_scans_admit(self):
        """The safe scan's sign tests pass a NaN offset and the zone
        scan's fail it, so only the safe scan's list holds a neighbour
        at a NaN position."""
        nodes = [
            Node(0, Point(0.0, 0.0)),
            Node(1, Point(3.0, 4.0)),
            Node(2, Point(float("nan"), float("nan"))),
            Node(3, Point(0.0, 5.0)),  # on Q_1's and Q_2's boundary
        ]
        adjacency = {0: (1, 2, 3), 1: (0, 2, 3), 2: (0, 1), 3: (0, 1)}
        graph = WasnGraph(nodes, adjacency, radius=10.0)
        router = Slgf2Router(InformationModel.build(graph))
        executor = router._scalar_executor()
        assert executor._scan_members(0, 1) == (1, 2, 3)
        assert executor._scan_members(0, 2) == (2, 3)
        assert executor._scan_members(0, 3) == (2,)
        executor._zone_scan(0, graph.neighbors(0), 0.0, 0.0, 9.0, 9.0, 1, 1.0)
        executor._zone_scan(0, graph.neighbors(0), 0.0, 0.0, -9.0, 9.0, 2, 1.0)
        assert executor._zone_q[0] == (1, 3)
        assert executor._zone_q[1] == (3,)
        # Every route equals the reference's; repr, since a NaN length
        # is unequal to itself.
        pairs = [(s, d) for s in range(4) for d in range(4) if s != d]
        for scope in ("quadrant", "zone"):
            router = Slgf2Router(router.model, candidate_scope=scope)
            assert repr(router.route_batch(pairs)) == repr(
                [oracle_route(router, s, d) for s, d in pairs]
            )


def on_build(graph, build):
    """``graph`` over a fresh core whose rotation takes ``build``."""
    core = graph.core
    return WasnGraph.from_core(
        TopologyCore(
            core.ids,
            core.xs,
            core.ys,
            core.radius,
            core.edge_flags,
            core.rows(),
            backend=build,
        )
    )


def _sweep_references(executor, u, rng):
    """References around each of ``u``'s neighbour angles: exactly on it,
    one ulp either side, inside and outside the 1e-9 band; plus random
    ones and a NaN."""
    xs, ys = executor.xs, executor.ys
    refs = [rng.uniform(0.0, math.tau) for _ in range(3)] + [math.nan]
    for v in executor.rows[u]:
        theta = _norm(math.atan2(ys[v] - ys[u], xs[v] - xs[u]))
        refs += [
            theta,
            math.nextafter(theta, math.inf),
            math.nextafter(theta, -math.inf),
            _norm(theta + 5e-10),
            _norm(theta - 5e-10),
            _norm(theta + 2e-9),
            _norm(theta - 2e-9),
        ]
    return refs


@pytest.mark.parametrize(
    "network", ["random", "lattice", "pocket", "coincident", "sparse"]
)
def test_rotation_sweep_equals_the_scalar_sweep(random_net, pocket_grid, network):
    """The rotation sweep returns what the scalar sweep returns for
    every hand, exclusivity and candidate set, at every reference
    around every neighbour's angle, on each rotation build (whose
    angle columns may differ by an ulp)."""
    graphs = {
        "random": lambda: random_net[0],
        "lattice": make_rotated_lattice,
        "pocket": lambda: pocket_grid[0],
        "coincident": make_coincident_graph,
        "sparse": lambda: random_net[0].without_nodes(range(0, 400, 5)),
    }
    for build in BUILDS:
        _assert_sweeps_agree(on_build(graphs[network](), build), network)


def _assert_sweeps_agree(graph, network):
    executor = LgfRouter(graph)._scalar_executor()
    rng = random.Random(network)
    nodes = [u for u in graph.node_ids if graph.neighbors(u)]
    for u in rng.sample(nodes, min(60, len(nodes))):
        xu, yu = executor.xs[u], executor.ys[u]
        row = executor.rows[u]
        subset = tuple(v for v in row if rng.random() < 0.5)
        tried = {v for v in row if rng.random() < 0.5}
        for ref in _sweep_references(executor, u, rng):
            for ccw in (True, False):
                for exclusive in (False, True):
                    for among in (row, subset):
                        assert executor._sweep(
                            u, xu, yu, ref, ccw, exclusive, among
                        ) == executor._hand_sweep(
                            xu, yu, ref, among, ccw, exclusive
                        ), (u, ref, ccw, exclusive, among)
                    untried = [v for v in row if v not in tried]
                    assert executor._sweep(
                        u, xu, yu, ref, ccw, exclusive, tried=tried
                    ) == executor._hand_sweep(
                        xu, yu, ref, untried, ccw, exclusive
                    ), (u, ref, ccw, exclusive, tried)
