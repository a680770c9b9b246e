"""Differential testing of the incremental dynamic-topology engine.

The correctness bar for :class:`repro.network.dynamic.DynamicTopology`
is *bit-identity*: after any sequence of move/fail/restore events, its
snapshot must be edge for edge identical to a from-scratch
``build_unit_disk_graph`` over the same alive positions — including
the edge-node flags an :class:`EdgeDetector` would assign and the
planarized (Gabriel / RNG) neighbour sets the perimeter phases walk.
This suite drives seeded random event sequences and checks that
equivalence at every step, plus the truthfulness of each emitted
:class:`TopologyDelta` (old edge set + delta == new edge set).  The
topology starts from the bulk core and thaws on its first mutation:
the first snapshot is pinned column for column to the bulk build
(degenerate fixtures, sparse mapping ids, n = 0-2, both construction
backends), and every inspector to a brute-force reference before and
after the first mutation.

The base seed runs in tier-1 (planarizations spot-checked every few
steps to keep it quick); the ``slow``-marked run re-checks everything
at every step under three extra seeds and is executed by the CI
``dynamic-differential`` job twice: without numpy (a scalar-built
core thaws) and with it (a numpy-built core thaws).
"""

import math
import random

import pytest

from repro._optional import MissingDependencyError, load_numpy
from repro.geometry import Point, Rect
from repro.geometry.hull import hull_indices
from repro.network import (
    DynamicTopology,
    EdgeDetector,
    build_unit_disk_graph,
    fail_nodes,
    fail_nodes_dynamic,
    fail_random,
    fail_random_dynamic,
    fail_region,
    fail_region_dynamic,
    restore_nodes,
)
from repro.network.planar import gabriel_graph, relative_neighborhood_graph
from repro.network.spatial import SpatialGrid

# Deployment coordinates deliberately straddle zero: negative cell
# indices and border-exact points must behave like any others.
LOW, HIGH = -40.0, 80.0
RADIUS = 22.0
COUNT = 48
BASE_SEED = 2009
#: The CI ``dynamic-differential`` job's extra seeds.
EXTRA_SEEDS = (7, 23, 91)
EVENTS = 1000


def _random_point(rng: random.Random) -> Point:
    return Point(rng.uniform(LOW, HIGH), rng.uniform(LOW, HIGH))


def _rebuild(topology: DynamicTopology):
    """Reference graph: full from-scratch build over the same state."""
    universe = [
        topology.position(i)
        for i in sorted(set(topology.alive_ids) | set(topology.down_ids))
    ]
    full = build_unit_disk_graph(universe, topology.radius)
    survivors = full.without_nodes(topology.down_ids)
    return EdgeDetector(strategy="convex").apply(survivors)


def _assert_identical(incremental, reference, planar: bool) -> None:
    assert incremental.node_ids == reference.node_ids
    assert incremental.radius == reference.radius
    for u in reference.node_ids:
        assert incremental.position(u) == reference.position(u)
        assert incremental.neighbors(u) == reference.neighbors(u)
        assert incremental.is_edge_node(u) == reference.is_edge_node(u)
    if planar:
        assert gabriel_graph(incremental) == gabriel_graph(reference)
        assert relative_neighborhood_graph(
            incremental
        ) == relative_neighborhood_graph(reference)


def _run_differential(seed: int, events: int, planar_every: int) -> None:
    rng = random.Random(seed)
    positions = [_random_point(rng) for _ in range(COUNT)]
    topology = DynamicTopology(
        positions, RADIUS, edge_detector=EdgeDetector(strategy="convex")
    )
    _assert_identical(topology.graph, _rebuild(topology), planar=True)
    edges = set(topology.graph.edges())
    for step in range(events):
        draw = rng.random()
        if 0.55 <= draw < 0.8 and len(topology) > 5:
            delta = topology.fail(rng.choice(topology.alive_ids))
        elif draw >= 0.8 and topology.down_ids:
            node = rng.choice(topology.down_ids)
            position = _random_point(rng) if rng.random() < 0.5 else None
            delta = topology.restore(node, position)
        else:
            node = rng.randrange(COUNT)  # alive or down: both legal
            delta = topology.move(node, _random_point(rng))

        snapshot = topology.graph
        # The delta must account for exactly the edge churn observed.
        new_edges = set(snapshot.edges())
        assert (
            edges - set(delta.removed_edges)
        ) | set(delta.added_edges) == new_edges, step
        assert not (set(delta.added_edges) & edges), step
        assert set(delta.removed_edges) <= edges, step
        edges = new_edges

        check_planar = step % planar_every == 0 or step == events - 1
        _assert_identical(snapshot, _rebuild(topology), check_planar)


class TestDifferential:
    def test_base_seed_bit_identical_over_1000_events(self):
        _run_differential(BASE_SEED, EVENTS, planar_every=25)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", EXTRA_SEEDS)
    def test_extra_seeds_planar_checked_every_step(self, seed):
        _run_differential(seed, EVENTS, planar_every=1)


class TestDeltaSemantics:
    def _topology(self, count=20, seed=5, radius=25.0):
        rng = random.Random(seed)
        return (
            DynamicTopology(
                [_random_point(rng) for _ in range(count)], radius
            ),
            rng,
        )

    def test_noop_move_is_empty_and_silent(self):
        topology, _ = self._topology()
        seen = []
        topology.subscribe(seen.append)
        delta = topology.move(3, topology.position(3))
        assert not delta
        assert seen == []

    def test_batch_move_cancels_transient_churn(self):
        # A there-and-back move within one batch nets to nothing at
        # all: no edges, no moved entry, no subscriber call.
        topology, rng = self._topology()
        seen = []
        topology.subscribe(seen.append)
        home = topology.position(0)
        away = _random_point(rng)
        delta = topology.move_many([(0, away), (0, home)])
        assert not delta
        assert topology.position(0) == home
        assert seen == []

    def test_batch_move_dedups_moved_ids(self):
        topology, rng = self._topology()
        a, b = _random_point(rng), _random_point(rng)
        delta = topology.move_many([(0, a), (0, b)])
        assert delta.moved == (0,)

    def test_fail_restore_preserves_edge_flags_without_detector(self):
        # Regression: from_graph promises adopted flags are carried
        # into snapshots as-is — including across a fail/restore
        # round trip.
        rng = random.Random(13)
        graph = EdgeDetector(strategy="convex").apply(
            build_unit_disk_graph(
                [_random_point(rng) for _ in range(20)], RADIUS
            )
        )
        flagged = next(
            u for u in graph.node_ids if graph.is_edge_node(u)
        )
        topology = DynamicTopology.from_graph(graph)
        topology.fail(flagged)
        topology.restore(flagged)
        assert topology.graph.is_edge_node(flagged)

    def test_fail_nodes_dynamic_dedups_like_fail_nodes(self):
        topology, _ = self._topology()
        delta = fail_nodes_dynamic(topology, (4, 4, 9))
        assert delta.nodes_down == (4, 9)
        assert set(topology.down_ids) == {4, 9}

    def test_subscribers_see_post_delta_state(self):
        topology, _ = self._topology()
        observed = []
        topology.subscribe(
            lambda delta: observed.append(
                (delta, topology.graph.node_ids)
            )
        )
        topology.fail(4)
        (delta, ids), = observed
        assert delta.nodes_down == (4,)
        assert 4 not in ids

    def test_unsubscribe_stops_delivery(self):
        topology, _ = self._topology()
        seen = []
        subscriber = topology.subscribe(seen.append)
        topology.fail(1)
        topology.unsubscribe(subscriber)
        topology.fail(2)
        assert len(seen) == 1

    def test_fail_restore_round_trip_restores_edges(self):
        topology, _ = self._topology()
        before = set(topology.graph.edges())
        down = topology.fail(7)
        up = restore_nodes(topology, (7,))
        assert set(topology.graph.edges()) == before
        assert set(up.added_edges) == set(down.removed_edges)
        assert up.nodes_up == (7,) and down.nodes_down == (7,)

    def test_restore_at_new_position(self):
        topology, rng = self._topology()
        target = _random_point(rng)
        topology.fail(2)
        delta = topology.restore(2, target)
        assert topology.position(2) == target
        assert 2 in topology.graph.node_ids
        assert delta.moved == (2,)

    def test_error_cases(self):
        topology, _ = self._topology()
        with pytest.raises(KeyError):
            topology.move(999, Point(0, 0))
        with pytest.raises(KeyError):
            topology.restore(3)  # alive
        topology.fail(3)
        with pytest.raises(KeyError):
            topology.fail(3)  # already down
        with pytest.raises(KeyError):
            fail_nodes_dynamic(topology, (3,))  # down counts as unknown
        with pytest.raises(ValueError):
            DynamicTopology([Point(0, 0)], radius=0.0)

    def test_rejected_batches_are_atomic(self):
        # A bad id anywhere in a batch must leave the topology — and
        # every subscriber — exactly as it was: a half-applied batch
        # with no delta would silently desynchronize tracked routers.
        topology, rng = self._topology()
        topology.fail(5)
        seen = []
        topology.subscribe(seen.append)
        before = set(topology.graph.edges())
        with pytest.raises(KeyError):
            topology.fail_many([1, 2, 5])  # 5 already down
        with pytest.raises(KeyError):
            topology.fail_many([6, 6])  # duplicated in the batch
        with pytest.raises(KeyError):
            topology.restore_many([5, 3])  # 3 alive
        with pytest.raises(KeyError):
            topology.move_many([(1, _random_point(rng)), (999, Point(0, 0))])
        assert set(topology.graph.edges()) == before
        assert topology.down_ids == (5,)
        assert seen == []

    def test_from_graph_adopts_ids_and_flags(self):
        rng = random.Random(11)
        positions = [_random_point(rng) for _ in range(25)]
        graph = EdgeDetector(strategy="convex").apply(
            build_unit_disk_graph(positions, RADIUS)
        )
        reduced = graph.without_nodes((3, 8))
        topology = DynamicTopology.from_graph(reduced)
        snapshot = topology.graph
        assert snapshot.node_ids == reduced.node_ids
        for u in reduced.node_ids:
            assert snapshot.neighbors(u) == reduced.neighbors(u)
            assert snapshot.is_edge_node(u) == reduced.is_edge_node(u)


class TestFailureHelpers:
    """The dynamic failure injectors select the same victims as the
    graph-copying ones, so schedules replay identically on either
    substrate."""

    def _fixture(self, seed=31, count=40):
        rng = random.Random(seed)
        positions = [_random_point(rng) for _ in range(count)]
        graph = build_unit_disk_graph(positions, RADIUS)
        topology = DynamicTopology(positions, RADIUS)
        return graph, topology

    def test_fail_region_matches_graph_version(self):
        graph, topology = self._fixture()
        region = (Point(10.0, 10.0), 30.0)
        survivors, failed = fail_region(graph, region, protect=(0,))
        _, failed_dynamic = fail_region_dynamic(
            topology, region, protect=(0,)
        )
        assert failed_dynamic == failed
        assert topology.graph.node_ids == survivors.node_ids

    def test_fail_region_rect(self):
        graph, topology = self._fixture()
        region = Rect(0, 0, 25, 25)
        _, failed = fail_region(graph, region)
        _, failed_dynamic = fail_region_dynamic(topology, region)
        assert failed_dynamic == failed

    def test_fail_random_matches_graph_version(self):
        graph, topology = self._fixture()
        survivors, failed = fail_random(
            graph, 0.25, random.Random(77), protect=(1, 2)
        )
        _, failed_dynamic = fail_random_dynamic(
            topology, 0.25, random.Random(77), protect=(1, 2)
        )
        assert failed_dynamic == failed
        assert topology.graph.node_ids == survivors.node_ids

    def test_fail_nodes_matches_graph_version(self):
        graph, topology = self._fixture()
        survivors = fail_nodes(graph, (4, 9, 12))
        fail_nodes_dynamic(topology, (4, 9, 12))
        assert topology.graph.node_ids == survivors.node_ids
        for u in survivors.node_ids:
            assert topology.graph.neighbors(u) == survivors.neighbors(u)

    def test_invalid_inputs(self):
        _, topology = self._fixture()
        with pytest.raises(ValueError):
            fail_random_dynamic(topology, 1.5, random.Random(0))
        with pytest.raises(ValueError):
            fail_region_dynamic(topology, (Point(0, 0), 0.0))
        with pytest.raises(KeyError):
            restore_nodes(topology, (0,))  # alive


# -- the columnar start and the thaw ---------------------------------------

START_BACKENDS = [
    "scalar",
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif(
            load_numpy() is None, reason="numpy required"
        ),
    ),
]


def _degenerate_positions():
    """Coincident nodes, collinear triples, a node on a hull edge."""
    return [
        Point(0.0, 0.0),
        Point(0.0, 0.0),  # coincident with node 0
        Point(1.0, 0.0),
        Point(2.0, 0.0),  # collinear hull edge 0-1-2-3
        Point(3.0, 0.0),
        Point(0.5, 0.5),
        Point(0.5, math.nextafter(0.5, 1.0)),
        Point(3.0, 3.0),
        Point(-0.0, 3.0),
        Point(1.5, 3.0),  # on the top hull edge
        Point(3.0, 3.0),  # coincident with a hull corner
    ]


def _random_positions(seed, count):
    rng = random.Random(seed)
    return [_random_point(rng) for _ in range(count)]


def _lattice_positions():
    """Ties at exactly the radius, and collinear hull edges."""
    return [Point(i * 10.0, j * 10.0) for j in range(6) for i in range(7)]


START_CASES = {
    "degenerate": (_degenerate_positions, 1.5),
    "lattice": (_lattice_positions, 10.0),
    "random": (lambda: _random_positions(3, 60), RADIUS),
    "empty": (lambda: [], RADIUS),
    "single": (lambda: [Point(1.0, 2.0)], RADIUS),
    "pair": (lambda: [Point(1.0, 2.0), Point(4.0, 6.0)], RADIUS),
}


def _assert_columns_equal(graph, ids, reference) -> None:
    """``graph``'s core against ``reference``'s, ids relabelled."""
    core, ref = graph.core, reference.core
    assert core.ids == tuple(ids)
    assert core.xs.tobytes() == ref.xs.tobytes()
    assert core.ys.tobytes() == ref.ys.tobytes()
    assert core.rows() == tuple(
        tuple(ids[j] for j in row) for row in ref.rows()
    )
    assert core.indptr.tobytes() == ref.indptr.tobytes()
    assert core.indices.tobytes() == ref.indices.tobytes()
    assert core.edge_flags == ref.edge_flags


class TestColumnarStart:
    """The first snapshot is the bulk build, edge flags and all."""

    @pytest.mark.parametrize("backend", START_BACKENDS)
    @pytest.mark.parametrize("case", sorted(START_CASES))
    def test_first_snapshot_equals_bulk_build(self, case, backend):
        recipe, radius = START_CASES[case]
        positions = recipe()
        topology = DynamicTopology(
            positions,
            radius,
            edge_detector=EdgeDetector("convex"),
            backend=backend,
        )
        reference = build_unit_disk_graph(
            positions, radius, hull_indices(positions), backend=backend
        )
        _assert_columns_equal(topology.graph, range(len(positions)), reference)

    @pytest.mark.parametrize("backend", START_BACKENDS)
    def test_sparse_mapping_ids(self, backend):
        rng = random.Random(41)
        ids = sorted(rng.sample(range(500), 70))
        mapping = {u: _random_point(rng) for u in reversed(ids)}
        topology = DynamicTopology(
            mapping,
            RADIUS,
            edge_detector=EdgeDetector("convex"),
            backend=backend,
        )
        ordered = [mapping[u] for u in ids]
        reference = build_unit_disk_graph(
            ordered, RADIUS, hull_indices(ordered), backend=backend
        )
        assert not topology.graph.core.dense
        _assert_columns_equal(topology.graph, ids, reference)

    def test_from_graph_flags_become_the_first_snapshots(self):
        rng = random.Random(43)
        graph = build_unit_disk_graph(
            [_random_point(rng) for _ in range(30)],
            RADIUS,
            edge_ids=(2, 5, 17),  # not the hull: carried, not detected
        ).without_nodes((4,))
        snapshot = DynamicTopology.from_graph(graph).graph
        assert [u for u in snapshot.node_ids if snapshot.is_edge_node(u)] == [
            2,
            5,
            17,
        ]

    def test_numpy_backend_without_numpy_raises(self, no_numpy):
        with pytest.raises(MissingDependencyError):
            DynamicTopology([Point(0.0, 0.0)], RADIUS, backend="numpy")


def _brute_neighbors(positions, alive, u, radius):
    pu = positions[u]
    r2 = radius * radius
    return tuple(
        v
        for v in sorted(alive)
        if v != u
        and (pu.x - positions[v].x) ** 2 + (pu.y - positions[v].y) ** 2
        <= r2
    )


def _assert_inspectors(topology, positions, down, radius) -> None:
    """Every inspector against a brute-force reference."""
    alive = set(positions) - set(down)
    assert len(topology) == len(alive)
    assert topology.alive_ids == tuple(sorted(alive))
    assert topology.down_ids == tuple(sorted(down))
    assert repr(topology) == (
        f"DynamicTopology(alive={len(alive)}, down={len(down)}, "
        f"radius={radius})"
    )
    for u in positions:
        assert u in topology
        assert topology.position(u) == positions[u]
        assert topology.is_down(u) == (u in down)
        if u in alive:
            row = _brute_neighbors(positions, alive, u, radius)
            assert topology.neighbors(u) == row
            for v in positions:
                assert topology.has_edge(u, v) == (v in row)
        else:
            with pytest.raises(KeyError):
                topology.neighbors(u)
            assert not any(topology.has_edge(u, v) for v in positions)
    assert -1 not in topology
    with pytest.raises(KeyError):
        topology.position(-1)
    with pytest.raises(KeyError):
        topology.neighbors(-1)
    assert not topology.has_edge(-1, 0)


@pytest.fixture
def bulk_inserts(monkeypatch):
    calls = []
    real = SpatialGrid.bulk_insert

    def spy(self, items):
        calls.append(self)
        return real(self, items)

    monkeypatch.setattr(SpatialGrid, "bulk_insert", spy)
    return calls


class TestThaw:
    """Inspectors answer the same before and after the first mutation,
    and the topology thaws exactly once."""

    @pytest.mark.parametrize("backend", START_BACKENDS)
    @pytest.mark.parametrize("sparse", [False, True])
    def test_inspectors_match_brute_force(self, backend, sparse, bulk_inserts):
        rng = random.Random(47)
        ids = sorted(rng.sample(range(200), 50)) if sparse else range(50)
        positions = {u: _random_point(rng) for u in ids}
        topology = DynamicTopology(
            positions if sparse else list(positions.values()),
            RADIUS,
            backend=backend,
        )
        seen = []
        topology.subscribe(seen.append)
        topology.graph  # the first snapshot reads the frozen core
        assert bulk_inserts == []
        _assert_inspectors(topology, positions, (), RADIUS)
        victims = [u for u in ids][3:6]
        topology.fail_many(victims)
        _assert_inspectors(topology, positions, victims, RADIUS)
        target = _random_point(rng)
        topology.move(ids[10], target)
        positions[ids[10]] = target
        topology.restore(victims[0])
        _assert_inspectors(topology, positions, victims[1:], RADIUS)
        assert len(bulk_inserts) == 1
        assert len(seen) == 3

    @pytest.mark.parametrize("backend", START_BACKENDS)
    def test_rejected_first_batch_changes_nothing(self, backend):
        # Validation thaws; the snapshot then comes from the thawed
        # rows and must still be the bulk build, flags included.
        positions = _random_positions(53, 30)
        detector = EdgeDetector("convex")
        frozen = DynamicTopology(
            positions, RADIUS, edge_detector=detector, backend=backend
        ).graph
        topology = DynamicTopology(
            positions, RADIUS, edge_detector=detector, backend=backend
        )
        seen = []
        topology.subscribe(seen.append)
        with pytest.raises(KeyError):
            topology.fail_many([1, 99])
        with pytest.raises(KeyError):
            topology.restore(1)
        assert seen == []
        _assert_columns_equal(topology.graph, range(len(positions)), frozen)
        assert topology.fail(1).nodes_down == (1,)

    @pytest.mark.parametrize("backend", START_BACKENDS)
    def test_thawed_snapshot_equals_rebuild(self, backend):
        rng = random.Random(59)
        positions = [_random_point(rng) for _ in range(COUNT)]
        topology = DynamicTopology(
            positions,
            RADIUS,
            edge_detector=EdgeDetector(strategy="convex"),
            backend=backend,
        )
        before = topology.graph
        topology.move(0, _random_point(rng))
        topology.fail(7)
        after = topology.graph
        assert after is not before
        _assert_identical(after, _rebuild(topology), planar=True)
