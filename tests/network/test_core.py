"""TopologyCore ↔ WasnGraph equivalence: the columnar refactor's bar.

The columnar core is a *representation* change, never a semantic one:
for any network this package can produce — uniform and forbidden-area
deployments, failure-restricted graphs, dynamic move/fail/restore
sequences — the core's columns, CSR arrays, by-id views and
planarization masks must agree bit for bit with the object view and
with the historical dict pipeline (replicated here verbatim as the
reference build).
"""

import random

import pytest

from repro.geometry import Point, Rect
from repro.network import (
    DynamicTopology,
    EdgeDetector,
    Node,
    SpatialGrid,
    WasnGraph,
    build_unit_disk_graph,
    deploy_forbidden_area_model,
    deploy_uniform_model,
    gabriel_graph,
    relative_neighborhood_graph,
)

AREA = Rect(0, 0, 120, 120)
RADIUS = 20.0


def legacy_build(positions, radius, edge_ids=()):
    """The historical dict-pipeline unit-disk build, step for step."""
    grid = SpatialGrid(cell_size=radius)
    grid.bulk_insert(enumerate(positions))
    neighbor_sets = {i: [] for i in range(len(positions))}
    for a, b in grid.all_pairs_within(radius):
        neighbor_sets[a].append(b)
        neighbor_sets[b].append(a)
    edge_set = set(edge_ids)
    nodes = [
        Node(i, p, is_edge=i in edge_set) for i, p in enumerate(positions)
    ]
    adjacency = {
        i: tuple(sorted(neighbor_sets[i])) for i in range(len(positions))
    }
    return WasnGraph(nodes, adjacency, radius)


def deployments():
    """Seeded deployments across both models (and a degenerate one)."""
    cases = []
    for seed in (0, 1, 2, 3):
        rng = random.Random(seed)
        cases.append(
            ("IA", seed, list(deploy_uniform_model(150, AREA, rng).positions))
        )
    for seed in (4, 5, 6):
        rng = random.Random(seed)
        cases.append(
            (
                "FA",
                seed,
                list(
                    deploy_forbidden_area_model(150, AREA, rng).positions
                ),
            )
        )
    # Coincident points and exact-range pairs, the edge set's corners.
    cases.append(
        (
            "degenerate",
            99,
            [
                Point(0.0, 0.0),
                Point(0.0, 0.0),
                Point(RADIUS, 0.0),
                Point(RADIUS + 1e-12, 1.0),
                Point(5.0, 5.0),
            ],
        )
    )
    return cases


def assert_graphs_identical(a: WasnGraph, b: WasnGraph) -> None:
    assert a.node_ids == b.node_ids
    assert a.radius == b.radius
    for u in a.node_ids:
        assert a.neighbors(u) == b.neighbors(u)
        assert a.degree(u) == b.degree(u)
        assert a.position(u) == b.position(u)
        assert a.is_edge_node(u) == b.is_edge_node(u)
    assert list(a.edges()) == list(b.edges())
    assert a.edge_count() == b.edge_count()


def assert_core_matches_view(graph: WasnGraph) -> None:
    """Every columnar projection agrees with the object API exactly."""
    core = graph.core
    ids = list(core.ids)
    assert ids == graph.node_ids
    assert core.radius == graph.radius
    assert len(core) == len(graph)
    xs_id, ys_id = core.coords_by_id()
    rows_id = core.rows_by_id()
    flags_id = core.flags_by_id()
    indptr = core.indptr
    indices = core.indices
    lengths = core.lengths
    assert len(indptr) == len(ids) + 1
    assert len(indices) == len(lengths) == 2 * graph.edge_count()
    for i, u in enumerate(ids):
        p = graph.position(u)
        assert (core.xs[i], core.ys[i]) == (p.x, p.y)
        assert (xs_id[u], ys_id[u]) == (p.x, p.y)
        assert core.edge_flags[i] == graph.is_edge_node(u)
        assert flags_id[u] == graph.is_edge_node(u)
        assert core.index_of(u) == i
        assert u in core
        row = graph.neighbors(u)
        assert core.rows()[i] == row
        assert rows_id[u] == row
        # CSR row = neighbour indices, ascending; lengths = exact
        # Point.distance_to values in row order.
        span = range(indptr[i], indptr[i + 1])
        assert [ids[indices[j]] for j in span] == list(row)
        assert [lengths[j] for j in span] == [
            graph.distance(u, v) for v in row
        ]
    assert len(graph) == 0 or max(indices) < len(ids)


class TestBuildEquivalence:
    @pytest.mark.parametrize(
        "label,seed,positions", deployments(), ids=lambda c: str(c)[:16]
    )
    def test_columnar_build_matches_legacy_pipeline(
        self, label, seed, positions
    ):
        legacy = legacy_build(positions, RADIUS, edge_ids=(1, 3))
        columnar = build_unit_disk_graph(positions, RADIUS, edge_ids=(1, 3))
        assert_graphs_identical(legacy, columnar)

    @pytest.mark.parametrize(
        "label,seed,positions", deployments(), ids=lambda c: str(c)[:16]
    )
    def test_core_view_round_trip(self, label, seed, positions):
        # Core built eagerly (columnar build) and lazily (dict build)
        # must both agree with the object API.
        assert_core_matches_view(build_unit_disk_graph(positions, RADIUS))
        assert_core_matches_view(legacy_build(positions, RADIUS))

    def test_edge_detection_pipeline_identical(self):
        rng = random.Random(11)
        positions = list(deploy_uniform_model(150, AREA, rng).positions)
        detector = EdgeDetector(strategy="convex")
        legacy = detector.apply(legacy_build(positions, RADIUS))
        columnar = detector.apply(build_unit_disk_graph(positions, RADIUS))
        assert_graphs_identical(legacy, columnar)
        assert_core_matches_view(columnar)

    def test_without_nodes_sparse_ids(self):
        rng = random.Random(12)
        positions = list(deploy_uniform_model(120, AREA, rng).positions)
        graph = build_unit_disk_graph(positions, RADIUS)
        survivor = graph.without_nodes(range(0, 120, 3))
        assert not survivor.core.dense
        assert_core_matches_view(survivor)

    def test_unsorted_rows_are_sorted(self):
        """Unsorted input rows are sorted on construction; rows already
        in order keep their tuple objects, and the caller's dict is
        left as it was."""
        nodes = [Node(0, Point(0, 0)), Node(1, Point(1, 0)), Node(2, Point(2, 0))]
        adjacency = {0: (2, 1), 1: (0, 2), 2: (1, 0)}
        graph = WasnGraph(nodes, adjacency, radius=5.0)
        assert [graph.neighbors(u) for u in (0, 1, 2)] == [
            (1, 2),
            (0, 2),
            (0, 1),
        ]
        assert graph.neighbors(1) is adjacency[1]
        assert adjacency == {0: (2, 1), 1: (0, 2), 2: (1, 0)}
        twin = WasnGraph(nodes, {0: (1, 2), 1: (0, 2), 2: (0, 1)}, 5.0)
        assert_graphs_identical(graph, twin)
        assert_core_matches_view(graph)


class TestPlanarMasks:
    @pytest.mark.parametrize(
        "label,seed,positions", deployments(), ids=lambda c: str(c)[:16]
    )
    def test_masks_match_reference_constructions(
        self, label, seed, positions
    ):
        graph = build_unit_disk_graph(positions, RADIUS)
        core = graph.core
        assert core.planar_adjacency("gabriel") == gabriel_graph(graph)
        assert core.planar_adjacency("rng") == relative_neighborhood_graph(
            graph
        )
        # Mask/adjacency coherence: bit j set iff edge j survives.
        for kind in ("gabriel", "rng"):
            mask = core.planar_mask(kind)
            kept = core.planar_adjacency(kind)
            indptr, ids, rows = core.indptr, core.ids, core.rows()
            for i, u in enumerate(ids):
                row = rows[i]
                base = indptr[i]
                surviving = tuple(
                    row[j] for j in range(len(row)) if mask[base + j]
                )
                assert surviving == kept[u]

    def test_rng_subset_of_gabriel(self):
        rng = random.Random(13)
        positions = list(deploy_uniform_model(150, AREA, rng).positions)
        core = build_unit_disk_graph(positions, RADIUS).core
        gg = core.planar_adjacency("gabriel")
        rngg = core.planar_adjacency("rng")
        for u, kept in rngg.items():
            assert set(kept) <= set(gg[u])

    def test_flag_variants_share_planarization(self):
        rng = random.Random(14)
        positions = list(deploy_uniform_model(120, AREA, rng).positions)
        graph = build_unit_disk_graph(positions, RADIUS)
        first = graph.core.planar_adjacency("gabriel")
        flagged = graph.with_edge_nodes({0, 1, 2})
        # Same object: the with_edge_flags core shares the cache, so
        # GF and SLGF2 over flag-variants never planarize twice.
        assert flagged.core.planar_adjacency("gabriel") is first

    def test_unknown_kind_rejected(self):
        core = build_unit_disk_graph(
            [Point(0, 0), Point(1, 0)], 5.0
        ).core
        with pytest.raises(ValueError, match="unknown planarization"):
            core.planar_mask("delaunay")


class TestDynamicCoreSlices:
    def test_snapshot_cores_match_fresh_builds_under_churn(self):
        """Seeded move/fail/restore sequence: every snapshot's core ==
        the core of a from-scratch build over the alive positions."""
        rng = random.Random(2024)
        positions = [
            Point(rng.uniform(0, 120), rng.uniform(0, 120))
            for _ in range(120)
        ]
        topology = DynamicTopology(positions, RADIUS)
        down: list[int] = []
        for step in range(60):
            op = rng.random()
            if op < 0.5:
                key = rng.randrange(120)
                topology.move_many(
                    {
                        key: Point(
                            rng.uniform(0, 120), rng.uniform(0, 120)
                        )
                    }
                )
            elif op < 0.75 and len(down) < 40:
                alive = topology.alive_ids
                key = alive[rng.randrange(len(alive))]
                topology.fail(key)
                down.append(key)
            elif down:
                topology.restore(down.pop(rng.randrange(len(down))))
            if step % 7:
                continue  # core check every few events (it is O(E*k))
            snapshot = topology.graph
            rebuilt = build_unit_disk_graph(
                [Point(0, 0)] * 0
                + [topology.position(u) for u in topology.alive_ids],
                RADIUS,
            )
            # Rebuilt ids are dense 0..n-1; map through alive order.
            alive = list(topology.alive_ids)
            remap = {i: u for i, u in enumerate(alive)}
            assert list(snapshot.core.ids) == alive
            for i, u in enumerate(alive):
                assert snapshot.position(u) == rebuilt.position(i)
                assert snapshot.neighbors(u) == tuple(
                    remap[v] for v in rebuilt.neighbors(i)
                )
            assert_core_matches_view(snapshot)
            # Planarizations agree modulo the id remap.
            gg = snapshot.core.planar_adjacency("gabriel")
            gg_rebuilt = rebuilt.core.planar_adjacency("gabriel")
            for i, u in enumerate(alive):
                assert gg[u] == tuple(remap[v] for v in gg_rebuilt[i])

    def test_snapshot_rows_shared_not_copied(self):
        """The incremental promise: rows untouched by a delta are the
        same tuple objects across snapshots."""
        rng = random.Random(5)
        positions = [
            Point(rng.uniform(0, 120), rng.uniform(0, 120))
            for _ in range(80)
        ]
        topology = DynamicTopology(positions, RADIUS)
        before = topology.graph
        mover = 0
        topology.move(mover, Point(200.0, 200.0))  # far corner: local
        after = topology.graph
        touched = {mover, *before.neighbors(mover), *after.neighbors(mover)}
        shared = sum(
            before.neighbors(u) is after.neighbors(u)
            for u in after.node_ids
            if u not in touched
        )
        untouched = sum(1 for u in after.node_ids if u not in touched)
        assert shared == untouched
