"""Tests for the WASN unit-disk graph."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point
from repro.network import Node, WasnGraph, build_unit_disk_graph
from repro.network.core import build_core

coords = st.floats(min_value=0, max_value=200, allow_nan=False)
position_lists = st.lists(
    st.builds(Point, coords, coords), min_size=0, max_size=50
)


def line_graph(n, spacing=10.0, radius=10.0):
    """n nodes on a line, each connected to its immediate neighbours."""
    return build_unit_disk_graph(
        [Point(i * spacing, 0.0) for i in range(n)], radius
    )


class TestConstruction:
    def test_empty(self):
        g = build_unit_disk_graph([], radius=10)
        assert len(g) == 0
        assert g.edge_count() == 0
        assert g.is_connected()

    def test_pair_within_range(self):
        g = build_unit_disk_graph([Point(0, 0), Point(5, 0)], radius=10)
        assert g.has_edge(0, 1)
        assert g.neighbors(0) == (1,)

    def test_pair_exactly_at_range(self):
        g = build_unit_disk_graph([Point(0, 0), Point(10, 0)], radius=10)
        assert g.has_edge(0, 1)

    def test_pair_out_of_range(self):
        g = build_unit_disk_graph([Point(0, 0), Point(10.5, 0)], radius=10)
        assert not g.has_edge(0, 1)
        assert g.neighbors(0) == ()

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            build_unit_disk_graph([], radius=0)

    def test_edge_ids_set_flags(self):
        g = build_unit_disk_graph(
            [Point(0, 0), Point(5, 0)], radius=10, edge_ids=[1]
        )
        assert not g.is_edge_node(0)
        assert g.is_edge_node(1)

    @given(position_lists)
    @settings(max_examples=50)
    def test_matches_bruteforce(self, positions):
        radius = 30.0
        g = build_unit_disk_graph(positions, radius)
        for i in range(len(positions)):
            expected = {
                j
                for j in range(len(positions))
                if j != i
                and abs(positions[i].distance_to(positions[j]) - radius)
                > 1e-6  # skip boundary jitter
                and positions[i].distance_to(positions[j]) < radius
            }
            got = set(g.neighbors(i))
            assert expected <= got
            for j in got - expected:
                assert positions[i].distance_to(positions[j]) <= radius + 1e-6


class TestValidation:
    def test_duplicate_node_id(self):
        nodes = [Node(0, Point(0, 0)), Node(0, Point(1, 1))]
        with pytest.raises(ValueError):
            WasnGraph(nodes, {0: ()}, radius=10)

    def test_asymmetric_adjacency_rejected(self):
        nodes = [Node(0, Point(0, 0)), Node(1, Point(1, 0))]
        with pytest.raises(ValueError):
            WasnGraph(nodes, {0: (1,), 1: ()}, radius=10)

    def test_self_loop_rejected(self):
        nodes = [Node(0, Point(0, 0))]
        with pytest.raises(ValueError):
            WasnGraph(nodes, {0: (0,)}, radius=10)

    def test_unknown_neighbor_rejected(self):
        nodes = [Node(0, Point(0, 0))]
        with pytest.raises(ValueError):
            WasnGraph(nodes, {0: (9,)}, radius=10)

    def test_missing_adjacency_rejected(self):
        nodes = [Node(0, Point(0, 0)), Node(1, Point(1, 0))]
        with pytest.raises(ValueError):
            WasnGraph(nodes, {0: ()}, radius=10)

    def test_duplicate_edge_rejected(self):
        nodes = [Node(0, Point(0, 0)), Node(1, Point(1, 0))]
        with pytest.raises(ValueError):
            WasnGraph(nodes, {0: (1, 1), 1: (0,)}, radius=10)


class TestQueries:
    def test_distance(self):
        g = build_unit_disk_graph([Point(0, 0), Point(3, 4)], radius=10)
        assert g.distance(0, 1) == pytest.approx(5.0)

    def test_degree_and_average(self):
        g = line_graph(3)
        assert g.degree(0) == 1
        assert g.degree(1) == 2
        assert g.average_degree() == pytest.approx(4 / 3)

    def test_edges_each_once_sorted(self):
        g = line_graph(4)
        assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]

    def test_node_iteration_sorted(self):
        g = line_graph(3)
        assert [n.id for n in g.nodes()] == [0, 1, 2]


class TestConnectivity:
    def test_connected_line(self):
        g = line_graph(5)
        assert g.is_connected()
        assert g.connected_components() == [{0, 1, 2, 3, 4}]

    def test_two_components(self):
        g = build_unit_disk_graph(
            [Point(0, 0), Point(5, 0), Point(100, 0)], radius=10
        )
        comps = g.connected_components()
        assert comps == [{0, 1}, {2}]
        assert not g.is_connected()
        assert g.same_component(0, 1)
        assert not g.same_component(0, 2)

    def test_hop_distance(self):
        g = line_graph(5)
        assert g.hop_distance(0, 4) == 4
        assert g.hop_distance(2, 2) == 0

    def test_hop_distance_disconnected(self):
        g = build_unit_disk_graph([Point(0, 0), Point(100, 0)], radius=10)
        assert g.hop_distance(0, 1) is None

    @given(position_lists)
    @settings(max_examples=30)
    def test_components_partition_nodes(self, positions):
        g = build_unit_disk_graph(positions, radius=25)
        comps = g.connected_components()
        all_nodes = set()
        for comp in comps:
            assert not (all_nodes & comp)
            all_nodes |= comp
        assert all_nodes == set(g.node_ids)


    @given(position_lists, st.sets(st.integers(0, 49), max_size=10))
    @settings(max_examples=30)
    def test_components_match_a_reference_bfs(self, positions, removed):
        # Core-backed (dense ids) and dict-built (sparse ids) graphs.
        full = build_unit_disk_graph(positions, radius=25)
        for g in (full, full.without_nodes(removed)):
            unseen = set(g.node_ids)
            expected = []
            while unseen:
                frontier = [min(unseen)]
                component = set(frontier)
                while frontier:
                    u = frontier.pop()
                    for v in g.neighbors(u):
                        if v not in component:
                            component.add(v)
                            frontier.append(v)
                unseen -= component
                expected.append(component)
            expected.sort(key=lambda c: (-len(c), min(c)))
            assert g.connected_components() == expected


class TestCoreBackedView:
    """A core-backed graph answers its per-node reads from the columns;
    the Node table is built only for node()/nodes()."""

    @pytest.fixture
    def materialised(self, monkeypatch):
        calls = []
        real = WasnGraph._materialise_view

        def spy(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(WasnGraph, "_materialise_view", spy)
        return calls

    def _graphs(self):
        rng = random.Random(5)
        positions = [
            Point(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(80)
        ]
        dense = build_unit_disk_graph(positions, 20.0, edge_ids=(3, 9))
        sparse = build_core(
            {2 * i + 1: p for i, p in enumerate(positions)},
            20.0,
            edge_ids=(7, 19),
        )
        return dense, WasnGraph.from_core(sparse)

    def test_reads_answer_from_the_columns(self, materialised):
        for g in self._graphs():
            core = g.core
            for i, u in enumerate(core.ids):
                p = g.position(u)
                assert (p.x, p.y) == (core.xs[i], core.ys[i])
                assert g.neighbors(u) is core.rows()[i]
                assert g.degree(u) == len(core.rows()[i])
                assert g.is_edge_node(u) == core.edge_flags[i]
                for v in core.ids:
                    assert g.has_edge(u, v) == (v in core.rows()[i])
            assert not g.has_edge(-1, core.ids[0])
            with pytest.raises(KeyError):
                g.position(-1)
            g.connected_components()
            list(g.edges())
        assert materialised == []

    def test_node_table_is_built_on_demand(self, materialised):
        for g in self._graphs():
            positions = [g.position(u) for u in g.node_ids]
            assert materialised == []
            nodes = list(g.nodes())
            assert len(materialised) == 1
            for node, p in zip(nodes, positions):
                assert g.node(node.id) is node
                assert node.position == p
                assert node.position is not p
                assert g.position(node.id) is not g.position(node.id)
            materialised.clear()

    def test_dict_built_graphs_keep_their_objects(self):
        nodes = [Node(0, Point(0.0, 0.0)), Node(1, Point(5.0, 0.0), True)]
        row = (1,)
        g = WasnGraph(nodes, {0: row, 1: (0,)}, radius=10)
        assert g.position(0) is nodes[0].position
        assert g.neighbors(0) is row
        assert g.is_edge_node(1) and not g.is_edge_node(0)


class TestDerivedGraphs:
    def test_without_nodes(self):
        g = line_graph(5)
        g2 = g.without_nodes([2])
        assert 2 not in g2
        assert len(g2) == 4
        assert not g2.has_edge(1, 2)
        assert not g2.same_component(1, 3)
        # original untouched
        assert 2 in g
        assert g.has_edge(1, 2)

    def test_with_edge_nodes(self):
        g = line_graph(3)
        g2 = g.with_edge_nodes([0, 2])
        assert g2.is_edge_node(0)
        assert not g2.is_edge_node(1)
        assert g2.is_edge_node(2)
        assert not g.is_edge_node(0)

    def test_to_networkx(self):
        g = line_graph(3)
        nxg = g.to_networkx()
        assert nxg.number_of_nodes() == 3
        assert nxg.number_of_edges() == 2
        assert nxg.edges[0, 1]["weight"] == pytest.approx(10.0)
        assert nxg.nodes[0]["pos"] == (0.0, 0.0)
