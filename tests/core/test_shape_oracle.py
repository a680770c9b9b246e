"""Differential suite: Algorithm 2's scan on the rotation vs the filter.

:func:`repro.core.compute_shapes` reads each unsafe node's first and
last quadrant neighbours off the ends of a quadrant arc of the
topology's rotation system
(:meth:`~repro.network.core.TopologyCore.rotation`); only rows the
rotation's band flags filter the quadrant and sort it with
``sort_ccw``.  The claim is *bit identity* with the construction that
filtered and sorted every row, kept below verbatim as the oracle.

Every case compares ``ShapeModel.shapes``, items in insertion order and
floats by ``repr`` (so a signed zero counts), for the ``chain`` and
``exact`` modes, on a core whose rotation takes the scalar build and on
one that takes the numpy build (numpy's only where it imports).
Topologies: the paper's IA and FA models; lattices, whose every
neighbour lies on a quadrant axis or a diagonal, with collinear ties at
the larger radius; duplicate positions; sparse ids; hand-built graphs
with unsorted rows (sorted on construction, so their shapes are their
sorted twins'); and dynamic snapshots after failures and restores.  The base seed runs in tier-1; the ``slow``-marked extra
seeds run in the CI ``dynamic-differential`` job, without numpy and
with it.
"""

from __future__ import annotations

import random

import pytest

from repro._optional import load_numpy
from repro.core import ZONE_TYPES, compute_safety, compute_shapes
from repro.core.safety import SafetyModel
from repro.core.shape import (
    _FIRST_CHAIN_IS_HORIZONTAL,
    ShapeInfo,
    ShapeModel,
    _chain_sort_key,
)
from repro.core.zones import (
    ZoneType,
    forwarding_zone_contains,
    quadrant_start_angle,
)
from repro.geometry import Point, Rect
from repro.geometry.angles import sort_ccw
from repro.network import (
    DynamicTopology,
    EdgeDetector,
    WasnGraph,
    build_unit_disk_graph,
)
from repro.network.core import TopologyCore
from repro.network.deployment import (
    deploy_forbidden_area_model,
    deploy_uniform_model,
)
from repro.network.node import Node, NodeId

AREA = Rect(0, 0, 200, 200)
RADIUS = 20.0
BASE_SEED = 2009
#: Extra seeds, run by the CI ``dynamic-differential`` job (``-m slow``).
EXTRA_SEEDS = (2010, 2011)
#: The rotation builds each case runs on: numpy's only where it imports.
BUILDS = ("scalar", "numpy") if load_numpy() is not None else ("scalar",)
MODES = ("chain", "exact")


# -- the oracle: the per-node quadrant filter plus sort_ccw, verbatim -----


def oracle_compute_shapes(
    safety: SafetyModel, mode: str = "chain"
) -> ShapeModel:
    graph = safety.graph
    shapes: dict[ZoneType, dict[NodeId, ShapeInfo]] = {}
    for zone_type in ZONE_TYPES:
        per_node: dict[NodeId, ShapeInfo] = {}
        unsafe = safety.unsafe_nodes(zone_type)
        start_angle = quadrant_start_angle(zone_type)
        ordered = sorted(
            unsafe,
            key=lambda u: (
                -_chain_sort_key(zone_type, graph.position(u)),
                u,
            ),
        )
        for u in ordered:
            pu = graph.position(u)
            in_quadrant = [
                v
                for v in graph.neighbors(u)
                if forwarding_zone_contains(pu, zone_type, graph.position(v))
            ]
            if not in_quadrant:
                first_far = last_far = u
            else:
                scan = sort_ccw(
                    pu, start_angle, in_quadrant, graph.position
                )
                v1, v2 = scan[0], scan[-1]
                # v's record exists unless v coincides with u (degenerate
                # duplicate-position tie) — fall back to v itself then.
                v1_info = per_node.get(v1)
                v2_info = per_node.get(v2)
                first_far = v1_info.first_far if v1_info else v1
                last_far = v2_info.last_far if v2_info else v2

            if mode == "exact":
                # Bounding box of G_i(u): own position joined with the
                # (already computed) boxes of all unsafe quadrant
                # successors.
                rect = Rect.from_corners(pu, pu)
                for v in in_quadrant:
                    v_info = per_node.get(v)
                    if v_info is not None:
                        rect = rect.union_bounds(v_info.rect)
                    else:
                        rect = rect.union_bounds(
                            Rect.from_corners(
                                graph.position(v), graph.position(v)
                            )
                        )
            elif _FIRST_CHAIN_IS_HORIZONTAL[zone_type]:
                corner = Point(
                    graph.position(first_far).x, graph.position(last_far).y
                )
                rect = Rect.from_corners(pu, corner)
            else:
                corner = Point(
                    graph.position(last_far).x, graph.position(first_far).y
                )
                rect = Rect.from_corners(pu, corner)
            per_node[u] = ShapeInfo(
                node=u,
                zone_type=zone_type,
                first_far=first_far,
                last_far=last_far,
                rect=rect,
            )
        shapes[zone_type] = per_node
    return ShapeModel(graph=graph, safety=safety, shapes=shapes)


# -- helpers ---------------------------------------------------------------


def on_build(graph: WasnGraph, build: str) -> WasnGraph:
    """``graph`` over a fresh core whose rotation takes ``build``."""
    core = graph.core
    fresh = TopologyCore(
        core.ids,
        core.xs,
        core.ys,
        core.radius,
        core.edge_flags,
        core.rows(),
        backend=build,
    )
    return WasnGraph.from_core(fresh)


def items(shapes: ShapeModel) -> list[tuple[ZoneType, list[str]]]:
    """Every record in insertion order, floats by ``repr``."""
    return [
        (zone_type, [repr(item) for item in per_node.items()])
        for zone_type, per_node in shapes.shapes.items()
    ]


def assert_identical(graph: WasnGraph) -> int:
    """Both constructions agree on ``graph`` in both modes, on every
    rotation build; returns the number of shape records compared."""
    records = 0
    for build in BUILDS:
        safety = compute_safety(on_build(graph, build))
        for mode in MODES:
            expected = oracle_compute_shapes(safety, mode)
            assert items(compute_shapes(safety, mode)) == items(expected)
            records += sum(len(per) for per in expected.shapes.values())
    return records


def with_edges(graph: WasnGraph) -> WasnGraph:
    """The paper's setting: hull nodes are edge nodes (always safe)."""
    return EdgeDetector(strategy="convex").apply(graph)


def paper_positions(model: str, n: int, seed: int) -> list[Point]:
    rng = random.Random(seed)
    if model == "FA":
        return list(deploy_forbidden_area_model(n, AREA, rng).positions)
    return list(deploy_uniform_model(n, AREA, rng).positions)


def grid_positions(n=10, spacing=10.0, hole=range(3, 7)) -> list[Point]:
    return [
        Point(i * spacing, j * spacing)
        for j in range(n)
        for i in range(n)
        if not (i in hole and j in hole)
    ]


def _paper_cases(seeds):
    return [
        pytest.param(model, n, seed, id=f"{model}-{n}-seed{seed}")
        for seed in seeds
        for model in ("IA", "FA")
        for n in (400, 800)
    ]


# -- the paper's deployments -----------------------------------------------


@pytest.mark.parametrize("model,n,seed", _paper_cases((BASE_SEED,)))
def test_paper_models(model, n, seed):
    graph = with_edges(
        build_unit_disk_graph(paper_positions(model, n, seed), RADIUS)
    )
    assert assert_identical(graph) > 100


@pytest.mark.slow
@pytest.mark.parametrize("model,n,seed", _paper_cases(EXTRA_SEEDS))
def test_paper_models_extra_seeds(model, n, seed):
    graph = with_edges(
        build_unit_disk_graph(paper_positions(model, n, seed), RADIUS)
    )
    assert_identical(graph)


# -- degenerate geometry ---------------------------------------------------


@pytest.mark.parametrize(
    "lattice,radius",
    [("pocket", 15.0), ("hole", 15.0), ("hole", 25.0)],
)
def test_lattice_neighbours_on_the_axes(lattice, radius):
    # Every lattice neighbour lies on a quadrant axis or a diagonal, so
    # every row is flagged; at r = 25 collinear neighbours also tie.
    if lattice == "pocket":
        # Hull edge nodes, and a pocket behind an L-shaped wall that
        # type-1 forwarding cannot leave.
        wall = {(6, j) for j in range(2, 7)} | {(i, 6) for i in range(2, 7)}
        positions = [
            Point(10.0 * i, 10.0 * j)
            for j in range(12)
            for i in range(12)
            if (i, j) not in wall
        ]
        graph = with_edges(build_unit_disk_graph(positions, radius))
    else:
        # No edge nodes: every node ends up unsafe in every type.
        graph = build_unit_disk_graph(grid_positions(), radius)
    rotation = graph.core.rotation()
    assert all(rotation.band)
    assert assert_identical(graph) > 20


@pytest.mark.parametrize("base", ["grid", "IA"])
def test_duplicate_positions(base):
    if base == "grid":
        positions = grid_positions() + [Point(90.0, 50.0), Point(-0.0, 40.0)]
        radius = 15.0
    else:
        positions = paper_positions("IA", 300, BASE_SEED)
        radius = RADIUS
    rng = random.Random(BASE_SEED)
    positions += rng.sample(positions, 12)
    graph = build_unit_disk_graph(positions, radius)
    for g in (graph, with_edges(graph)):
        assert_identical(g)


def test_sparse_ids():
    full = build_unit_disk_graph(paper_positions("FA", 400, BASE_SEED), RADIUS)
    rng = random.Random(BASE_SEED)
    graph = with_edges(full.without_nodes(rng.sample(full.node_ids, 60)))
    assert not graph.core.dense
    assert assert_identical(graph) > 100


@pytest.mark.parametrize("base", ["grid", "IA"])
def test_hand_built_graph_with_unsorted_rows(base):
    """Unsorted input rows are sorted on construction, so the graph has
    a core and its shapes are its sorted twin's."""
    if base == "grid":
        full = build_unit_disk_graph(grid_positions(), 25.0)
    else:
        full = build_unit_disk_graph(
            paper_positions("IA", 300, BASE_SEED), RADIUS
        )
    # The lattice keeps no edge nodes, so that its nodes are unsafe.
    edged = with_edges(full) if base == "IA" else full
    edge_nodes = {u for u in full.node_ids if edged.is_edge_node(u)}
    ids = {u: 3 * u + 5 for u in full.node_ids}
    nodes = [
        Node(ids[u], full.position(u), u in edge_nodes)
        for u in full.node_ids
    ]
    rows = {
        ids[u]: tuple(ids[v] for v in full.neighbors(u))
        for u in full.node_ids
    }
    graph = WasnGraph(
        nodes, {u: row[::-1] for u, row in rows.items()}, full.radius
    )
    twin = WasnGraph(nodes, rows, full.radius)
    assert all(graph.neighbors(u) == twin.neighbors(u) for u in rows)
    assert assert_identical(graph) > 100
    for mode in MODES:
        assert items(compute_shapes(compute_safety(graph), mode)) == items(
            compute_shapes(compute_safety(twin), mode)
        )


def _dynamic_case(seed: int, events: int) -> None:
    positions = paper_positions("IA", 300, seed)
    topology = DynamicTopology(
        positions, RADIUS, edge_detector=EdgeDetector(strategy="convex")
    )
    rng = random.Random(seed)
    assert_identical(topology.graph)
    for _ in range(events):
        down = list(topology.down_ids)
        if down and rng.random() < 0.4:
            topology.restore_many(rng.sample(down, min(len(down), 5)))
        else:
            topology.fail_many(rng.sample(list(topology.alive_ids), 15))
        assert_identical(topology.graph)
    assert topology.down_ids


def test_dynamic_snapshots_after_fail_and_restore():
    _dynamic_case(BASE_SEED, 4)


@pytest.mark.slow
@pytest.mark.parametrize("seed", EXTRA_SEEDS)
def test_dynamic_snapshots_extra_seeds(seed):
    _dynamic_case(seed, 12)
