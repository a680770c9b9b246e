"""Differential suite: BOUNDHOLE on the rotation system vs the object walker.

:mod:`repro.protocols.boundhole` runs TENT, the widest-gap choice and
the rim walks on the topology's rotation system
(:meth:`~repro.network.core.TopologyCore.rotation`: each node's
neighbours sorted by angle): a right-hand step is one lookup in the
next node's angular order, and only rows the rotation's band flags
re-run the scalar ``first_hit_cw`` sweep.  With numpy the walks are
not stepped but answered on the faces of that successor map
(:func:`repro.network.construct.face_orbits`), unless the map is not a
bijection.  The claim is *bit identity* with the object-path walker
that re-swept every neighbour through ``first_hit_cw`` at every step.
That walker is kept below, verbatim, as the oracle.

Every case compares the stuck-node sets, the boundary tuples, and the
node → boundary map with its items in insertion order, once on a core
whose construction backend is scalar (the rotation's scalar build and
the stepped walks) and once on one whose backend is numpy (the numpy
rotation build and the face orbits; numpy's only where it imports),
and pins every rotation column equal across the two builds.
Topologies: the paper's IA and FA models at three densities; a grid
with a hole (exact angle ties between collinear neighbours); duplicate
positions; neighbours nudged with ``math.nextafter`` to sit just
inside and just outside the rotation's defect band and the sweep's
exclusion epsilon; neighbours exactly on each quadrant axis and one
ulp off it; TENT gaps within one ulp of 120°; single-neighbour and
isolated nodes; NaN positions; sparse ids; a hand-built graph with
unsorted rows (sorted on construction, so it builds like its sorted
twin); dynamic snapshots after failures and restores; step budgets
small enough that walks run out, and one step either side of a ring's
walk; and a walk that closes at its first return to a node its
boundary passes twice.  More tests pin the rotation's own contract:
rows sorted by angle with the documented flags, arcs and stuck slots,
an angle column that is the routers' sweep angle (within an ulp on
the numpy build), and on every unflagged row the cyclic predecessor
equals the scalar sweep and each quadrant's arc equals the sorted
quadrant filter; and
a spy shows the numpy build reaching both the orbit path and its
fallback.  Base seeds run in tier-1; the ``slow``-marked extra seeds
run in the CI ``dynamic-differential`` job, without numpy and with it.
"""

from __future__ import annotations

import math
import random

import pytest

from repro._optional import load_numpy
from repro.core.zones import (
    ZONE_TYPES,
    forwarding_zone_contains,
    quadrant_start_angle,
)
from repro.geometry import Point, Rect
from repro.geometry.angles import (
    angle_of,
    ccw_angle_distance,
    first_hit_cw,
    sort_ccw,
)
from repro.network import DynamicTopology, WasnGraph, build_unit_disk_graph
from repro.network.core import TopologyCore
from repro.network.deployment import (
    deploy_forbidden_area_model,
    deploy_uniform_model,
)
from repro.network.node import Node, NodeId
from repro.network.rotation import rotation_of
from repro.protocols import boundhole
from repro.protocols.boundhole import (
    HoleBoundarySet,
    build_hole_boundaries,
    tent_stuck_nodes,
)
from repro.routing.batch import _norm

AREA = Rect(0, 0, 200, 200)
RADIUS = 20.0
BASE_SEED = 2009
#: Extra seeds, run by the CI ``dynamic-differential`` job (``-m slow``).
EXTRA_SEEDS = (7, 23, 91)
#: The rotation builds each case runs on: numpy's only where it imports.
BUILDS = ("scalar", "numpy") if load_numpy() is not None else ("scalar",)


# -- the oracle: the object-path walker, verbatim --------------------------

_TENT_GAP = 2.0 * math.pi / 3.0


def oracle_tent_stuck_nodes(graph: WasnGraph) -> set[NodeId]:
    stuck: set[NodeId] = set()
    for u in graph.node_ids:
        neighbors = graph.neighbors(u)
        if not neighbors:
            continue
        pu = graph.position(u)
        angles = sorted(angle_of(pu, graph.position(v)) for v in neighbors)
        worst = 0.0
        for i, current in enumerate(angles):
            following = angles[(i + 1) % len(angles)]
            gap = ccw_angle_distance(current, following)
            if len(angles) == 1:
                gap = math.tau
            worst = max(worst, gap)
        if worst > _TENT_GAP:
            stuck.add(u)
    return stuck


def _widest_gap_edges(
    graph: WasnGraph, u: NodeId
) -> tuple[NodeId, NodeId] | None:
    neighbors = graph.neighbors(u)
    if not neighbors:
        return None
    pu = graph.position(u)
    ordered = sorted(
        neighbors, key=lambda v: angle_of(pu, graph.position(v))
    )
    if len(ordered) == 1:
        return (ordered[0], ordered[0])
    best: tuple[NodeId, NodeId] | None = None
    best_gap = -1.0
    for i, v in enumerate(ordered):
        w = ordered[(i + 1) % len(ordered)]
        gap = ccw_angle_distance(
            angle_of(pu, graph.position(v)), angle_of(pu, graph.position(w))
        )
        if gap > best_gap:
            best_gap = gap
            best = (v, w)
    return best


def _trace_boundary(
    graph: WasnGraph, start: NodeId, max_steps: int
) -> tuple[NodeId, ...] | None:
    gap = _widest_gap_edges(graph, start)
    if gap is None:
        return None
    prev, current = start, gap[0]
    walk = [start, current]
    seen_edges = {(start, current)}
    for _ in range(max_steps):
        if current == start:
            return tuple(walk[:-1])  # closed: drop the repeated start
        pc = graph.position(current)
        neighbors = graph.neighbors(current)
        nxt = first_hit_cw(
            pc,
            angle_of(pc, graph.position(prev)),
            neighbors,
            graph.position,
            exclusive=True,
        )
        if nxt is None:
            # Degenerate single-neighbour dead end: bounce back.
            nxt = prev
        edge = (current, nxt)
        if edge in seen_edges:
            return None  # walk trapped in a sub-cycle missing start
        seen_edges.add(edge)
        walk.append(nxt)
        prev, current = current, nxt
    return None


def oracle_build_hole_boundaries(
    graph: WasnGraph, max_steps_factor: float = 4.0
) -> HoleBoundarySet:
    stuck = oracle_tent_stuck_nodes(graph)
    max_steps = max(16, int(max_steps_factor * len(graph)))
    boundaries: list[tuple[NodeId, ...]] = []
    by_node: dict[NodeId, int] = {}
    for start in sorted(stuck):
        if start in by_node:
            continue
        cycle = _trace_boundary(graph, start, max_steps)
        if cycle is None:
            continue
        index = len(boundaries)
        boundaries.append(cycle)
        for node in cycle:
            by_node.setdefault(node, index)
    return HoleBoundarySet(boundaries=tuple(boundaries), _by_node=by_node)


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


def rotation_columns(graph: WasnGraph) -> tuple:
    """Every column of ``graph``'s rotation, in comparable form."""
    rotation = rotation_of(graph)
    return (
        rotation.ids,
        list(rotation.indptr),
        list(rotation.head),
        rotation.band,
        list(rotation.arcs),
        list(rotation.stuck),
    )


def assert_builds_agree(graph: WasnGraph) -> list[WasnGraph]:
    """``graph`` on each build, whose rotation columns are all equal."""
    graphs = [on_build(graph, build) for build in BUILDS]
    columns = [rotation_columns(g) for g in graphs]
    assert all(c == columns[0] for c in columns[1:])
    assert rotation_columns(graph) == columns[0]
    return graphs


def assert_identical(
    graph: WasnGraph, max_steps_factor: float = 4.0
) -> HoleBoundarySet:
    """Both implementations agree on ``graph``, on every rotation build;
    returns the oracle's set."""
    stuck = oracle_tent_stuck_nodes(graph)
    expected = oracle_build_hole_boundaries(graph, max_steps_factor)
    for built in assert_builds_agree(graph):
        assert tent_stuck_nodes(built) == stuck
        actual = build_hole_boundaries(built, max_steps_factor)
        assert actual.boundaries == expected.boundaries
        assert list(actual._by_node.items()) == list(
            expected._by_node.items()
        )
    return expected


def paper_positions(model: str, n: int, seed: int) -> list[Point]:
    rng = random.Random(seed)
    if model == "FA":
        return list(deploy_forbidden_area_model(n, AREA, rng).positions)
    return list(deploy_uniform_model(n, AREA, rng).positions)


def turned(x: float, y: float, angle: float) -> Point:
    """``(x, y)`` turned counter-clockwise about the origin."""
    c, s = math.cos(angle), math.sin(angle)
    return Point(x * c - y * s, x * s + y * c)


def grid_positions(
    n=10, spacing=10.0, hole=range(3, 7), angle=0.0
) -> list[Point]:
    """A lattice with a square hole, turned by ``angle`` (at 0 every
    neighbour of a lattice node lies on a quadrant axis or a
    diagonal)."""
    return [
        turned(i * spacing, j * spacing, angle)
        for j in range(n)
        for i in range(n)
        if not (i in hole and j in hole)
    ]


def flagged_ids(graph: WasnGraph) -> set[NodeId]:
    rotation = rotation_of(graph)
    return {u for u, flag in zip(rotation.ids, rotation.band) if flag}


_AXES = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)
_AXIS_STEPS = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))


def _axis_offset(c: Point, q: Point, k: int, side: float) -> float:
    """How far the angle of ``c -> q`` lies from axis ``k``, on the
    counter-clockwise (``side`` > 0) or clockwise side, computed as the
    rotation's band test computes it."""
    angle = angle_of(c, q)
    if k == 0 and side < 0:
        return math.tau - angle
    return abs(angle - _AXES[k])


def off_axis(c: Point, k: int, side: float, inside: bool) -> Point:
    """A neighbour 10 from ``c`` beside quadrant axis ``k`` whose
    offset from the axis is the last step within the rotation's 1e-9
    band (inside) or the first step past it (outside)."""
    ex, ey = _AXIS_STEPS[k]
    px, py = -ey * side, ex * side

    def at(t: float) -> Point:
        return Point(c.x + 10.0 * ex + t * px, c.y + 10.0 * ey + t * py)

    lo, hi = 0.0, 1e-6
    while math.nextafter(lo, math.inf) < hi:
        mid = (lo + hi) / 2.0
        if _axis_offset(c, at(mid), k, side) <= 1e-9:
            lo = mid
        else:
            hi = mid
    return at(lo if inside else hi)


#: Per quadrant axis, how each star's probe neighbour sits: exactly on
#: the axis, one coordinate ulp off it either way, or just inside or
#: just outside the band on either side.  Only the last leave the
#: centre's row unflagged.
AXIS_PROBES = ("on", "ulp-up", "ulp-down") + tuple(
    f"{where}-{'ccw' if side > 0 else 'cw'}"
    for side in (1.0, -1.0)
    for where in ("inside", "outside")
)


def axis_star_positions() -> tuple[list[Point], dict[int, tuple[int, str]]]:
    """Stars whose centres each hold one probe neighbour near a
    quadrant axis (:data:`AXIS_PROBES`) plus four neighbours at generic
    angles, one per quadrant; returns the positions and, per centre
    index, its axis and probe."""
    positions: list[Point] = []
    centres: dict[int, tuple[int, str]] = {}
    for k in range(4):
        for j, probe in enumerate(AXIS_PROBES):
            c = Point(60.0 * j, 60.0 * k)
            centres[len(positions)] = (k, probe)
            positions.append(c)
            ex, ey = _AXIS_STEPS[k]
            on = Point(c.x + 10.0 * ex, c.y + 10.0 * ey)
            if probe == "on":
                positions.append(on)
            elif probe.startswith("ulp"):
                toward = math.inf if probe == "ulp-up" else -math.inf
                positions.append(
                    Point(
                        math.nextafter(on.x, toward) if ey else on.x,
                        math.nextafter(on.y, toward) if ex else on.y,
                    )
                )
            else:
                where, hand = probe.split("-")
                side = 1.0 if hand == "ccw" else -1.0
                positions.append(off_axis(c, k, side, where == "inside"))
            for theta in (0.7, 2.3, 3.9, 5.5):
                positions.append(
                    Point(
                        c.x + 9.0 * math.cos(theta),
                        c.y + 9.0 * math.sin(theta),
                    )
                )
    return positions, centres


def _paper_cases(seeds):
    return [
        pytest.param(model, n, seed, id=f"{model}-{n}-seed{seed}")
        for seed in seeds
        for model in ("IA", "FA")
        for n in (300, 500, 800)
    ]


# -- the paper's deployments -----------------------------------------------


@pytest.mark.parametrize("model,n,seed", _paper_cases((BASE_SEED,)))
def test_paper_models(model, n, seed):
    graph = build_unit_disk_graph(paper_positions(model, n, seed), RADIUS)
    expected = assert_identical(graph)
    assert len(expected) > 0


@pytest.mark.slow
@pytest.mark.parametrize("model,n,seed", _paper_cases(EXTRA_SEEDS))
def test_paper_models_extra_seeds(model, n, seed):
    graph = build_unit_disk_graph(paper_positions(model, n, seed), RADIUS)
    assert_identical(graph)


# -- degenerate geometry ---------------------------------------------------


@pytest.mark.parametrize("radius", [15.0, 25.0])
def test_grid_with_hole(radius):
    # At r = 25 each node sees collinear neighbours 10 and 20 away on
    # the same ray: exact angle ties, decided by distance.
    graph = build_unit_disk_graph(grid_positions(), radius)
    expected = assert_identical(graph)
    assert len(expected) > 0
    if radius > 20.0:
        assert flagged_ids(graph)


def duplicate_positions_graph(base: str) -> WasnGraph:
    """A grid with a hole or an IA network, with 12 nodes doubled."""
    if base == "grid":
        # Hull nodes whose twin is the only neighbour at angle 0 (east
        # edge) or, through a negative zero, at angle pi (west edge).
        positions = grid_positions() + [Point(90.0, 50.0), Point(-0.0, 40.0)]
        radius = 15.0
    else:
        positions = paper_positions("IA", 300, BASE_SEED)
        radius = RADIUS
    rng = random.Random(BASE_SEED)
    positions += rng.sample(positions, 12)
    return build_unit_disk_graph(positions, radius)


@pytest.mark.parametrize("base", ["grid", "IA"])
def test_duplicate_positions(base):
    graph = duplicate_positions_graph(base)
    duplicated = {
        u for u in graph.node_ids
        if any(
            graph.position(v) == graph.position(u) for v in graph.neighbors(u)
        )
    }
    assert len(duplicated) >= 24
    assert duplicated <= flagged_ids(graph)
    assert_identical(graph)


@pytest.mark.parametrize("side", [-1.0, 1.0], ids=["west", "east"])
def test_negative_zero_twin_on_a_ring(side):
    """A ring node at x = 0 with a twin at x = -0.0: seen from the node,
    the twin sits at angle pi, and no other neighbour at 0 or pi."""
    centre = -30.0 * side
    positions = [
        Point(
            centre + 30.0 * math.cos(k * math.pi / 12),
            30.0 * math.sin(k * math.pi / 12),
        )
        for k in range(24)
    ]
    node = 12 if side < 0 else 0  # the ring's point nearest x = 0
    positions[node] = Point(0.0, 0.0)
    positions.append(Point(-0.0, 0.0))
    graph = build_unit_disk_graph(positions, 10.0)
    origin = graph.position(node)
    row = [angle_of(origin, graph.position(v)) for v in graph.neighbors(node)]
    assert math.pi in row and 0.0 not in row
    assert node in flagged_ids(graph)
    assert_identical(graph)


def _nudged_neighbour(u: Point, v: Point, gap: float, inside: bool) -> Point:
    """A point beside ``v``, counter-clockwise as seen from ``u``, whose
    angle from ``u`` exceeds ``angle_of(u, v)`` by at most ``gap``
    (inside) or by the least step past that (outside)."""
    dx, dy = v.x - u.x, v.y - u.y
    length = math.hypot(dx, dy)
    px, py = -dy / length, dx / length
    base = angle_of(u, v)

    def at(t: float) -> Point:
        return Point(v.x + t * px, v.y + t * py)

    lo, hi = 0.0, 100.0 * gap * length
    while math.nextafter(lo, math.inf) < hi:
        mid = (lo + hi) / 2.0
        if ccw_angle_distance(base, angle_of(u, at(mid))) <= gap:
            lo = mid
        else:
            hi = mid
    return at(lo if inside else hi)


#: The grid below is turned by this angle, so that no lattice neighbour
#: lies on a quadrant axis (those rows would be flagged whatever the
#: nudge).
_TURN = 0.3


@pytest.mark.parametrize("inside", [True, False], ids=["inside", "outside"])
@pytest.mark.parametrize(
    "gap", [1e-9, 1e-12], ids=["rotation-band", "sweep-epsilon"]
)
def test_neighbours_nudged_across_the_band(gap, inside):
    positions = grid_positions(angle=_TURN)
    # Boundary nodes with their (turned) eastern neighbour on the same
    # boundary: on the hole's south and north rims (walked eastward and
    # westward) and on the hull.
    pairs = [
        (turned(ux, uy, _TURN), turned(vx, vy, _TURN))
        for (ux, uy), (vx, vy) in (
            ((30.0, 20.0), (40.0, 20.0)),
            ((30.0, 70.0), (40.0, 70.0)),
            ((10.0, 0.0), (20.0, 0.0)),
        )
    ]
    for u, v in pairs:
        positions.append(_nudged_neighbour(u, v, gap, inside))
    graph = build_unit_disk_graph(positions, 15.0)
    flagged = flagged_ids(graph)
    expected = assert_identical(graph)
    on_boundaries = expected.nodes_on_boundaries()
    for u, _ in pairs:
        node = positions.index(u)
        assert node in on_boundaries
        # Only a nudge outside the 1e-9 band leaves the row decided by
        # the rotation alone.
        assert (node in flagged) == (inside or gap < 1e-9)


def test_neighbours_on_and_off_the_quadrant_axes():
    """A neighbour on a quadrant axis, one ulp off it, or inside the
    band around it flags its row; one just outside the band does not."""
    positions, centres = axis_star_positions()
    graph = build_unit_disk_graph(positions, 11.0)
    flagged = flagged_ids(graph)
    for centre, (k, probe) in centres.items():
        assert (centre in flagged) == (not probe.startswith("outside")), (
            k,
            probe,
        )
    assert_identical(graph)


def test_tent_gap_within_one_ulp_of_120_degrees():
    """Star centres whose widest gap is 120° to the last bit, one ulp
    below, or one ulp above: only the last one is stuck."""
    targets = [
        math.nextafter(_TENT_GAP, -math.inf),
        _TENT_GAP,
        math.nextafter(_TENT_GAP, math.inf),
    ]
    positions: list[Point] = []
    centres = []
    for k, target in enumerate(targets):
        c = Point(100.0 * k, 0.0)
        centres.append(len(positions))
        positions.append(c)
        positions.append(Point(c.x + 10.0, 0.0))  # angle exactly 0
        # Step y (one ulp moves the angle by less than an ulp) until
        # the second neighbour's angle is the target exactly.
        x = c.x - 5.0
        y = 10.0 * math.sin(target)
        while angle_of(c, Point(x, y)) != target:
            step = math.inf if angle_of(c, Point(x, y)) > target else -math.inf
            y = math.nextafter(y, step)
        positions.append(Point(x, y))
        rest = (math.tau - target) / 3.0
        for m in (1, 2):
            theta = target + m * rest
            positions.append(
                Point(c.x + 10.0 * math.cos(theta), 10.0 * math.sin(theta))
            )
    graph = build_unit_disk_graph(positions, 11.0)
    stuck = oracle_tent_stuck_nodes(graph)
    assert [c in stuck for c in centres] == [False, False, True]
    assert_identical(graph)


def test_single_neighbour_and_isolated_nodes():
    positions = grid_positions(n=6, hole=range(2, 4))
    positions += [
        Point(-8.0, 0.0),  # pendant on the grid corner
        Point(100.0, 100.0),  # isolated
        Point(150.0, 150.0),  # an isolated pair...
        Point(155.0, 150.0),
        # ...and a three-node path, walked first from its middle node,
        # whose two gaps tie at exactly pi (the first one wins).
        Point(-40.0, 25.0),
        Point(-50.0, 25.0),
        Point(-30.0, 25.0),
    ]
    graph = build_unit_disk_graph(positions, 12.0)
    degrees = {graph.degree(u) for u in graph.node_ids}
    assert {0, 1} <= degrees
    assert_identical(graph)


@pytest.mark.parametrize(
    "hidden",
    [(20.0, 40.0), (30.0, 20.0), (0.0, 0.0), (-8.0, -8.0), (155.0, 150.0)],
)
def test_nan_position(hidden):
    """A node whose position turned NaN after the graph was built: its
    angle sorts wherever NaN comparisons leave it, and every row that
    holds it is flagged, single-neighbour rows included (a pendant on
    the grid corner, and either end of an isolated pair)."""
    positions = grid_positions() + [
        Point(-8.0, -8.0),  # pendant on the grid corner
        Point(150.0, 150.0),  # an isolated pair
        Point(155.0, 150.0),
    ]
    base = build_unit_disk_graph(positions, 15.0)
    lost = positions.index(Point(*hidden))
    nodes = [
        Node(u, Point(math.nan, 0.0) if u == lost else base.position(u))
        for u in base.node_ids
    ]
    adjacency = {u: base.neighbors(u) for u in base.node_ids}
    graph = WasnGraph(nodes, adjacency, 15.0)
    assert {lost, *graph.neighbors(lost)} <= flagged_ids(graph)
    if hidden[0] < 0.0 or hidden[0] > 100.0:
        assert graph.degree(lost) == 1
    assert_identical(graph)


# -- the rotation's own contract -------------------------------------------


def _contract_cases():
    return [
        pytest.param(model, sparse, id=f"{model}{'-sparse' if sparse else ''}")
        for model in ("IA", "FA")
        for sparse in (False, True)
    ]


def _contract_graph(model: str, sparse: bool) -> WasnGraph:
    graph = build_unit_disk_graph(
        paper_positions(model, 400, BASE_SEED), RADIUS
    )
    if sparse:
        # Sparse ids: the rotation holds indices, not ids.
        graph = graph.without_nodes(range(0, 400, 7))
    return graph


#: The quadrant axes as the band test sees them, 2*pi included.
_BAND_AXES = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2, math.tau)


@pytest.mark.parametrize("model,sparse", _contract_cases())
def test_rotation_rows_sorted_by_angle_and_flags(model, sparse):
    """Every column of ``core.rotation()``, row by row, on each build."""
    graph = _contract_graph(model, sparse)
    stuck = oracle_tent_stuck_nodes(graph)
    for built in assert_builds_agree(graph):
        rotation = built.core.rotation()
        ids = rotation.ids
        assert list(ids) == graph.node_ids
        for i, u in enumerate(ids):
            pu = graph.position(u)
            row = graph.neighbors(u)
            ordered = sorted(
                row, key=lambda v: angle_of(pu, graph.position(v))
            )
            lo, hi = rotation.indptr[i], rotation.indptr[i + 1]
            assert [ids[rotation.head[j]] for j in range(lo, hi)] == ordered
            angles = [angle_of(pu, graph.position(v)) for v in ordered]
            # A single neighbour's gap to itself is 0: always flagged.
            tight = any(
                not ccw_angle_distance(a, b) > 1e-9
                for a, b in zip(angles, angles[1:] + angles[:1])
            )
            coincident = any(graph.position(v) == pu for v in row)
            on_axis = any(
                abs(a - axis) <= 1e-9 for a in angles for axis in _BAND_AXES
            )
            assert rotation.band[i] == (tight or coincident or on_axis)
            assert list(rotation.arcs[4 * i : 4 * i + 4]) == [
                lo + sum(a < quadrant_start_angle(k) for a in angles)
                for k in ZONE_TYPES
            ]
            if u in stuck:
                widest = _widest_gap_edges(graph, u)
                assert ids[rotation.head[rotation.stuck[i]]] == widest[0]
            else:
                assert rotation.stuck[i] == -1


@pytest.mark.parametrize("model,sparse", _contract_cases())
def test_unflagged_rows_decide_the_clockwise_sweep(model, sparse):
    """In an unflagged row, the first neighbour clockwise from any
    neighbour is its cyclic predecessor in the rotation."""
    graph = _contract_graph(model, sparse)
    rotation = graph.core.rotation()
    ids = rotation.ids
    checked = 0
    for i, u in enumerate(ids):
        if rotation.band[i]:
            continue
        pu = graph.position(u)
        lo, hi = rotation.indptr[i], rotation.indptr[i + 1]
        ring = [ids[rotation.head[j]] for j in range(lo, hi)]
        for slot, v in enumerate(ring):
            swept = first_hit_cw(
                pu,
                angle_of(pu, graph.position(v)),
                graph.neighbors(u),
                graph.position,
                exclusive=True,
            )
            assert swept == ring[slot - 1]
            checked += 1
    assert checked > 1000


def _scan_cases():
    return _contract_cases() + [
        pytest.param("axis-stars", False, id="axis-stars"),
        pytest.param("turned-grid", False, id="turned-grid"),
    ]


@pytest.mark.parametrize("model,sparse", _scan_cases())
def test_unflagged_rows_decide_the_quadrant_scan(model, sparse):
    """In an unflagged row, quadrant ``k``'s arc is the row's ``Q_k``
    filter sorted counter-clockwise from the quadrant's start angle."""
    if model == "axis-stars":
        graph = build_unit_disk_graph(axis_star_positions()[0], 11.0)
    elif model == "turned-grid":
        graph = build_unit_disk_graph(grid_positions(angle=_TURN), 15.0)
    else:
        graph = _contract_graph(model, sparse)
    rotation = graph.core.rotation()
    ids = rotation.ids
    checked = 0
    for i, u in enumerate(ids):
        if rotation.band[i]:
            continue
        pu = graph.position(u)
        for k in ZONE_TYPES:
            lo = rotation.arcs[4 * i + k - 1]
            hi = rotation.arcs[4 * i + k] if k < 4 else rotation.indptr[i + 1]
            members = [
                v
                for v in graph.neighbors(u)
                if forwarding_zone_contains(pu, k, graph.position(v))
            ]
            scan = sort_ccw(
                pu, quadrant_start_angle(k), members, graph.position
            )
            assert [ids[rotation.head[j]] for j in range(lo, hi)] == scan
            checked += 1
    assert checked > 50


@pytest.mark.parametrize("model,sparse", _scan_cases())
def test_rotation_angles_are_the_sweep_angles(model, sparse):
    """The scalar build's angle column is the routers' sweep angle,
    ``_norm(atan2(...))``, slot for slot.  The numpy build's lies within
    an ulp of it and ascends per row; a row it recomputes (every flagged
    row) carries the scalar angles exactly."""
    if model == "axis-stars":
        graph = build_unit_disk_graph(axis_star_positions()[0], 11.0)
    elif model == "turned-grid":
        graph = build_unit_disk_graph(grid_positions(angle=_TURN), 15.0)
    else:
        graph = _contract_graph(model, sparse)
    scalar = on_build(graph, "scalar").core.rotation()
    xs, ys = graph.core.xs, graph.core.ys
    expected = []
    for i in range(len(scalar.ids)):
        for j in range(scalar.indptr[i], scalar.indptr[i + 1]):
            v = scalar.head[j]
            expected.append(_norm(math.atan2(ys[v] - ys[i], xs[v] - xs[i])))
    assert list(map(repr, scalar.angles)) == list(map(repr, expected))
    if len(BUILDS) < 2:
        return
    built = on_build(graph, "numpy").core.rotation()
    assert len(built.angles) == len(expected)
    for i in range(len(built.ids)):
        lo, hi = built.indptr[i], built.indptr[i + 1]
        row = built.angles[lo:hi]
        assert all(a <= b for a, b in zip(row, row[1:]))
        if built.band[i]:
            assert row == scalar.angles[lo:hi]
        for a, e in zip(row, expected[lo:hi]):
            assert abs(a - e) <= math.ulp(e)


# -- graph shapes ----------------------------------------------------------


def test_sparse_ids():
    full = build_unit_disk_graph(
        paper_positions("FA", 400, BASE_SEED), RADIUS
    )
    rng = random.Random(BASE_SEED)
    graph = full.without_nodes(rng.sample(full.node_ids, 60))
    assert not graph.core.dense
    assert_identical(graph)


@pytest.mark.parametrize("radius", [15.0, 25.0])
def test_hand_built_graph_with_unsorted_rows(radius):
    """Unsorted input rows are sorted on construction, so the graph has
    a core and builds its sorted twin's boundaries, exact angle ties
    (r = 25) included."""
    base = build_unit_disk_graph(grid_positions(), radius)
    ids = {u: 3 * u + 5 for u in base.node_ids}
    nodes = [Node(ids[u], base.position(u)) for u in base.node_ids]
    rows = {
        ids[u]: tuple(ids[v] for v in base.neighbors(u))
        for u in base.node_ids
    }
    graph = WasnGraph(
        nodes, {u: row[::-1] for u, row in rows.items()}, radius
    )
    twin = WasnGraph(nodes, rows, radius)
    assert all(graph.neighbors(u) == twin.neighbors(u) for u in rows)
    expected = assert_identical(twin)
    actual = assert_identical(graph)
    assert actual.boundaries == expected.boundaries
    assert list(actual._by_node.items()) == list(expected._by_node.items())


def _dynamic_case(seed: int, events: int) -> None:
    positions = paper_positions("IA", 300, seed)
    topology = DynamicTopology(positions, RADIUS)
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
    _dynamic_case(BASE_SEED, 6)


@pytest.mark.slow
@pytest.mark.parametrize("seed", EXTRA_SEEDS)
def test_dynamic_snapshots_extra_seeds(seed):
    _dynamic_case(seed, 20)


# -- step budgets ----------------------------------------------------------


def _budget_case(model: str, seed: int) -> None:
    graph = build_unit_disk_graph(paper_positions(model, 300, seed), RADIUS)
    for factor in (0.0, 0.02, 0.1, 0.5):
        assert_identical(graph, max_steps_factor=factor)
    # The smallest budget (16 steps) cuts walks that the default closes.
    stuck = sorted(oracle_tent_stuck_nodes(graph))
    assert any(
        _trace_boundary(graph, s, 16) is None
        and _trace_boundary(graph, s, 4 * len(graph)) is not None
        for s in stuck
    )


@pytest.mark.parametrize("model", ["IA", "FA"])
def test_small_step_budgets(model):
    _budget_case(model, BASE_SEED)


@pytest.mark.slow
@pytest.mark.parametrize("seed", EXTRA_SEEDS)
@pytest.mark.parametrize("model", ["IA", "FA"])
def test_small_step_budgets_extra_seeds(model, seed):
    _budget_case(model, seed)


# -- the orbit path --------------------------------------------------------


def ring_graph(size: int = 20) -> WasnGraph:
    """``size`` nodes on a circle, each linked only to its two
    neighbours."""
    turn = math.tau / size
    nodes = [
        Node(
            k,
            Point(
                100.0 + 50.0 * math.cos(k * turn),
                100.0 + 50.0 * math.sin(k * turn),
            ),
        )
        for k in range(size)
    ]
    adjacency = {k: ((k - 1) % size, (k + 1) % size) for k in range(size)}
    return WasnGraph(nodes, adjacency, 20.0)


@pytest.mark.parametrize(
    "factor,closes", [(1.0, True), (0.95, False)], ids=["20-steps", "19-steps"]
)
def test_budget_edge_on_a_ring(factor, closes):
    """Every walk on a 20-node ring returns to its start after 19
    steps: a budget of 20 (factor 1.0) closes the first, and one of 19
    (factor 0.95) cuts all 20."""
    expected = assert_identical(ring_graph(), max_steps_factor=factor)
    if closes:
        assert expected.boundaries == ((0, *range(19, 0, -1)),)
    else:
        assert expected.boundaries == ()


def test_walk_closes_at_its_first_return():
    """Two triangles sharing node 0: the walk from node 0 closes the
    first time it comes back, and the walk from node 1 passes node 0
    twice."""
    positions = [
        Point(100.0, 100.0),
        Point(90.0, 95.0),
        Point(90.0, 105.0),
        Point(110.0, 95.0),
        Point(110.0, 105.0),
    ]
    expected = assert_identical(build_unit_disk_graph(positions, 11.5))
    assert expected.boundaries == ((0, 4, 3), (1, 2, 0, 4, 3, 0))
    assert list(expected._by_node.items()) == [
        (0, 0),
        (4, 0),
        (3, 0),
        (1, 1),
        (2, 1),
    ]


@pytest.mark.skipif(len(BUILDS) < 2, reason="the orbit path needs numpy")
def test_orbit_path_and_fallback_both_run(monkeypatch):
    """The numpy build answers a paper network on its face orbits and
    steps the walk where duplicate positions make the successor column
    no bijection; the scalar build steps the walk without the kernel."""
    calls: list[str] = []
    kernel = boundhole.face_orbits
    stepper = boundhole._trace

    def spy_kernel(*args):
        column, orbits = kernel(*args)
        calls.append("orbits" if orbits is not None else "fallback")
        return column, orbits

    def spy_stepper(*args, **kwargs):
        calls.append("walk")
        return stepper(*args, **kwargs)

    monkeypatch.setattr(boundhole, "face_orbits", spy_kernel)
    monkeypatch.setattr(boundhole, "_trace", spy_stepper)

    def paths(graph: WasnGraph, build: str) -> set[str]:
        calls.clear()
        build_hole_boundaries(on_build(graph, build))
        return set(calls)

    paper = build_unit_disk_graph(
        paper_positions("IA", 300, BASE_SEED), RADIUS
    )
    twins = duplicate_positions_graph("grid")
    assert paths(paper, "numpy") == {"orbits"}
    assert paths(twins, "numpy") == {"fallback", "walk"}
    assert paths(paper, "scalar") == {"walk"}
    assert paths(twins, "scalar") == {"walk"}
