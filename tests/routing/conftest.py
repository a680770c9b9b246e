"""Shared network fixtures for the routing test suites."""

import random

import pytest

from repro.core import InformationModel
from repro.geometry import Point, Rect
from repro.network import (
    EdgeDetector,
    Node,
    RectObstacle,
    UniformDeployment,
    WasnGraph,
    build_unit_disk_graph,
)


def make_grid_graph(n=8, spacing=10.0, radius=15.0, removed=()):
    """n x n grid (ids row-major), orthogonal+diagonal connectivity."""
    removed = set(removed)
    positions = [
        Point(i * spacing, j * spacing)
        for j in range(n)
        for i in range(n)
        if (i, j) not in removed
    ]
    g = build_unit_disk_graph(positions, radius)
    return EdgeDetector(strategy="convex").apply(g), positions


def make_random_graph(n=400, seed=0, area=200.0, radius=20.0, obstacles=()):
    rng = random.Random(seed)
    deployment = UniformDeployment(
        Rect(0, 0, area, area), tuple(obstacles)
    )
    positions = deployment.sample(n, rng)
    g = build_unit_disk_graph(positions, radius)
    return EdgeDetector(strategy="convex").apply(g), positions


@pytest.fixture(scope="module")
def grid():
    """Dense hole-free 8x8 grid and its information model."""
    g, positions = make_grid_graph()
    return g, positions, InformationModel.build(g)


@pytest.fixture(scope="module")
def pocket_grid():
    """12x12 grid with a NE-facing pocket (⌐-shaped wall of removed
    nodes), the Fig. 1(a)-style blocking scenario."""
    removed = {(6, j) for j in range(2, 7)} | {(i, 6) for i in range(2, 7)}
    g, positions = make_grid_graph(n=12, removed=removed)
    return g, positions, InformationModel.build(g)


@pytest.fixture(scope="module")
def random_net():
    """A connected random IA-style network at paper density
    (400 nodes, r = 20 m, 200 m x 200 m — average degree ~12)."""
    for seed in range(100):
        g, positions = make_random_graph(seed=seed)
        if g.is_connected():
            return g, positions, InformationModel.build(g)
    raise RuntimeError("no connected random network found")


@pytest.fixture(scope="module")
def obstacle_net():
    """A connected FA-style network with a large L-shaped obstacle."""
    obstacles = [
        RectObstacle(Rect(60, 60, 140, 110)),
        RectObstacle(Rect(100, 110, 140, 160)),
    ]
    for seed in range(100):
        g, positions = make_random_graph(seed=seed, obstacles=obstacles)
        if g.is_connected():
            return g, positions, InformationModel.build(g)
    raise RuntimeError("no connected obstacle network found")


@pytest.fixture
def coincident_graph():
    """Nodes 1 and 2 share a position but are not linked, so a packet
    at 1 sits exactly at its destination 2's position.  Only a
    hand-built graph has this: a unit-disk graph links them."""
    nodes = [
        Node(0, Point(0, 0)),
        Node(1, Point(10, 0)),
        Node(2, Point(10, 0)),
        Node(3, Point(20, 0)),
        Node(4, Point(10, 5)),
    ]
    adjacency = {0: (1,), 1: (0, 3, 4), 2: (3,), 3: (1, 2), 4: (1,)}
    return WasnGraph(nodes, adjacency, radius=25.0)
