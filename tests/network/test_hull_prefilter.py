"""The convex edge detector's hull prefilter against the full chain.

With numpy, :class:`~repro.network.edges.EdgeDetector` runs the
monotone chain (:func:`repro.geometry.hull.hull_indices`) only on the
nodes :func:`repro.network.construct.hull_candidates` keeps: it drops a
node only when the node lies inside every edge of the extreme-point
polygon by the ``_HULL_MARGIN`` margin.  The claim is *identity*: the
chain over the kept nodes, mapped back to the original indices,
returns exactly the full chain's list — the same nodes in the same
order, with the same first occurrence of a duplicated position.  This
suite checks that on random sets, lattices, collinear sets, duplicated
extremes and nodes placed exactly on the polygon's edges, which must
be kept.  The scalar backend, and a run without numpy, run the chain
over every node.  The ``slow`` seeds run in the CI
``dynamic-differential`` job.
"""

import math
import random

import pytest

from repro._optional import load_numpy
from repro.geometry import Point
from repro.geometry.hull import hull_indices
from repro.network import EdgeDetector, build_unit_disk_graph
from repro.network import construct

np = load_numpy()
needs_numpy = pytest.mark.skipif(np is None, reason="numpy required")


def candidates(points):
    """``hull_candidates`` over ``points``, as a list of indices."""
    return construct.hull_candidates(
        np,
        np.array([p.x for p in points], dtype=np.float64),
        np.array([p.y for p in points], dtype=np.float64),
    ).tolist()


def prefiltered(points):
    """``hull_candidates`` then the chain, mapped to original indices."""
    kept = candidates(points)
    assert kept == sorted(kept)
    return [kept[k] for k in hull_indices([points[i] for i in kept])]


def assert_same_hull(points):
    assert prefiltered(points) == hull_indices(points)


def random_points(seed, n, span=200.0):
    rng = random.Random(seed)
    return [
        Point(rng.uniform(0, span), rng.uniform(0, span)) for _ in range(n)
    ]


def disc_points(seed, n, radius=100.0):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        x, y = rng.uniform(-radius, radius), rng.uniform(-radius, radius)
        if x * x + y * y <= radius * radius:
            out.append(Point(x, y))
    return out


def lattice(nx, ny, spacing=10.0, origin=(0.0, 0.0)):
    ox, oy = origin
    return [
        Point(ox + i * spacing, oy + j * spacing)
        for j in range(ny)
        for i in range(nx)
    ]


@needs_numpy
class TestPrefilterIdentity:
    @pytest.mark.parametrize("n", [3, 4, 5, 8, 13, 50, 200, 800, 2000])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_sets(self, n, seed):
        assert_same_hull(random_points(seed * 1000 + n, n))

    @pytest.mark.parametrize("seed", [4, 5])
    def test_random_discs(self, seed):
        # A round outline: many hull nodes lie between the extremes.
        assert_same_hull(disc_points(seed, 1500))

    @pytest.mark.parametrize(
        "nx,ny,spacing,origin",
        [
            (3, 3, 1.0, (0.0, 0.0)),
            (12, 12, 10.0, (0.0, 0.0)),
            (20, 7, 2.5, (-30.0, 11.0)),
            (1, 40, 3.0, (5.0, 5.0)),
            (33, 33, 0.1, (1e6, -1e6)),
        ],
    )
    def test_lattices(self, nx, ny, spacing, origin):
        points = lattice(nx, ny, spacing, origin)
        assert_same_hull(points)
        # Shuffled index order moves the first occurrences around.
        random.Random(nx * ny).shuffle(points)
        assert_same_hull(points)

    @pytest.mark.parametrize(
        "direction",
        [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0), (0.3, 0.7)],
    )
    def test_all_collinear(self, direction):
        dx, dy = direction
        points = [Point(5.0 + k * dx, -2.0 + k * dy) for k in range(60)]
        random.Random(7).shuffle(points)
        # No cross product clears the margin: nothing is dropped.
        assert candidates(points) == list(range(len(points)))
        assert_same_hull(points)

    def test_duplicated_extremes(self):
        base = random_points(11, 300, span=100.0)
        corners = [
            Point(-10.0, -10.0),
            Point(110.0, -10.0),
            Point(110.0, 110.0),
            Point(-10.0, 110.0),
        ]
        points = corners + base + corners + corners[::-1]
        assert_same_hull(points)
        # The first occurrence of each corner is the one reported.
        hull = prefiltered(points)
        assert {0, 1, 2, 3} <= set(hull)
        assert not set(hull) & set(range(len(points) - 8, len(points)))

    def test_coincident_interior_nodes(self):
        points = random_points(12, 400)
        points += [points[i] for i in range(0, 400, 7)]
        assert_same_hull(points)

    def test_nodes_on_the_polygons_edges_are_kept(self):
        # The square's corners come first, so they are the extremes;
        # the next nodes sit exactly on the square's sides (dyadic
        # coordinates, so their cross products are exactly zero), and
        # the rest lie deep inside.
        square = [
            Point(0.0, 0.0),
            Point(64.0, 0.0),
            Point(64.0, 64.0),
            Point(0.0, 64.0),
        ]
        on_edges = [
            Point(16.0, 0.0),
            Point(64.0, 40.0),
            Point(8.0, 64.0),
            Point(0.0, 24.0),
        ]
        interior = [
            p
            for p in random_points(13, 200, span=64.0)
            if 1.0 < p.x < 63.0 and 1.0 < p.y < 63.0
        ]
        points = square + on_edges + interior
        assert candidates(points) == list(range(8))
        assert_same_hull(points)
        assert set(hull_indices(points)) == set(range(8))

    def test_nodes_just_inside_the_margin_are_kept(self):
        # One ulp inside an edge is far below the margin: kept, and the
        # chain decides it (here: not on the hull).
        square = [
            Point(0.0, 0.0),
            Point(1.0, 0.0),
            Point(1.0, 1.0),
            Point(0.0, 1.0),
        ]
        near = [
            Point(0.5, math.nextafter(0.0, 1.0)),
            Point(math.nextafter(1.0, 0.0), 0.25),
        ]
        points = square + near + random_points(14, 100, span=1.0)
        assert {4, 5} <= set(candidates(points))
        assert_same_hull(points)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_inputs_keep_everything(self, n):
        assert candidates(random_points(15, n)) == list(range(n))

    def test_interior_is_dropped(self):
        # The prefilter earns its keep: most of a uniform field goes.
        assert len(candidates(random_points(16, 800))) < 200


def extra_seed_sets(seed):
    """A random square, a random disc and a shuffled lattice."""
    rng = random.Random(seed)
    n = rng.randint(3, 2000)
    nx, ny = rng.randint(1, 40), rng.randint(1, 40)
    points = lattice(nx, ny, rng.choice([0.1, 1.0, 7.0]))
    rng.shuffle(points)
    return [
        random_points(seed, n, span=rng.choice([1.0, 200.0, 1e5])),
        disc_points(seed, n),
        points,
    ]


@needs_numpy
@pytest.mark.slow
@pytest.mark.parametrize("seed", range(40))
def test_random_sets_extra_seeds(seed):
    for points in extra_seed_sets(seed):
        assert_same_hull(points)


# -- the detector's paths ------------------------------------------------


@pytest.fixture
def spy_candidates(monkeypatch):
    calls = []
    real = construct.hull_candidates

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(construct, "hull_candidates", spy)
    return calls


def _detected(points, backend):
    graph = build_unit_disk_graph(points, 15.0, backend=backend)
    return EdgeDetector(strategy="convex").detect(graph)


@pytest.mark.parametrize("backend", ["scalar", "auto"])
def test_detector_equals_the_full_chain(backend):
    points = random_points(17, 600)
    assert _detected(points, backend) == set(hull_indices(points))


def test_scalar_backend_runs_the_chain_on_every_node(spy_candidates):
    points = random_points(18, 300)
    assert _detected(points, "scalar") == set(hull_indices(points))
    assert spy_candidates == []


@needs_numpy
def test_numpy_backend_prefilters(spy_candidates):
    points = random_points(19, 300)
    assert _detected(points, "numpy") == set(hull_indices(points))
    assert len(spy_candidates) == 1


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(40, 60))
def test_detector_extra_seeds(seed):
    # The prefilter with numpy, the chain over every node without it.
    for points in extra_seed_sets(seed):
        graph = build_unit_disk_graph(points, 1.0)
        detected = EdgeDetector(strategy="convex").detect(graph)
        assert detected == set(hull_indices(points))


def test_without_numpy_the_chain_runs_on_every_node(no_numpy, spy_candidates):
    points = random_points(20, 300)
    assert _detected(points, "auto") == set(hull_indices(points))
    assert spy_candidates == []
