"""Cross-backend differential suite for the vectorized construction.

The numpy construction backend (:mod:`repro.network.construct`) claims
*bit identity* with the scalar reference paths — not closeness.  This
suite holds it to that: every column a core materialises (positions,
rows, CSR, lengths, both planarization masks and adjacencies) and
everything the safety labeling derives (statuses, round count,
quadrant tables) must compare equal, byte for byte, across backends —
over random deployments at several seeds, the pocket-grid and
obstacle topologies the routing suites consider load-bearing,
sparse-id cores left behind by node failures, and the degenerate
geometry (duplicate positions, collinear triples, witnesses planted
on the exact ``_PLANAR_EPS`` boundary) where the defect band actually
fires.  A subprocess test re-checks the digests under different
``PYTHONHASHSEED`` values: none of this may depend on dict iteration
accidents.

Without numpy, ``backend="auto"`` must degrade silently at every
entry point and ``backend="numpy"`` must refuse loudly.
"""

import hashlib
import json
import math
import os
import random
import subprocess
import sys

import pytest

from repro._optional import MissingDependencyError, load_numpy
from repro.core import InformationModel
from repro.core.safety import compute_safety, _quadrant_tables
from repro.geometry import Point, Rect
from repro.network import (
    DynamicTopology,
    EdgeDetector,
    RectObstacle,
    UniformDeployment,
    build_unit_disk_graph,
)
from repro.network.core import TopologyCore, build_core
from repro.network.graph import WasnGraph
from repro.network import construct

HAS_NUMPY = load_numpy() is not None
needs_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="numpy required")

BACKENDS = ("scalar", "numpy")


# -- topology recipes ----------------------------------------------------


def uniform_positions(seed, n=300, area=120.0):
    rng = random.Random(seed)
    return [
        Point(rng.uniform(0, area), rng.uniform(0, area)) for _ in range(n)
    ]


def grid_positions(n=12, spacing=10.0, removed=()):
    removed = set(removed)
    return [
        Point(i * spacing, j * spacing)
        for j in range(n)
        for i in range(n)
        if (i, j) not in removed
    ]


def pocket_grid_positions():
    """12x12 grid with the NE-facing pocket of the routing suites."""
    removed = {(6, j) for j in range(2, 7)} | {(i, 6) for i in range(2, 7)}
    return grid_positions(removed=removed)


def obstacle_positions(seed=3, n=300, area=200.0):
    obstacles = (
        RectObstacle(Rect(60, 60, 140, 110)),
        RectObstacle(Rect(100, 110, 140, 160)),
    )
    deployment = UniformDeployment(Rect(0, 0, area, area), obstacles)
    return deployment.sample(n, random.Random(seed))


def degenerate_positions():
    """Duplicates, collinear triples and exact eps-boundary witnesses.

    With radius 1.5 the Gabriel bound for the unit edge is
    ``0.25 + eps``; a witness at distance ``sqrt(1 + eps)`` from an
    endpoint sits exactly *on* an RNG lune bound, and its
    ``nextafter`` nudges bracket the boundary from both sides — the
    inputs that land inside the kernels' defect band.
    """
    eps_r = math.sqrt(1.0 + 1e-9)
    return [
        Point(0.0, 0.0),
        Point(0.0, 0.0),  # exact duplicate
        Point(1.0, 0.0),
        Point(2.0, 0.0),  # collinear triple 0-1-2
        Point(3.0, 0.0),
        Point(0.5, 0.5),
        Point(0.5, math.nextafter(0.5, 1.0)),
        Point(eps_r, 0.0),  # on the eps boundary
        Point(math.nextafter(eps_r, 2.0), 0.0),  # just outside
        Point(math.nextafter(eps_r, 0.0), 0.0),  # just inside
        Point(-1.0, 0.0),
        Point(0.0, -1.0),
        Point(0.0, 1.0),
        Point(-0.0, 0.25),  # negative zero exercises the dx == 0 branch
    ]


TOPOLOGIES = [
    ("uniform-1", lambda: (uniform_positions(1), 14.0)),
    ("uniform-2", lambda: (uniform_positions(2), 14.0)),
    ("uniform-3", lambda: (uniform_positions(3), 14.0)),
    ("uniform-4", lambda: (uniform_positions(4), 14.0)),
    ("uniform-5", lambda: (uniform_positions(5), 14.0)),
    ("pocket-grid", lambda: (pocket_grid_positions(), 15.0)),
    ("obstacle", lambda: (obstacle_positions(), 20.0)),
    ("degenerate", lambda: (degenerate_positions(), 1.5)),
]


def assert_cores_identical(cs: TopologyCore, cn: TopologyCore) -> None:
    """Every materialisable column, compared bit for bit."""
    assert cs.ids == cn.ids
    assert cs.xs.tobytes() == cn.xs.tobytes()
    assert cs.ys.tobytes() == cn.ys.tobytes()
    assert cs.rows() == cn.rows()
    assert cs.indptr.tobytes() == cn.indptr.tobytes()
    assert cs.indices.tobytes() == cn.indices.tobytes()
    assert cs.lengths.tobytes() == cn.lengths.tobytes()
    assert cs.edge_count() == cn.edge_count()
    for kind in ("gabriel", "rng"):
        assert bytes(cs.planar_mask(kind)) == bytes(cn.planar_mask(kind))
        assert cs.planar_adjacency(kind) == cn.planar_adjacency(kind)


# -- the differential sweep ----------------------------------------------


@needs_numpy
@pytest.mark.parametrize(
    "name,recipe", TOPOLOGIES, ids=[t[0] for t in TOPOLOGIES]
)
class TestBackendsIdentical:
    def test_cores_bit_identical(self, name, recipe):
        positions, radius = recipe()
        cs = build_core(positions, radius, backend="scalar")
        cn = build_core(positions, radius, backend="numpy")
        assert_cores_identical(cs, cn)

    def test_safety_identical(self, name, recipe):
        """Statuses *and* the synchronous round count, with edge-node
        pinning in play (the convex edge detector flags real nodes)."""
        positions, radius = recipe()
        gs = EdgeDetector(strategy="convex").apply(
            build_unit_disk_graph(positions, radius, backend="scalar")
        )
        gn = EdgeDetector(strategy="convex").apply(
            build_unit_disk_graph(positions, radius, backend="numpy")
        )
        ss = compute_safety(gs, backend="scalar")
        sn = compute_safety(gn, backend="numpy")
        assert ss.statuses == sn.statuses
        assert ss.rounds == sn.rounds

    def test_quadrant_tables_identical(self, name, recipe):
        """The table-level classification kernel against the scalar
        core sweep — forward tuple order and reverse list order
        included."""
        positions, radius = recipe()
        graph = build_unit_disk_graph(positions, radius, backend="scalar")
        np = load_numpy()
        core = graph.core
        fwd_s, rev_s = _quadrant_tables(graph)
        fwd_n, rev_n = construct.quadrant_tables(
            np,
            core.ids,
            np.frombuffer(core.xs, dtype=np.float64),
            np.frombuffer(core.ys, dtype=np.float64),
            np.frombuffer(core.indptr, dtype=np.int64),
            np.frombuffer(core.indices, dtype=np.int64),
        )
        assert fwd_s == fwd_n
        assert rev_s == rev_n


@needs_numpy
def test_sparse_id_cores_identical():
    """Cores with id holes (failed nodes) — the searchsorted id→index
    translation against the scalar dict loop."""
    positions = uniform_positions(11, n=200, area=100.0)
    g = build_unit_disk_graph(positions, 15.0, backend="scalar")
    removed = set(random.Random(99).sample(range(200), 30))
    sub = g.without_nodes(removed)
    ids = sub.node_ids
    pos_map = {u: sub.position(u) for u in ids}
    rows = tuple(sub.neighbors(u) for u in ids)
    cs = TopologyCore.from_rows(ids, pos_map, 15.0, rows, backend="scalar")
    cn = TopologyCore.from_rows(ids, pos_map, 15.0, rows, backend="numpy")
    assert not cs.dense and not cn.dense
    assert_cores_identical(cs, cn)
    ss = compute_safety(WasnGraph.from_core(cs), backend="scalar")
    sn = compute_safety(WasnGraph.from_core(cn), backend="numpy")
    assert ss.statuses == sn.statuses
    assert ss.rounds == sn.rounds


@needs_numpy
def test_mapping_input_keeps_its_ids():
    """build_core over a mapping: its (sparse) ids, ascending, with the
    same columns on both backends as the adopted-rows core."""
    positions = uniform_positions(37, n=150, area=80.0)
    ids = sorted(random.Random(38).sample(range(1000), 150))
    mapping = {u: p for u, p in zip(reversed(ids), reversed(positions))}
    dense = build_core(positions, 12.0, backend="scalar")
    reference = TopologyCore.from_rows(
        ids,
        dict(zip(ids, positions)),
        12.0,
        [tuple(ids[j] for j in row) for row in dense.rows()],
        edge_ids=ids[::7],
        backend="scalar",
    )
    for backend in BACKENDS:
        core = build_core(mapping, 12.0, ids[::7], backend=backend)
        assert not core.dense
        assert core.edge_flags == reference.edge_flags
        assert_cores_identical(reference, core)


@needs_numpy
def test_dynamic_topology_identical():
    """The bulk initial neighbour pass of DynamicTopology, negative
    coordinates included (grid keys go negative before rebasing)."""
    rng = random.Random(23)
    items = {
        i: Point(rng.uniform(-60, 60), rng.uniform(-60, 60))
        for i in range(250)
    }
    ds = DynamicTopology(items, 13.0, backend="scalar")
    dn = DynamicTopology(items, 13.0, backend="numpy")
    for u in items:
        assert ds.neighbors(u) == dn.neighbors(u)
    assert (
        ds.graph.core.indices.tobytes() == dn.graph.core.indices.tobytes()
    )


@needs_numpy
def test_information_model_identical():
    """The full model facade with an explicit backend knob."""
    positions = uniform_positions(7, n=200, area=100.0)
    gs = build_unit_disk_graph(positions, 15.0, backend="scalar")
    gn = build_unit_disk_graph(positions, 15.0, backend="numpy")
    ms = InformationModel.build(gs, backend="scalar")
    mn = InformationModel.build(gn, backend="numpy")
    assert ms.safety.statuses == mn.safety.statuses
    assert ms.safety.rounds == mn.safety.rounds
    for u in gs.node_ids:
        for zone_type in (1, 2, 3, 4):
            assert ms.estimated_area(u, zone_type) == mn.estimated_area(
                u, zone_type
            )


# -- hash-seed independence ----------------------------------------------

_DIGEST_SCRIPT = r"""
import hashlib, json, math, random, sys
sys.path.insert(0, {src!r})
from repro.geometry import Point
from repro.network.core import build_core
from repro.network.graph import build_unit_disk_graph
from repro.core.safety import compute_safety

rng = random.Random(5)
positions = [Point(rng.uniform(0, 80), rng.uniform(0, 80)) for _ in range(150)]
out = {{}}
for backend in ("scalar", "numpy"):
    h = hashlib.sha256()
    core = build_core(positions, 12.0, backend=backend)
    h.update(core.xs.tobytes())
    h.update(core.indptr.tobytes())
    h.update(core.indices.tobytes())
    h.update(core.lengths.tobytes())
    h.update(bytes(core.planar_mask("gabriel")))
    h.update(bytes(core.planar_mask("rng")))
    safety = compute_safety(
        build_unit_disk_graph(positions, 12.0, backend=backend),
        backend=backend,
    )
    h.update(repr(sorted(safety.statuses.items())).encode())
    h.update(str(safety.rounds).encode())
    out[backend] = h.hexdigest()
print(json.dumps(out))
"""


@needs_numpy
def test_digests_stable_across_hash_seeds(tmp_path):
    """Both backends produce one digest, regardless of PYTHONHASHSEED
    — construction must not lean on dict/set iteration order."""
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    script = _DIGEST_SCRIPT.format(src=os.path.abspath(src))
    digests = set()
    per_run = []
    for hash_seed in ("0", "1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        result = json.loads(proc.stdout)
        assert result["scalar"] == result["numpy"]
        digests.add(result["scalar"])
        per_run.append(result)
    assert len(digests) == 1, per_run


# -- caching satellites ---------------------------------------------------


def test_edge_count_cached():
    positions = uniform_positions(13, n=120, area=80.0)
    core = build_core(positions, 12.0, backend="scalar")
    assert core._edge_count is None
    first = core.edge_count()
    assert core._edge_count == first
    assert core.edge_count() == first == len(core.indices) // 2


def test_build_csr_reuses_index_of_mapping():
    """Sparse-id scalar CSR assembly and ``index_of`` share one dict."""
    positions = uniform_positions(17, n=80, area=60.0)
    g = build_unit_disk_graph(positions, 12.0, backend="scalar")
    sub = g.without_nodes({0, 3, 5})
    ids = sub.node_ids
    pos_map = {u: sub.position(u) for u in ids}
    rows = tuple(sub.neighbors(u) for u in ids)
    core = TopologyCore.from_rows(ids, pos_map, 12.0, rows, backend="scalar")
    # index_of first: CSR assembly must adopt the existing mapping.
    mapping = {u: core.index_of(u) for u in ids}
    assert core._index_of is not None
    before = core._index_of
    core.indptr
    assert core._index_of is before
    # CSR first on a fresh core: the mapping it built is kept for
    # subsequent index_of calls.
    fresh = TopologyCore.from_rows(ids, pos_map, 12.0, rows, backend="scalar")
    fresh.indptr
    assert fresh._index_of is not None
    assert {u: fresh.index_of(u) for u in ids} == mapping


# -- backend validation and degradation ----------------------------------


def test_unknown_backend_rejected_eagerly():
    positions = [Point(0.0, 0.0), Point(1.0, 0.0)]
    with pytest.raises(ValueError, match="unknown backend"):
        build_core(positions, 2.0, backend="cuda")
    with pytest.raises(ValueError, match="unknown backend"):
        build_unit_disk_graph(positions, 2.0, backend="typo")
    graph = build_unit_disk_graph(positions, 2.0)
    with pytest.raises(ValueError, match="unknown backend"):
        compute_safety(graph, backend="typo")


class TestWithoutNumpy:
    def test_auto_degrades_silently_everywhere(self, no_numpy):
        """backend='auto' without numpy: scalar-identical results from
        build, planarization, lengths and safety — no exception, no
        fallback noise."""
        positions = uniform_positions(19, n=100, area=80.0)
        ca = build_core(positions, 12.0, backend="auto")
        cs = build_core(positions, 12.0, backend="scalar")
        assert_cores_identical(cs, ca)
        ga = build_unit_disk_graph(positions, 12.0, backend="auto")
        gs = build_unit_disk_graph(positions, 12.0, backend="scalar")
        sa = compute_safety(ga, backend="auto")
        ss = compute_safety(gs, backend="scalar")
        assert sa.statuses == ss.statuses
        assert sa.rounds == ss.rounds
        items = {i: p for i, p in enumerate(positions)}
        da = DynamicTopology(items, 12.0, backend="auto")
        dsc = DynamicTopology(items, 12.0, backend="scalar")
        for u in items:
            assert da.neighbors(u) == dsc.neighbors(u)

    def test_numpy_backend_refuses_loudly(self, no_numpy):
        positions = [Point(0.0, 0.0), Point(1.0, 0.0)]
        with pytest.raises(MissingDependencyError, match="requires numpy"):
            build_core(positions, 2.0, backend="numpy")
        graph = build_unit_disk_graph(positions, 2.0, backend="auto")
        with pytest.raises(MissingDependencyError, match="requires numpy"):
            compute_safety(graph, backend="numpy")

    def test_core_built_before_blocking_degrades_lazily(self, no_numpy):
        """A backend='auto' core whose lazy columns are first touched
        *after* numpy vanishes falls back per column — the no-caching
        rule of repro._optional in action."""
        positions = uniform_positions(29, n=60, area=50.0)
        core = build_core(positions, 12.0, backend="scalar")
        auto = TopologyCore(
            core.ids,
            core.xs,
            core.ys,
            core.radius,
            core.edge_flags,
            core.rows(),
            backend="auto",
        )
        assert_cores_identical(core, auto)
