"""CORE — the columnar substrate's performance contract.

Two pinned speedups, correctness asserted before speed in both:

* **Construction** at the paper's densest setting (800 nodes,
  200 m x 200 m, r = 20 m): ``build_unit_disk_graph`` (bulk grid pass
  straight into ``TopologyCore`` columns) vs. the historical dict
  pipeline — ``SpatialGrid.all_pairs_within`` into per-node dict
  adjacency plus the O(E) symmetry validation — replicated here
  verbatim as the baseline.  Both must produce identical graphs.

* **Vectorized backend** (skipped when numpy is absent):
  ``route_batch(backend="numpy")`` vs. the scalar batch executor on a
  2000-node field with 6000 long cross-field routes.  The workload is
  deliberately large: the kernel's per-step array cost is amortized
  over thousands of in-flight packets, and below ~6000 routes the
  ratio is too noisy on a loaded box to pin.  The two backends are
  timed back to back in alternating order and the median per-repeat
  ratio is pinned, so a slow spell on a loaded box lands inside one
  ratio rather than on one side of the comparison.  Identity is
  asserted before timing, as in the construction bench.

Regression policy: each speedup is pinned at the threshold measured
when the corresponding fast path landed, minus a 10% tolerance band
(``_TOLERANCE``); dropping below ``threshold * 0.9`` fails the bench
(and the CI bench-smoke job).  Timings land in
``benchmarks/results/core.txt``; ``REPRO_FULL=1`` takes more repeats
for a longer measurement.

Batched routing's old ratio bench (``route_batch`` against sequential
``route()``, pinned at 3x) is retired: both now run the same
executor, and the differential suites pin their identity.
"""

from __future__ import annotations

import os
import random
import statistics
import time

import pytest

from repro._optional import load_numpy
from repro.geometry import Rect
from repro.network import (
    EdgeDetector,
    Node,
    SpatialGrid,
    UniformDeployment,
    WasnGraph,
    build_unit_disk_graph,
)
from repro.routing import GreedyRouter

AREA = Rect(0, 0, 200, 200)
RADIUS = 20.0
NODES = 800
SEED = 2009

# Pinned when the columnar core landed (measured 2.5x); a run below
# threshold * _TOLERANCE is a regression.
PINNED_CONSTRUCTION_SPEEDUP = 2.3
# Pinned when the numpy kernel landed (measured 3.4-3.7x at 6000
# cross-field routes over n=2000).
PINNED_NUMPY_SPEEDUP = 3.0
_TOLERANCE = 0.9

# The construction floor (>= 2x) sits just below the tolerance band:
# tripping the band trips the floor.
assert PINNED_CONSTRUCTION_SPEEDUP * _TOLERANCE >= 2.0


def _positions():
    rng = random.Random(SEED)
    return UniformDeployment(AREA).sample(NODES, rng)


def _legacy_build(positions, radius):
    """The pre-columnar ``build_unit_disk_graph``, step for step."""
    grid = SpatialGrid(cell_size=radius)
    grid.bulk_insert(enumerate(positions))
    neighbor_sets = {i: [] for i in range(len(positions))}
    for a, b in grid.all_pairs_within(radius):
        neighbor_sets[a].append(b)
        neighbor_sets[b].append(a)
    nodes = [Node(i, p) for i, p in enumerate(positions)]
    adjacency = {
        i: tuple(sorted(neighbor_sets[i])) for i in range(len(positions))
    }
    return WasnGraph(nodes, adjacency, radius)


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _best_of(fn, repeats: int) -> float:
    return min(_timed(fn) for _ in range(repeats))


def _paired_ratio(slow, fast, repeats: int) -> tuple[float, float, float]:
    """Median per-repeat ``slow / fast`` time ratio.

    Each repeat times both callables back to back, alternating which
    runs first.  Returns ``(ratio, slow_s, fast_s)``, the times being
    per-side medians for the report.
    """
    slow_times, fast_times = [], []
    for index in range(repeats):
        if index % 2:
            fast_times.append(_timed(fast))
            slow_times.append(_timed(slow))
        else:
            slow_times.append(_timed(slow))
            fast_times.append(_timed(fast))
    ratios = [
        s / f if f else float("inf")
        for s, f in zip(slow_times, fast_times)
    ]
    return (
        statistics.median(ratios),
        statistics.median(slow_times),
        statistics.median(fast_times),
    )


def test_construction_speedup(results_dir):
    positions = _positions()

    legacy = _legacy_build(positions, RADIUS)
    columnar = build_unit_disk_graph(positions, RADIUS)
    assert legacy.node_ids == columnar.node_ids
    for u in legacy.node_ids:
        assert legacy.neighbors(u) == columnar.neighbors(u)
        assert legacy.position(u) == columnar.position(u)

    repeats = 20 if os.environ.get("REPRO_FULL", "") == "1" else 7
    legacy_s = _best_of(lambda: _legacy_build(positions, RADIUS), repeats)
    columnar_s = _best_of(
        lambda: build_unit_disk_graph(positions, RADIUS), repeats
    )
    speedup = legacy_s / columnar_s if columnar_s else float("inf")

    floor = PINNED_CONSTRUCTION_SPEEDUP * _TOLERANCE
    report = "\n".join(
        [
            f"unit-disk construction at n={NODES}, r={RADIUS}",
            f"dict pipeline:   {1e3 * legacy_s:8.2f} ms",
            f"columnar core:   {1e3 * columnar_s:8.2f} ms",
            f"speedup:         {speedup:8.2f}x "
            f"(pinned {PINNED_CONSTRUCTION_SPEEDUP}x, floor {floor:.2f}x)",
        ]
    )
    (results_dir / "core.txt").write_text(report + "\n")
    print()
    print(report)
    assert speedup >= floor, report


def test_numpy_backend_speedup(results_dir):
    if load_numpy() is None:
        pytest.skip("numpy not installed; scalar backend is the only one")

    # A wide field with traffic crossing it end to end: ~15-hop routes
    # keep thousands of packets in flight at once, which is the regime
    # the vectorized step loop exists for.
    n, area, radius = 2000, 450.0, 30.0
    rng = random.Random(0)
    positions = UniformDeployment(Rect(0, 0, area, area)).sample(n, rng)
    graph = EdgeDetector(strategy="convex").apply(
        build_unit_disk_graph(positions, radius)
    )
    west = sorted(nd.id for nd in graph.nodes() if nd.position.x < 110.0)
    east = sorted(nd.id for nd in graph.nodes() if nd.position.x > 340.0)
    pair_rng = random.Random(42)
    route_count = 6000
    pairs = [
        (pair_rng.choice(west), pair_rng.choice(east))
        for _ in range(route_count)
    ]

    router = GreedyRouter(graph)
    scalar = router.route_batch(pairs, backend="scalar")
    assert router.route_batch(pairs, backend="numpy") == scalar

    repeats = 7 if os.environ.get("REPRO_FULL", "") == "1" else 5
    speedup, scalar_s, numpy_s = _paired_ratio(
        lambda: router.route_batch(pairs, backend="scalar"),
        lambda: router.route_batch(pairs, backend="numpy"),
        repeats,
    )

    floor = PINNED_NUMPY_SPEEDUP * _TOLERANCE
    report = "\n".join(
        [
            f"numpy backend at n={n}, r={radius}, "
            f"{route_count} cross-field GF routes",
            f"scalar batch:    {1e3 * scalar_s:8.2f} ms (median)",
            f"numpy kernel:    {1e3 * numpy_s:8.2f} ms (median)",
            f"speedup:         {speedup:8.2f}x (median of paired ratios) "
            f"(pinned {PINNED_NUMPY_SPEEDUP}x, floor {floor:.2f}x)",
        ]
    )
    with (results_dir / "core.txt").open("a") as handle:
        handle.write(report + "\n")
    print()
    print(report)
    assert speedup >= floor, report
