"""The vectorized numpy backend: bit-identity and graceful absence.

Three contracts, one suite.  With numpy importable,
``route_batch(backend="numpy")`` must be indistinguishable — every
``RouteResult`` field, floats exact — from the scalar batch executor,
sequential :meth:`Router.route` calls and the reference loops, across
every scheme's kernel-relevant option surface, over random/grid/obstacle
topologies, failure-restricted graphs, and the rebind lifecycle (the
differential harness in :mod:`_backend_diff` does the comparing).
``backend="auto"`` hands a batch to the kernel only from the measured
crossover ``_KERNEL_MIN_BATCH`` up; smaller batches never build one,
and SLGF2 (no kernel mode) runs on the scalar executor under every
backend.  Without numpy, ``backend="auto"`` must degrade to the scalar
executor *silently* and ``backend="numpy"`` must refuse *loudly* — the
degradation tests simulate the bare environment by blocking the numpy
import underneath :func:`repro._optional.load_numpy`.

Grid fixtures are load-bearing: lattice symmetry produces exact
candidate ties, which is the kernel's defect-to-scalar path, not its
happy path.
"""

import builtins
import random

import pytest

from _backend_diff import (
    HAS_NUMPY,
    assert_backends_identical,
    sample_pairs,
)
from _oracle import oracle_route
from repro._optional import MissingDependencyError, load_numpy
from repro.core import InformationModel
from repro.geometry import Point, Rect
from repro.network import (
    DynamicTopology,
    EdgeDetector,
    UniformDeployment,
    build_unit_disk_graph,
)
from repro.protocols import build_hole_boundaries
from repro.routing import (
    GreedyRouter,
    LgfRouter,
    RoutingError,
    SlgfRouter,
    Slgf2Router,
)
from repro.routing.batch import _KERNEL_MIN_BATCH, numpy_kernel_for

needs_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="numpy required")


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


def kernel_routers(graph, model):
    """Every scheme/option combination the kernel dispatches on.

    Recovery options (boundhole, tight TTL) matter even though the
    kernel never runs them: they shape what the *defected* packets do,
    which is exactly where a sloppy hand-off would diverge.  SLGF2 has
    no kernel mode; ``tests/routing/test_batch.py`` pins its scalar
    executor.
    """
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
        # Tight budgets: ttl_exceeded routes, single- and per-hop phases.
        LgfRouter(graph, ttl=12),
        SlgfRouter(model, ttl=12),
    ]


@pytest.fixture
def tiny_crossover(monkeypatch):
    """Send every non-empty ``auto`` batch through the kernel probe."""
    import repro.routing.batch as batch_module

    monkeypatch.setattr(batch_module, "_KERNEL_MIN_BATCH", 1)


@needs_numpy
class TestNumpyEquivalence:
    def test_every_scheme_gets_a_kernel(self, random_net):
        """GF, LGF and SLGF get a kernel; SLGF2 gets none."""
        graph, _, model = random_net
        for router in kernel_routers(graph, model):
            assert numpy_kernel_for(router) is not None, router.name
        assert numpy_kernel_for(Slgf2Router(model)) is None

    def test_random_network(self, random_net):
        graph, _, model = random_net
        pairs = sample_pairs(graph, 40, seed=0)
        for router in kernel_routers(graph, model):
            assert_backends_identical(router, pairs)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_random_network_extra_seeds(self, random_net, seed):
        graph, _, model = random_net
        pairs = sample_pairs(graph, 40, seed=seed)
        for router in kernel_routers(graph, model):
            assert_backends_identical(router, pairs)

    def test_grid_exact_ties(self, grid):
        """Lattice ties: the kernel must defect, never tie-break."""
        graph, _, model = grid
        pairs = sample_pairs(graph, 40, seed=1)
        for router in kernel_routers(graph, model):
            assert_backends_identical(router, pairs)

    def test_pocket_grid_recovery(self, pocket_grid):
        graph, _, model = pocket_grid
        pairs = sample_pairs(graph, 40, seed=2)
        for router in kernel_routers(graph, model):
            assert_backends_identical(router, pairs)

    def test_obstacle_network(self, obstacle_net):
        graph, _, model = obstacle_net
        pairs = sample_pairs(graph, 40, seed=3)
        for router in kernel_routers(graph, model):
            assert_backends_identical(router, pairs)

    def test_failure_restricted_graph(self, random_net):
        """Sparse, holey id space after failures: the kernel's padded
        columns and id binary search see non-contiguous ids."""
        graph, _, _ = random_net
        survivor = graph.without_nodes(range(0, 400, 5))
        model = InformationModel.build(survivor)
        pairs = sample_pairs(survivor, 30, seed=4)
        for router in kernel_routers(survivor, model):
            assert_backends_identical(router, pairs)

    def test_sparse_network_defect_heavy(self):
        """Low density: most packets hit a local minimum and defect."""
        graph, _ = make_random_graph(n=70, seed=9)
        model = InformationModel.build(graph)
        pairs = sample_pairs(graph, 30, seed=5)
        for router in kernel_routers(graph, model):
            assert_backends_identical(router, pairs)

    def test_rebind_invalidates_kernel(self):
        """The cached kernel must not outlive its topology."""
        graph, _ = make_grid_graph()
        router = SlgfRouter(InformationModel.build(graph))
        pairs = sample_pairs(graph, 10, seed=6)
        router.route_batch(pairs, backend="numpy")
        first = router._numpy_kernel
        assert first
        router.route_batch(pairs, backend="numpy")
        assert router._numpy_kernel is first  # reused across batches

        topology = DynamicTopology.from_graph(
            graph, edge_detector=EdgeDetector(strategy="convex")
        )
        topology.fail(27)
        router.rebind(topology.graph)
        assert router._numpy_kernel is None
        fresh = SlgfRouter(InformationModel.build(topology.graph))
        rebound = [(s, d) for s, d in pairs if s != 27 and d != 27]
        assert router.route_batch(
            rebound, backend="numpy"
        ) == fresh.route_batch(rebound, backend="numpy")
        assert_backends_identical(router, rebound)

    def test_wave_chunking(self, random_net, monkeypatch):
        """A batch split across waves equals one unchunked wave."""
        import repro.routing.batch as batch_module

        graph, _, _ = random_net
        router = GreedyRouter(graph)
        pairs = sample_pairs(graph, 23, seed=7)
        whole = router.route_batch(pairs, backend="numpy")
        monkeypatch.setattr(batch_module, "_WAVE", 5)
        router.rebind(graph)  # drop the cached kernel, rebuild under patch
        assert router.route_batch(pairs, backend="numpy") == whole

    def test_validation_matches_scalar(self, random_net):
        graph, _, _ = random_net
        router = GreedyRouter(graph)
        u = graph.node_ids[0]
        with pytest.raises(RoutingError):
            router.route_batch([(u, u)], backend="numpy")
        with pytest.raises(RoutingError):
            router.route_batch(
                [(u, max(graph.node_ids) + 1)], backend="numpy"
            )

    def test_no_fast_path_raises(self, random_net):
        """backend='numpy' on a subclass with its own loop: loud, not
        silently wrong."""
        graph, _, _ = random_net

        class Reversed(GreedyRouter):
            def _run(self, trace, destination):
                return "refused"

        router = Reversed(graph)
        with pytest.raises(RoutingError, match="no vectorized fast path"):
            router.route_batch([(0, 1)], backend="numpy")

    def test_unknown_backend_rejected(self, random_net):
        graph, _, _ = random_net
        with pytest.raises(ValueError, match="unknown backend"):
            GreedyRouter(graph).route_batch([(0, 1)], backend="cuda")


class TestAutoCrossover:
    """``auto`` runs the kernel only from ``_KERNEL_MIN_BATCH`` pairs up."""

    def test_below_crossover_builds_no_kernel(self, random_net):
        graph, _, model = random_net
        pairs = sample_pairs(graph, _KERNEL_MIN_BATCH - 1, seed=10)
        for router in (
            GreedyRouter(graph),
            LgfRouter(graph),
            SlgfRouter(model),
        ):
            auto = router.route_batch(pairs, backend="auto")
            assert router._numpy_kernel is None, router.name  # no probe
            assert auto == router.route_batch(pairs, backend="scalar")
            assert auto == [oracle_route(router, s, d) for s, d in pairs]

    @needs_numpy
    def test_at_crossover_builds_one_kernel(self, random_net):
        graph, _, model = random_net
        pairs = sample_pairs(graph, _KERNEL_MIN_BATCH, seed=11)
        for router in (
            GreedyRouter(graph),
            LgfRouter(graph),
            SlgfRouter(model),
        ):
            auto = router.route_batch(pairs, backend="auto")
            kernel = router._numpy_kernel
            assert kernel, router.name
            assert auto == router.route_batch(pairs, backend="scalar")
            assert router.route_batch(pairs[:3], backend="auto") == auto[:3]
            assert router.route_batch(pairs, backend="auto") == auto
            assert router._numpy_kernel is kernel  # built once, reused

    @pytest.mark.parametrize(
        "count", [5, _KERNEL_MIN_BATCH], ids=["below", "at"]
    )
    def test_generator_routes_like_list(self, random_net, count):
        """``pairs`` may be any iterable: counted once, then routed."""
        graph, _, model = random_net
        pairs = sample_pairs(graph, count, seed=12)
        for router in (GreedyRouter(graph), SlgfRouter(model)):
            got = router.route_batch((pair for pair in pairs))
            assert bool(router._numpy_kernel) == (
                HAS_NUMPY and count >= _KERNEL_MIN_BATCH
            )
            assert got == router.route_batch(pairs, backend="scalar")
            assert got == router.route_batch(pairs)

    @needs_numpy
    def test_slgf2_runs_scalar_under_every_backend(self, random_net):
        graph, _, model = random_net
        router = Slgf2Router(model)
        pairs = sample_pairs(graph, _KERNEL_MIN_BATCH, seed=13)
        sequential = [oracle_route(router, s, d) for s, d in pairs]
        assert router.route_batch(pairs, backend="auto") == sequential
        assert not router._numpy_kernel  # probed: no kernel mode
        assert router.route_batch(pairs, backend="numpy") == sequential
        assert not router._numpy_kernel


class TestWithoutNumpy:
    def test_load_numpy_degrades(self, no_numpy):
        assert load_numpy() is None

    def test_auto_silently_scalar(
        self, random_net, no_numpy, tiny_crossover
    ):
        """backend='auto' without numpy: scalar results, no noise."""
        graph, _, _ = random_net
        router = GreedyRouter(graph)
        pairs = sample_pairs(graph, 10, seed=8)
        auto = router.route_batch(pairs, backend="auto")
        assert router._numpy_kernel is False  # probed once, degraded
        assert auto == router.route_batch(pairs, backend="scalar")
        assert auto == [oracle_route(router, s, d) for s, d in pairs]

    def test_numpy_backend_raises_clearly(self, random_net, no_numpy):
        graph, _, _ = random_net
        router = GreedyRouter(graph)
        with pytest.raises(MissingDependencyError, match="requires numpy"):
            router.route_batch([(0, 1)], backend="numpy")

    def test_numpy_backend_on_slgf2_raises_clearly(
        self, random_net, no_numpy
    ):
        """No kernel mode, but still no silent numpy-less success."""
        _, _, model = random_net
        with pytest.raises(MissingDependencyError, match="requires numpy"):
            Slgf2Router(model).route_batch([(0, 1)], backend="numpy")

    def test_kernel_probe_returns_none(self, random_net, no_numpy):
        graph, _, _ = random_net
        assert numpy_kernel_for(GreedyRouter(graph)) is None

    @needs_numpy
    def test_kernel_survives_numpy_arriving_back(
        self, random_net, tiny_crossover
    ):
        """After a degraded probe, a rebind re-probes successfully —
        the False cache must not be sticky across topologies."""
        graph, _, _ = random_net
        router = GreedyRouter(graph)
        real_import = builtins.__import__

        def blocked(name, *args, **kwargs):
            if name == "numpy" or name.startswith("numpy."):
                raise ImportError("numpy is blocked")
            return real_import(name, *args, **kwargs)

        builtins.__import__ = blocked
        try:
            router.route_batch([(0, 1)][:0], backend="auto")
            pairs = sample_pairs(graph, 5, seed=9)
            router.route_batch(pairs, backend="auto")
            assert router._numpy_kernel is False
        finally:
            builtins.__import__ = real_import
        router.rebind(graph)
        pairs = sample_pairs(graph, 5, seed=9)
        router.route_batch(pairs, backend="auto")
        assert router._numpy_kernel  # kernel built now that numpy loads
