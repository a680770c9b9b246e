"""Shared cross-backend differential harness for ``route_batch``.

One comparison discipline for every backend suite: route the same
pairs through the reference loops (:func:`_oracle.oracle_route`),
sequential :meth:`Router.route`, the scalar batch executor, and (when
numpy is importable) the vectorized numpy kernel, then require the
result lists to be *identical* — every
:class:`~repro.routing.base.RouteResult` field, floats compared
exactly, not approximately.  A divergence is reported field by field
for the first differing pair, which is the diagnostic that actually
matters when a kernel band is wrong by one ulp.

Not a test module (the leading underscore keeps pytest from
collecting it); the backend suites import it as a sibling module.
"""

import dataclasses
import random

from _oracle import oracle_route
from repro._optional import load_numpy

HAS_NUMPY = load_numpy() is not None

#: Backends every router must agree across (numpy joins when present).
BACKENDS = ("scalar",) + (("numpy",) if HAS_NUMPY else ())


def sample_pairs(graph, count, seed):
    """Deterministic distinct pairs from the largest component."""
    pool = sorted(graph.connected_components()[0])
    rng = random.Random(seed)
    return [tuple(rng.sample(pool, 2)) for _ in range(count)]


def _describe_divergence(backend, index, pair, expected, got):
    lines = [
        f"backend {backend!r} diverged from the reference loop "
        f"at pair #{index} {pair}:"
    ]
    for field in dataclasses.fields(expected):
        want = getattr(expected, field.name)
        have = getattr(got, field.name)
        if want != have:
            lines.append(f"  {field.name}: {want!r} != {have!r}")
    return "\n".join(lines)


def assert_backends_identical(router, pairs):
    """``route()`` and every backend's results == the reference loop's,
    bit for bit."""
    expected = [oracle_route(router, s, d) for s, d in pairs]
    runs = [("route()", [router.route(s, d) for s, d in pairs])]
    for backend in BACKENDS:
        runs.append((backend, router.route_batch(pairs, backend=backend)))
    for backend, got in runs:
        assert len(got) == len(expected)
        for index, (want, have) in enumerate(zip(expected, got)):
            assert want == have, _describe_divergence(
                backend, index, pairs[index], want, have
            )


def assert_invariants(router, graph, results, pairs):
    """Structural route invariants, independent of any reference run.

    * the path starts at the requested source;
    * a delivered route's path ends at the requested destination;
    * hop count never exceeds the router's TTL;
    * every consecutive path pair is an edge of the graph;
    * one phase label per hop.
    """
    assert len(results) == len(pairs)
    for (source, destination), result in zip(pairs, results):
        path = result.path
        assert path[0] == source
        assert result.hops == len(path) - 1
        assert result.hops <= router.ttl
        assert len(result.phases) == result.hops
        if result.delivered:
            assert path[-1] == destination
            assert result.failure_reason is None
        else:
            assert result.failure_reason
        for u, v in zip(path, path[1:]):
            assert v in graph.neighbors(u), (
                f"hop {u}->{v} is not an edge (pair {source}->"
                f"{destination}, backend results inconsistent)"
            )
