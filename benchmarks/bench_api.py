"""SCALE — the Session facade must add no measurable overhead.

The facade routes through exactly the same router objects as the
legacy hand-wired loop of per-call ``route()``s, and both run the
scheme's executor; the facade's extra work per packet is one dict
lookup, one RouteSet append and (optionally) an energy fold.  This
bench pins that: batch throughput of :meth:`Session.route_pairs` is
compared against the legacy per-call loop over identical pairs on an
identical network, and the facade must stay within a small factor of
raw.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_api.py -q
"""

from __future__ import annotations

import time

from repro.api import Scenario, Session

_N = 600
_PAIRS = 200


def _session() -> Session:
    return Session(
        Scenario(
            deployment_model="IA",
            node_count=_N,
            seed=17,
            routes_per_network=_PAIRS,
            routers=("SLGF2",),
        )
    )


def _time(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_route_pairs_matches_legacy_loop_output():
    """Same pairs, same routers -> identical results either way."""
    session = _session()
    pairs = session.sample_pairs()
    router = session.router("SLGF2")
    legacy = [router.route(s, d) for s, d in pairs]
    facade = session.route_pairs(energy=False)
    assert list(facade.results("SLGF2")) == legacy


def test_facade_overhead_is_negligible(results_dir):
    session = _session()
    pairs = session.sample_pairs()
    router = session.router("SLGF2")

    def legacy_loop():
        return [router.route(s, d) for s, d in pairs]

    legacy_s = _time(legacy_loop)
    facade_s = _time(lambda: session.route_pairs(energy=False))
    energy_s = _time(lambda: session.route_pairs(energy=True))

    per_route_us = facade_s / _PAIRS * 1e6
    overhead = facade_s / legacy_s - 1.0
    lines = [
        "Session.route_pairs vs legacy per-call loop "
        f"({_N} nodes, {_PAIRS} routes, SLGF2)",
        f"  legacy loop        : {legacy_s * 1e3:8.1f} ms",
        f"  facade             : {facade_s * 1e3:8.1f} ms "
        f"({overhead * 100:+.1f}%)",
        f"  facade + energy    : {energy_s * 1e3:8.1f} ms",
        f"  facade per route   : {per_route_us:8.1f} us",
    ]
    report = "\n".join(lines)
    print("\n" + report)
    (results_dir / "api_overhead.txt").write_text(report + "\n")

    # Generous bound: the facade may not cost more than 25% over the
    # raw loop (typical runs measure low single digits — noise-level).
    assert facade_s <= legacy_s * 1.25, report
