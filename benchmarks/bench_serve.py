"""SERVE — the service layer must stay close to the in-process facade.

Two pinned contracts for :mod:`repro.serve`:

* **Serving efficiency.**  A resident session answering a concurrent
  closed-loop ``route_pairs`` stream over real HTTP must sustain at
  least ``PINNED_SERVE_EFFICIENCY`` of the routes/second a direct
  in-process ``Session.route_pairs`` loop achieves single-threaded.
  The gap is the full service stack — HTTP parsing, JSON encoding of
  every route, queueing, micro-batch scheduling, executor handoff —
  and it must not silently grow.
* **O(1) resident startup.**  ``Session.clone`` must load a
  routing-side variant at least ``PINNED_CLONE_SPEEDUP`` times faster
  than materialising the scenario from scratch — the mechanism that
  makes loading the Nth variant of a resident network effectively
  free (``SessionManager`` uses it for ``POST /sessions``).

Identity is asserted before any timing: a benchmark of wrong answers
is meaningless.  Regression policy matches ``bench_core.py``: pins sit
at the measured-on-CI threshold; a run below ``pin * 0.9`` fails.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_serve.py -q
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import threading
import time

from repro.api import Scenario, Session
from repro.serve import RoutingServer, ServerConfig, scenario_to_dict

_TOLERANCE = 0.9

#: Measured ~0.55-0.75 on a shared runner (8 clients, 120-node
#: network); pinned well below so only a structural regression —
#: per-request materialisation, lost batching, serialization blowup —
#: can trip it.
PINNED_SERVE_EFFICIENCY = 0.25

#: Measured >1000x (clone is a constructor call; materialising 800
#: nodes takes tens of milliseconds).  Pinned at the ISSUE's floor
#: order: anything under 10x means the clone re-materialised.
PINNED_CLONE_SPEEDUP = 10.0

SCENARIO = Scenario(
    node_count=120,
    seed=5,
    routes_per_network=10,
    routers=("GF", "SLGF2"),
)
CLIENTS = 8


class _Server:
    """RoutingServer on its own loop thread (see tests/serve)."""

    def __init__(self) -> None:
        self.server = RoutingServer(ServerConfig(port=0))
        self.loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._stop_event: asyncio.Event | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "_Server":
        self._thread.start()
        assert self._ready.wait(30)
        return self

    def __exit__(self, *exc) -> None:
        self.loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=30)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self.loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        await self.server.start()
        self._ready.set()
        await self._stop_event.wait()
        await self.server.stop()

    def request(self, method: str, path: str, body=None):
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.server.port, timeout=60
        )
        try:
            conn.request(
                method,
                path,
                body=None if body is None else json.dumps(body),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()


def _closed_loop(port: int, path: str, body: dict, requests: int) -> None:
    """One keep-alive client issuing ``requests`` sequential queries."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    payload = json.dumps(body)
    try:
        for _ in range(requests):
            conn.request(
                "POST",
                path,
                body=payload,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 200
            response.read()
    finally:
        conn.close()


def test_serve_throughput_floor(results_dir):
    direct = Session(SCENARIO)
    reference = direct.route_pairs().to_dict()
    routes_per_call = len(reference["routes"])

    with _Server() as served:
        status, created = served.request(
            "POST", "/sessions", {"scenario": scenario_to_dict(SCENARIO)}
        )
        assert status == 201, created
        path = f"/sessions/{created['session']}/route_pairs"

        # Identity before timing: the served stream must be the direct
        # answer, bit for bit, or the throughput number is fiction.
        status, body = served.request("POST", path, {})
        assert status == 200
        assert body["routeset"] == reference

        requests = 40 if os.environ.get("REPRO_FULL", "") == "1" else 15

        def served_run() -> float:
            threads = [
                threading.Thread(
                    target=_closed_loop,
                    args=(served.server.port, path, {}, requests),
                )
                for _ in range(CLIENTS)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - start
            return CLIENTS * requests * routes_per_call / elapsed

        def direct_run() -> float:
            start = time.perf_counter()
            for _ in range(CLIENTS * requests):
                direct.route_pairs()
            elapsed = time.perf_counter() - start
            return CLIENTS * requests * routes_per_call / elapsed

        # Interleaved best-of: a load spike hits both rivals.
        served_rps = direct_rps = 0.0
        for _ in range(3):
            served_rps = max(served_rps, served_run())
            direct_rps = max(direct_rps, direct_run())

    efficiency = served_rps / direct_rps if direct_rps else float("inf")
    floor = PINNED_SERVE_EFFICIENCY * _TOLERANCE
    report = "\n".join(
        [
            f"route_pairs stream, {CLIENTS} closed-loop HTTP clients "
            f"vs 1 in-process thread (n={SCENARIO.node_count})",
            f"direct facade:   {direct_rps:10.0f} routes/s",
            f"served (HTTP):   {served_rps:10.0f} routes/s",
            f"efficiency:      {efficiency:10.2f}x "
            f"(pinned {PINNED_SERVE_EFFICIENCY}x, floor {floor:.3f}x)",
        ]
    )
    (results_dir / "serve.txt").write_text(report + "\n")
    print()
    print(report)
    assert efficiency >= floor, report


def test_clone_startup_is_constant_time(results_dir):
    """Loading a routing-side variant must not re-materialise."""
    big = Scenario(
        node_count=800,
        seed=7,
        routes_per_network=5,
        routers=("GF",),
    )
    resident = Session(big)
    resident.graph  # force materialisation outside the timed region

    variant_changes = dict(routers=("SLGF2",), routes_per_network=9)

    # Identity first: the clone answers exactly like a fresh build.
    fresh = Session(big.with_(**variant_changes))
    clone = resident.clone(**variant_changes)
    assert clone.instance is resident.instance
    assert clone.route_pairs() == fresh.route_pairs()

    repeats = 7 if os.environ.get("REPRO_FULL", "") == "1" else 3
    best_fresh = best_clone = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        session = Session(big.with_(**variant_changes))
        session.graph
        best_fresh = min(best_fresh, time.perf_counter() - start)
        start = time.perf_counter()
        session = resident.clone(**variant_changes)
        session.graph
        best_clone = min(best_clone, time.perf_counter() - start)

    speedup = best_fresh / best_clone if best_clone else float("inf")
    floor = PINNED_CLONE_SPEEDUP * _TOLERANCE
    report = "\n".join(
        [
            f"resident variant startup at n={big.node_count}",
            f"fresh Session:   {1e3 * best_fresh:8.2f} ms",
            f"Session.clone:   {1e3 * best_clone:8.3f} ms",
            f"speedup:         {speedup:8.0f}x "
            f"(pinned {PINNED_CLONE_SPEEDUP}x, floor {floor:.0f}x)",
        ]
    )
    (results_dir / "serve_clone.txt").write_text(report + "\n")
    print()
    print(report)
    assert speedup >= floor, report
