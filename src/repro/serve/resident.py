"""Resident sessions: loaded-once networks answering query streams.

A :class:`ResidentSession` is the serving form of a
:class:`~repro.api.Session`: the scenario is materialised exactly once
(deployment, failure schedule, columnar TopologyCore, routers), then
kept in memory answering queries until evicted.  Three mechanisms turn
that into a service rather than a cache:

* **Micro-batching.**  Every query enters a bounded per-session queue;
  a single drain task dispatches the moment it is free: it takes the
  first queued item plus whatever is already queued behind it (up to
  ``max_batch`` items) as one executor job, and never waits for more.
  Work that arrives while the executor runs a batch queues up and
  forms the next batch, so concurrent clients share one
  :meth:`~repro.routing.base.Router.route_batch` call instead of
  paying its dispatch per request, and a lone request waits on no
  clock (batches below the numpy kernel's crossover, the default 64
  included, run on the scalar executor under ``auto``).  Single-route
  queries are grouped per router into one batch call; results are
  bit-identical to sequential ``route()`` calls (the cross-backend
  suite pins that), so batching is invisible to clients.
* **Live topology.**  A topology update is queued like any query but
  acts as a *barrier*: it is applied alone, between batches, through a
  :class:`~repro.network.dynamic.DynamicTopology` that every resident
  router tracks — routers rebind incrementally (lazy cache
  invalidation, PR 3) instead of being rebuilt.  Queries before the
  barrier see the old topology, queries after see the new one, and no
  query ever sees half an update.
* **Bounded intake.**  The queue is the backpressure valve: when it is
  full, :meth:`submit` raises :class:`Backpressure` immediately (the
  HTTP layer answers 503 + ``Retry-After``) instead of letting latency
  grow without bound.  Each queued item carries a deadline; items that
  expire while queued are answered with a timeout error, not routed
  pointlessly.  Evicting a session answers everything it still holds,
  queued or in the drain's hands, with 409 at once.

The CPU-bound work — materialisation, routing, topology application —
always runs in the server's executor, never on the event loop.
"""

from __future__ import annotations

import asyncio
import math
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.api import RouteSet, Scenario, Session, scenario_fingerprint
from repro.api.registry import RouterRegistry, default_registry
from repro.network.dynamic import DynamicTopology, TopologyDelta
from repro.network.edges import EdgeDetector
from repro.routing.base import RoutingError
from repro.serve.wire import WireError

__all__ = [
    "Backpressure",
    "LatencyHistogram",
    "ResidentSession",
    "SessionManager",
    "SessionStats",
]


class Backpressure(Exception):
    """The session's intake queue is full; retry after a short wait."""

    def __init__(self, session_id: str, retry_after: float) -> None:
        super().__init__(
            f"session {session_id[:12]} is at queue capacity; "
            f"retry in {retry_after:.2f}s"
        )
        self.retry_after = retry_after


class LatencyHistogram:
    """Fixed-bucket latency histogram (milliseconds).

    Buckets are powers-of-ish milliseconds, wide enough for anything a
    resident session can produce; percentiles are bucket-resolution
    estimates (the upper bound of the bucket containing the rank),
    which is what a long-running server can afford to keep — exact
    percentiles over an unbounded query stream cannot be O(1) memory.
    """

    BOUNDS_MS = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
                 500.0, 1000.0, 2500.0, 10000.0)

    def __init__(self) -> None:
        self._counts = [0] * (len(self.BOUNDS_MS) + 1)
        self._total = 0
        self._sum_ms = 0.0
        self._max_ms = 0.0

    def record(self, elapsed_s: float) -> None:
        ms = elapsed_s * 1e3
        index = 0
        for bound in self.BOUNDS_MS:
            if ms <= bound:
                break
            index += 1
        self._counts[index] += 1
        self._total += 1
        self._sum_ms += ms
        self._max_ms = max(self._max_ms, ms)

    def percentile(self, p: float) -> float:
        """Upper bound (ms) of the bucket holding the ``p``-quantile.

        The rank is an integral sample index, clamped to [1, total]:
        ``p <= 0`` asks for the first recorded sample (first non-empty
        bucket, never an empty leading bucket) and ``p >= 1.0`` for the
        last one.  Ranks landing in the overflow bucket answer with the
        observed maximum — the only upper bound that bucket has.
        """
        if not self._total:
            return 0.0
        rank = 1 if p <= 0 else min(self._total, math.ceil(p * self._total))
        seen = 0
        for index, count in enumerate(self._counts):
            seen += count
            if seen >= rank:
                if index < len(self.BOUNDS_MS):
                    return self.BOUNDS_MS[index]
                return self._max_ms
        return self._max_ms

    def to_dict(self) -> dict:
        return {
            "count": self._total,
            "mean_ms": self._sum_ms / self._total if self._total else 0.0,
            "max_ms": self._max_ms,
            "p50_ms": self.percentile(0.50),
            "p90_ms": self.percentile(0.90),
            "p99_ms": self.percentile(0.99),
            "buckets": {
                f"<={bound:g}ms": count
                for bound, count in zip(self.BOUNDS_MS, self._counts)
            }
            | {f">{self.BOUNDS_MS[-1]:g}ms": self._counts[-1]},
        }


@dataclass
class SessionStats:
    """Per-session serving counters (reported by ``GET /stats``)."""

    created_at: float = field(default_factory=time.time)
    queries: dict = field(
        default_factory=lambda: {
            "route": 0,
            "route_pairs": 0,
            "topology": 0,
        }
    )
    routes_answered: int = 0
    delivered: int = 0
    hops_total: int = 0
    batches: int = 0
    batched_items: int = 0
    rejected: int = 0
    timeouts: int = 0
    topology_events: int = 0
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)

    def note_routes(self, results) -> None:
        for result in results:
            self.routes_answered += 1
            self.hops_total += result.hops
            if result.delivered:
                self.delivered += 1

    def to_dict(self) -> dict:
        mean_batch = (
            self.batched_items / self.batches if self.batches else 0.0
        )
        return {
            "created_at": self.created_at,
            "queries": dict(self.queries),
            "routes_answered": self.routes_answered,
            "delivered": self.delivered,
            "hops_total": self.hops_total,
            "batches": self.batches,
            "mean_batch_size": mean_batch,
            "rejected": self.rejected,
            "timeouts": self.timeouts,
            "topology_events": self.topology_events,
            "latency": self.latency.to_dict(),
        }


class _Work:
    """One queued request: payload in, future out, deadline attached."""

    __slots__ = ("kind", "payload", "future", "deadline")

    def __init__(self, kind: str, payload: dict, future, deadline):
        self.kind = kind  # "route" | "route_pairs" | "topology"
        self.payload = payload
        self.future = future
        self.deadline = deadline  # loop-clock instant, or None


class ResidentSession:
    """One scenario, materialised once, serving a query stream."""

    def __init__(
        self,
        session_id: str,
        session: Session,
        *,
        queue_depth: int,
        max_batch: int,
        retry_after: float,
        backend: str = "auto",
        executor=None,
    ) -> None:
        self.id = session_id
        self.scenario = session.scenario
        self._session = session
        self._base_seed = session.instance.seed
        self._routers = session.routers  # built once, then tracked
        self._topology: DynamicTopology | None = None
        self._backend = backend
        self._executor = executor
        self._max_batch = max_batch
        self._retry_after = retry_after
        self._queue: asyncio.Queue[_Work] = asyncio.Queue(
            maxsize=queue_depth
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._drain_task: asyncio.Task | None = None
        self._held = asyncio.Event()
        self._held.set()  # set = running; cleared = held for drain
        self.stats = SessionStats()
        self.last_active = time.time()
        self.connected = session.connected()
        self.node_ids = list(session.graph.node_ids)

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Spawn the drain task (idempotent)."""
        if self._drain_task is None:
            self._loop = asyncio.get_running_loop()
            self._drain_task = self._loop.create_task(self._drain())

    async def close(self) -> None:
        """Stop serving: cancel the drain task and fail queued work.

        The drain answers the work in its hands (a running or held
        batch, a carried topology update) as it is cancelled; what is
        still queued is answered here.  Either way the answer is 409.
        """
        if self._drain_task is not None:
            self._drain_task.cancel()
            try:
                await self._drain_task
            except asyncio.CancelledError:
                pass
            self._drain_task = None
        while not self._queue.empty():
            self._evicted(self._queue.get_nowait())

    @staticmethod
    def _evicted(work: _Work | None) -> None:
        """Answer one request an evicted session still held: 409."""
        if work is not None and not work.future.done():
            work.future.set_exception(WireError("session evicted", 409))

    def hold(self) -> None:
        """Pause intake processing (maintenance drain; tests).

        Queued and newly submitted work stays queued — and the queue
        keeps filling towards backpressure — until :meth:`release`.
        """
        self._held.clear()

    def release(self) -> None:
        self._held.set()

    # -- intake ---------------------------------------------------------

    def submit(
        self, kind: str, payload: dict, timeout: float | None
    ) -> asyncio.Future:
        """Queue one request; returns the future carrying its result.

        Raises :class:`Backpressure` when the bounded queue is full —
        the caller answers 503 with ``Retry-After`` and the client
        retries; nothing is ever silently dropped.
        """
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        deadline = None if timeout is None else loop.time() + timeout
        work = _Work(kind, payload, future, deadline)
        try:
            self._queue.put_nowait(work)
        except asyncio.QueueFull:
            self.stats.rejected += 1
            raise Backpressure(self.id, self._retry_after) from None
        self.stats.queries[kind] += 1
        self.last_active = time.time()
        return future

    # -- the drain loop -------------------------------------------------

    async def _drain(self) -> None:
        """Dispatch queued work as batches; run them in the executor.

        One batch at a time, in arrival order, and no timer: a batch
        is the first queued item plus whatever is already queued
        behind it, cut at ``max_batch`` or at a topology update, and
        it is dispatched at once.  Topology updates are barriers: they
        run alone, so every query observes a single consistent
        topology.  Cancelled (the session is evicted), the drain
        answers every item in its hands with 409 before it stops.
        """
        loop = asyncio.get_running_loop()
        carry: _Work | None = None
        batch: list[_Work] = []
        try:
            while True:
                batch = [carry or await self._queue.get()]
                carry = None
                await self._held.wait()
                if batch[0].kind == "topology":
                    await self._run_in_executor(
                        self._apply_topology, batch[0]
                    )
                    continue
                while len(batch) < self._max_batch and not self._queue.empty():
                    nxt = self._queue.get_nowait()
                    if nxt.kind == "topology":
                        carry = nxt  # barrier: handled after this batch
                        break
                    batch.append(nxt)
                now = loop.time()
                live = []
                for work in batch:
                    if work.deadline is not None and work.deadline < now:
                        self.stats.timeouts += 1
                        if not work.future.done():
                            work.future.set_exception(asyncio.TimeoutError())
                    elif work.future.done():
                        pass  # client went away (its waiter timed out)
                    else:
                        live.append(work)
                if live:
                    self.stats.batches += 1
                    self.stats.batched_items += len(live)
                    await self._run_in_executor(self._execute_batch, live)
        except asyncio.CancelledError:
            for work in (*batch, carry):
                self._evicted(work)
            raise

    async def _run_in_executor(self, fn, arg) -> None:
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(self._executor, fn, arg)
        except asyncio.CancelledError:
            raise
        except Exception as error:  # pragma: no cover - defensive
            # fn answers per-item; reaching here is a bug, but a dead
            # drain task would hang every future client silently.
            items = arg if isinstance(arg, list) else [arg]
            for work in items:
                if not work.future.done():
                    work.future.set_exception(error)

    # -- executor-side work (never on the event loop) -------------------

    def _execute_batch(self, batch: list[_Work]) -> None:
        """Answer a micro-batch of queries on the current topology.

        Single-route items are grouped per (router, no-options) into
        one ``route_batch`` call — that is the amortisation this whole
        layer exists for; ``route_pairs`` items are already internally
        batched and run as-is via the Session facade.
        """
        loop = self._loop  # executor thread: resolve via threadsafe call
        by_router: dict[str | None, list[_Work]] = {}
        for work in batch:
            if work.kind == "route":
                by_router.setdefault(work.payload.get("router"), []).append(
                    work
                )
            else:
                self._answer(loop, work, self._route_pairs, work.payload)
        for router_name, items in by_router.items():
            self._answer_route_group(loop, router_name, items)

    def _answer(self, loop, work: _Work, fn, payload) -> None:
        # ImportError: backend="numpy" without numpy, which the server
        # answers with 400 for this request alone.
        try:
            result = fn(payload)
        except (
            WireError,
            RoutingError,
            KeyError,
            ValueError,
            ImportError,
        ) as error:
            self._resolve(loop, work.future, error, is_error=True)
        else:
            self._resolve(loop, work.future, result, is_error=False)

    def _answer_route_group(self, loop, router_name, items) -> None:
        try:
            router = self._session.router(router_name)
        except (KeyError, ValueError) as error:
            for work in items:
                self._resolve(loop, work.future, error, is_error=True)
            return
        graph = self._session.graph
        valid: list[_Work] = []
        pairs: list[tuple[int, int]] = []
        for work in items:
            source = work.payload["source"]
            destination = work.payload["destination"]
            if source not in graph or destination not in graph:
                self._resolve(
                    loop,
                    work.future,
                    RoutingError(
                        f"source {source} or destination {destination} "
                        "not in the current topology"
                    ),
                    is_error=True,
                )
            elif source == destination:
                self._resolve(
                    loop,
                    work.future,
                    RoutingError("source equals destination"),
                    is_error=True,
                )
            else:
                valid.append(work)
                pairs.append((source, destination))
        if not valid:
            return
        try:
            results = router.route_batch(pairs, backend=self._backend)
        except Exception as error:
            for work in valid:
                self._resolve(loop, work.future, error, is_error=True)
            return
        self.stats.note_routes(results)
        for work, result in zip(valid, results):
            self._resolve(
                loop,
                work.future,
                {"result": result.to_dict()},
                is_error=False,
            )

    def _route_pairs(self, payload: Mapping) -> dict:
        routes = self._session.route_pairs(
            count=payload.get("count"),
            routers=payload.get("routers"),
            energy=payload.get("energy", False),
            backend=payload.get("backend", self._backend),
        )
        self.stats.note_routes(routes)
        return {"routeset": routes.to_dict()}

    def _apply_topology(self, work: _Work) -> None:
        """Apply one update request's events; rebind the facade.

        Events apply in request order.  On a state error (unknown
        node, failing a down node) the response reports how many
        events *did* apply — the topology keeps them; there is no
        rollback, exactly like replaying a physical event log.
        """
        loop = self._loop  # executor thread: resolve via threadsafe call
        topology = self._ensure_topology()
        applied = 0
        summary = {
            "added_edges": 0,
            "removed_edges": 0,
            "moved": 0,
            "nodes_down": 0,
            "nodes_up": 0,
        }
        try:
            for event in work.payload["events"]:
                op = event[0]
                if op == "move":
                    delta = topology.move(event[1], event[2])
                elif op == "fail":
                    delta = topology.fail_many(event[1])
                else:
                    delta = topology.restore_many(event[1], event[2])
                self._fold_delta(summary, delta)
                applied += 1
        except KeyError as error:
            self._resolve(
                loop,
                work.future,
                WireError(
                    f"topology event {applied}: {error.args[0]} "
                    f"({applied} earlier event(s) applied)",
                    409,
                ),
                is_error=True,
            )
            if applied:
                self._rebind_session(topology)
            return
        self.stats.topology_events += applied
        self._rebind_session(topology)
        self._resolve(
            loop,
            work.future,
            {
                "applied_events": applied,
                "nodes_alive": len(topology),
                **summary,
            },
            is_error=False,
        )

    def _ensure_topology(self) -> DynamicTopology:
        """The live topology, created (and tracked) on first update.

        Static residents never pay for it; the first topology request
        promotes the materialised graph into a DynamicTopology and
        subscribes every resident router, so later updates rebind them
        incrementally instead of rebuilding.
        """
        if self._topology is None:
            self._topology = DynamicTopology.from_graph(
                self._session.graph,
                edge_detector=EdgeDetector(strategy="convex"),
                area=self.scenario.area,
            )
            for router in self._routers.values():
                router.track(self._topology)
        return self._topology

    def _rebind_session(self, topology: DynamicTopology) -> None:
        """Point the facade at the updated snapshot.

        The tracked routers already rebound (rebind == fresh, pinned
        by the fuzz suite); the facade swap keeps pair sampling and
        energy accounting on the current graph.  ``seed`` stays the
        materialisation seed, so the pair stream derivation matches a
        direct ``Session.from_graph(snapshot, scenario, seed)``.
        """
        self._session = Session.from_graph(
            topology.graph,
            self.scenario,
            seed=self._base_seed,
            routers=self._routers,
        )
        self.node_ids = list(self._session.graph.node_ids)
        self.connected = self._session.connected()

    @staticmethod
    def _fold_delta(summary: dict, delta: TopologyDelta) -> None:
        summary["added_edges"] += len(delta.added_edges)
        summary["removed_edges"] += len(delta.removed_edges)
        summary["moved"] += len(delta.moved)
        summary["nodes_down"] += len(delta.nodes_down)
        summary["nodes_up"] += len(delta.nodes_up)

    @staticmethod
    def _resolve(loop, future, value, *, is_error: bool) -> None:
        """Set a future's outcome from the executor thread, safely."""

        def _set() -> None:
            if future.done():
                return
            if is_error:
                future.set_exception(value)
            else:
                future.set_result(value)

        loop.call_soon_threadsafe(_set)

    # -- views ----------------------------------------------------------

    @property
    def session(self) -> Session:
        """The current facade (reference answers in tests/benches)."""
        return self._session

    @property
    def router_names(self) -> tuple[str, ...]:
        return tuple(self._routers)

    def describe(self) -> dict:
        return {
            "session": self.id,
            "nodes": len(self.node_ids),
            "connected": self.connected,
            "routers": list(self._routers),
            "queries": dict(self.stats.queries),
            "last_active": self.last_active,
        }


#: Scenario fields that shape the materialised network.  Two scenarios
#: agreeing on all of them share deployment, failures and topology —
#: the second resident clones the first's Session instead of
#: re-materialising (see ``Session.clone``).
_NETWORK_SIDE_FIELDS = (
    "deployment_model",
    "node_count",
    "area",
    "radius",
    "seed",
    "obstacle_count",
    "min_obstacle_size",
    "max_obstacle_size",
    "obstacles",
    "failures",
)


def _network_key(scenario: Scenario) -> tuple:
    return tuple(
        getattr(scenario, name) for name in _NETWORK_SIDE_FIELDS
    )


class SessionManager:
    """The server's resident-session table, keyed by fingerprint.

    ``POST /sessions`` is idempotent: the session id *is* the
    scenario's :func:`~repro.api.scenario_fingerprint`, so loading the
    same scenario twice — from any client — lands on the same resident
    session.  Capacity is bounded (``max_sessions``, LRU eviction) and
    idle sessions expire after ``idle_ttl`` seconds via the reaper
    task.

    Residents whose scenarios differ only in routing-side fields
    (router selection, workload size) share one materialised network
    through :meth:`~repro.api.Session.clone` — the O(1)-after-first
    startup path pinned by ``benchmarks/bench_serve.py``.
    """

    def __init__(
        self,
        *,
        queue_depth: int = 256,
        max_batch: int = 64,
        retry_after: float = 1.0,
        backend: str = "auto",
        max_sessions: int = 16,
        idle_ttl: float = 300.0,
        executor=None,
        registry: RouterRegistry | None = None,
    ) -> None:
        self._sessions: "OrderedDict[str, ResidentSession]" = OrderedDict()
        self._queue_depth = queue_depth
        self._max_batch = max_batch
        self._retry_after = retry_after
        self._backend = backend
        self._max_sessions = max_sessions
        self._idle_ttl = idle_ttl
        self._executor = executor
        self._registry = (
            registry if registry is not None else default_registry
        )
        self._reaper_task: asyncio.Task | None = None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        if self._reaper_task is None and self._idle_ttl:
            self._reaper_task = asyncio.get_running_loop().create_task(
                self._reap_idle()
            )

    async def close(self) -> None:
        if self._reaper_task is not None:
            self._reaper_task.cancel()
            try:
                await self._reaper_task
            except asyncio.CancelledError:
                pass
            self._reaper_task = None
        for session_id in list(self._sessions):
            await self.evict(session_id)

    async def _reap_idle(self) -> None:
        interval = max(min(self._idle_ttl / 4.0, 30.0), 0.01)
        while True:
            await asyncio.sleep(interval)
            cutoff = time.time() - self._idle_ttl
            for session_id, resident in list(self._sessions.items()):
                if resident.last_active < cutoff:
                    await self.evict(session_id)

    # -- the table ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._sessions)

    def get(self, session_id: str) -> ResidentSession:
        try:
            resident = self._sessions[session_id]
        except KeyError:
            raise WireError(
                f"no resident session {session_id!r}", 404
            ) from None
        self._sessions.move_to_end(session_id)
        resident.last_active = time.time()
        return resident

    def describe(self) -> list[dict]:
        return [r.describe() for r in self._sessions.values()]

    def stats(self) -> dict:
        return {
            session_id: resident.stats.to_dict()
            for session_id, resident in self._sessions.items()
        }

    async def create(
        self, scenario: Scenario
    ) -> tuple[ResidentSession, bool]:
        """Load a scenario; returns ``(resident, created)``.

        Identical scenarios collapse onto one resident (``created``
        False); a scenario sharing another resident's network-side
        fields clones its materialised network.  Materialisation runs
        in the executor — the event loop keeps serving while a large
        deployment builds.
        """
        if scenario.mobility is not None:
            raise WireError(
                "mobile scenarios route per topology snapshot and "
                "cannot be loaded as resident sessions; apply move "
                "events through POST /sessions/<id>/topology instead"
            )
        message = self._registry.describe_unknown(scenario.routers)
        if message:
            raise WireError(message)
        session_id = scenario_fingerprint(scenario, self._registry)
        if session_id is None:  # pragma: no cover - wire scenarios digest
            raise WireError(
                "scenario has no stable fingerprint; "
                "cannot key a resident session"
            )
        existing = self._sessions.get(session_id)
        if existing is not None:
            self._sessions.move_to_end(session_id)
            existing.last_active = time.time()
            return existing, False
        session = self._build_session(scenario)
        loop = asyncio.get_running_loop()
        # Materialise (or clone) off-loop: graph, routers, connectivity.
        resident = await loop.run_in_executor(
            self._executor,
            self._materialise,
            session_id,
            session,
        )
        while len(self._sessions) >= self._max_sessions:
            oldest = next(iter(self._sessions))
            await self.evict(oldest)
        self._sessions[session_id] = resident
        resident.start()
        return resident, True

    async def evict(self, session_id: str) -> None:
        resident = self._sessions.pop(session_id, None)
        if resident is not None:
            await resident.close()

    # -- construction helpers -------------------------------------------

    def _build_session(self, scenario: Scenario) -> Session:
        key = _network_key(scenario)
        for resident in reversed(self._sessions.values()):
            if (
                resident._topology is None  # untouched network only
                and _network_key(resident.scenario) == key
            ):
                return resident.session.clone(
                    routers=scenario.routers,
                    router_options=scenario.router_options,
                    routes_per_network=scenario.routes_per_network,
                    packet_bits=scenario.packet_bits,
                    networks=scenario.networks,
                    channel=scenario.channel,
                    link_faults=scenario.link_faults,
                    max_retransmits=scenario.max_retransmits,
                )
        return Session(scenario, registry=self._registry)

    def _materialise(
        self, session_id: str, session: Session
    ) -> ResidentSession:
        """Executor-side: force the expensive state, wrap it resident."""
        return ResidentSession(
            session_id,
            session,
            queue_depth=self._queue_depth,
            max_batch=self._max_batch,
            retry_after=self._retry_after,
            backend=self._backend,
            executor=self._executor,
        )
