"""Router interface, packet bookkeeping and route results.

Every routing scheme in the paper is "presented via [its] forwarding
node selection at an intermediate node" (Section 3): a packet moves hop
by hop, each hop chosen from local state only.  This module owns the
shared mechanics — argument checks, TTL derivation, hop-level
instrumentation and the result record the experiment harness
aggregates — so the four routers hold nothing but their options and
the topology-derived state their forwarding loops read.

Each built-in scheme's forwarding loop runs once in the program: its
index executor in :mod:`repro.routing.batch`, behind both
:meth:`Router.route` and :meth:`Router.route_batch`.  A router class
that overrides :meth:`Router._run` runs its own loop on a
:class:`PacketTrace` instead.

Instrumentation: :meth:`Router.route` accepts ``on_hop`` and
``on_phase_change`` observers.  Tracing, energy accounting and path
animation attach through these hooks instead of subclassing a router
(see :mod:`repro.api` for ready-made observers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from repro.network.graph import WasnGraph
from repro.network.node import NodeId

if TYPE_CHECKING:  # import only for annotations; no runtime dependency
    from repro.network.dynamic import TopologyDelta

__all__ = [
    "DEFAULT_TTL_FACTOR",
    "MIN_TTL",
    "HopEvent",
    "OnHop",
    "OnPhaseChange",
    "PacketTrace",
    "Phase",
    "RouteResult",
    "Router",
    "RoutingError",
]

# TTL defaults: generous enough that no legitimate detour is clipped
# (the paper's worst curves stay well under 2 hops/node), tight enough
# to cut off pathological oscillation.
DEFAULT_TTL_FACTOR = 4.0

#: Floor applied to the *derived* TTL only.  The rule (enforced by
#: :class:`Router`): an explicit ``ttl`` is an exact contract — any
#: positive integer is honoured verbatim, even below this floor; the
#: floor protects only the ``DEFAULT_TTL_FACTOR * len(graph)`` default
#: from being uselessly tight on small graphs.
MIN_TTL = 64


class RoutingError(Exception):
    """Misuse of a router (unknown node, source == destination, ...)."""


class Phase:
    """Phase labels attached to every hop of a route.

    String constants instead of an Enum so that results serialise to
    CSV trivially and routers can introduce sub-phases without a
    central registry edit.
    """

    GREEDY = "greedy"  # plain/zone-limited greedy advance
    SAFE = "safe"  # safety-informed greedy advance (SLGF/SLGF2)
    BACKUP = "backup"  # SLGF2 backup-path forwarding
    PERIMETER = "perimeter"  # any recovery/perimeter phase


@dataclass(frozen=True)
class HopEvent:
    """One transmission, as seen by an ``on_hop`` observer.

    ``index`` is the 0-based hop number: the event for hop ``i``
    describes the transmission ``path[i] -> path[i+1]``.
    """

    index: int
    sender: NodeId
    receiver: NodeId
    phase: str
    distance: float


#: Hop observer: called once per transmission, after it is recorded.
OnHop = Callable[[HopEvent], None]

#: Phase observer: ``(hop_index, previous_phase, new_phase)``, called
#: before the first hop of every new phase (``previous_phase`` is
#: ``None`` on the route's very first hop).
OnPhaseChange = Callable[[int, "str | None", str], None]


@dataclass(frozen=True)
class RouteResult:
    """Outcome of routing one packet.

    ``path`` always starts at the source and records every node the
    packet touched in order (including backtracking re-visits, which
    cost real transmissions and are therefore real hops for every
    metric in the paper).  ``phases`` labels each hop, so
    ``phases[i]`` explains the hop ``path[i] -> path[i+1]``.
    """

    router: str
    source: NodeId
    destination: NodeId
    delivered: bool
    path: tuple[NodeId, ...]
    phases: tuple[str, ...]
    length: float
    perimeter_entries: int = 0
    backup_entries: int = 0
    bound_escapes: int = 0
    failure_reason: str | None = None

    @property
    def hops(self) -> int:
        """Number of transmissions (path edges)."""
        return len(self.path) - 1

    def phase_hops(self) -> dict[str, int]:
        """Hop count per phase label."""
        counts: dict[str, int] = {}
        for phase in self.phases:
            counts[phase] = counts.get(phase, 0) + 1
        return counts

    def to_dict(self) -> dict:
        """JSON-serialisable form (inverse of :meth:`from_dict`).

        Every field is included — phases and ``failure_reason`` too —
        so exports carry the full forwarding story, not just the
        headline numbers.
        """
        return {
            "router": self.router,
            "source": self.source,
            "destination": self.destination,
            "delivered": self.delivered,
            "path": list(self.path),
            "phases": list(self.phases),
            "length": self.length,
            "perimeter_entries": self.perimeter_entries,
            "backup_entries": self.backup_entries,
            "bound_escapes": self.bound_escapes,
            "failure_reason": self.failure_reason,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RouteResult":
        """Rebuild a result from :meth:`to_dict` output.

        Validation in ``__post_init__`` still applies, so a tampered
        document (phases not matching the path, a "delivered" route
        ending elsewhere) is rejected rather than resurrected.
        """
        return cls(
            router=data["router"],
            source=data["source"],
            destination=data["destination"],
            delivered=data["delivered"],
            path=tuple(data["path"]),
            phases=tuple(data["phases"]),
            length=data["length"],
            perimeter_entries=data.get("perimeter_entries", 0),
            backup_entries=data.get("backup_entries", 0),
            bound_escapes=data.get("bound_escapes", 0),
            failure_reason=data.get("failure_reason"),
        )

    def __post_init__(self) -> None:
        if len(self.phases) != max(len(self.path) - 1, 0):
            raise ValueError(
                "phases must label exactly the hops of the path"
            )
        if self.delivered and (
            not self.path or self.path[-1] != self.destination
        ):
            raise ValueError("delivered route must end at the destination")


class PacketTrace:
    """Mutable accumulator used while a packet is in flight.

    Public since 1.1 so instrumentation (observers, custom routers
    outside this package) can read the in-flight state.
    """

    def __init__(
        self,
        graph: WasnGraph,
        source: NodeId,
        ttl: int,
        on_hop: OnHop | None = None,
        on_phase_change: OnPhaseChange | None = None,
    ):
        self.graph = graph
        self.path: list[NodeId] = [source]
        self.phases: list[str] = []
        self.length = 0.0
        self.ttl = ttl
        self.perimeter_entries = 0
        self.backup_entries = 0
        self.bound_escapes = 0
        self._on_hop = on_hop
        self._on_phase_change = on_phase_change

    @property
    def current(self) -> NodeId:
        return self.path[-1]

    @property
    def previous(self) -> NodeId | None:
        return self.path[-2] if len(self.path) >= 2 else None

    @property
    def hops(self) -> int:
        return len(self.path) - 1

    def exhausted(self) -> bool:
        return self.hops >= self.ttl

    def advance(self, node: NodeId, phase: str) -> None:
        """Record one transmission to ``node`` (and notify observers)."""
        sender = self.current
        if not self.graph.has_edge(sender, node):
            raise RoutingError(
                f"illegal hop {sender} -> {node}: not an edge"
            )
        distance = self.graph.distance(sender, node)
        index = self.hops  # 0-based index of the hop being recorded
        if self._on_phase_change is not None:
            previous_phase = self.phases[-1] if self.phases else None
            if phase != previous_phase:
                self._on_phase_change(index, previous_phase, phase)
        self.length += distance
        self.path.append(node)
        self.phases.append(phase)
        if self._on_hop is not None:
            self._on_hop(
                HopEvent(
                    index=index,
                    sender=sender,
                    receiver=node,
                    phase=phase,
                    distance=distance,
                )
            )


class Router:
    """Base class for all routing schemes.

    The four built-in schemes route through their index executors
    (:mod:`repro.routing.batch`).  Another scheme implements
    :meth:`_run`, advancing a :class:`PacketTrace` until delivery or
    failure and returning an optional failure reason; so does any
    subclass of a built-in scheme that replaces its forwarding loop.
    A subclass that does not override :meth:`_run` runs the executor
    of its nearest built-in base class.

    TTL rule: an explicit ``ttl`` must be a positive integer and is
    honoured *exactly* as given — including values below
    :data:`MIN_TTL`; a deliberately tight budget is a legitimate
    experiment.  When ``ttl`` is omitted the budget is derived as
    ``DEFAULT_TTL_FACTOR * len(graph)``, floored at :data:`MIN_TTL` so
    small graphs still allow full perimeter walks.
    """

    #: Short name used in result tables ("GF", "LGF", "SLGF", "SLGF2").
    name: str = "?"

    def __init__(self, graph: WasnGraph, ttl: int | None = None):
        self._graph = graph
        self._executor = None  # built lazily; False = routes via _run
        self._numpy_kernel = None  # likewise; False = probed, absent
        if ttl is not None:
            # bool is an int subclass; ttl=True would silently mean 1.
            if isinstance(ttl, bool) or not isinstance(ttl, int):
                raise ValueError(
                    f"ttl must be an integer, got {ttl!r}"
                )
            if ttl <= 0:
                raise ValueError("ttl must be positive")
        self._explicit_ttl = ttl
        self._ttl = (
            ttl
            if ttl is not None
            else max(MIN_TTL, int(DEFAULT_TTL_FACTOR * len(graph)))
        )

    @property
    def graph(self) -> WasnGraph:
        """The network this router is currently bound to."""
        return self._graph

    @property
    def ttl(self) -> int:
        """Hop budget per packet."""
        return self._ttl

    # -- dynamic topologies ---------------------------------------------

    def rebind(
        self, graph: WasnGraph, delta: "TopologyDelta | None" = None
    ) -> None:
        """Point the router at an updated topology.

        The contract: after ``rebind``, routing behaves exactly as a
        freshly constructed router (same options) over ``graph`` — the
        metamorphic suite in ``tests/test_fuzz_routers.py`` pins this
        for every registered scheme.  A derived TTL is re-derived from
        the new size (an explicit one stays an exact contract), and
        subclasses invalidate their topology-derived caches
        (planarizations, safety models, hole boundaries) in
        :meth:`_on_topology_change`; ``delta`` — when the update comes
        from a :class:`~repro.network.dynamic.DynamicTopology` — tells
        them how local the change was.
        """
        self._graph = graph
        self._executor = None  # columns belong to the old graph
        self._numpy_kernel = None
        if self._explicit_ttl is None:
            self._ttl = max(
                MIN_TTL, int(DEFAULT_TTL_FACTOR * len(graph))
            )
        self._on_topology_change(delta)

    def track(self, topology) -> Callable:
        """Subscribe to a ``DynamicTopology``: every delta rebinds.

        After ``router.track(topo)``, each ``topo`` mutation pushes
        ``rebind(topo.graph, delta)`` into this router, so cached
        state can never outlive the topology it was computed from.
        Returns the registered subscriber — pass it to
        ``topology.unsubscribe`` when discarding the router, or the
        topology keeps it (and this router) alive.

        Note the cost model: each delta materialises the topology's
        snapshot (O(n)), which is what makes the rebind cheap-but-live;
        a consumer batching many events between routing calls should
        prefer one ``rebind(topo.graph)`` after the batch.
        """

        def _rebind(delta) -> None:
            self.rebind(topology.graph, delta)

        topology.subscribe(_rebind)
        return _rebind

    def _on_topology_change(self, delta: "TopologyDelta | None") -> None:
        """Invalidate topology-derived caches; default: nothing cached.

        ``delta`` is ``None`` when the caller has no structured diff
        (a wholesale rebind); subclasses must then assume everything
        changed.
        """

    def _scalar_executor(self):
        """This router's scalar executor, or ``None`` when it routes
        through its own :meth:`_run` (built once per topology)."""
        executor = self._executor
        if executor is None:
            # Local import: repro.routing.batch imports the concrete
            # router classes, which import this module.
            from repro.routing.batch import executor_for

            executor = executor_for(self)
            self._executor = executor if executor else False
        return executor or None

    def route(
        self,
        source: NodeId,
        destination: NodeId,
        on_hop: OnHop | None = None,
        on_phase_change: OnPhaseChange | None = None,
    ) -> RouteResult:
        """Route one packet from ``source`` to ``destination``.

        The built-in schemes run the same executor as
        :meth:`route_batch`.  ``on_hop`` / ``on_phase_change``
        observers, when given, run after the route is decided: they
        see every hop in order, as ``PacketTrace.advance`` reports it
        (a phase change before the first hop of each new phase, then
        the hop), and a route that raises emits no event.  A router
        with its own :meth:`_run` calls them from inside its loop.
        Either way, observers must not mutate the graph.
        """
        if source not in self._graph or destination not in self._graph:
            raise RoutingError("source or destination not in graph")
        if source == destination:
            raise RoutingError("source equals destination")
        executor = self._scalar_executor()
        if executor is not None:
            result = executor.route(source, destination)
            if on_hop is not None or on_phase_change is not None:
                _replay(self._graph, result, on_hop, on_phase_change)
            return result
        trace = PacketTrace(
            self._graph,
            source,
            self._ttl,
            on_hop=on_hop,
            on_phase_change=on_phase_change,
        )
        failure = self._run(trace, destination)
        delivered = trace.current == destination and failure is None
        return RouteResult(
            router=self.name,
            source=source,
            destination=destination,
            delivered=delivered,
            path=tuple(trace.path),
            phases=tuple(trace.phases),
            length=trace.length,
            perimeter_entries=trace.perimeter_entries,
            backup_entries=trace.backup_entries,
            bound_escapes=trace.bound_escapes,
            failure_reason=failure,
        )

    def route_batch(
        self,
        pairs: "Iterable[tuple[NodeId, NodeId]]",
        backend: str = "auto",
    ) -> list[RouteResult]:
        """Route a batch of (source, destination) pairs, in order.

        Results are exactly those of sequential :meth:`route` calls.
        The four built-in schemes run their executors on the graph's
        columnar core (:mod:`repro.routing.batch`), the same ones
        :meth:`route` runs; a router with its own :meth:`_run` routes
        the pairs one at a time through it.

        ``backend`` selects the batch implementation:

        * ``"auto"`` (default) — the vectorized numpy kernel for
          batches of at least ``_KERNEL_MIN_BATCH`` pairs (the
          measured crossover, see :mod:`repro.routing.batch`) when
          numpy is importable and the scheme has a kernel; otherwise
          the scalar executor, or ``_run`` one pair at a time.
          Smaller batches never probe for or build a kernel.
          Selection is silent: every path produces bit-identical
          results.
        * ``"scalar"`` — never touch numpy (the scalar executor, or
          ``_run`` one pair at a time).
        * ``"numpy"`` — the vectorized kernel, or an error:
          :class:`~repro._optional.MissingDependencyError` when numpy
          is not importable, :class:`RoutingError` when the router
          routes through its own :meth:`_run`.  SLGF2 has an executor
          but no kernel, so it runs on the scalar executor.

        Batches trade instrumentation for speed: there are no
        ``on_hop``/``on_phase_change`` observers here — use
        :meth:`route` for instrumented packets.
        """
        if backend not in ("auto", "scalar", "numpy"):
            raise ValueError(
                f"unknown backend {backend!r}; "
                "expected 'auto', 'scalar' or 'numpy'"
            )
        executor = self._scalar_executor()
        if backend == "numpy":
            kernel = self._numpy_kernel
            if not kernel:
                from repro._optional import require_numpy
                from repro.routing.batch import numpy_kernel_for

                require_numpy("route_batch(backend='numpy')")
                if executor is None:
                    raise RoutingError(
                        "no vectorized fast path for "
                        f"{type(self).__name__}: it routes through "
                        "its own _run; use backend='scalar' or "
                        "backend='auto'"
                    )
                kernel = numpy_kernel_for(self, executor)
                self._numpy_kernel = kernel if kernel else False
            if kernel:
                return kernel.route_batch(pairs)
        elif backend == "auto" and executor is not None:
            from repro.routing.batch import (
                _KERNEL_MIN_BATCH,
                numpy_kernel_for,
            )

            pairs = list(pairs)  # any iterable; counted, then routed
            if len(pairs) >= _KERNEL_MIN_BATCH:
                kernel = self._numpy_kernel
                if kernel is None:
                    kernel = numpy_kernel_for(self, executor)
                    self._numpy_kernel = kernel if kernel else False
                if kernel:
                    return kernel.route_batch(pairs)
        if executor is None:
            return [self.route(s, d) for s, d in pairs]
        route = executor.route
        return [route(s, d) for s, d in pairs]

    def _run(self, trace: PacketTrace, destination: NodeId) -> str | None:
        """Advance ``trace`` until delivery or failure.

        Returns ``None`` on delivery, otherwise a short failure-reason
        string (e.g. ``"ttl_exceeded"``, ``"perimeter_loop"``).  The
        extension point for schemes without an executor; the built-in
        schemes do not define it.
        """
        raise NotImplementedError(
            f"{type(self).__name__} defines no forwarding loop: "
            "override _run"
        )


def _replay(
    graph: WasnGraph,
    result: RouteResult,
    on_hop: OnHop | None,
    on_phase_change: OnPhaseChange | None,
) -> None:
    """Feed a finished route's hops to observers, in hop order.

    The events and values :meth:`PacketTrace.advance` emits: a phase
    change before hop ``i`` when its phase differs from hop ``i - 1``'s
    (``None`` before hop 0), then the hop itself.
    """
    path = result.path
    previous = None
    for index, phase in enumerate(result.phases):
        if on_phase_change is not None and phase != previous:
            on_phase_change(index, previous, phase)
        if on_hop is not None:
            sender = path[index]
            receiver = path[index + 1]
            on_hop(
                HopEvent(
                    index=index,
                    sender=sender,
                    receiver=receiver,
                    phase=phase,
                    distance=graph.distance(sender, receiver),
                )
            )
        previous = phase
