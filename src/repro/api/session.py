"""The Session facade: one materialised network, ready to route.

A :class:`Session` turns a declarative
:class:`~repro.api.scenario.Scenario` into a concrete network exactly
once — deployment, unit-disk graph, edge detection, failure schedule,
information construction, hole boundaries, routers — and then answers
routing questions against it:

* :meth:`Session.route` — one packet through one scheme (with
  optional hop-level observers);
* :meth:`Session.route_pairs` — a batch of random pairs through any
  subset of schemes;
* :meth:`Session.run` — the scenario's full workload, returning a
  :class:`~repro.api.routeset.RouteSet` with lazy aggregates.

:func:`run_scenario` evaluates a multi-network scenario (one Session
per network, merged) — the evaluation every Study cell runs, whose
figure numbers the golden digests pin.

Every random stream is derived from ``(scenario.seed, deployment
model, node count, network index)`` alone — no state is shared between
networks or cells — so a cell is a pure function of its scenario.
That is what lets the engine dispatch cells to worker processes and
cache them on disk while staying bit-identical to a serial run.
"""

from __future__ import annotations

import random
from typing import Iterator, Mapping, Sequence

from repro.api.registry import RouterRegistry, default_registry
from repro.api.routeset import RouteSet
from repro.api.scenario import (
    FailureSpec,
    NodesFailure,
    RandomFailure,
    RegionFailure,
    Scenario,
)
from repro.core.model import InformationModel
from repro.geometry import Point
from repro.network.channel import ChannelState, channel_seed
from repro.network.dynamic import DynamicTopology
from repro.network.edges import EdgeDetector
from repro.network.failures import (
    fail_nodes_dynamic,
    fail_region_dynamic,
)
from repro.network.deployment import (
    UniformDeployment,
    deploy_forbidden_area_model,
    deploy_uniform_model,
)
from repro.network.graph import WasnGraph
from repro.network.mobility import RandomWaypointMobility
from repro.network.node import NodeId
from repro.protocols.boundhole import build_hole_boundaries
from repro.routing import RouteResult, Router
from repro.routing.base import OnHop, OnPhaseChange
from repro.routing.metrics import path_energy, retransmission_energy

__all__ = ["Session", "connected_session", "run_scenario"]

#: Scenario fields :meth:`Session.clone` may change: they affect which
#: routes are asked for and how routers are configured, but never the
#: materialised network itself (deployment, failures, topology).
_ROUTING_SIDE_FIELDS = frozenset(
    {
        "routers",
        "router_options",
        "routes_per_network",
        "packet_bits",
        "networks",
        # The channel sits *on top of* the materialised network: it
        # changes what transmissions cost, never which nodes and edges
        # exist — so clones may swap it freely.
        "channel",
        "link_faults",
        "max_retransmits",
    }
)


def _network_seed(scenario: Scenario, index: int) -> int:
    """Stable per-network seed: reruns regenerate identical networks."""
    key = (
        f"{scenario.seed}/{scenario.deployment_model}/"
        f"{scenario.node_count}/{index}"
    )
    return random.Random(key).getrandbits(63)


def _apply_failure(
    topology: DynamicTopology, event: FailureSpec, rng: random.Random
) -> None:
    """Apply one failure-schedule entry to the live topology."""
    if isinstance(event, RegionFailure):
        fail_region_dynamic(
            topology,
            (Point(event.x, event.y), event.radius),
            protect=event.protect,
        )
    elif isinstance(event, NodesFailure):
        fail_nodes_dynamic(topology, event.nodes)
    elif isinstance(event, RandomFailure):
        protected = set(event.protect)
        pool = [u for u in topology.alive_ids if u not in protected]
        count = min(event.count, len(pool))
        fail_nodes_dynamic(topology, rng.sample(pool, count))
    else:
        raise TypeError(
            f"unknown failure spec {event!r}; expected RegionFailure, "
            "NodesFailure or RandomFailure"
        )


def _apply_failures(
    topology: DynamicTopology, scenario: Scenario, rng: random.Random
) -> None:
    """Run the scenario's failure schedule, in order, in place.

    Events apply sequentially to the live topology — each takes its
    victims down incrementally (only incident edges are touched)
    instead of copying the surviving graph, but selects them from the
    alive nodes in ascending id order exactly as the historical
    graph-copy pipeline did, so seeded schedules are bit-identical.  A
    :class:`NodesFailure` naming a node that is not (or no longer)
    present raises ``KeyError`` — a typo'd id silently failing nothing
    would fake a "with failures" run.
    """
    for event in scenario.failures:
        _apply_failure(topology, event, rng)


class _PreparedNetwork:
    """A routable network with lazily built information bases.

    Satisfies the registry's
    :class:`~repro.api.registry.RoutableNetwork` protocol, but defers
    the information model (Algorithm 2) and the BOUNDHOLE boundary
    walks until a router or caller actually touches them — a session
    selecting only LGF never pays for either.  Laziness cannot change
    any value: both are pure functions of the (already fixed) graph.
    """

    def __init__(
        self,
        graph: WasnGraph,
        deployment_model: str,
        seed: int,
        construction_backend: str = "auto",
    ) -> None:
        self.graph = graph
        self.deployment_model = deployment_model
        self.seed = seed
        self.construction_backend = construction_backend
        self._model: InformationModel | None = None
        self._boundaries = None

    @property
    def model(self) -> InformationModel:
        if self._model is None:
            self._model = InformationModel.build(
                self.graph, backend=self.construction_backend
            )
        return self._model

    @property
    def boundaries(self):
        if self._boundaries is None:
            self._boundaries = build_hole_boundaries(self.graph)
        return self._boundaries


def _materialise(
    scenario: Scenario,
    network_index: int,
    construction_backend: str = "auto",
) -> _PreparedNetwork:
    """Build network ``network_index`` of a scenario, deterministically.

    The network seed (:func:`_network_seed`) drives the deployment;
    the unit-disk graph gets convex-hull edge detection.  Failure
    schedules slot in between graph construction and edge detection,
    so the surviving network is what re-runs its hull detection and
    information construction, exactly as a deployed WASN would.
    """
    if scenario.mobility is not None:
        # A mobile scenario has no meaningful static network; routing
        # it as one would report static numbers under a mobile label.
        raise ValueError(
            "mobile scenarios route per topology snapshot; iterate "
            "Session.epochs() instead of the static routing calls"
        )
    seed = _network_seed(scenario, network_index)
    rng = random.Random(seed)
    if scenario.obstacles:
        # Explicit shapes replace the FA model's random field.
        deployment = UniformDeployment(scenario.area, scenario.obstacles)
        positions = list(deployment.sample(scenario.node_count, rng))
    elif scenario.deployment_model == "FA":
        positions = list(
            deploy_forbidden_area_model(
                scenario.node_count,
                scenario.area,
                rng,
                obstacle_count=scenario.obstacle_count,
                min_obstacle_size=scenario.min_obstacle_size,
                max_obstacle_size=scenario.max_obstacle_size,
            ).positions
        )
    else:
        positions = list(
            deploy_uniform_model(
                scenario.node_count, scenario.area, rng
            ).positions
        )
    # The failure schedule runs against a live DynamicTopology — each
    # event touches only its incident edges — and the final snapshot
    # (with hull-based edge detection re-run over the survivors) is
    # bit-identical to the historical rebuild-per-event pipeline.
    topology = DynamicTopology(
        positions,
        scenario.radius,
        edge_detector=EdgeDetector(strategy="convex"),
        backend=construction_backend,
    )
    _apply_failures(topology, scenario, rng)
    return _PreparedNetwork(
        topology.graph,
        scenario.deployment_model,
        seed,
        construction_backend=construction_backend,
    )


class Session:
    """One prepared network plus its routers, behind a small facade.

    The expensive work (deployment, information model, hole
    boundaries, router setup) happens lazily on first use and exactly
    once; every routing call afterwards is cheap and deterministic.
    Laziness matters for mobility scenarios, whose epochs build their
    own per-snapshot networks and never touch the static one.
    """

    def __init__(
        self,
        scenario: Scenario | None = None,
        network_index: int = 0,
        registry: RouterRegistry | None = None,
        construction_backend: str = "auto",
        _instance: "_PreparedNetwork | None" = None,
    ) -> None:
        self.scenario = scenario if scenario is not None else Scenario()
        self.network_index = network_index
        # How the network materialises (unit-disk build, planarization
        # masks, safety classification): "auto" vectorizes when numpy
        # is importable and degrades silently otherwise.  A Session
        # parameter rather than a Scenario field on purpose — backends
        # cannot change any value, so they must not perturb Study
        # cache fingerprints.
        self.construction_backend = construction_backend
        self._registry = (
            registry if registry is not None else default_registry
        )
        self._instance_cache = _instance
        self._routers_cache: dict[str, Router] | None = None
        self._channel_cache: ChannelState | None = None

    @classmethod
    def from_graph(
        cls,
        graph: WasnGraph,
        scenario: Scenario | None = None,
        seed: int = 0,
        registry: RouterRegistry | None = None,
        routers: "Mapping[str, Router] | None" = None,
        construction_backend: str = "auto",
    ) -> "Session":
        """Session over an already-built graph (mobility snapshots,
        externally generated topologies).  The information model and
        hole boundaries are built lazily, on first need; the scenario
        contributes router selection and workload parameters only.

        ``routers`` injects already-constructed routers instead of
        building fresh ones — the resident-session path of
        :mod:`repro.serve`, whose routers track a live
        :class:`~repro.network.dynamic.DynamicTopology` and rebind
        incrementally.  The caller guarantees they are bound to
        ``graph``; the rebind == fresh contract (pinned by the router
        fuzz suite) is what makes the shortcut exact.
        """
        scenario = scenario if scenario is not None else Scenario()
        instance = _PreparedNetwork(
            graph,
            scenario.deployment_model,
            seed,
            construction_backend=construction_backend,
        )
        session = cls(
            scenario,
            network_index=0,
            registry=registry,
            construction_backend=construction_backend,
            _instance=instance,
        )
        if routers is not None:
            session._routers_cache = dict(routers)
        return session

    def clone(self, **changes) -> "Session":
        """A Session sharing this one's materialised network.

        Materialisation — deployment, failure schedule, unit-disk
        construction, the columnar TopologyCore and the lazy
        information bases — is the expensive part of a Session, and it
        is a pure function of the scenario's *network-side* fields.
        ``clone`` reuses it: the returned Session answers routing
        queries over the very same prepared network (O(1) startup,
        pinned by ``benchmarks/bench_serve.py``), optionally with
        different *routing-side* fields::

            fast = session.clone(routers=("GF",), routes_per_network=100)

        Only routing-side changes are accepted — ``routers``,
        ``router_options``, ``routes_per_network``, ``packet_bits``,
        ``networks``, ``channel``, ``link_faults`` and
        ``max_retransmits`` (the channel layers on top of the
        materialised network without altering it, so lossy variants of
        one deployment share its topology).  Changing a network-side
        field (density,
        seed, failures, …) raises ``ValueError``: the shared network
        would not match the new scenario, and silently serving stale
        topology under a fresh label is exactly the bug this guard
        exists to prevent.  Results are bit-identical to a
        from-scratch ``Session`` of the same scenario (same network
        seed, same pair stream); the golden serve tests pin this.
        """
        unsupported = set(changes) - _ROUTING_SIDE_FIELDS
        if unsupported:
            allowed = ", ".join(sorted(_ROUTING_SIDE_FIELDS))
            raise ValueError(
                "clone() only changes routing-side fields "
                f"({allowed}); got network-side change(s): "
                f"{', '.join(sorted(unsupported))} — build a new "
                "Session for a different network"
            )
        scenario = (
            self.scenario.with_(**changes) if changes else self.scenario
        )
        return Session(
            scenario,
            self.network_index,
            registry=self._registry,
            construction_backend=self.construction_backend,
            _instance=self.instance,
        )

    # -- materialised state ---------------------------------------------

    @property
    def instance(self) -> _PreparedNetwork:
        """The prepared network (graph + lazy information bases)."""
        if self._instance_cache is None:
            self._instance_cache = _materialise(
                self.scenario,
                self.network_index,
                construction_backend=self.construction_backend,
            )
        return self._instance_cache

    @property
    def graph(self) -> WasnGraph:
        return self.instance.graph

    @property
    def model(self) -> InformationModel:
        return self.instance.model

    @property
    def boundaries(self):
        return self.instance.boundaries

    @property
    def channel(self) -> ChannelState | None:
        """The materialised lossy channel, or ``None`` for perfect links.

        Built lazily per session (cheap: link probabilities price on
        first touch) and seeded from the network seed via
        :func:`~repro.network.channel.channel_seed`, so the same
        scenario reproduces the same channel across processes — and a
        mobility epoch, whose session carries its own seed, gets its
        own channel.  ``None`` exactly when ``scenario.is_lossy`` is
        false: perfect-link sessions never touch the channel layer,
        which is the bit-identity guarantee the golden tests pin.
        """
        if not self.scenario.is_lossy:
            return None
        if self._channel_cache is None:
            self._channel_cache = ChannelState(
                self.graph,
                self.scenario.radius,
                self.scenario.channel,
                faults=self.scenario.link_faults,
                seed=channel_seed(self.instance.seed),
                max_retransmits=self.scenario.max_retransmits,
            )
        return self._channel_cache

    def _router_map(self) -> dict[str, Router]:
        if self._routers_cache is None:
            self._routers_cache = self._registry.build(
                self.instance,
                names=self.scenario.routers or None,
                options=self.scenario.router_options,
            )
        return self._routers_cache

    @property
    def routers(self) -> dict[str, Router]:
        """Name -> constructed router, in registry (legend) order."""
        return dict(self._router_map())

    def router(self, name: str | None = None) -> Router:
        """One router by name (or the only one, if just one is set)."""
        routers = self._router_map()
        if name is None:
            if len(routers) == 1:
                return next(iter(routers.values()))
            raise ValueError(
                "session has several routers "
                f"({', '.join(routers)}); name one"
            )
        try:
            return routers[name]
        except KeyError:
            known = ", ".join(routers)
            raise KeyError(
                f"router {name!r} not in this session; present: {known}"
            ) from None

    def connected(self) -> bool:
        """Whether the materialised graph is one component."""
        return self.graph.is_connected()

    # -- routing --------------------------------------------------------

    def route(
        self,
        source: NodeId,
        destination: NodeId,
        router: str | None = None,
        on_hop: OnHop | None = None,
        on_phase_change: OnPhaseChange | None = None,
    ) -> RouteResult:
        """Route one packet (hop observers pass straight through)."""
        return self.router(router).route(
            source,
            destination,
            on_hop=on_hop,
            on_phase_change=on_phase_change,
        )

    def route_all(
        self, source: NodeId, destination: NodeId
    ) -> dict[str, RouteResult]:
        """One packet through every configured scheme."""
        return {
            name: router.route(source, destination)
            for name, router in self._router_map().items()
        }

    def sample_pairs(
        self, count: int | None = None
    ) -> list[tuple[NodeId, NodeId]]:
        """The scenario's deterministic source-destination pairs.

        "We assume that the destination and the source are randomly
        selected in the interest area" (Section 5).  Pairs are drawn
        uniformly from the largest connected component — a
        disconnected pair is undeliverable for *every* scheme and would
        only add identical noise to all curves — so a graph without a
        two-node component yields none.

        Re-entrant: every call re-derives the same pair stream (seeded
        with the network seed + 1), so repeated batches are replays,
        not fresh draws.
        """
        if count is None:
            count = self.scenario.routes_per_network
        components = self.graph.connected_components()
        if not components or len(components[0]) < 2:
            return []
        pool = sorted(components[0])
        rng = random.Random(self.instance.seed + 1)
        return [tuple(rng.sample(pool, 2)) for _ in range(count)]

    def route_pairs(
        self,
        count: int | None = None,
        routers: Sequence[str] | None = None,
        energy: bool = False,
        backend: str = "auto",
    ) -> RouteSet:
        """Route a batch of sampled pairs through the selected schemes.

        Iteration order is router-major, pairs inner: the aggregation
        order of :meth:`RouteSet.point_result`.
        ``energy=True`` additionally folds per-route radio energy
        (``scenario.packet_bits`` bits) into the set — off by default,
        since it costs an extra O(hops) walk per route that most
        workloads never read.  ``backend`` is handed to
        :meth:`~repro.routing.base.Router.route_batch` unchanged
        (``"auto"``/``"scalar"``/``"numpy"`` — every backend returns
        bit-identical results, so it only selects speed).
        """
        pairs = self.sample_pairs(count)
        selected = (
            tuple(self._router_map()) if routers is None else tuple(routers)
        )
        # Lossy scenarios replay every routed path over the seeded
        # channel (a pure function of seed/link/slot — identical across
        # backends and processes); perfect channels skip the layer
        # entirely, keeping default runs bit-identical to the seed.
        state = self.channel
        out = RouteSet()
        for name in selected:
            router = self.router(name)
            # The whole batch runs through the scheme's executor, the
            # loop route() runs too; a router with its own _run routes
            # pair by pair inside route_batch.
            for result in router.route_batch(pairs, backend=backend):
                transmission = None
                if state is not None:
                    transmission = state.transmit_route(
                        result.path, result.delivered
                    )
                    if energy:
                        transmission = state.with_energy(
                            transmission,
                            retransmission_energy(
                                result,
                                self.graph,
                                transmission,
                                bits=self.scenario.packet_bits,
                            ),
                        )
                out.add(
                    result,
                    energy=(
                        path_energy(
                            result,
                            self.graph,
                            bits=self.scenario.packet_bits,
                        )
                        if energy
                        else None
                    ),
                    # Group under the registry name (the legend name),
                    # which may differ from the scheme's own label.
                    router=name,
                    transmission=transmission,
                )
        return out

    def run(self, backend: str = "auto") -> RouteSet:
        """The scenario's full per-network workload."""
        return self.route_pairs(backend=backend)

    # -- mobility -------------------------------------------------------

    def epochs(self) -> Iterator["Session"]:
        """Sessions over the mobility schedule's topology snapshots.

        The topology is maintained incrementally: one live
        :class:`~repro.network.dynamic.DynamicTopology` absorbs each
        epoch's position deltas (only the edges that actually changed
        are recomputed, and edge-node detection re-runs per snapshot),
        instead of rebuilding the unit-disk graph per epoch.  Each
        yielded session still rebuilds the information model on the
        drifted topology (the paper's periodic beaconing); routers are
        reconstructed per snapshot.  Requires ``scenario.mobility``.
        """
        schedule = self.scenario.mobility
        if schedule is None:
            raise ValueError("scenario has no mobility schedule")
        seed = self._walker_seed()
        walker = RandomWaypointMobility(
            self.scenario.area,
            self.scenario.node_count,
            random.Random(seed),
            speed=(schedule.speed_min, schedule.speed_max),
            pause=schedule.pause,
        )
        topology = walker.dynamic_topology(
            self.scenario.radius,
            edge_detector=EdgeDetector(strategy="convex"),
        )
        for epoch in range(schedule.epochs):
            if epoch:
                walker.advance(schedule.dt)
                topology.move_many(enumerate(walker.positions()))
            yield Session.from_graph(
                topology.graph,
                self.scenario,
                seed=seed + 1 + epoch,
                registry=self._registry,
                construction_backend=self.construction_backend,
            )

    def _walker_seed(self) -> int:
        """The session's network seed, derived without materialising.

        Equals ``instance.seed`` for scenario-built sessions; mobility
        epochs use it so a mobile scenario never pays for the static
        network it will not route on.
        """
        if self._instance_cache is not None:
            return self._instance_cache.seed
        return _network_seed(self.scenario, self.network_index)

    def __repr__(self) -> str:
        return (
            f"Session({self.scenario.deployment_model}, "
            f"n={self.scenario.node_count}, network={self.network_index}, "
            f"routers=[{', '.join(self.scenario.routers) or 'all'}])"
        )


def run_scenario(
    scenario: Scenario,
    registry: RouterRegistry | None = None,
    backend: str = "auto",
) -> RouteSet:
    """Evaluate a scenario across all its networks, merged in order.

    Network ``index`` is self-contained (its seed comes from
    :func:`_network_seed`), and the per-network route sets merge in
    index order.  A *mobile* scenario is evaluated per topology epoch
    — each network's incrementally maintained snapshots (see
    :meth:`Session.epochs`) route their own workload — and the epochs
    merge in order, so the result aggregates over the whole drift.
    """
    merged = RouteSet()
    for index in range(scenario.networks):
        session = Session(scenario, index, registry=registry)
        if scenario.mobility is not None:
            for epoch_session in session.epochs():
                merged.merge(epoch_session.run(backend=backend))
        else:
            merged.merge(session.run(backend=backend))
    return merged


def connected_session(
    scenario: Scenario,
    attempts: int = 50,
    registry: RouterRegistry | None = None,
) -> Session:
    """First session (by network index) whose graph is connected.

    The facade form of the examples' old retry loops: network index
    varies the per-network seed, so trying successive indices is the
    deterministic way to find a connected deployment.
    """
    for index in range(attempts):
        session = Session(scenario, index, registry=registry)
        if session.connected():
            return session
    raise RuntimeError(
        f"no connected deployment in {attempts} attempts for {scenario}"
    )
