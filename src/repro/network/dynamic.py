"""Incremental unit-disk topology maintenance under churn.

Section 1 motivates exactly this regime: "node failures, signal
fading, communication jamming, power exhaustion, interference, and
node mobility" all perturb the topology *locally*, yet the static
pipeline answers every perturbation by rebuilding the whole unit-disk
graph (``build_unit_disk_graph`` is O(n * k), and each rebuilt
:class:`~repro.network.graph.WasnGraph` revalidates all of E).  For
dynamic sweeps — a failure schedule, a mobility stream, an interactive
session poking at a deployment — that makes event cost proportional to
network size instead of event size.

:class:`DynamicTopology` keeps the graph *live*.  It owns a
:class:`~repro.network.spatial.SpatialGrid` over the alive nodes and,
on every move/failure/restoration, recomputes only the edges incident
to the affected nodes — a 3x3 cell neighbourhood query per touched
node, since the grid's cell size equals the communication radius.
Each mutation produces a structured :class:`TopologyDelta` (edges
added/removed, nodes up/down, nodes moved) that is pushed to
subscribers, so consumers — routers caching planarizations, sessions
caching information models — invalidate precisely what changed instead
of rebuilding on spec.

Snapshots (:attr:`DynamicTopology.graph`) are ordinary immutable
``WasnGraph`` values, bit-identical to a from-scratch
``build_unit_disk_graph`` over the same alive positions (the
differential suite ``tests/network/test_dynamic_differential.py`` pins
this edge for edge, edge-node flags and planarizations included), so
everything above the network layer works unchanged.  Snapshot
construction skips the O(E) symmetry validation — the invariant holds
by construction and is exactly what the differential tests retire —
and reuses cached per-node adjacency tuples and ``Node`` records, so a
snapshot after a small perturbation is O(n), not O(n * k)
(``benchmarks/bench_dynamic.py`` pins the resulting >= 5x speedup).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from repro.geometry import Point, Rect
from repro.network import construct as _construct
from repro.network.edges import EdgeDetector
from repro.network.graph import WasnGraph
from repro.network.node import Node, NodeId
from repro.network.spatial import SpatialGrid

__all__ = ["DynamicTopology", "TopologyDelta"]

#: An undirected edge, always stored (smaller id, larger id).
Edge = tuple[NodeId, NodeId]


def _edge(u: NodeId, v: NodeId) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class TopologyDelta:
    """The net effect of one topology mutation (or batch of them).

    Edges are undirected ``(smaller id, larger id)`` pairs, sorted for
    determinism.  Within one batch, transient churn cancels: an edge
    dropped and regained by successive moves of the same batch appears
    in neither tuple, and a node moved away and back appears not at
    all.  ``moved`` lists each net-moved node once, in first-touch
    order (including currently-down nodes, whose stored position moved
    with them); ``nodes_down`` edges are already folded into
    ``removed_edges``.
    """

    added_edges: tuple[Edge, ...] = ()
    removed_edges: tuple[Edge, ...] = ()
    nodes_up: tuple[NodeId, ...] = ()
    nodes_down: tuple[NodeId, ...] = ()
    moved: tuple[NodeId, ...] = ()

    def __bool__(self) -> bool:
        """Whether the mutation changed anything at all."""
        return bool(
            self.added_edges
            or self.removed_edges
            or self.nodes_up
            or self.nodes_down
            or self.moved
        )


class _DeltaRecorder:
    """Accumulates the net edge/node churn of one mutation batch."""

    __slots__ = ("added", "removed", "up", "down", "origins")

    def __init__(self) -> None:
        self.added: set[Edge] = set()
        self.removed: set[Edge] = set()
        self.up: list[NodeId] = []
        self.down: list[NodeId] = []
        # First pre-batch position of each touched node, in touch
        # order: freeze() nets a node out when it ended where it began.
        self.origins: dict[NodeId, Point] = {}

    def add_edge(self, e: Edge) -> None:
        # Re-adding an edge removed earlier in the same batch is a
        # wash, not an add — the delta reports net change only.
        if e in self.removed:
            self.removed.discard(e)
        else:
            self.added.add(e)

    def remove_edge(self, e: Edge) -> None:
        if e in self.added:
            self.added.discard(e)
        else:
            self.removed.add(e)

    def note_move(self, key: NodeId, origin: Point) -> None:
        if key not in self.origins:
            self.origins[key] = origin

    def freeze(self, positions: Mapping[NodeId, Point]) -> TopologyDelta:
        return TopologyDelta(
            added_edges=tuple(sorted(self.added)),
            removed_edges=tuple(sorted(self.removed)),
            nodes_up=tuple(self.up),
            nodes_down=tuple(self.down),
            moved=tuple(
                key
                for key, origin in self.origins.items()
                if positions[key] != origin
            ),
        )


#: A delta subscriber: called synchronously after each mutation.
DeltaSubscriber = Callable[[TopologyDelta], None]


class DynamicTopology:
    """A unit-disk graph maintained incrementally under churn.

    Node ids are fixed at construction (index order for a position
    sequence); nodes never leave the universe, they only go *down*
    (failure) and come back *up* (restoration), which is how the
    surviving graphs of :mod:`repro.network.failures` keep their
    original ids.  ``edge_detector`` (plus ``area`` for the ``margin``
    strategy) re-runs edge-node detection on each snapshot, matching a
    pipeline that applies :class:`~repro.network.edges.EdgeDetector`
    after every rebuild.

    All mutators return the :class:`TopologyDelta` they caused and
    push it to every subscriber before returning.
    """

    def __init__(
        self,
        positions: Sequence[Point] | Mapping[NodeId, Point],
        radius: float,
        edge_detector: EdgeDetector | None = None,
        area: Rect | None = None,
        backend: str = "auto",
    ):
        if radius <= 0:
            raise ValueError("communication radius must be positive")
        if isinstance(positions, Mapping):
            items = sorted(positions.items())
        else:
            items = list(enumerate(positions))
        self._radius = radius
        self._detector = edge_detector
        self._area = area
        self._positions: dict[NodeId, Point] = dict(items)
        if len(self._positions) != len(items):
            raise ValueError("duplicate node ids in positions")
        self._down: set[NodeId] = set()
        self._grid = SpatialGrid(cell_size=radius)
        self._grid.bulk_insert(items)
        # Per-node caches reused across snapshots; entries drop the
        # moment the node's adjacency / position / edge flag changes.
        self._sorted: dict[NodeId, tuple[NodeId, ...]] = {}
        np = _construct.resolve_backend(
            backend, "DynamicTopology(backend='numpy')"
        )
        if np is not None and len(items) > 1:
            # The initial bulk neighbour pass as array ops — the same
            # closed-ball edge set the grid sweep below produces (the
            # kernel re-decides threshold-adjacent pairs with the
            # scalar test, so the sets are identical).  Rows arrive
            # sorted, which also seeds the snapshot tuple cache.
            self._neighbors = {}
            keys = [key for key, _ in items]
            axs = np.fromiter(
                (p.x for _, p in items), dtype=np.float64, count=len(items)
            )
            ays = np.fromiter(
                (p.y for _, p in items), dtype=np.float64, count=len(items)
            )
            a, b = _construct.unit_disk_pairs(np, axs, ays, radius)
            indptr, dst = _construct.csr_from_pairs(np, len(items), a, b)
            ids_arr = np.asarray(keys, dtype=np.int64)
            flat_ids = ids_arr[dst].tolist()
            offs_l = indptr.tolist()
            for i, key in enumerate(keys):
                row = flat_ids[offs_l[i] : offs_l[i + 1]]
                self._neighbors[key] = set(row)
                self._sorted[key] = tuple(row)
        else:
            self._neighbors = {key: set() for key, _ in items}
            for a, b in self._grid.all_pairs_within(radius):
                self._neighbors[a].add(b)
                self._neighbors[b].add(a)
        self._node_cache: dict[NodeId, Node] = {}
        self._edge_ids: set[NodeId] = set()
        self._snapshot: WasnGraph | None = None
        self._subscribers: list[DeltaSubscriber] = []

    @classmethod
    def from_graph(
        cls,
        graph: WasnGraph,
        edge_detector: EdgeDetector | None = None,
        area: Rect | None = None,
        backend: str = "auto",
    ) -> "DynamicTopology":
        """Adopt an existing unit-disk graph (ids and flags preserved).

        The adjacency is re-derived from the positions — identical for
        any graph that satisfies the unit-disk property, which every
        ``build_unit_disk_graph`` product (and any ``without_nodes``
        restriction of one) does.  Without an ``edge_detector`` the
        graph's current edge-node flags are carried into snapshots
        as-is; with one, detection re-runs per snapshot.
        """
        topo = cls(
            {u: graph.position(u) for u in graph.node_ids},
            graph.radius,
            edge_detector=edge_detector,
            area=area,
            backend=backend,
        )
        topo._edge_ids = {
            u for u in graph.node_ids if graph.is_edge_node(u)
        }
        return topo

    # -- inspection -----------------------------------------------------

    @property
    def radius(self) -> float:
        """The common communication range."""
        return self._radius

    def __len__(self) -> int:
        """Number of *alive* nodes."""
        return len(self._neighbors)

    def __contains__(self, key: NodeId) -> bool:
        """Whether the id exists in the universe (alive or down)."""
        return key in self._positions

    @property
    def alive_ids(self) -> tuple[NodeId, ...]:
        """Ids of alive nodes, ascending (deterministic iteration)."""
        return tuple(sorted(self._neighbors))

    @property
    def down_ids(self) -> tuple[NodeId, ...]:
        """Ids of failed nodes, ascending."""
        return tuple(sorted(self._down))

    def is_down(self, key: NodeId) -> bool:
        self._require_known(key)
        return key in self._down

    def position(self, key: NodeId) -> Point:
        """Current (or last known, for down nodes) position of ``key``."""
        return self._positions[key]

    def neighbors(self, key: NodeId) -> tuple[NodeId, ...]:
        """Alive neighbours of an alive node, ascending."""
        if key not in self._neighbors:
            self._require_known(key)
            raise KeyError(f"node {key} is down")
        return self._sorted_neighbors(key)

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return v in self._neighbors.get(u, ())

    # -- subscription ---------------------------------------------------

    def subscribe(self, subscriber: DeltaSubscriber) -> DeltaSubscriber:
        """Register a callback invoked after every non-empty mutation.

        Subscribers run synchronously, in registration order, *after*
        the topology reflects the delta — reading :attr:`graph` from a
        subscriber sees the new state.  Returns the subscriber, so it
        doubles as a decorator.
        """
        self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: DeltaSubscriber) -> None:
        self._subscribers.remove(subscriber)

    # -- mutation -------------------------------------------------------

    def move(self, key: NodeId, position: Point) -> TopologyDelta:
        """Relocate one node, updating only its incident edges."""
        return self.move_many(((key, position),))

    def move_many(
        self,
        moves: Iterable[tuple[NodeId, Point]] | Mapping[NodeId, Point],
    ) -> TopologyDelta:
        """Relocate a batch of nodes (e.g. one mobility epoch).

        Down nodes may move too — their stored position updates and
        they reappear at it when restored — but only alive nodes touch
        the edge set.  No-op moves (identical position) are skipped.
        """
        if isinstance(moves, Mapping):
            moves = moves.items()
        moves = list(moves)
        # Validate the whole batch before mutating anything: a bad id
        # mid-batch must not leave earlier moves applied with no delta
        # delivered (tracked routers would silently go stale).
        for key, _ in moves:
            self._require_known(key)
        rec = _DeltaRecorder()
        self._snapshot = None
        for key, position in moves:
            if position == self._positions[key]:
                continue
            rec.note_move(key, self._positions[key])
            self._positions[key] = position
            self._node_cache.pop(key, None)
            if key in self._down:
                continue
            old_neighbors = self._neighbors[key]
            self._grid.move(key, position)
            new_neighbors = set(
                self._grid.neighbors_within(
                    position, self._radius, exclude=key
                )
            )
            if new_neighbors == old_neighbors:
                continue
            for v in old_neighbors - new_neighbors:
                self._neighbors[v].discard(key)
                self._sorted.pop(v, None)
                rec.remove_edge(_edge(key, v))
            for v in new_neighbors - old_neighbors:
                self._neighbors[v].add(key)
                self._sorted.pop(v, None)
                rec.add_edge(_edge(key, v))
            self._neighbors[key] = new_neighbors
            self._sorted.pop(key, None)
        return self._commit(rec)

    def fail(self, key: NodeId) -> TopologyDelta:
        """Take one node down (with all its incident edges)."""
        return self.fail_many((key,))

    def fail_many(self, keys: Iterable[NodeId]) -> TopologyDelta:
        """Take a batch of nodes down, atomically.

        Failing an unknown, already-down or batch-duplicated node
        raises ``KeyError`` (mirroring
        :func:`repro.network.failures.fail_nodes`): a typo'd id
        silently failing nothing would fake a "with failures" run.
        The whole batch is validated before any node goes down, so a
        rejected batch leaves the topology — and every subscriber —
        exactly as it was.
        """
        keys = list(keys)
        going_down: set[NodeId] = set()
        for key in keys:
            self._require_known(key)
            if key in self._down or key in going_down:
                raise KeyError(f"node {key} is already down")
            going_down.add(key)
        rec = _DeltaRecorder()
        self._snapshot = None
        for key in keys:
            for v in self._neighbors[key]:
                self._neighbors[v].discard(key)
                self._sorted.pop(v, None)
                rec.remove_edge(_edge(key, v))
            del self._neighbors[key]
            self._sorted.pop(key, None)
            # The edge flag deliberately stays in _edge_ids: a node
            # that fails and comes back keeps its flag in no-detector
            # mode; with a detector the next snapshot re-decides.
            self._node_cache.pop(key, None)
            self._grid.remove(key)
            self._down.add(key)
            rec.down.append(key)
        return self._commit(rec)

    def restore(
        self, key: NodeId, position: Point | None = None
    ) -> TopologyDelta:
        """Bring one failed node back, optionally at a new position."""
        positions = None if position is None else {key: position}
        return self.restore_many((key,), positions)

    def restore_many(
        self,
        keys: Iterable[NodeId],
        positions: Mapping[NodeId, Point] | None = None,
    ) -> TopologyDelta:
        """Bring a batch of failed nodes back up, atomically.

        Each node reappears at its stored position unless ``positions``
        overrides it.  Restoring an alive (or batch-duplicated) node
        raises ``KeyError`` — before any node of the batch comes up.
        """
        keys = list(keys)
        coming_up: set[NodeId] = set()
        for key in keys:
            self._require_known(key)
            if key not in self._down or key in coming_up:
                raise KeyError(f"node {key} is not down")
            coming_up.add(key)
        rec = _DeltaRecorder()
        self._snapshot = None
        for key in keys:
            if positions is not None and key in positions:
                if positions[key] != self._positions[key]:
                    rec.note_move(key, self._positions[key])
                self._positions[key] = positions[key]
            position = self._positions[key]
            self._down.discard(key)
            self._node_cache.pop(key, None)
            self._grid.insert(key, position)
            new_neighbors = set(
                self._grid.neighbors_within(
                    position, self._radius, exclude=key
                )
            )
            self._neighbors[key] = new_neighbors
            self._sorted.pop(key, None)
            for v in new_neighbors:
                self._neighbors[v].add(key)
                self._sorted.pop(v, None)
                rec.add_edge(_edge(key, v))
            rec.up.append(key)
        return self._commit(rec)

    # -- snapshots ------------------------------------------------------

    @property
    def graph(self) -> WasnGraph:
        """The current topology as an immutable ``WasnGraph``.

        Cached until the next mutation; successive snapshots share the
        unchanged per-node adjacency tuples and ``Node`` records, so a
        snapshot after a local perturbation costs O(n), not O(n * k).
        """
        if self._snapshot is None:
            self._snapshot = self._build_snapshot()
        return self._snapshot

    def _build_snapshot(self) -> WasnGraph:
        alive = sorted(self._neighbors)
        adjacency = {u: self._sorted_neighbors(u) for u in alive}
        graph = self._snapshot_graph(alive, adjacency)
        if self._detector is None:
            return graph
        edge_ids = self._detector.detect(graph, self._area)
        # Compare against the *alive* flags only: down nodes keep
        # their last flag (irrelevant to this snapshot, meaningful to
        # a no-detector restore) and must not force rebuild loops.
        alive_flagged = {u for u in self._edge_ids if u in self._neighbors}
        if edge_ids != alive_flagged:
            for u in edge_ids ^ alive_flagged:
                self._node_cache.pop(u, None)
            self._edge_ids = (self._edge_ids - alive_flagged) | edge_ids
            graph = self._snapshot_graph(alive, adjacency)
        return graph

    def _snapshot_graph(
        self,
        alive: list[NodeId],
        adjacency: dict[NodeId, tuple[NodeId, ...]],
    ) -> WasnGraph:
        """One immutable snapshot over the incrementally maintained rows.

        The adjacency values are the *same* tuple objects the 3x3-cell
        local recompute maintains — rebuilt only where a delta touched
        them, shared otherwise — and they feed the snapshot's columnar
        core directly when (and only when) something columnar asks.
        They are sorted by construction, so ``validate=False`` trusts
        them as they are, and a snapshot nothing columnar reads never
        assembles columns at all.
        """
        return WasnGraph(
            [self._node(u) for u in alive],
            adjacency,
            self._radius,
            validate=False,
        )

    # -- internals ------------------------------------------------------

    def _require_known(self, key: NodeId) -> None:
        if key not in self._positions:
            raise KeyError(f"unknown node {key}")

    def _sorted_neighbors(self, key: NodeId) -> tuple[NodeId, ...]:
        cached = self._sorted.get(key)
        if cached is None:
            cached = tuple(sorted(self._neighbors[key]))
            self._sorted[key] = cached
        return cached

    def _node(self, key: NodeId) -> Node:
        cached = self._node_cache.get(key)
        if cached is None:
            cached = Node(
                key, self._positions[key], key in self._edge_ids
            )
            self._node_cache[key] = cached
        return cached

    def _commit(self, rec: _DeltaRecorder) -> TopologyDelta:
        delta = rec.freeze(self._positions)
        if delta:
            for subscriber in list(self._subscribers):
                subscriber(delta)
        return delta

    def __repr__(self) -> str:
        return (
            f"DynamicTopology(alive={len(self._neighbors)}, "
            f"down={len(self._down)}, radius={self._radius})"
        )
