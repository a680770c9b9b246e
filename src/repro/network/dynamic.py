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

:class:`DynamicTopology` starts *frozen*: construction is one bulk
columnar build (:func:`~repro.network.core.build_core`, numpy or
scalar per the backend), and the first snapshot is the core-backed
view over it, edge flags detected on the core before the graph is
wrapped.  A network that never changes — every Study cell without a
failure schedule — therefore never builds a per-node object.

The first mutation *thaws* the topology: a
:class:`~repro.network.spatial.SpatialGrid` over the alive nodes, the
per-node neighbour sets and the sorted-row cache are built once from
the core's rows.  From then on every move/failure/restoration
recomputes only the edges incident to the affected nodes — a 3x3 cell
neighbourhood query per touched node, since the grid's cell size
equals the communication radius.  Each mutation produces a structured
:class:`TopologyDelta` (edges added/removed, nodes up/down, nodes
moved) that is pushed to subscribers, so consumers — routers caching
planarizations, sessions caching information models — invalidate
precisely what changed instead of rebuilding on spec.  The inspectors
(``len``, ``alive_ids``, ``position``, ``neighbors``, ``has_edge``)
thaw too: every caller that reads them is about to mutate, so only
the snapshot ever reads the frozen core.

Snapshots (:attr:`DynamicTopology.graph`) are ordinary immutable
``WasnGraph`` values, bit-identical to a from-scratch
``build_unit_disk_graph`` over the same alive positions (the
differential suite ``tests/network/test_dynamic_differential.py`` pins
this edge for edge, edge-node flags and planarizations included), so
everything above the network layer works unchanged.  Post-mutation
snapshot construction skips the O(E) symmetry validation — the
invariant holds by construction and is exactly what the differential
tests retire — and assembles one core from the cached per-node
adjacency tuples, detecting edge nodes on it as the frozen path does,
so a snapshot after a small perturbation is O(n), not O(n * k)
(``benchmarks/bench_dynamic.py`` pins the resulting >= 5x speedup).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from repro.geometry import Point, Rect
from repro.network.core import TopologyCore, build_core
from repro.network.edges import EdgeDetector
from repro.network.graph import WasnGraph
from repro.network.node import NodeId
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
    sequence, the keys of a mapping); nodes never leave the universe,
    they only go *down* (failure) and come back *up* (restoration),
    which is how the surviving graphs of :mod:`repro.network.failures`
    keep their original ids.  ``edge_detector`` (plus ``area`` for the
    ``margin`` strategy) re-runs edge-node detection on each snapshot,
    matching a pipeline that applies
    :class:`~repro.network.edges.EdgeDetector` after every rebuild.

    The topology starts from the bulk core and thaws into its
    incremental state on the first mutation (see the module
    docstring).  All mutators return the :class:`TopologyDelta` they
    caused and push it to every subscriber before returning.
    """

    def __init__(
        self,
        positions: Sequence[Point] | Mapping[NodeId, Point],
        radius: float,
        edge_detector: EdgeDetector | None = None,
        area: Rect | None = None,
        backend: str = "auto",
    ):
        self._radius = radius
        self._detector = edge_detector
        self._area = area
        # The frozen state: the bulk core, until the first mutation
        # thaws it (_thaw) into the incremental state below.
        self._frozen: TopologyCore | None = build_core(
            positions, radius, backend=backend
        )
        self._positions: dict[NodeId, Point] = {}
        self._neighbors: dict[NodeId, set[NodeId]] = {}
        self._grid: SpatialGrid | None = None
        self._down: set[NodeId] = set()
        # Sorted rows reused across snapshots; an entry drops the
        # moment the node's adjacency changes.
        self._sorted: dict[NodeId, tuple[NodeId, ...]] = {}
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
        self._thaw()
        return len(self._neighbors)

    def __contains__(self, key: NodeId) -> bool:
        """Whether the id exists in the universe (alive or down)."""
        self._thaw()
        return key in self._positions

    @property
    def alive_ids(self) -> tuple[NodeId, ...]:
        """Ids of alive nodes, ascending (deterministic iteration)."""
        self._thaw()
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
        self._thaw()
        return self._positions[key]

    def neighbors(self, key: NodeId) -> tuple[NodeId, ...]:
        """Alive neighbours of an alive node, ascending."""
        self._thaw()
        if key not in self._neighbors:
            self._require_known(key)
            raise KeyError(f"node {key} is down")
        return self._sorted_neighbors(key)

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        self._thaw()
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
        self._thaw()
        rec = _DeltaRecorder()
        self._snapshot = None
        for key, position in moves:
            if position == self._positions[key]:
                continue
            rec.note_move(key, self._positions[key])
            self._positions[key] = position
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
        self._thaw()
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
        self._thaw()
        rec = _DeltaRecorder()
        self._snapshot = None
        for key in keys:
            if positions is not None and key in positions:
                if positions[key] != self._positions[key]:
                    rec.note_move(key, self._positions[key])
                self._positions[key] = positions[key]
            position = self._positions[key]
            self._down.discard(key)
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

        Cached until the next mutation.  Before the first one it is
        the core-backed view over the bulk core; after it, a core-backed
        view over one core assembled from the per-node adjacency
        tuples, which successive snapshots share where unchanged, so a
        snapshot after a local perturbation costs O(n), not O(n * k).
        """
        if self._snapshot is None:
            self._snapshot = self._build_snapshot()
        return self._snapshot

    def _build_snapshot(self) -> WasnGraph:
        core = self._frozen
        if core is None:
            # One core over the rows the 3x3-cell local recompute
            # maintains: the same tuple objects, rebuilt only where a
            # delta touched them, and sorted by construction.
            alive = sorted(self._neighbors)
            core = TopologyCore.from_rows(
                alive,
                self._positions,
                self._radius,
                [self._sorted_neighbors(u) for u in alive],
            )
        # Detect on an O(1) view of the core, then wrap the flagged
        # core once.  Without a detector the flags are the ones
        # from_graph carried.
        if self._detector is not None:
            edge_ids = self._detector.detect(
                WasnGraph.from_core(core), self._area
            )
            # Down nodes keep their last flag: irrelevant to this
            # snapshot, meaningful to a no-detector restore.
            alive_flagged = {u for u in self._edge_ids if u in core}
            self._edge_ids = (self._edge_ids - alive_flagged) | edge_ids
        return WasnGraph.from_core(core.with_edge_flags(self._edge_ids))

    # -- internals ------------------------------------------------------

    def _require_known(self, key: NodeId) -> None:
        if key not in self:
            raise KeyError(f"unknown node {key}")

    def _thaw(self) -> None:
        """Build the incremental state from the frozen core's rows."""
        core = self._frozen
        if core is None:
            return
        self._frozen = None
        ids, xs, ys = core.ids, core.xs, core.ys
        rows = core.rows()
        self._positions = {u: Point(xs[i], ys[i]) for i, u in enumerate(ids)}
        self._neighbors = {u: set(row) for u, row in zip(ids, rows)}
        self._sorted = dict(zip(ids, rows))
        self._grid = SpatialGrid(cell_size=self._radius)
        self._grid.bulk_insert(self._positions.items())

    def _sorted_neighbors(self, key: NodeId) -> tuple[NodeId, ...]:
        cached = self._sorted.get(key)
        if cached is None:
            cached = tuple(sorted(self._neighbors[key]))
            self._sorted[key] = cached
        return cached

    def _commit(self, rec: _DeltaRecorder) -> TopologyDelta:
        delta = rec.freeze(self._positions)
        if delta:
            for subscriber in list(self._subscribers):
                subscriber(delta)
        return delta

    def __repr__(self) -> str:
        return (
            f"DynamicTopology(alive={len(self)}, "
            f"down={len(self._down)}, radius={self._radius})"
        )
