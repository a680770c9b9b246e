"""The WASN unit-disk graph ``G = (V, E)``.

"With the assumption that all the sensors have the same communication
range, a WASN can be represented by a simple undirected graph
G = (V, E) ... each [edge] indicates two nodes are within the
communication range of each other.  N(u) denotes the set of neighboring
nodes of node u." (Section 3.)

:class:`WasnGraph` is the shared, read-mostly structure every layer
above builds on: safety labeling iterates over ``N(u)``, routers query
neighbourhoods and positions, protocols enumerate links.  It is
deliberately immutable after construction — failure injection and
mobility produce *new* graphs (see :mod:`repro.network.failures`), so a
routing run can never observe a half-updated topology.

The graph is a thin id ↔ index *view* over a
:class:`~repro.network.core.TopologyCore`: the core owns the flat
position columns, CSR adjacency and planarization masks.  A graph
comes from one side or the other:

* *Core-backed* (:meth:`WasnGraph.from_core`, so every
  :func:`build_unit_disk_graph` product and every first
  :class:`~repro.network.dynamic.DynamicTopology` snapshot):
  ``position``, ``neighbors``, ``degree``, ``has_edge`` and
  ``is_edge_node`` answer from the columns.  ``position`` returns a
  new ``Point`` per call, equal to ``node(u).position`` but not the
  same object, and ``neighbors`` returns the core's row tuple.  The
  per-node ``Node`` table is built only when ``node()`` or ``nodes()``
  first asks for it.
* *Dict-built* (explicit ``Node`` records and adjacency, so
  ``without_nodes`` products and post-mutation dynamic snapshots):
  the object API reads the dicts, and the core is assembled from them
  when something columnar (the batched routing executor, a
  planarization, connectivity) first asks.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.geometry import Point
from repro.network.core import TopologyCore, build_core
from repro.network.node import Node, NodeId

__all__ = ["WasnGraph", "build_unit_disk_graph"]


class WasnGraph:
    """Undirected unit-disk graph over a fixed set of sensor nodes."""

    def __init__(
        self,
        nodes: Sequence[Node],
        adjacency: dict[NodeId, tuple[NodeId, ...]],
        radius: float,
        validate: bool = True,
    ):
        """Build from explicit adjacency (see :func:`build_unit_disk_graph`).

        ``adjacency`` must be symmetric and must not contain self-loops;
        this is validated eagerly because every algorithm above relies
        on it (the paper's graph is *simple* and *undirected*).  Rows
        that are not ascending are then sorted (into a new dict; rows
        already in order keep their tuple objects), so ``N(u)`` is in
        id order and every graph has a columnar core.

        ``validate=False`` skips that O(E) sweep and trusts the rows to
        be symmetric and sorted.  It exists for one producer whose rows
        are both by construction:
        :class:`repro.network.dynamic.DynamicTopology` snapshots, whose
        equivalence to a validated from-scratch build is pinned by the
        differential suite — per-snapshot validation would cost more
        than the incremental update it accompanies.
        """
        if radius <= 0:
            raise ValueError("communication radius must be positive")
        self._nodes: dict[NodeId, Node] = {}
        for node in nodes:
            if node.id in self._nodes:
                raise ValueError(f"duplicate node id {node.id}")
            self._nodes[node.id] = node
        self._radius = radius
        self._adjacency = adjacency
        self._core: TopologyCore | None = None
        self._columnar = False
        if validate:
            self._validate()
            self._sort_rows()

    @classmethod
    def from_core(cls, core: TopologyCore) -> "WasnGraph":
        """The id-view over an already-built columnar core.

        No validation: a core's CSR is symmetric and self-loop-free by
        construction.  The per-node reads answer from the columns; the
        ``Node``/adjacency dicts materialise lazily, when ``node()`` or
        ``nodes()`` first asks.
        """
        graph = cls.__new__(cls)
        graph._radius = core.radius
        graph._core = core
        graph._columnar = True
        # _nodes / _adjacency intentionally absent: __getattr__ builds
        # them from the core when the Node table is first asked for.
        return graph

    def __getattr__(self, name: str):
        # Only the two view dicts are lazy; anything else missing is a
        # genuine error (and pickling probes must fall through).
        if name in ("_nodes", "_adjacency"):
            self._materialise_view()
            return self.__dict__[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def _materialise_view(self) -> None:
        core = self._core
        ids = core.ids
        xs = core.xs
        ys = core.ys
        flags = core.edge_flags
        self._nodes = {
            u: Node(u, Point(xs[i], ys[i]), flags[i])
            for i, u in enumerate(ids)
        }
        # The adjacency dict shares the core's row tuples outright —
        # one materialisation serves both representations.
        self._adjacency = dict(zip(ids, core.rows()))

    @property
    def core(self) -> TopologyCore:
        """The columnar core behind this graph (built lazily).

        Every graph has one: its adjacency rows are ascending, sorted
        on construction or trusted to be (``validate=False``).
        """
        if self._core is None:
            ids = sorted(self._nodes)
            self._core = TopologyCore.from_rows(
                ids,
                {u: self._nodes[u].position for u in ids},
                self._radius,
                [tuple(self._adjacency[u]) for u in ids],
                edge_ids=(
                    u for u in ids if self._nodes[u].is_edge
                ),
            )
        return self._core

    def _sort_rows(self) -> None:
        """Sort the adjacency rows that are not ascending."""
        adjacency = self._adjacency
        unsorted = {
            u: tuple(sorted(row))
            for u, row in adjacency.items()
            if any(row[i] > row[i + 1] for i in range(len(row) - 1))
        }
        if unsorted:
            self._adjacency = {**adjacency, **unsorted}

    def _validate(self) -> None:
        for u, neighbors in self._adjacency.items():
            if u not in self._nodes:
                raise ValueError(f"adjacency references unknown node {u}")
            seen: set[NodeId] = set()
            for v in neighbors:
                if v == u:
                    raise ValueError(f"self-loop at node {u}")
                if v in seen:
                    raise ValueError(f"duplicate edge {u}-{v}")
                seen.add(v)
                if v not in self._nodes:
                    raise ValueError(f"edge {u}-{v} references unknown node")
                if u not in self._adjacency.get(v, ()):
                    raise ValueError(f"asymmetric edge {u}-{v}")
        for u in self._nodes:
            if u not in self._adjacency:
                raise ValueError(f"node {u} missing from adjacency")

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def radius(self) -> float:
        """The common communication range of all sensors."""
        return self._radius

    def __len__(self) -> int:
        core = self._core
        return len(core) if core is not None else len(self._nodes)

    def __contains__(self, node_id: NodeId) -> bool:
        core = self._core
        if core is not None:
            return node_id in core
        return node_id in self._nodes

    @property
    def node_ids(self) -> list[NodeId]:
        """All node ids in ascending order (deterministic iteration)."""
        core = self._core
        if core is not None:
            return list(core.ids)
        return sorted(self._nodes)

    def nodes(self) -> Iterator[Node]:
        """Nodes in ascending id order."""
        for node_id in self.node_ids:
            yield self._nodes[node_id]

    def node(self, node_id: NodeId) -> Node:
        return self._nodes[node_id]

    def position(self, node_id: NodeId) -> Point:
        """``L(u)`` — the location of node ``u``."""
        if self._columnar:
            core = self._core
            i = core.index_of(node_id)
            return Point(core.xs[i], core.ys[i])
        return self._nodes[node_id].position

    def is_edge_node(self, node_id: NodeId) -> bool:
        """True when ``u`` lies on the edge of the network (the hull)."""
        if self._columnar:
            core = self._core
            return core.edge_flags[core.index_of(node_id)]
        return self._nodes[node_id].is_edge

    def neighbors(self, node_id: NodeId) -> tuple[NodeId, ...]:
        """``N(u)`` — ids of nodes within communication range of ``u``."""
        if self._columnar:
            core = self._core
            return core.rows()[core.index_of(node_id)]
        return self._adjacency[node_id]

    def degree(self, node_id: NodeId) -> int:
        return len(self.neighbors(node_id))

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        if self._columnar:
            return u in self._core and v in self.neighbors(u)
        return v in self._adjacency.get(u, ())

    def edges(self) -> Iterator[tuple[NodeId, NodeId]]:
        """Each undirected edge once, as (smaller id, larger id)."""
        for u in self.node_ids:
            for v in self.neighbors(u):
                if u < v:
                    yield (u, v)

    def edge_count(self) -> int:
        core = self._core
        if core is not None:
            return core.edge_count()
        return sum(len(n) for n in self._adjacency.values()) // 2

    def average_degree(self) -> float:
        if not len(self):
            return 0.0
        return 2.0 * self.edge_count() / len(self)

    def distance(self, u: NodeId, v: NodeId) -> float:
        """Euclidean distance ``|L(u) - L(v)|``."""
        return self.position(u).distance_to(self.position(v))

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------

    def connected_components(self) -> list[set[NodeId]]:
        """Connected components, largest first (ties by smallest member).

        A breadth-first walk over the core's rows, by index: dense ids
        are their own indices, sparse ones walk the CSR.
        """
        core = self.core
        ids = core.ids
        if core.dense:
            rows = core.rows()
        else:
            indptr, indices = core.indptr, core.indices
            rows = [
                indices[indptr[i] : indptr[i + 1]] for i in range(len(ids))
            ]
        seen = bytearray(len(ids))
        components: list[set[NodeId]] = []
        for start in range(len(ids)):
            if seen[start]:
                continue
            seen[start] = 1
            members = [start]
            for i in members:
                for j in rows[i]:
                    if not seen[j]:
                        seen[j] = 1
                        members.append(j)
            components.append({ids[i] for i in members})
        # Stable: equal sizes keep their ascending smallest members.
        components.sort(key=len, reverse=True)
        return components

    def is_connected(self) -> bool:
        return len(self) <= 1 or len(self.connected_components()) == 1

    def same_component(self, u: NodeId, v: NodeId) -> bool:
        """BFS reachability test between two nodes."""
        if u == v:
            return True
        seen = {u}
        frontier = [u]
        while frontier:
            w = frontier.pop()
            for x in self.neighbors(w):
                if x == v:
                    return True
                if x not in seen:
                    seen.add(x)
                    frontier.append(x)
        return False

    def hop_distance(self, u: NodeId, v: NodeId) -> int | None:
        """Minimum hop count between two nodes, or None if disconnected."""
        if u == v:
            return 0
        dist = {u: 0}
        frontier = [u]
        while frontier:
            next_frontier: list[NodeId] = []
            for w in frontier:
                for x in self.neighbors(w):
                    if x in dist:
                        continue
                    dist[x] = dist[w] + 1
                    if x == v:
                        return dist[x]
                    next_frontier.append(x)
            frontier = next_frontier
        return None

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------

    def without_nodes(self, removed: Iterable[NodeId]) -> "WasnGraph":
        """A new graph with the given nodes (and incident edges) removed.

        This is the substrate for failure injection: "node failures,
        signal fading, ... power exhaustion" (Section 1) all manifest as
        node removals that may create fresh local minima.
        """
        removed_set = set(removed)
        nodes = [n for n in self.nodes() if n.id not in removed_set]
        adjacency = {
            n.id: tuple(
                v for v in self.neighbors(n.id) if v not in removed_set
            )
            for n in nodes
        }
        return WasnGraph(nodes, adjacency, self._radius)

    def with_edge_nodes(self, edge_ids: Iterable[NodeId]) -> "WasnGraph":
        """A new graph with the edge-node flags replaced by ``edge_ids``.

        Shares the underlying core (and its planarization caches and
        rotation): flags never change the edge set, so the structural
        work is never repeated.
        """
        return WasnGraph.from_core(self.core.with_edge_flags(set(edge_ids)))

    def to_networkx(self):
        """Export to a :mod:`networkx` graph (analysis / oracle layer).

        Node attribute ``pos`` carries the location tuple; edge
        attribute ``weight`` the Euclidean length, so networkx shortest
        paths can serve as the geometric stretch oracle.
        """
        import networkx as nx

        g = nx.Graph()
        for node in self.nodes():
            g.add_node(node.id, pos=node.position.as_tuple(), is_edge=node.is_edge)
        for u, v in self.edges():
            g.add_edge(u, v, weight=self.distance(u, v))
        return g


def build_unit_disk_graph(
    positions: Sequence[Point],
    radius: float,
    edge_ids: Iterable[NodeId] = (),
    backend: str = "auto",
) -> WasnGraph:
    """Construct the unit-disk graph over ``positions``.

    Node ``i`` takes id ``i``; two nodes are adjacent iff their distance
    is at most ``radius`` (closed ball).  ``edge_ids`` marks nodes on
    the network edge (see :class:`repro.network.edges.EdgeDetector`).

    The build goes straight into the columnar core (one bulk spatial
    pass, no intermediate ``Point``/dict churn); the returned graph is
    the lazy object view over it, bit-identical to the historical
    dict-pipeline product.

    ``backend`` (``"auto"`` | ``"scalar"`` | ``"numpy"``) picks the
    construction implementation — see
    :func:`repro.network.core.build_core`.  ``"auto"`` vectorizes when
    numpy is importable and degrades silently otherwise; the result is
    bit-identical either way.
    """
    return WasnGraph.from_core(
        build_core(positions, radius, edge_ids, backend=backend)
    )
