"""The safety information model — Definition 1 and its labeling process.

    "Initially, each healthy node ``u`` sets its status ``S_i(u)`` to 1
    (1 <= i <= 4) where '1' (or '0') stands for the safe (or unsafe)
    status.  Any status, say ``S_i(u)``, will change to unsafe if there
    is no type-``i`` safe neighbor in the type-``i`` forwarding zone;
    that is, for all ``v`` in ``N(u) ∩ Q_i(u)``, ``S_i(v) = 0``.  The
    connected unsafe nodes constitute an unsafe area."  (Definition 1.)

    "In our labeling process, each edge node will always keep its
    status tuple as (1, 1, 1, 1)."  (Section 3.)

This module computes the stabilised labels centrally (the reference
implementation; the message-passing version in
:mod:`repro.protocols.safety_protocol` must agree with it, and a test
asserts that).  The labeling is a *greatest fixed point*: starting from
all-safe, statuses only ever flip safe -> unsafe, so a worklist pass
converges in O(edges) per type regardless of propagation order — the
order-independence that makes the paper's distributed construction
well-defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress

from repro.core.zones import ZONE_TYPES, ZoneType, forwarding_zone_contains
from repro.network import construct as _construct
from repro.network.graph import WasnGraph
from repro.network.node import NodeId

__all__ = ["SafetyModel", "compute_safety"]

#: The safety tuple of each 4-bit mask (bit ``t - 1`` set: ``S_t = 1``).
STATUS_TUPLES: tuple[tuple[bool, bool, bool, bool], ...] = tuple(
    tuple(bool(m >> k & 1) for k in range(4)) for m in range(16)
)
# Per type, the byte table mapping a mask to 1 where the type is unsafe.
_UNSAFE_BYTES = tuple(
    bytes(0 if m >> k & 1 else 1 for m in range(256)) for k in range(4)
)


@dataclass(frozen=True)
class SafetyModel:
    """Stabilised safety statuses for every node and zone type.

    ``mask[i]`` holds node ``graph.core.ids[i]``'s safety tuple as bits:
    bit ``t - 1`` is ``S_t`` (set = safe).  ``statuses`` is the paper's
    view of the same column, ``u -> (S_1(u), S_2(u), S_3(u), S_4(u))``
    with ``True`` = safe, built on first access.
    """

    graph: WasnGraph
    mask: bytes
    rounds: int

    @cached_property
    def statuses(self) -> dict[NodeId, tuple[bool, bool, bool, bool]]:
        """``u -> (S_1(u), S_2(u), S_3(u), S_4(u))``, ids ascending."""
        return dict(
            zip(self.graph.core.ids, map(STATUS_TUPLES.__getitem__, self.mask))
        )

    def _bits(self, u: NodeId) -> int:
        return self.mask[self.graph.core.index_of(u)]

    def is_safe(self, u: NodeId, zone_type: ZoneType) -> bool:
        """``S_i(u) = 1`` — is ``u`` safe for type-``i`` forwarding?"""
        return STATUS_TUPLES[self._bits(u)][zone_type - 1]

    def tuple_of(self, u: NodeId) -> tuple[bool, bool, bool, bool]:
        """The full safety tuple of ``u``."""
        return STATUS_TUPLES[self._bits(u)]

    def is_safe_any(self, u: NodeId) -> bool:
        """Does ``u`` have *some* safe type (``∃i: S_i(u) > 0``)?

        Algorithm 3's backup-path phase forwards through such nodes.
        """
        return self._bits(u) != 0

    def is_fully_unsafe(self, u: NodeId) -> bool:
        """Safety tuple ``(0, 0, 0, 0)`` — the perimeter-phase trigger.

        "When the source or the destination has the safety tuple
        (0, 0, 0, 0), the network may have disconnected." (Section 4.)
        """
        return not self.is_safe_any(u)

    def unsafe_indices(self, zone_type: ZoneType) -> list[int]:
        """Core indices of the type-``i`` unsafe nodes, ascending."""
        return list(
            compress(
                range(len(self.mask)),
                self.mask.translate(_UNSAFE_BYTES[zone_type - 1]),
            )
        )

    def unsafe_nodes(self, zone_type: ZoneType) -> set[NodeId]:
        """All type-``i`` unsafe nodes."""
        ids = self.graph.core.ids
        return {ids[i] for i in self.unsafe_indices(zone_type)}

    def unsafe_areas(self, zone_type: ZoneType) -> list[set[NodeId]]:
        """Connected groups of type-``i`` unsafe nodes.

        "The connected unsafe nodes constitute an unsafe area"
        (Definition 1): connectivity is via ordinary graph edges,
        restricted to nodes that are type-``i`` unsafe.  Areas are
        returned largest-first (ties by smallest member) for
        deterministic reporting.
        """
        remaining = self.unsafe_nodes(zone_type)
        areas: list[set[NodeId]] = []
        while remaining:
            start = min(remaining)
            area = {start}
            remaining.discard(start)
            frontier = [start]
            while frontier:
                w = frontier.pop()
                for v in self.graph.neighbors(w):
                    if v in remaining:
                        remaining.discard(v)
                        area.add(v)
                        frontier.append(v)
            areas.append(area)
        areas.sort(key=lambda a: (-len(a), min(a)))
        return areas

    def stuck_nodes(self, zone_type: ZoneType) -> set[NodeId]:
        """Type-``i`` unsafe nodes with an *empty* ``N(u) ∩ Q_i(u)``.

        These are the local minima themselves — the nodes at which a
        type-``i`` forwarding has no candidate at all.  Other unsafe
        nodes merely *lead to* stuck nodes ("their type-1 forwarding
        successors are all stuck nodes", Fig. 3 discussion).
        """
        out: set[NodeId] = set()
        for u in self.graph.node_ids:
            if self.is_safe(u, zone_type):
                continue
            pu = self.graph.position(u)
            if not any(
                forwarding_zone_contains(pu, zone_type, self.graph.position(v))
                for v in self.graph.neighbors(u)
            ):
                out.add(u)
        return out

    def safe_fraction(self, zone_type: ZoneType | None = None) -> float:
        """Fraction of nodes safe for ``zone_type`` (or in all types)."""
        n = len(self.mask)
        if not n:
            return 1.0
        if zone_type is None:
            safe = self.mask.count(0b1111)
        else:
            safe = n - len(self.unsafe_indices(zone_type))
        return safe / n


def _quadrant_tables(graph: WasnGraph, np=None):
    """Per-type quadrant membership, forward and reverse.

    ``forward[i-1][u]`` holds the neighbours of ``u`` inside the
    closed quadrant ``Q_i(u)`` (neighbour order preserved);
    ``reverse[i-1][v]`` the nodes whose ``Q_i`` contains ``v``.  The
    sweep runs on the graph's columnar core — one coordinate-difference
    per directed edge classifies all four quadrants at once.  With
    ``np`` (the resolved numpy module) the classification runs as the
    vectorized kernel of :mod:`repro.network.construct` instead of the
    per-edge branch loop.  Every path yields identical tables (the
    cross-backend differential suite pins the numpy kernel against
    this scalar sweep).
    """
    node_ids = graph.node_ids
    core = graph.core
    if np is not None:
        return _construct.quadrant_tables(
            np,
            core.ids,
            np.frombuffer(core.xs, dtype=np.float64),
            np.frombuffer(core.ys, dtype=np.float64),
            np.frombuffer(core.indptr, dtype=np.int64),
            np.frombuffer(core.indices, dtype=np.int64),
        )
    forward: list[dict[NodeId, tuple[NodeId, ...]]] = [{} for _ in ZONE_TYPES]
    reverse: list[dict[NodeId, list[NodeId]]] = [
        {u: [] for u in node_ids} for _ in ZONE_TYPES
    ]
    xs, ys = core.coords_by_id()
    rows = core.rows_by_id()
    for u in node_ids:
        xu = xs[u]
        yu = ys[u]
        in1: list[NodeId] = []
        in2: list[NodeId] = []
        in3: list[NodeId] = []
        in4: list[NodeId] = []
        for v in rows[u]:
            dx = xs[v] - xu
            dy = ys[v] - yu
            if dx > 0.0:
                if dy >= 0.0:
                    in1.append(v)
                    if dy <= 0.0:
                        in4.append(v)
                else:
                    in4.append(v)
            elif dx < 0.0:
                if dy >= 0.0:
                    in2.append(v)
                    if dy <= 0.0:
                        in3.append(v)
                else:
                    in3.append(v)
            else:  # dx == 0: coincident or on the vertical boundary
                if dy > 0.0:
                    in1.append(v)
                    in2.append(v)
                elif dy < 0.0:
                    in3.append(v)
                    in4.append(v)
                # dy == 0: v sits exactly at u's position — a member
                # of no forwarding zone, like forwarding_zone_contains'
                # ``p == u`` exclusion.
        for index, inside in enumerate((in1, in2, in3, in4)):
            forward[index][u] = tuple(inside)
            rev = reverse[index]
            for v in inside:
                rev[v].append(u)
    return forward, reverse


def compute_safety(graph: WasnGraph, backend: str = "auto") -> SafetyModel:
    """Run the labeling process of Definition 1 to its fixed point.

    Edge nodes (``graph.is_edge_node``) are pinned to (1, 1, 1, 1);
    every other node starts all-safe and flips type-by-type whenever
    its forwarding zone holds no safe neighbour of that type.  A node
    with *no* neighbour in ``Q_i(u)`` is vacuously unsafe — that is the
    local-minimum case itself.

    ``rounds`` reports how many synchronous rounds the equivalent
    round-based process would need (the longest propagation chain),
    which the construction-cost benchmarks compare against BOUNDHOLE.

    ``backend`` selects the implementation: ``"numpy"`` runs both the
    quadrant classification *and* the synchronous fixed-point
    iteration as the vectorized kernel
    :func:`repro.network.construct.safety_labels` (raising
    :class:`~repro._optional.MissingDependencyError` without numpy),
    ``"auto"`` (default) does so when numpy is importable and silently
    falls back otherwise, ``"scalar"`` forces the per-edge reference
    sweep and the worklist below.  Statuses and the round count are
    identical across backends — the sign tests of the classification
    carry no rounding and the worklist's round-``k`` frontier *is* the
    synchronous round-``k`` flip set — and the cross-backend
    differential suite pins both.
    """
    np = _construct.resolve_backend(
        backend, "compute_safety(backend='numpy')"
    )
    node_ids = graph.node_ids
    if np is not None:
        core = graph.core
        status, rounds = _construct.safety_labels(
            np,
            np.frombuffer(core.xs, dtype=np.float64),
            np.frombuffer(core.ys, dtype=np.float64),
            np.frombuffer(core.indptr, dtype=np.int64),
            np.frombuffer(core.indices, dtype=np.int64),
            core.edge_flags,
        )
        # Row t - 1 of the (4, n) status array becomes bit t - 1.
        weights = np.array([1, 2, 4, 8], dtype=np.uint8)
        mask = (status * weights[:, None]).sum(axis=0, dtype=np.uint8)
        return SafetyModel(graph=graph, mask=mask.tobytes(), rounds=rounds)
    # status[i-1][u] — mutable working state per type.
    status: list[dict[NodeId, bool]] = [
        {u: True for u in node_ids} for _ in ZONE_TYPES
    ]

    # Precompute quadrant neighbour lists once per type: the labeling
    # only ever asks "which neighbours of u lie in Q_i(u)" and the
    # reverse "which nodes have u in their Q_i".
    quadrant_neighbors, reverse_quadrant = _quadrant_tables(graph, np=np)

    total_rounds = 0
    for index, zone_type in enumerate(ZONE_TYPES):
        forward = quadrant_neighbors[index]
        reverse = reverse_quadrant[index]
        st = status[index]

        def becomes_unsafe(u: NodeId) -> bool:
            if graph.is_edge_node(u):
                return False  # pinned (1,1,1,1)
            return not any(st[v] for v in forward[u])

        # Round-structured worklist: "frontier" holds the nodes that
        # flipped in the previous round; only their reverse-quadrant
        # dependents can flip next.  Counting the rounds this way gives
        # exactly the synchronous-round count of Definition 1.
        frontier = {u for u in node_ids if st[u] and becomes_unsafe(u)}
        rounds = 0
        while frontier:
            rounds += 1
            for u in frontier:
                st[u] = False
            next_frontier: set[NodeId] = set()
            for u in frontier:
                for w in reverse[u]:
                    if st[w] and becomes_unsafe(w):
                        next_frontier.add(w)
            frontier = next_frontier
        total_rounds = max(total_rounds, rounds)

    s1, s2, s3, s4 = status
    mask = bytes(
        s1[u] | s2[u] << 1 | s3[u] << 2 | s4[u] << 3 for u in node_ids
    )
    return SafetyModel(graph=graph, mask=mask, rounds=total_rounds)
