"""The reference forwarding loops: the object path, frozen as the oracle.

Each scheme's forwarding loop runs once in the program: the index
executors of :mod:`repro.routing.batch`, behind both ``Router.route``
and ``Router.route_batch``.  This module keeps the object-path loops
they replicate operation for operation — ``GreedyRouter._run`` and its
BOUNDHOLE walk, LGF's zone candidates and tried-set perimeter, SLGF's
safe candidates, all of SLGF2's Algorithm 3, GPSR's face walk
(``face_recovery``, paper ref [2]) and the hand-rule sweep
(``hand_sweep``) — as the reference the differential suites compare
against.  The code is the object path as it last ran in ``src/``, with
each method's ``self`` turned into a ``router`` argument; the router
members the executors also call (``_hole_boundaries``, ``_planar``,
``_backup_cap``, ``_perimeter_bound``) stay on the routers.  SLGF2's
size-aware entry test, which the executor replicates on the shape
columns, is here too (``slgf2_entering_is_cheap``).

Entry point: :func:`oracle_route`, which routes one packet through
the scheme's reference loop on a :class:`~repro.routing.base.PacketTrace`,
with observers called from inside the loop, as ``route()`` once did.

Not a test module (the leading underscore keeps pytest from
collecting it); the routing suites import it as a sibling module.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable

from repro.core.regions import Hand, RegionSplit
from repro.core.zones import (
    ZONE_TYPES,
    forwarding_zone_contains,
    opposite_zone_type,
    request_zone,
    zone_type_of,
)
from repro.geometry import Point
from repro.geometry.angles import angle_of, first_hit_ccw, first_hit_cw
from repro.geometry.segment import proper_intersection_point
from repro.network.graph import WasnGraph
from repro.network.node import NodeId
from repro.routing import GreedyRouter, LgfRouter, SlgfRouter, Slgf2Router
from repro.routing.base import (
    OnHop,
    OnPhaseChange,
    PacketTrace,
    Phase,
    RouteResult,
    Router,
    RoutingError,
)
from repro.routing.perimeter import PlanarizationCache

__all__ = ["face_recovery", "hand_sweep", "oracle_route"]

_EPS = 1e-9


# ---------------------------------------------------------------------------
# handrule.hand_sweep
# ---------------------------------------------------------------------------


def hand_sweep(
    hand: Hand,
    origin: Point,
    reference_angle: float,
    candidates: Iterable[int],
    position_of: Callable[[int], Point],
    exclusive: bool = False,
) -> int | None:
    """First candidate hit when rotating a ray in ``hand``'s direction.

    ``Hand.RIGHT`` rotates counter-clockwise (the classic right-hand
    rule), ``Hand.LEFT`` clockwise.  ``exclusive`` skips candidates
    exactly on the reference ray — used when sweeping away from the
    previous hop so a packet never bounces straight back unless no
    other option exists.
    """
    sweep = first_hit_ccw if hand is Hand.RIGHT else first_hit_cw
    return sweep(origin, reference_angle, candidates, position_of, exclusive)


# ---------------------------------------------------------------------------
# perimeter.face_recovery
# ---------------------------------------------------------------------------


def face_recovery(
    trace: PacketTrace,
    graph: WasnGraph,
    planar: "dict[NodeId, tuple[NodeId, ...]] | PlanarizationCache",
    destination: NodeId,
    hand: Hand = Hand.RIGHT,
) -> str | None:
    """Walk faces of the planar subgraph until closer than the stuck node.

    Returns ``None`` when greedy forwarding may resume (or the packet
    arrived); otherwise a failure reason (``"unreachable"``,
    ``"ttl_exceeded"``, ``"isolated_in_planar_graph"``).
    """
    pd = graph.position(destination)
    stuck = trace.current
    stuck_pos = graph.position(stuck)
    exit_dist = stuck_pos.distance_to(pd)

    first_edge: tuple[NodeId, NodeId] | None = None
    best_cross = exit_dist
    while not trace.exhausted():
        u = trace.current
        pu = graph.position(u)
        if u != stuck and pu.distance_to(pd) < exit_dist - _EPS:
            return None  # resume forwarding
        if graph.has_edge(u, destination):
            trace.advance(destination, Phase.PERIMETER)
            return None
        candidates = planar[u]
        if not candidates:
            return "isolated_in_planar_graph"
        prev = trace.previous
        if first_edge is None or prev is None:
            reference = angle_of(pu, pd)
            exclusive = False
        else:
            reference = angle_of(pu, graph.position(prev))
            exclusive = True
        nxt = hand_sweep(
            hand, pu, reference, candidates, graph.position, exclusive
        )
        if nxt is None:
            return "isolated_in_planar_graph"
        # Face-change test: rotate past edges crossing the
        # stuck->destination segment closer to the destination.
        changed_face = False
        for _ in range(len(candidates)):
            crossing = proper_intersection_point(
                pu, graph.position(nxt), stuck_pos, pd
            )
            if crossing is None:
                break
            cross_dist = crossing.distance_to(pd)
            if cross_dist >= best_cross - _EPS:
                break
            best_cross = cross_dist
            changed_face = True
            rotated = hand_sweep(
                hand,
                pu,
                angle_of(pu, graph.position(nxt)),
                candidates,
                graph.position,
                exclusive=True,
            )
            if rotated is None:
                break
            nxt = rotated
        edge = (u, nxt)
        if changed_face or first_edge is None:
            first_edge = edge
        elif edge == first_edge:
            # Traversing the first edge of the face a second time: the
            # destination is unreachable (GPSR drop rule).
            return "unreachable"
        trace.advance(nxt, Phase.PERIMETER)
    return "ttl_exceeded"


# ---------------------------------------------------------------------------
# GreedyRouter (GF)
# ---------------------------------------------------------------------------


def gf_run(
    router: GreedyRouter, trace: PacketTrace, destination: NodeId
) -> str | None:
    graph = router.graph
    pd = graph.position(destination)
    while not trace.exhausted():
        u = trace.current
        if u == destination:
            return None
        if graph.has_edge(u, destination):
            trace.advance(destination, Phase.GREEDY)
            return None
        pu = graph.position(u)
        best = gf_greedy_step(router, u, pu, pd)
        if best is not None:
            trace.advance(best, Phase.GREEDY)
            continue
        # Local minimum: recover.
        trace.perimeter_entries += 1
        if router._recovery == "boundhole":
            failure = gf_boundhole_recovery(router, trace, destination)
        else:
            failure = face_recovery(
                trace, graph, router._planar, destination
            )
        if failure is not None:
            return failure
        if trace.current == destination:
            return None
    return "ttl_exceeded"


def gf_greedy_step(
    router: GreedyRouter, u: NodeId, pu: Point, pd: Point
) -> NodeId | None:
    """The neighbour strictly closest to the destination, if any."""
    graph = router.graph
    du = pu.distance_to(pd)
    best: NodeId | None = None
    best_dist = du - _EPS
    for v in graph.neighbors(u):
        dv = graph.position(v).distance_to(pd)
        if dv < best_dist:
            best = v
            best_dist = dv
    return best


def gf_boundhole_recovery(
    router: GreedyRouter, trace: PacketTrace, destination: NodeId
) -> str | None:
    """Walk the precomputed hole boundary until closer than stuck.

    The boundary is a cycle of nodes enclosing the hole that caused
    the local minimum (BOUNDHOLE's output).  The packet walks it in
    the direction whose first step loses less distance, and exits
    on the first node closer to the destination than the stuck
    node.  If the stuck node is on no boundary (e.g. it only got
    stuck because of the interest-area edge), face recovery is used
    instead.
    """
    graph = router.graph
    pd = graph.position(destination)
    stuck = trace.current
    exit_dist = graph.position(stuck).distance_to(pd)
    cycle = router._hole_boundaries().boundary_of(stuck)
    if cycle is None or len(cycle) < 2:
        return face_recovery(trace, graph, router._planar, destination)

    index = cycle.index(stuck)
    forward = cycle[index + 1 :] + cycle[:index]
    backward = tuple(reversed(cycle[:index])) + tuple(
        reversed(cycle[index + 1 :])
    )
    if forward[0] not in graph or backward[0] not in graph:
        # A stale boundary that names a node the graph no longer
        # has (e.g. built before node failures).
        return face_recovery(trace, graph, router._planar, destination)
    # Pick the direction that gets closer to the destination sooner.
    walk = (
        forward
        if graph.position(forward[0]).distance_to(pd)
        <= graph.position(backward[0]).distance_to(pd)
        else backward
    )
    for node in walk:
        if trace.exhausted():
            return "ttl_exceeded"
        if not graph.has_edge(trace.current, node):
            # Boundary edges are graph edges by construction; a gap
            # means the boundary is stale (e.g. node failures).
            return face_recovery(trace, graph, router._planar, destination)
        trace.advance(node, Phase.PERIMETER)
        if graph.has_edge(node, destination):
            if trace.exhausted():
                return "ttl_exceeded"
            trace.advance(destination, Phase.PERIMETER)
            return None
        if graph.position(node).distance_to(pd) < exit_dist - _EPS:
            return None  # resume greedy
    # Walked the whole boundary without getting closer.
    return "unreachable"


# ---------------------------------------------------------------------------
# LgfRouter (LGF, Algorithm 1)
# ---------------------------------------------------------------------------


def lgf_zone_candidates(
    router: LgfRouter, u: NodeId, pu: Point, pd: Point
) -> list[NodeId]:
    """``Z_k(u, d) ∩ N(u)`` (or ``Q_k(u) ∩ N(u)`` in quadrant scope).

    Quadrant scope additionally requires candidates to be strictly
    closer to the destination: the quadrant extends beyond ``d``,
    and without the improvement requirement a packet could
    overshoot and oscillate (the request zone needs no such guard —
    every point of it is strictly closer than ``u``).
    """
    graph = router.graph
    if router._scope == "zone":
        zone = request_zone(pu, pd)
        return [
            v
            for v in graph.neighbors(u)
            if zone.contains(graph.position(v))
        ]
    k = zone_type_of(pu, pd)
    du = pu.distance_to(pd)
    return [
        v
        for v in graph.neighbors(u)
        if forwarding_zone_contains(pu, k, graph.position(v))
        and graph.position(v).distance_to(pd) < du - _EPS
    ]


def lgf_select_forward(
    router: LgfRouter, u: NodeId, pu: Point, pd: Point
) -> NodeId | None:
    """Greedy pick among zone candidates, ``None`` at a local minimum."""
    candidates = lgf_zone_candidates(router, u, pu, pd)
    if not candidates:
        return None
    graph = router.graph
    return min(
        candidates,
        key=lambda v: (graph.position(v).distance_to(pd), v),
    )


def lgf_run(
    router: LgfRouter, trace: PacketTrace, destination: NodeId
) -> str | None:
    graph = router.graph
    pd = graph.position(destination)
    while not trace.exhausted():
        u = trace.current
        if u == destination:
            return None
        if graph.has_edge(u, destination):
            trace.advance(destination, Phase.GREEDY)
            return None
        pu = graph.position(u)
        pick = lgf_select_forward(router, u, pu, pd)
        if pick is not None:
            trace.advance(pick, Phase.GREEDY)
            continue
        trace.perimeter_entries += 1
        failure = lgf_tried_set_perimeter(router, trace, destination)
        if failure is not None:
            return failure
        if trace.current == destination:
            return None
    return "ttl_exceeded"


def lgf_tried_set_perimeter(
    router: LgfRouter, trace: PacketTrace, destination: NodeId
) -> str | None:
    """Right-hand-rule sweep over untried neighbours, with backtracking.

    Exits (returning ``None``) at the first node strictly closer to
    the destination than the stuck node; reports ``"unreachable"``
    after exhausting every reachable untried node.
    """
    graph = router.graph
    pd = graph.position(destination)
    stuck_dist = graph.position(trace.current).distance_to(pd)
    tried: set[NodeId] = {trace.current}
    stack: list[NodeId] = [trace.current]
    while not trace.exhausted():
        u = trace.current
        pu = graph.position(u)
        if pu.distance_to(pd) < stuck_dist - _EPS:
            return None  # resume greedy phase
        if graph.has_edge(u, destination):
            trace.advance(destination, Phase.PERIMETER)
            return None
        untried = [v for v in graph.neighbors(u) if v not in tried]
        if untried:
            pick = first_hit_ccw(
                pu, angle_of(pu, pd), untried, graph.position
            )
            tried.add(pick)
            stack.append(pick)
            trace.advance(pick, Phase.PERIMETER)
            continue
        # Dead end: backtrack along the phase's own path.
        stack.pop()
        if not stack:
            return "unreachable"
        trace.advance(stack[-1], Phase.PERIMETER)
    return "ttl_exceeded"


# ---------------------------------------------------------------------------
# SlgfRouter (SLGF, paper ref [7])
# ---------------------------------------------------------------------------


def slgf_safe_candidates(
    router: SlgfRouter, candidates: list[NodeId], pd: Point
) -> list[NodeId]:
    """Candidates that are safe for *their own* request zone to d.

    The zone type is re-evaluated at the candidate ("k and k-bar
    are not necessarily the same", Section 4): what matters is
    whether the forwarding *from v onward* stays safe.
    """
    graph = router.graph
    model = router.model
    out: list[NodeId] = []
    for v in candidates:
        pv = graph.position(v)
        if pv == pd:
            # Zone type undefined; can only happen for a node at
            # exactly the destination's position — trivially "safe".
            out.append(v)
            continue
        if model.is_safe(v, zone_type_of(pv, pd)):
            out.append(v)
    return out


def slgf_run(
    router: SlgfRouter, trace: PacketTrace, destination: NodeId
) -> str | None:
    graph = router.graph
    pd = graph.position(destination)
    while not trace.exhausted():
        u = trace.current
        if u == destination:
            return None
        if graph.has_edge(u, destination):
            trace.advance(destination, Phase.SAFE)
            return None
        pu = graph.position(u)
        candidates = lgf_zone_candidates(router, u, pu, pd)
        safe = slgf_safe_candidates(router, candidates, pd)
        if safe:
            pick = min(
                safe,
                key=lambda v: (graph.position(v).distance_to(pd), v),
            )
            trace.advance(pick, Phase.SAFE)
            continue
        if candidates:
            # No safe successor: advance greedily anyway (this is
            # what walks into the hole and triggers perimeter
            # routing — exactly the weakness SLGF2 fixes).
            pick = min(
                candidates,
                key=lambda v: (graph.position(v).distance_to(pd), v),
            )
            trace.advance(pick, Phase.GREEDY)
            continue
        trace.perimeter_entries += 1
        failure = lgf_tried_set_perimeter(router, trace, destination)
        if failure is not None:
            return failure
        if trace.current == destination:
            return None
    return "ttl_exceeded"


# ---------------------------------------------------------------------------
# Slgf2Router (SLGF2, Algorithm 3)
# ---------------------------------------------------------------------------


def slgf2_plain_zone_candidates(
    router: Slgf2Router, u: NodeId, pu: Point, pd: Point
) -> list[NodeId]:
    """All forwarding candidates at ``u``.

    ``"zone"`` scope: ``Z_k(u, d) ∩ N(u)`` (Algorithm 1 as
    printed); ``"quadrant"`` scope: strictly-closer neighbours in
    ``Q_k(u)`` (the prose definition of blocking, and the scope
    under which the safety labels are exact).
    """
    graph = router.graph
    if router._scope == "zone":
        zone = request_zone(pu, pd)
        return [
            v
            for v in graph.neighbors(u)
            if zone.contains(graph.position(v))
        ]
    k = zone_type_of(pu, pd)
    du = pu.distance_to(pd)
    candidates = [
        v
        for v in graph.neighbors(u)
        if forwarding_zone_contains(pu, k, graph.position(v))
        and graph.position(v).distance_to(pd) < du - _EPS
    ]
    if not candidates and router._adaptive_greedy:
        # Future-work extension ("increase the routing adaptivity
        # so that fewer perimeter routing phases are needed"):
        # when the forwarding zone is empty, accept *any* strictly
        # closer neighbour before resorting to detour phases.
        candidates = [
            v
            for v in graph.neighbors(u)
            if graph.position(v).distance_to(pd) < du - _EPS
        ]
    return candidates


def slgf2_safe_zone_candidates(
    router: Slgf2Router, candidates: list[NodeId], pd: Point
) -> list[NodeId]:
    """Step 2: candidates safe w.r.t. their own zone toward ``d``."""
    graph = router.graph
    out: list[NodeId] = []
    for v in candidates:
        pv = graph.position(v)
        if pv == pd or router.model.is_safe(v, zone_type_of(pv, pd)):
            out.append(v)
    return out


def slgf2_region_splits_at(
    router: Slgf2Router, u: NodeId, pd: Point
) -> list[RegionSplit]:
    """Critical/forbidden splits visible from ``u``.

    One split per (unsafe node, type) among ``u`` and its
    neighbours, kept only when the destination lies inside the
    split's forwarding zone (otherwise "the destination is in the
    critical region" cannot hold) and off the divider.
    """
    graph = router.graph
    splits: list[RegionSplit] = []
    for w in (u, *graph.neighbors(u)):
        pw = graph.position(w)
        for zone_type in ZONE_TYPES:
            if router.model.is_safe(w, zone_type):
                continue
            if not forwarding_zone_contains(pw, zone_type, pd):
                continue
            split = router.model.region_split(w, zone_type, pd)
            if split is not None and split.destination_side != 0:
                splits.append(split)
    return splits


def slgf2_prefer_non_forbidden(
    router: Slgf2Router, candidates: list[NodeId], splits: list[RegionSplit]
) -> list[NodeId]:
    """Step 3, the superseding rule: drop forbidden-region candidates.

    A *preference*, not a hard constraint: when every candidate is
    forbidden the original list is returned (a detour beats a
    stall).
    """
    if not router._use_superseding or not splits:
        return candidates
    graph = router.graph
    filtered = [
        v
        for v in candidates
        if not any(
            split.in_forbidden_region(graph.position(v))
            for split in splits
        )
    ]
    return filtered or candidates


def slgf2_greedy_pick(
    router: Slgf2Router, candidates: list[NodeId], pd: Point
) -> NodeId:
    """Deterministic greedy choice: closest to ``d``, ties by id."""
    graph = router.graph
    return min(
        candidates,
        key=lambda v: (graph.position(v).distance_to(pd), v),
    )


def slgf2_is_backup_candidate(
    router: Slgf2Router, u: NodeId, pu: Point, v: NodeId
) -> bool:
    """Is hopping to ``v`` a safe type-``i`` forwarding for some ``i``?

    True when ``v`` is safe for a quadrant type it occupies
    relative to ``u`` (a node on a quadrant boundary occupies two
    types; being safe in either qualifies).  "The routing from u
    can use the type-i forwarding to approach the edge of that
    type-k unsafe area and then leave away from such an area."
    """
    pv = router.graph.position(v)
    return any(
        forwarding_zone_contains(pu, zone_type, pv)
        and router.model.is_safe(v, zone_type)
        for zone_type in ZONE_TYPES
    )


def slgf2_choose_hand(
    router: Slgf2Router, splits: list[RegionSplit]
) -> Hand:
    """Pick the hand that walks around the unsafe area on d's side.

    Uses the first visible split (deterministic: splits are
    gathered in node-id order); defaults to the right hand when no
    shape information is visible — the paper's base rule.
    """
    for split in splits:
        return split.preferred_hand()
    return Hand.RIGHT


def slgf2_entering_is_cheap(
    router: Slgf2Router, v: NodeId, pd: Point
) -> bool:
    """Should the packet enter the unsafe area through ``v``?

    ``v`` is an unsafe zone candidate; its estimated rectangle
    ``E_k̄(v)`` measures the blocking area ahead.  Entering is
    cheap when the rectangle is small (recovery after the predicted
    block costs less than orbiting), and *necessary* when the
    destination lies inside the rectangle (no safe path can end
    there anyway).
    """
    pv = router.graph.position(v)
    if pv == pd:
        return True
    rect = router.model.estimated_area(v, zone_type_of(pv, pd))
    if rect is None:
        return True  # no prediction of a block at all
    if rect.contains(pd, tol=_EPS):
        return True
    if rect.is_degenerate(tol=_EPS):
        # The candidate is itself a stuck node with an empty
        # quadrant: its point-rectangle says nothing about the size
        # of the blocking area (it could be the bottom of a deep
        # pocket).  Never treat that as cheap.
        return False
    return rect.diagonal() <= router._enter_threshold


def slgf2_run(
    router: Slgf2Router, trace: PacketTrace, destination: NodeId
) -> str | None:
    graph = router.graph
    pd = graph.position(destination)
    hand: Hand | None = None  # committed hand while in backup mode
    in_backup = False
    backup_budget = 0
    backup_visited: set[NodeId] = set()  # per-packet, see module doc

    while not trace.exhausted():
        u = trace.current
        if u == destination:
            return None
        if graph.has_edge(u, destination):
            trace.advance(
                destination, Phase.BACKUP if in_backup else Phase.SAFE
            )
            return None
        pu = graph.position(u)
        k = zone_type_of(pu, pd)
        plain = slgf2_plain_zone_candidates(router, u, pu, pd)
        safe = slgf2_safe_zone_candidates(router, plain, pd)

        # Steps 2+3: safe forwarding under the superseding rule.
        if safe:
            if in_backup:
                # "until the forwarding from v to d is safe": leave
                # backup mode, release the hand commitment.
                in_backup = False
                hand = None
            splits = slgf2_region_splits_at(router, u, pd)
            preferred = slgf2_prefer_non_forbidden(router, safe, splits)
            trace.advance(
                slgf2_greedy_pick(router, preferred, pd), Phase.SAFE
            )
            continue

        # Safe-arrival gate (see module docstring): an unsafe
        # destination voids the safe-forwarding guarantee, so run
        # SLGF-style greedy + perimeter, superseding filter intact.
        arrival_safe = router.model.is_safe(
            destination, opposite_zone_type(k)
        )

        # Backup triggers on u's own status, as in Section 4:
        # "When u is safe in one of four types but not in the type
        # of its request zone (S_k(u) = 0 ∧ S_i(u) > 0, i ≠ k), the
        # routing from u can use the type-i forwarding."  When
        # S_k(u) = 1 the label promises a continuable forwarding
        # ahead, so a plain greedy hop is the right move even
        # though no *zone-safe* candidate showed up (quadrant-based
        # labels vs zone-limited candidates).  The size heuristic
        # (`_entering_is_cheap`) can additionally allow entering a
        # provably tiny area; it is conservative and never fires on
        # degenerate point-rectangles.
        detour_justified = (
            router._use_backup
            and arrival_safe
            and not router.model.is_safe(u, k)
            and router.model.is_safe_any(u)
            and not (
                plain
                and slgf2_entering_is_cheap(
                    router, slgf2_greedy_pick(router, plain, pd), pd
                )
            )
        )
        if plain and not detour_justified:
            splits = slgf2_region_splits_at(router, u, pd)
            preferred = slgf2_prefer_non_forbidden(router, plain, splits)
            trace.advance(
                slgf2_greedy_pick(router, preferred, pd), Phase.GREEDY
            )
            continue

        # Step 4: backup path forwarding around a large unsafe area.
        backup: list[NodeId] = []
        if router._use_backup and arrival_safe:
            if in_backup and backup_budget <= 0:
                # Episode over budget: stop orbiting.  Enter the
                # area if possible, else fall to perimeter.
                if plain:
                    splits = slgf2_region_splits_at(router, u, pd)
                    preferred = slgf2_prefer_non_forbidden(
                        router, plain, splits
                    )
                    trace.advance(
                        slgf2_greedy_pick(router, preferred, pd),
                        Phase.GREEDY,
                    )
                    in_backup = False
                    hand = None
                    continue
            else:
                backup = [
                    v
                    for v in graph.neighbors(u)
                    if v not in backup_visited
                    and slgf2_is_backup_candidate(router, u, pu, v)
                ]
        if backup:
            if not in_backup:
                in_backup = True
                trace.backup_entries += 1
                backup_budget = router._backup_cap(u)
                backup_visited.add(u)
                if hand is None:
                    # In the detour phases the superseding rule *is*
                    # the hand choice: route around the area on the
                    # destination's side (Section 4's "either-hand
                    # rule"), then stick with that hand.
                    hand = slgf2_choose_hand(
                        router, slgf2_region_splits_at(router, u, pd)
                    )
            # Sweep anchored on the ray ud (like Algorithm 1's
            # perimeter rule): backup hops hug the destination
            # direction — "approach the edge of the unsafe area" —
            # while the visited-set prevents ping-pong.
            pick = hand_sweep(
                hand,
                pu,
                angle_of(pu, pd),
                backup,
                graph.position,
                exclusive=False,
            )
            if pick is not None:
                backup_visited.add(pick)
                backup_budget -= 1
                trace.advance(pick, Phase.BACKUP)
                continue
            # All sweep candidates degenerate (coincident points):
            # fall through to the perimeter phase.

        # Step 5: perimeter routing.  The hand: the paper prescribes
        # the either-hand rule here too, but the E-rectangle
        # estimates that drive the hand choice systematically
        # underestimate *large* unsafe areas (the chains only see
        # the near rim), and a mis-chosen hand walks a face the
        # long way around — measured: either-hand costs ~50% extra
        # hops under FA.  Default is therefore the plain right-hand
        # rule; ``perimeter_hand="either"`` restores the paper's
        # letter for the ablation bench.
        in_backup = False
        trace.perimeter_entries += 1
        if router._perimeter_hand == "right":
            peri_hand = Hand.RIGHT
        elif hand is not None:
            peri_hand = hand
        else:
            peri_hand = slgf2_choose_hand(
                router, slgf2_region_splits_at(router, u, pd)
            )
        failure = slgf2_perimeter_phase(router, trace, destination, peri_hand)
        if failure is not None:
            return failure
        hand = None
        if trace.current == destination:
            return None
    return "ttl_exceeded"


def slgf2_perimeter_phase(
    router: Slgf2Router, trace: PacketTrace, destination: NodeId, hand: Hand
) -> str | None:
    """Dispatch on the configured perimeter mechanics."""
    if router._perimeter_mode == "face":
        assert router._planar is not None
        return face_recovery(
            trace, router.graph, router._planar, destination, hand
        )
    return slgf2_bounded_perimeter_phase(router, trace, destination, hand)


def slgf2_bounded_perimeter_phase(
    router: Slgf2Router, trace: PacketTrace, destination: NodeId, hand: Hand
) -> str | None:
    """Hand-rule sweep over untried neighbours with backtracking.

    Candidates are confined to the estimated-unsafe-area bound when
    one is known; the phase exits at the first node strictly closer
    to the destination than the entry point (the same recovery exit
    every other router uses, which keeps perimeter entries strictly
    monotone in distance-to-destination and hence terminating).
    """
    graph = router.graph
    pd = graph.position(destination)
    entry = trace.current
    entry_dist = graph.position(entry).distance_to(pd)
    bound = router._perimeter_bound(entry)
    tried: set[NodeId] = {entry}
    stack: list[NodeId] = [entry]
    while not trace.exhausted():
        u = trace.current
        pu = graph.position(u)
        if graph.has_edge(u, destination):
            trace.advance(destination, Phase.PERIMETER)
            return None
        if u != entry and pu.distance_to(pd) < entry_dist - _EPS:
            return None  # recovery complete, resume the ladder
        untried = [v for v in graph.neighbors(u) if v not in tried]
        candidates = untried
        if bound is not None and untried:
            inside = [
                v for v in untried if bound.contains(graph.position(v))
            ]
            if inside:
                candidates = inside
            else:
                trace.bound_escapes += 1
        if candidates:
            # ud-anchored sweep, as in Algorithm 1's perimeter rule;
            # the tried-set provides the "untried" memory.  The
            # superseding rule acts here through the committed hand
            # only — per-candidate forbidden-region filtering would
            # fight the hand discipline and measurably lengthens
            # detours (see the ablation bench).
            pick = hand_sweep(
                hand,
                pu,
                angle_of(pu, pd),
                candidates,
                graph.position,
                exclusive=False,
            )
            if pick is not None:
                tried.add(pick)
                stack.append(pick)
                trace.advance(pick, Phase.PERIMETER)
                continue
        # Dead end inside the bound: backtrack.
        stack.pop()
        if not stack:
            return "unreachable"
        trace.advance(stack[-1], Phase.PERIMETER)
    return "ttl_exceeded"


# ---------------------------------------------------------------------------
# Router.route on the reference loops
# ---------------------------------------------------------------------------

#: The reference loop of each built-in scheme, most derived first, so
#: that a subclass runs the loop of its nearest built-in base.
_RUNS = (
    (Slgf2Router, slgf2_run),
    (SlgfRouter, slgf_run),
    (LgfRouter, lgf_run),
    (GreedyRouter, gf_run),
)


def _reference_run(router: Router):
    """The loop ``router`` ran on the object path: its class's own
    ``_run`` when it overrides one, else its scheme's reference loop."""
    if type(router)._run is not Router._run:
        return router._run
    for scheme, run in _RUNS:
        if isinstance(router, scheme):
            return partial(run, router)
    raise TypeError(f"no reference loop for {type(router).__name__}")


def oracle_route(
    router: Router,
    source: NodeId,
    destination: NodeId,
    on_hop: OnHop | None = None,
    on_phase_change: OnPhaseChange | None = None,
) -> RouteResult:
    """Route one packet on the reference loop (``route()`` as it was).

    Observers are called from inside the forwarding loop, hop by hop.
    """
    graph = router.graph
    if source not in graph or destination not in graph:
        raise RoutingError("source or destination not in graph")
    if source == destination:
        raise RoutingError("source equals destination")
    trace = PacketTrace(
        graph,
        source,
        router.ttl,
        on_hop=on_hop,
        on_phase_change=on_phase_change,
    )
    failure = _reference_run(router)(trace, destination)
    delivered = trace.current == destination and failure is None
    return RouteResult(
        router=router.name,
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
