"""Batched routing executors — the index-based successor-selection fast path.

:meth:`Router.route_batch` routes whole (source, destination) batches
over one :class:`~repro.network.core.TopologyCore`.  The per-scheme
executors in this module run the hot forwarding loops — greedy/safe
advance everywhere, plus LGF/SLGF's tried-set perimeter sweep —
directly on the core's flat columns: neighbour-id tuples, plain-list
coordinate reads, one ``math.hypot`` per surviving candidate.  No
``Point`` objects, no per-hop dict lookups, no ``PacketTrace`` method
dispatch.

Exactness is non-negotiable: ``route_batch`` must return results
bit-identical to sequential :meth:`Router.route` calls (the
equivalence suite pins this per scheme).  Three mechanisms guarantee
it:

* **Conservative squared-distance prefilter.**  Greedy selection
  compares ``hypot`` distances exactly as the object path does; the
  fast loop merely *skips* candidates whose squared distance already
  proves ``hypot`` would lose.  The filter bound carries a relative
  margin of 1e-12 — four orders of magnitude wider than the ~1e-16
  relative error of squaring vs. ``hypot`` — so no candidate that
  could win (or tie) is ever skipped, and every surviving comparison
  uses the same ``math.hypot`` values the legacy code computes.

* **Operation-for-operation replicas.**  Where a phase is fast-pathed
  (the ray-sweep perimeter of Algorithm 1 step 4, the superseding
  splits gate of Algorithm 3 step 3), the replica performs the same
  floating-point operations in the same order — ``atan2``/``fmod``
  normalisation, tie-breaks, epsilon conventions — only on flat
  columns instead of objects.

* **Handover before divergence.**  The moment a scheme would do
  anything the executor does not replicate — GF's face recovery,
  SLGF2's backup/perimeter ladder — it materialises a
  :class:`~repro.routing.base.PacketTrace` seeded with the hops
  routed so far and hands the packet to the scheme's own ``_run``.
  Every scheme's per-packet state is still at its initial value at
  that moment, so the original loop continues exactly as if it had
  routed the prefix itself.

Executors dispatch on the *exact* router type: subclasses that
override selection behaviour fall back to sequential ``route`` calls
rather than inheriting a fast path that no longer matches them.
"""

from __future__ import annotations

import math

from repro._optional import load_numpy
from repro.geometry import Point
from repro.network.node import NodeId
from repro.routing.base import (
    PacketTrace,
    Phase,
    RouteResult,
    Router,
    RoutingError,
)
from repro.routing.greedy import GreedyRouter
from repro.routing.lgf import LgfRouter
from repro.routing.slgf import SlgfRouter
from repro.routing.slgf2 import Slgf2Router

__all__ = ["executor_for", "numpy_kernel_for"]

_EPS = 1e-9  # the routers' successor-selection tolerance (see greedy.py)

# Relative margin of the squared-distance prefilter.  Squaring and
# ``hypot`` each err by ~1 ulp (~1.1e-16 relative); a candidate whose
# squared distance exceeds the bound by 1e-12 relative is therefore
# provably farther than the incumbent, with ~1e4 slack.
_GUARD = 1.0 + 1e-12

_GREEDY = Phase.GREEDY
_SAFE = Phase.SAFE
_PERIMETER = Phase.PERIMETER

_TAU = math.tau


def _zone_type_rel(dx: float, dy: float) -> int:
    """``zone_type_of(v, d)`` from ``dx = xv - xd``, ``dy = yv - yd``.

    Returns 0 for the coincident case the callers treat as trivially
    safe (``zone_type_of`` itself raises there).  The branch order
    mirrors the original's sequential boundary tie-breaking exactly.
    """
    if dx == 0.0 and dy == 0.0:
        return 0
    if dx < 0.0 and dy <= 0.0:
        return 1
    if dy < 0.0:  # dx >= 0 here
        return 2
    if dx > 0.0:  # dy >= 0 here
        return 3
    return 4


def _norm(theta: float) -> float:
    """``normalize_angle`` replica: map onto ``[0, tau)`` bit-for-bit."""
    theta = math.fmod(theta, _TAU)
    if theta < 0.0:
        theta += _TAU
    if theta >= _TAU:
        theta -= _TAU
    return theta


class _Executor:
    """Shared per-batch state and the exact slow-path bridges."""

    def __init__(self, router: Router, core) -> None:
        self.router = router
        self.xs, self.ys = core.coords_by_id()
        self.rows = core.rows_by_id()

    # -- bridges to the object path -------------------------------------

    def _check(self, source: NodeId, destination: NodeId) -> None:
        graph = self.router.graph
        if source not in graph or destination not in graph:
            raise RoutingError("source or destination not in graph")
        if source == destination:
            raise RoutingError("source equals destination")

    def _handover(
        self,
        source: NodeId,
        destination: NodeId,
        path: list[NodeId],
        phases: list[str],
        length: float,
    ) -> RouteResult:
        """Finish the route through the scheme's own ``_run``.

        The trace is seeded with the fast-path prefix; ``_run``
        re-examines the current node from scratch, so the hop the fast
        path declined to take is decided by the original code.
        """
        router = self.router
        trace = PacketTrace(router.graph, source, router.ttl)
        trace.path = path
        trace.phases = phases
        trace.length = length
        failure = router._run(trace, destination)
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

    def _finish(
        self,
        source: NodeId,
        destination: NodeId,
        path: list[NodeId],
        phases: list[str],
        length: float,
        arrived: bool,
        perimeter_entries: int = 0,
        failure: str | None = None,
    ) -> RouteResult:
        if failure is None and not arrived:
            failure = "ttl_exceeded"
        return RouteResult(
            router=self.router.name,
            source=source,
            destination=destination,
            delivered=arrived and failure is None,
            path=tuple(path),
            phases=tuple(phases),
            length=length,
            perimeter_entries=perimeter_entries,
            failure_reason=failure,
        )

    # -- the tried-set perimeter phase (Algorithm 1 step 4) -------------

    def _tried_perimeter(
        self,
        u: NodeId,
        destination: NodeId,
        path: list[NodeId],
        phases: list[str],
        length: float,
        ttl: int,
    ) -> tuple[NodeId, float, str | None, bool]:
        """Exact replica of ``LgfRouter._tried_set_perimeter``.

        Right-hand-rule sweep over untried neighbours with
        backtracking; returns ``(current, length, failure, walking)``
        where ``walking=False`` means the phase ended (resume greedy,
        arrived, or failed) exactly as the object implementation
        would.  Appends to ``path``/``phases`` in place.
        """
        xs = self.xs
        ys = self.ys
        rows = self.rows
        hyp = math.hypot
        atan2 = math.atan2
        xd = xs[destination]
        yd = ys[destination]
        stuck_limit = hyp(xs[u] - xd, ys[u] - yd) - _EPS
        tried = {u}
        stack = [u]
        hops = len(path) - 1
        while hops < ttl:
            xu = xs[u]
            yu = ys[u]
            if hyp(xu - xd, yu - yd) < stuck_limit:
                return u, length, None, False  # resume greedy phase
            row = rows[u]
            if destination in row:
                path.append(destination)
                phases.append(_PERIMETER)
                length += hyp(xu - xd, yu - yd)
                return destination, length, None, False
            # The CCW "first node hit by the ray ud" sweep, with the
            # reference implementation's tie-breaks: smaller CCW
            # offset first, Euclidean distance on exact angle ties,
            # first-seen on full ties.  Candidates coincident with u
            # are skipped (they have no direction).
            ref = _norm(atan2(yd - yu, xd - xu))
            best = -1
            best_off = 0.0
            best_dist = -1.0  # lazily computed, only on angle ties
            saw_untried = False
            for v in row:
                if v in tried:
                    continue
                saw_untried = True
                xv = xs[v]
                yv = ys[v]
                if xv == xu and yv == yu:
                    continue
                off = _norm(_norm(atan2(yv - yu, xv - xu)) - ref)
                if best < 0 or off < best_off:
                    best = v
                    best_off = off
                    best_dist = -1.0
                elif off == best_off:
                    if best_dist < 0.0:
                        best_dist = hyp(xs[best] - xu, ys[best] - yu)
                    dv = hyp(xv - xu, yv - yu)
                    if dv < best_dist:
                        best = v
                        best_off = off
                        best_dist = dv
            if saw_untried:
                if best < 0:
                    # Every untried neighbour coincides with u: the
                    # object path would advance(None) and raise.
                    raise RoutingError(
                        f"illegal hop {u} -> None: not an edge"
                    )
                tried.add(best)
                stack.append(best)
                path.append(best)
                phases.append(_PERIMETER)
                length += hyp(xu - xs[best], yu - ys[best])
                u = best
                hops += 1
                continue
            # Dead end: backtrack along the phase's own path.
            stack.pop()
            if not stack:
                return u, length, "unreachable", False
            prev = stack[-1]
            path.append(prev)
            phases.append(_PERIMETER)
            length += hyp(xu - xs[prev], yu - ys[prev])
            u = prev
            hops += 1
        return u, length, "ttl_exceeded", False


class _GreedyExecutor(_Executor):
    """GF fast path: greedy advance; recovery phases hand over."""

    def route(self, source: NodeId, destination: NodeId) -> RouteResult:
        self._check(source, destination)
        xs = self.xs
        ys = self.ys
        rows = self.rows
        hyp = math.hypot
        ttl = self.router.ttl
        xd = xs[destination]
        yd = ys[destination]
        path = [source]
        phases: list[str] = []
        length = 0.0
        u = source
        hops = 0
        du = hyp(xs[u] - xd, ys[u] - yd)
        while hops < ttl:
            if u == destination:
                break
            row = rows[u]
            xu = xs[u]
            yu = ys[u]
            if destination in row:
                path.append(destination)
                phases.append(_GREEDY)
                length += hyp(xu - xd, yu - yd)
                u = destination
                hops += 1
                continue
            best = -1
            best_dist = du - _EPS
            cut = best_dist * best_dist * _GUARD
            for v in row:
                dx = xs[v] - xd
                dy = ys[v] - yd
                if dx * dx + dy * dy >= cut:
                    continue
                dv = hyp(dx, dy)
                if dv < best_dist:
                    best = v
                    best_dist = dv
                    cut = dv * dv * _GUARD
            if best < 0:
                # Local minimum: the original recovery machinery owns
                # the rest of the packet (face walk or hole boundary).
                return self._handover(
                    source, destination, path, phases, length
                )
            path.append(best)
            phases.append(_GREEDY)
            length += hyp(xu - xs[best], yu - ys[best])
            u = best
            du = best_dist
            hops += 1
        return self._finish(
            source, destination, path, phases, length, u == destination
        )


class _LgfExecutor(_Executor):
    """LGF fast path: request-zone greedy advance + ray-sweep perimeter."""

    def __init__(self, router: LgfRouter, core) -> None:
        super().__init__(router, core)
        self.zone_scope = router._scope == "zone"

    def route(self, source: NodeId, destination: NodeId) -> RouteResult:
        self._check(source, destination)
        xs = self.xs
        ys = self.ys
        rows = self.rows
        hyp = math.hypot
        zone_scope = self.zone_scope
        ttl = self.router.ttl
        xd = xs[destination]
        yd = ys[destination]
        path = [source]
        phases: list[str] = []
        length = 0.0
        u = source
        hops = 0
        perimeter_entries = 0
        du = hyp(xs[u] - xd, ys[u] - yd)
        while hops < ttl:
            if u == destination:
                break
            row = rows[u]
            xu = xs[u]
            yu = ys[u]
            if destination in row:
                path.append(destination)
                phases.append(_GREEDY)
                length += hyp(xu - xd, yu - yd)
                u = destination
                hops += 1
                continue
            if xu == xd and yu == yd:
                # Coincident with the destination: zone machinery is
                # degenerate here; let the original code decide.
                return self._handover(
                    source, destination, path, phases, length
                )
            best = -1
            if zone_scope:
                # Z_k(u, d): the closed rectangle with u and d at
                # opposite corners (Rect.from_corners + contains).
                xlo, xhi = (xu, xd) if xu <= xd else (xd, xu)
                ylo, yhi = (yu, yd) if yu <= yd else (yd, yu)
                best_dist = math.inf
                cut = math.inf
                for v in row:
                    xv = xs[v]
                    if xv < xlo or xv > xhi:
                        continue
                    yv = ys[v]
                    if yv < ylo or yv > yhi:
                        continue
                    dx = xv - xd
                    dy = yv - yd
                    if dx * dx + dy * dy >= cut:
                        continue
                    dv = hyp(dx, dy)
                    if dv < best_dist:
                        best = v
                        best_dist = dv
                        cut = dv * dv * _GUARD
            else:
                # Q_k(u) ∩ strictly-closer (quadrant scope).
                ddx = xd - xu
                ddy = yd - yu
                if ddx > 0.0 and ddy >= 0.0:
                    k = 1
                elif ddx <= 0.0 and ddy > 0.0:
                    k = 2
                elif ddx < 0.0 and ddy <= 0.0:
                    k = 3
                else:
                    k = 4
                best_dist = du - _EPS
                cut = best_dist * best_dist * _GUARD
                for v in row:
                    xv = xs[v]
                    yv = ys[v]
                    dx = xv - xu
                    dy = yv - yu
                    if k == 1:
                        if dx < 0.0 or dy < 0.0:
                            continue
                    elif k == 2:
                        if dx > 0.0 or dy < 0.0:
                            continue
                    elif k == 3:
                        if dx > 0.0 or dy > 0.0:
                            continue
                    else:
                        if dx < 0.0 or dy > 0.0:
                            continue
                    if dx == 0.0 and dy == 0.0:
                        continue  # coincident with u: in no zone
                    dx = xv - xd
                    dy = yv - yd
                    if dx * dx + dy * dy >= cut:
                        continue
                    dv = hyp(dx, dy)
                    if dv < best_dist:
                        best = v
                        best_dist = dv
                        cut = dv * dv * _GUARD
            if best < 0:
                # Local minimum: Algorithm 1 step 4.
                perimeter_entries += 1
                u, length, failure, _ = self._tried_perimeter(
                    u, destination, path, phases, length, ttl
                )
                if failure is not None:
                    return self._finish(
                        source,
                        destination,
                        path,
                        phases,
                        length,
                        False,
                        perimeter_entries,
                        failure,
                    )
                if u == destination:
                    break
                hops = len(path) - 1
                du = hyp(xs[u] - xd, ys[u] - yd)
                continue
            path.append(best)
            phases.append(_GREEDY)
            length += hyp(xu - xs[best], yu - ys[best])
            u = best
            du = best_dist
            hops += 1
        return self._finish(
            source,
            destination,
            path,
            phases,
            length,
            u == destination,
            perimeter_entries,
        )


def _statuses_by_id(model, size: int) -> list:
    """Safety tuples indexed by node id (None where no node)."""
    table: list = [None] * size
    for u, status in model.safety.statuses.items():
        table[u] = status
    return table


class _SlgfExecutor(_LgfExecutor):
    """SLGF fast path: safe-preferred zone advance + ray-sweep perimeter."""

    def __init__(self, router: SlgfRouter, core) -> None:
        super().__init__(router, core)
        # Touching .model here rebuilds it if a rebind left it stale,
        # exactly as the first route() after a rebind would.
        self.safety = _statuses_by_id(router.model, len(self.rows))

    def route(self, source: NodeId, destination: NodeId) -> RouteResult:
        self._check(source, destination)
        xs = self.xs
        ys = self.ys
        rows = self.rows
        safety = self.safety
        hyp = math.hypot
        zone_scope = self.zone_scope
        ttl = self.router.ttl
        xd = xs[destination]
        yd = ys[destination]
        path = [source]
        phases: list[str] = []
        length = 0.0
        u = source
        hops = 0
        perimeter_entries = 0
        du = hyp(xs[u] - xd, ys[u] - yd)
        while hops < ttl:
            if u == destination:
                break
            row = rows[u]
            xu = xs[u]
            yu = ys[u]
            if destination in row:
                path.append(destination)
                phases.append(_SAFE)
                length += hyp(xu - xd, yu - yd)
                u = destination
                hops += 1
                continue
            if xu == xd and yu == yd:
                return self._handover(
                    source, destination, path, phases, length
                )
            if zone_scope:
                xlo, xhi = (xu, xd) if xu <= xd else (xd, xu)
                ylo, yhi = (yu, yd) if yu <= yd else (yd, yu)
                floor = math.inf
            else:
                ddx = xd - xu
                ddy = yd - yu
                if ddx > 0.0 and ddy >= 0.0:
                    k = 1
                elif ddx <= 0.0 and ddy > 0.0:
                    k = 2
                elif ddx < 0.0 and ddy <= 0.0:
                    k = 3
                else:
                    k = 4
                floor = du - _EPS
            best_plain = -1
            plain_dist = floor
            best_safe = -1
            safe_dist = floor
            # The shared prefilter is anchored on the *safe* incumbent:
            # plain_dist <= safe_dist holds throughout (plain updates
            # on every admitted improvement), so nothing at or beyond
            # safe_dist can improve either minimum.
            cut = safe_dist * safe_dist * _GUARD
            for v in row:
                xv = xs[v]
                yv = ys[v]
                if zone_scope:
                    if xv < xlo or xv > xhi or yv < ylo or yv > yhi:
                        continue
                else:
                    dx = xv - xu
                    dy = yv - yu
                    if k == 1:
                        if dx < 0.0 or dy < 0.0:
                            continue
                    elif k == 2:
                        if dx > 0.0 or dy < 0.0:
                            continue
                    elif k == 3:
                        if dx > 0.0 or dy > 0.0:
                            continue
                    else:
                        if dx < 0.0 or dy > 0.0:
                            continue
                    if dx == 0.0 and dy == 0.0:
                        continue
                dx = xv - xd
                dy = yv - yd
                if dx * dx + dy * dy >= cut:
                    continue
                dv = hyp(dx, dy)
                if dv < plain_dist:
                    best_plain = v
                    plain_dist = dv
                if dv < safe_dist:
                    # Safe for v's own request zone toward d (the zone
                    # type is re-evaluated at v, per Section 4); a node
                    # exactly at d's position is trivially safe.
                    kv = _zone_type_rel(dx, dy)
                    if kv == 0 or safety[v][kv - 1]:
                        best_safe = v
                        safe_dist = dv
                        cut = dv * dv * _GUARD
            if best_safe >= 0:
                pick = best_safe
                pick_dist = safe_dist
                phase = _SAFE
            elif best_plain >= 0:
                pick = best_plain
                pick_dist = plain_dist
                phase = _GREEDY
            else:
                perimeter_entries += 1
                u, length, failure, _ = self._tried_perimeter(
                    u, destination, path, phases, length, ttl
                )
                if failure is not None:
                    return self._finish(
                        source,
                        destination,
                        path,
                        phases,
                        length,
                        False,
                        perimeter_entries,
                        failure,
                    )
                if u == destination:
                    break
                hops = len(path) - 1
                du = hyp(xs[u] - xd, ys[u] - yd)
                continue
            path.append(pick)
            phases.append(phase)
            length += hyp(xu - xs[pick], yu - ys[pick])
            u = pick
            du = pick_dist
            hops += 1
        return self._finish(
            source,
            destination,
            path,
            phases,
            length,
            u == destination,
            perimeter_entries,
        )


class _Slgf2Executor(_Executor):
    """SLGF2 fast path: the safe-forwarding rungs of Algorithm 3.

    Handles hops where a safe zone candidate exists (steps 2-3, the
    dominant case), including the superseding rule's split gathering
    over precomputed per-node unsafe types; the first hop that needs
    the detour ladder — unsafe greedy entry, backup paths, perimeter
    routing — hands the packet to the original ``_run`` with all
    per-packet state still at its initial value.
    """

    def __init__(self, router: Slgf2Router, core) -> None:
        super().__init__(router, core)
        self.quadrant_scope = router._scope == "quadrant"
        self.superseding = router._use_superseding
        model = router.model
        self.safety = _statuses_by_id(model, len(self.rows))
        # Unsafe zone types per node id, ascending (usually empty):
        # the splits of the superseding rule can only come from these.
        self.unsafe_types: list[tuple[int, ...]] = [
            ()
            if status is None
            else tuple(t for t in (1, 2, 3, 4) if not status[t - 1])
            for status in self.safety
        ]

    def _splits_at(self, u: NodeId, destination: NodeId):
        """Exact replica of ``Slgf2Router._region_splits_at``.

        Same (node, type) enumeration order — ``u`` first, then its
        neighbours ascending, types ascending — but driven by the
        precomputed unsafe-type tuples, so fully-safe neighbourhood
        members cost one empty-tuple check instead of four model
        calls.
        """
        router = self.router
        xs = self.xs
        ys = self.ys
        unsafe_types = self.unsafe_types
        xd = xs[destination]
        yd = ys[destination]
        splits = []
        model = None
        pd = None
        for w in (u, *self.rows[u]):
            types = unsafe_types[w]
            if not types:
                continue
            xw = xs[w]
            yw = ys[w]
            dx = xd - xw
            dy = yd - yw
            if dx == 0.0 and dy == 0.0:
                continue  # pd == pw: in no forwarding zone
            for t in types:
                if t == 1:
                    if dx < 0.0 or dy < 0.0:
                        continue
                elif t == 2:
                    if dx > 0.0 or dy < 0.0:
                        continue
                elif t == 3:
                    if dx > 0.0 or dy > 0.0:
                        continue
                else:
                    if dx < 0.0 or dy > 0.0:
                        continue
                if model is None:
                    model = router.model
                    pd = router.graph.position(destination)
                split = model.region_split(w, t, pd)
                if split is not None and split.destination_side != 0:
                    splits.append(split)
        return splits

    def _superseded_pick(
        self,
        row,
        xu: float,
        yu: float,
        xd: float,
        yd: float,
        k: int,
        floor: float,
        splits,
    ) -> NodeId:
        """Steps 2+3 with visible splits: exact flat-column replica.

        Rebuilds the *ordered* safe candidate set (the cut-prefiltered
        main scan only tracks the minimum), drops candidates inside
        any split's forbidden region — a preference, not a constraint:
        when every candidate is forbidden the unfiltered set is used —
        and greedy-picks among the survivors, matching
        ``_safe_zone_candidates`` → ``_prefer_non_forbidden`` →
        ``_greedy_pick`` decision for decision.  ``k`` is the zone
        type (0 = rectangle scope).
        """
        xs = self.xs
        ys = self.ys
        safety = self.safety
        hyp = math.hypot
        if k == 0:
            xlo, xhi = (xu, xd) if xu <= xd else (xd, xu)
            ylo, yhi = (yu, yd) if yu <= yd else (yd, yu)
        safe: list[NodeId] = []
        dists: list[float] = []
        for v in row:
            xv = xs[v]
            yv = ys[v]
            if k == 0:
                if xv < xlo or xv > xhi or yv < ylo or yv > yhi:
                    continue
            else:
                dx = xv - xu
                dy = yv - yu
                if k == 1:
                    if dx < 0.0 or dy < 0.0:
                        continue
                elif k == 2:
                    if dx > 0.0 or dy < 0.0:
                        continue
                elif k == 3:
                    if dx > 0.0 or dy > 0.0:
                        continue
                else:
                    if dx < 0.0 or dy > 0.0:
                        continue
                if dx == 0.0 and dy == 0.0:
                    continue
            dx = xv - xd
            dy = yv - yd
            dv = hyp(dx, dy)
            if k != 0 and dv >= floor:
                continue  # quadrant scope: strictly-closer only
            kv = _zone_type_rel(dx, dy)
            if kv == 0 or safety[v][kv - 1]:
                safe.append(v)
                dists.append(dv)
        preferred = [
            i
            for i, v in enumerate(safe)
            if not any(
                split.in_forbidden_region(Point(xs[v], ys[v]))
                for split in splits
            )
        ]
        if not preferred:
            preferred = range(len(safe))
        best = -1
        best_dist = math.inf
        for i in preferred:
            dv = dists[i]
            if dv < best_dist:
                best = safe[i]
                best_dist = dv
        return best

    def route(self, source: NodeId, destination: NodeId) -> RouteResult:
        self._check(source, destination)
        router = self.router
        xs = self.xs
        ys = self.ys
        rows = self.rows
        safety = self.safety
        unsafe_types = self.unsafe_types
        superseding = self.superseding
        hyp = math.hypot
        quadrant_scope = self.quadrant_scope
        ttl = router.ttl
        xd = xs[destination]
        yd = ys[destination]
        path = [source]
        phases: list[str] = []
        length = 0.0
        u = source
        hops = 0
        du = hyp(xs[u] - xd, ys[u] - yd)
        while hops < ttl:
            if u == destination:
                break
            row = rows[u]
            xu = xs[u]
            yu = ys[u]
            if destination in row:
                path.append(destination)
                phases.append(_SAFE)  # in_backup is False on this path
                length += hyp(xu - xd, yu - yd)
                u = destination
                hops += 1
                continue
            if xu == xd and yu == yd:
                return self._handover(
                    source, destination, path, phases, length
                )
            if quadrant_scope:
                ddx = xd - xu
                ddy = yd - yu
                if ddx > 0.0 and ddy >= 0.0:
                    k = 1
                elif ddx <= 0.0 and ddy > 0.0:
                    k = 2
                elif ddx < 0.0 and ddy <= 0.0:
                    k = 3
                else:
                    k = 4
                floor = du - _EPS
                cut = floor * floor * _GUARD
            else:
                xlo, xhi = (xu, xd) if xu <= xd else (xd, xu)
                ylo, yhi = (yu, yd) if yu <= yd else (yd, yu)
                floor = math.inf
                cut = math.inf
            best_safe = -1
            safe_dist = floor
            needs_splits = superseding and bool(unsafe_types[u])
            for v in row:
                if superseding and unsafe_types[v]:
                    needs_splits = True
                xv = xs[v]
                yv = ys[v]
                if quadrant_scope:
                    dx = xv - xu
                    dy = yv - yu
                    if k == 1:
                        if dx < 0.0 or dy < 0.0:
                            continue
                    elif k == 2:
                        if dx > 0.0 or dy < 0.0:
                            continue
                    elif k == 3:
                        if dx > 0.0 or dy > 0.0:
                            continue
                    else:
                        if dx < 0.0 or dy > 0.0:
                            continue
                    if dx == 0.0 and dy == 0.0:
                        continue
                else:
                    if xv < xlo or xv > xhi or yv < ylo or yv > yhi:
                        continue
                dx = xv - xd
                dy = yv - yd
                if dx * dx + dy * dy >= cut:
                    continue
                dv = hyp(dx, dy)
                if dv < safe_dist:
                    kv = _zone_type_rel(dx, dy)
                    if kv == 0 or safety[v][kv - 1]:
                        best_safe = v
                        safe_dist = dv
                        cut = dv * dv * _GUARD
            if best_safe < 0:
                # No safe zone successor (or, under adaptive greedy, a
                # candidate set this loop does not model): steps 3-5
                # belong to the original ladder.
                return self._handover(
                    source, destination, path, phases, length
                )
            pick = best_safe
            if needs_splits:
                splits = self._splits_at(u, destination)
                if splits:
                    # Splits visible: apply the paper's superseding
                    # rule (step 3) over the full ordered safe set.
                    pick = self._superseded_pick(
                        row,
                        xu,
                        yu,
                        xd,
                        yd,
                        k if quadrant_scope else 0,
                        floor,
                        splits,
                    )
            path.append(pick)
            phases.append(_SAFE)
            length += hyp(xu - xs[pick], yu - ys[pick])
            u = pick
            du = hyp(xs[u] - xd, ys[u] - yd)
            hops += 1
        return self._finish(
            source, destination, path, phases, length, u == destination
        )


_BUILDERS = {
    GreedyRouter: _GreedyExecutor,
    LgfRouter: _LgfExecutor,
    SlgfRouter: _SlgfExecutor,
    Slgf2Router: _Slgf2Executor,
}


def executor_for(router: Router):
    """A batch executor for ``router``, or ``None`` for no fast path.

    ``None`` (sequential fallback) when the scheme has no registered
    executor, when the router is a *subclass* of a known scheme (its
    overridden behaviour must win), or when the graph cannot provide a
    columnar core (hand-built, unsorted adjacency rows).
    """
    builder = _BUILDERS.get(type(router))
    if builder is None:
        return None
    try:
        core = router.graph.core
    except ValueError:
        return None
    return builder(router, core)


# ---------------------------------------------------------------------------
# The vectorized (numpy) batch backend.
# ---------------------------------------------------------------------------

# A packet this close to the destination defects: the quadrant-scope
# floor ``du - _EPS`` stops being meaningfully positive, and coincident
# geometry (the executors' hand-over cases) hides below it.  Far larger
# than the decision bands, far smaller than any real hop.
_NEAR_DEST = 1e-6

# The two sides of the squared-distance decision band.  A comparison
# against a threshold ``t`` is only trusted when the squared distance
# clears ``t**2`` by a relative ``1e-12`` margin on the matching side;
# the gap between the kernel's ``sqrt(dx*dx + dy*dy)`` and the scalar
# executors' ``math.hypot`` is a few ulp (~1e-16 relative), so a clear
# verdict here is the scalar verdict.  Anything inside the band — and
# any near-tie between candidates — defects to the scalar replica.
_BAND_LO = 1.0 - 1e-12
_BAND_HI = _GUARD

# Packets vectorized per wave.  A memory guard, not a tuning knob:
# per-step working arrays are (max_degree, active) float64, so an
# unbounded batch of a million packets would allocate gigabytes.
# Below this size one wave is fastest — per-element cost is flat while
# per-wave numpy dispatch is not.
_WAVE = 32768

# Smallest batch ``route_batch(backend="auto")`` hands to the kernel:
# the measured scalar/numpy crossover (docs/API.md has the table).
# Below it the kernel's per-step numpy dispatch, and its build on a
# router's first batch, cost more than the vectorized step saves.
_KERNEL_MIN_BATCH = 512


class _NumpyBatchKernel:
    """Vectorized batch backend: one array step advances every packet.

    The CSR columns are re-laid once per kernel into degree-padded
    neighbour matrices of shape ``(max_degree, n)``; padding entries
    point at a phantom node at ``(inf, inf)``, so their squared
    distance to any destination is ``inf`` and every mask ignores them
    for free.  Each step gathers the active packets' columns into
    ``(max_degree, active)`` working arrays, applies the scheme's
    forwarding-zone filter (and safety statuses for SLGF) as
    elementwise sign tests, and takes per-packet tier minima of the
    squared distance to the destination along ``axis=0`` — the long
    contiguous axis, which numpy reduces far faster than short rows.
    Delivered packets (destination adjacent) finish; packets whose
    winning candidate *provably* matches the scalar executors' choice
    advance.

    Exactness comes from proof, not replication: every floating-point
    decision is checked against the conservative bands above, and any
    packet the kernel cannot decide bit-identically — recovery or
    safe-ladder entry, (near-)ties, coincident geometry, near-destination
    thresholds — *defects*: it is re-routed from the source by the
    wrapped scalar executor, which is exact by construction.  Hop
    lengths are gathered from the core's ``math.hypot``-computed
    ``lengths`` column and accumulated one add per hop in path order,
    so delivered lengths are bit-identical too.
    """

    def __init__(self, np, mode: str, router: Router, core, scalar) -> None:
        self.np = np
        self.mode = mode
        self.router = router
        self.scalar = scalar
        self.ids = core.ids  # python-int tuple: index -> node id
        views = core.ndarray_views()
        self.xs = views.xs
        self.ys = views.ys
        self.ids_np = views.ids
        indptr = views.indptr
        indices = views.indices
        n = len(core.ids)
        self.n = n
        deg = indptr[1:] - indptr[:-1]
        self.deg = deg
        # Degree-padded columns, stored *transposed*: column u of the
        # ``(max_degree, n)`` matrices holds u's neighbour data in CSR
        # order, padded with a phantom node at (inf, inf).  Squared
        # distances through the padding are inf, so it never wins a
        # minimum, never matches a destination, and needs no mask of
        # its own.  Neighbour coordinates (and, for the safety modes,
        # packed safety bits) are materialised per (slot, node) here so
        # a step's working arrays are ``(max_degree, active)`` and the
        # per-packet reductions run along ``axis=0`` — over the long
        # contiguous axis, where numpy's reductions vectorise roughly
        # an order of magnitude better than along short rows.
        width = int(deg.max()) if n else 0
        pad_mask = np.arange(width)[None, :] < deg[:, None]
        nb_pad = np.full((n, width), n, dtype=np.int64)
        nb_pad[pad_mask] = indices
        len_pad = np.zeros((n, width))
        len_pad[pad_mask] = views.lengths
        xs_pad = np.concatenate((self.xs, [np.inf]))
        ys_pad = np.concatenate((self.ys, [np.inf]))
        self.width = width
        self.nb_t = np.ascontiguousarray(nb_pad.T)
        self.len_t = np.ascontiguousarray(len_pad.T)
        # Both coordinate planes in one (2, max_degree, n) block, so a
        # step fetches every candidate coordinate with a single gather
        # and differences both axes in a single ufunc pass.
        self.xy_t = np.ascontiguousarray(
            np.stack((xs_pad[nb_pad].T, ys_pad[nb_pad].T))
        )
        # (2*width, n) alias of the coordinate block: one 2-D ``take``
        # along axis 1 fetches both planes of a step's columns, which
        # measures ~30% faster than the equivalent 3-D fancy index.
        self.xy_take = self.xy_t.reshape(2 * width, n)
        # Step working buffers (gather, differences, minima, tie band),
        # grown on demand in _route_wave: reusing warm pages beats
        # fresh megabyte allocations, which hit mmap'd zero pages and
        # page-fault on every first touch.
        self._buf_cap = 0
        self._bufs = None
        # GF scans the full neighbourhood; LGF/SLGF filter by quadrant
        # or by the source-destination rectangle ("zone").
        self.quadrant = mode != "gf" and router._scope == "quadrant"
        if mode == "slgf":
            # Touching .model rebuilds it if a rebind left it stale,
            # exactly as the scalar executors do.  The phantom row is
            # all-safe; its inf distance already excludes it.
            statuses = router.model.safety.statuses
            safety = np.ones((n + 1, 4), dtype=bool)
            for i, u in enumerate(core.ids):
                safety[i] = statuses[u]
            # Zone-type-t safety of neighbour (u, slot), packed as bits
            # t-1 of one int8 (phantom: all-safe 0b1111).
            packed = (
                (safety.astype(np.uint8) << np.arange(4, dtype=np.uint8))
                .sum(axis=1)
                .astype(np.int8)
            )
            self.safe_t = np.ascontiguousarray(packed[nb_pad].T)
        else:
            self.safe_t = None
        # GF and LGF label every hop _GREEDY (SLGF labels per hop:
        # safe picks _SAFE, plain picks _GREEDY); ready-made
        # ``(_GREEDY,) * hops`` tuples are cached, since building one
        # per result is a measurable share of a large batch.
        self._phases: dict[int, tuple] = {}

    def _locate(self, pairs):
        """(sources, destinations) as index arrays, pairs validated.

        The happy path is one vectorized membership-plus-distinctness
        sweep (binary search against the sorted id column); anything
        suspicious falls back to the scalar ``_check`` loop, which
        raises the exact sequential-path error for the first offending
        pair in order.
        """
        np = self.np
        n = self.n
        try:
            flat = np.asarray(pairs, dtype=np.int64)
        except (TypeError, ValueError, OverflowError):
            flat = None
        if flat is not None and flat.shape == (len(pairs), 2) and n:
            pos = np.searchsorted(self.ids_np, flat)
            pos[pos >= n] = 0  # clamp for the gather; id 0 mismatches
            member = self.ids_np[pos] == flat
            if member.all() and (flat[:, 0] != flat[:, 1]).all():
                return pos[:, 0], pos[:, 1]
        for s, d in pairs:
            self.scalar._check(s, d)
        index_of = self.router.graph.core.index_of
        count = len(pairs)
        cur = np.fromiter(
            (index_of(s) for s, _ in pairs), dtype=np.int64, count=count
        )
        dst = np.fromiter(
            (index_of(d) for _, d in pairs), dtype=np.int64, count=count
        )
        return cur, dst

    def route_batch(self, pairs) -> list[RouteResult]:
        pairs = list(pairs)
        if len(pairs) <= _WAVE:
            return self._route_wave(pairs)
        # Bounded memory for unbounded batches; see _WAVE.
        results: list[RouteResult] = []
        for start in range(0, len(pairs), _WAVE):
            results.extend(self._route_wave(pairs[start : start + _WAVE]))
        return results

    def _tiers(self, np, cur, dst, dval, safe_t):
        """One step's candidate evaluation: masks and tier minima.

        Returns ``(m_sel, d2t, m_band, ok, deliver, use_safe)``: the
        selected tier's per-packet minimum and candidate matrix, the
        tie band around that minimum, the banded progress verdict, the
        delivery trigger, and (SLGF only) the per-packet safe-tier
        flags.
        """
        mode = self.mode
        xs, ys = self.xs, self.ys
        active = cur.shape[0]
        width = self.width
        g_flat, d_flat, m_flat, _ = self._bufs
        span = 2 * width * active
        # Candidate block: active packets' padded neighbour columns as
        # (width, active) working arrays, both coordinate planes
        # gathered and differenced in one pass each, into the wave's
        # persistent buffers (see __init__).
        xy = g_flat[:span].reshape(2 * width, active)
        np.take(self.xy_take, cur, axis=1, out=xy)
        xy = xy.reshape(2, width, active)
        xv = xy[0]
        yv = xy[1]
        xd = xs[dst]
        yd = ys[dst]
        dxy = d_flat[:span].reshape(2, width, active)
        np.subtract(xy, np.stack((xd, yd))[:, None, :], out=dxy)
        dx = dxy[0]
        dy = dxy[1]

        # Forwarding-zone and safety masks (exact: sign tests only)
        # come before the in-place squaring consumes dx/dy; padding
        # rides through every mask with d2 == inf.
        valid = None
        if mode == "gf":
            pass  # full neighbourhood, no zone filter
        elif self.quadrant:
            xu = xs[cur]
            yu = ys[cur]
            ddx = xd - xu
            ddy = yd - yu
            k = np.select(
                [
                    (ddx > 0.0) & (ddy >= 0.0),
                    (ddx <= 0.0) & (ddy > 0.0),
                    (ddx < 0.0) & (ddy <= 0.0),
                ],
                [1, 2, 3],
                default=4,
            )
            dxu = xv - xu
            dyu = yv - yu
            px = dxu >= 0.0
            py = dyu >= 0.0
            nx = dxu <= 0.0
            ny = dyu <= 0.0
            valid = (
                ((k == 1) & px & py)
                | ((k == 2) & nx & py)
                | ((k == 3) & nx & ny)
                | ((k == 4) & px & ny)
            )
            valid &= ~((dxu == 0.0) & (dyu == 0.0))
        else:
            xu = xs[cur]
            yu = ys[cur]
            xlo = np.minimum(xu, xd)
            xhi = np.maximum(xu, xd)
            ylo = np.minimum(yu, yd)
            yhi = np.maximum(yu, yd)
            valid = (
                (xv >= xlo)
                & (xv <= xhi)
                & (yv >= ylo)
                & (yv <= yhi)
            )

        safe_ok = None
        if safe_t is not None:
            # _zone_type_rel, branch for branch, on (dx, dy); the
            # candidate's own safety bit comes out of the packed
            # per-slot bits by the zone type's shift.
            kv = np.select(
                [
                    (dx == 0.0) & (dy == 0.0),
                    (dx < 0.0) & (dy <= 0.0),
                    dy < 0.0,
                    dx > 0.0,
                ],
                [0, 1, 2, 3],
                default=4,
            )
            bit = safe_t[:, cur] >> np.maximum(kv - 1, 0)
            safe_ok = (kv == 0) | (bit & 1).astype(bool)

        # Squared distance to the destination, both planes in one
        # pass; the in-place square frees dx/dy.
        np.multiply(dxy, dxy, out=dxy)
        d2 = np.add(dxy[0], dxy[1], out=dxy[0])
        d2v = d2 if valid is None else np.where(valid, d2, np.inf)
        if safe_ok is not None:
            d2s = np.where(safe_ok, d2v, np.inf)

        # Tier minima and the banded clear/defect verdicts.
        banded = self.quadrant or mode == "gf"
        if banded:
            thr = dval - _EPS
            thr2 = thr * thr
            lo2 = thr2 * _BAND_LO
            hi2 = thr2 * _BAND_HI
        if mode in ("gf", "lgf"):
            m_all = np.minimum.reduce(d2v, axis=0, out=m_flat[:active])
            ok = m_all < lo2 if banded else np.isfinite(m_all)
            m_sel = m_all
            d2t = d2v
            use_safe = None
        else:  # slgf
            m_all = d2v.min(axis=0)
            m_safe = d2s.min(axis=0)
            if banded:
                safe_clear = m_safe < lo2
                safe_empty = m_safe >= hi2
                plain_clear = m_all < lo2
            else:
                safe_clear = np.isfinite(m_safe)
                safe_empty = ~safe_clear
                plain_clear = np.isfinite(m_all)
            use_safe = safe_clear
            ok = safe_clear | (safe_empty & plain_clear)
            m_sel = np.where(use_safe, m_safe, m_all)
            d2t = np.where(use_safe, d2s, d2v)

        # Delivery: a destination adjacent to its packet.  Its
        # candidate entry has squared distance exactly 0.0 and passes
        # every zone and safety filter, so ``m_sel == 0.0`` is a
        # complete (and cheap) trigger; the caller's column scan then
        # tells a true destination from a node merely coincident with
        # it.
        deliver = m_sel == 0.0
        return m_sel, d2t, m_sel * _BAND_HI, ok, deliver, use_safe

    def _route_wave(self, pairs: list) -> list[RouteResult]:
        np = self.np
        mode = self.mode
        scalar = self.scalar
        count = len(pairs)
        if count == 0:
            return []
        ids = self.ids
        n = self.n
        xs, ys = self.xs, self.ys
        nb_t, len_t, deg = self.nb_t, self.len_t, self.deg
        nb_flat, len_flat = nb_t.ravel(), len_t.ravel()
        safe_t = self.safe_t
        rname = self.router.name
        phase_cache = self._phases
        results: list[RouteResult | None] = [None] * count
        defects: list[int] = []
        paths: list[list[NodeId]] = [[s] for s, _ in pairs]
        phase_rows = [[] for _ in range(count)] if mode == "slgf" else None

        if count > self._buf_cap:
            plane = 2 * self.width * count
            self._bufs = (
                np.empty(plane),
                np.empty(plane),
                np.empty(count),
                np.empty(self.width * count, dtype=bool),
            )
            self._buf_cap = count

        slot = np.arange(count, dtype=np.int64)
        cur, dst = self._locate(pairs)
        length = np.zeros(count)
        dval = np.hypot(xs[cur] - xs[dst], ys[cur] - ys[dst])

        first = True
        for _ in range(self.router.ttl):
            if not slot.size:
                break
            # Pre-decision defects: (near-)coincident with the
            # destination and — only possible on the first hop, every
            # later node has a neighbour — isolated sources.
            bad = dval <= _NEAR_DEST
            if first:
                bad |= deg[cur] == 0
                first = False
            if bad.any():
                defects.extend(slot[bad].tolist())
                keep = ~bad
                slot = slot[keep]
                cur = cur[keep]
                dst = dst[keep]
                dval = dval[keep]
                length = length[keep]
                if not slot.size:
                    break

            m_sel, d2t, m_band, ok, deliver, use_safe = self._tiers(
                np, cur, dst, dval, safe_t
            )

            dmatch = None
            if deliver.any():
                zrows = np.nonzero(deliver)[0]
                dmatch = nb_t[:, cur[zrows]] == dst[zrows]
                deliver[zrows] = dmatch.any(axis=0)

            # A winner must be *uniquely* within the tie band of the
            # tier minimum, or the scalar scan-order tie-break decides.
            within = self._bufs[3][: d2t.size].reshape(d2t.shape)
            np.less_equal(d2t, m_band, out=within)
            cnt = within.sum(axis=0)
            advance = ok & (cnt == 1) & ~deliver
            defect = ~deliver & ~advance
            if defect.any():
                defects.extend(slot[defect].tolist())
            if dmatch is not None and deliver.any():
                hit = deliver[zrows]
                done = zrows[hit]
                dcol = dmatch[:, hit].argmax(axis=0)
                fin_len = (
                    length[done] + len_flat[dcol * n + cur[done]]
                ).tolist()
                # Delivered results are built directly (positional
                # dataclass call, cached phase tuples): the ergonomic
                # ``_finish`` wrapper costs more than every array op
                # of a step combined when thousands of packets finish.
                for s_slot, flen in zip(slot[done].tolist(), fin_len):
                    source, destination = pairs[s_slot]
                    path = paths[s_slot]
                    path.append(destination)
                    if phase_rows is not None:
                        ph = phase_rows[s_slot]
                        ph.append(_SAFE)
                        ph = tuple(ph)
                    else:
                        hops = len(path) - 1
                        ph = phase_cache.get(hops)
                        if ph is None:
                            phase_cache[hops] = ph = (_GREEDY,) * hops
                    results[s_slot] = RouteResult(
                        rname,
                        source,
                        destination,
                        True,
                        tuple(path),
                        ph,
                        flen,
                    )

            adv = np.nonzero(advance)[0]
            if adv.size:
                # The advancing packets' unique in-band candidate is
                # the tier minimum; its padded slot (first along the
                # CSR axis, matching the scalar first-wins scan) keys
                # the flat neighbour/length lookups.
                wrow = within.argmax(axis=0)
                wflat = wrow[adv] * n + cur[adv]
                wnb = nb_flat[wflat]
                widx = wnb.tolist()
                if phase_rows is not None:
                    safe_flags = use_safe[adv].tolist()
                    for s_slot, wi, sflag in zip(
                        slot[adv].tolist(), widx, safe_flags
                    ):
                        paths[s_slot].append(ids[wi])
                        phase_rows[s_slot].append(
                            _SAFE if sflag else _GREEDY
                        )
                else:
                    for s_slot, wi in zip(slot[adv].tolist(), widx):
                        paths[s_slot].append(ids[wi])
                length = length[adv] + len_flat[wflat]
                cur = wnb
                dval = np.sqrt(m_sel[adv])
            slot = slot[adv]
            dst = dst[adv]

        # TTL-exhausted survivors.
        for j in range(slot.size):
            s_slot = int(slot[j])
            source, destination = pairs[s_slot]
            path = paths[s_slot]
            if phase_rows is not None:
                ph = tuple(phase_rows[s_slot])
            else:
                ph = (_GREEDY,) * (len(path) - 1)
            results[s_slot] = RouteResult(
                rname,
                source,
                destination,
                False,
                tuple(path),
                ph,
                float(length[j]),
                failure_reason="ttl_exceeded",
            )

        # Defected packets: the scalar replica re-routes from scratch
        # (its first hops recompute exactly what the kernel already
        # proved, so re-walking the prefix cannot diverge).
        for s_slot in sorted(defects):
            source, destination = pairs[s_slot]
            results[s_slot] = scalar.route(source, destination)
        return results


def numpy_kernel_for(router: Router, executor=None):
    """A vectorized batch kernel for ``router``, or ``None``.

    ``None`` when the scheme has no kernel mode (SLGF2: its kernel
    defected nearly every packet to the scalar replica and was no faster
    than it, so SLGF2 runs on the scalar executor under every backend),
    when numpy is unavailable, or when the router has no scalar fast
    path (``executor_for`` rules: unknown scheme, subclass, no columnar
    core) — the kernel defects packets to the scalar replica, so it
    cannot exist without one.  ``executor`` reuses an already-built
    scalar executor instead of building a fresh one.
    """
    mode = _KERNEL_MODES.get(type(router))
    if mode is None:
        return None
    np = load_numpy()
    if np is None:
        return None
    if executor is None:
        executor = executor_for(router)
    if executor is None:
        return None
    return _NumpyBatchKernel(np, mode, router, router.graph.core, executor)


_KERNEL_MODES = {
    GreedyRouter: "gf",
    LgfRouter: "lgf",
    SlgfRouter: "slgf",
}
