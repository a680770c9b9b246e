"""The forwarding loops of the four schemes, on the topology core's indices.

Each built-in scheme's forwarding loop exists once in the program: its
executor here.  :meth:`Router.route` runs it for one packet (observers
replay the finished route), :meth:`Router.route_batch` for a whole
batch.  The executors run greedy/safe advance everywhere, GF's face
and hole-boundary recovery, LGF/SLGF's tried-set perimeter sweep, and
every rung of SLGF2's Algorithm 3 directly on the core's flat columns:
neighbour-id tuples, plain-list coordinate reads, one ``math.hypot``
per surviving candidate.  No ``Point`` objects, no per-hop dict
lookups, no ``PacketTrace`` method dispatch.  A node's neighbourhood
geometry is derived once and read at every later hop: an executor
keeps SLGF2's quadrant members per (node, quadrant), built by the
first scan that needs them, and every hand-rule sweep reads the core's
rotation: each row's neighbours in angular order, with the angles the
rotation's build sorted them by.

Exactness is non-negotiable: every route must be bit-identical to the
object-path loops the executors replaced, which
``tests/routing/_oracle.py`` keeps as the reference (the differential
suites pin each scheme against it).  Three mechanisms guarantee it:

* **Conservative squared-distance prefilter.**  Greedy selection
  compares ``hypot`` distances exactly as the reference does; the
  fast loop merely *skips* candidates whose squared distance already
  proves ``hypot`` would lose.  The filter bound carries a relative
  margin of 1e-12 — four orders of magnitude wider than the ~1e-16
  relative error of squaring vs. ``hypot`` — so no candidate that
  could win (or tie) is ever skipped, and every surviving comparison
  uses the same ``math.hypot`` values the reference computes.

* **Operation-for-operation replicas.**  Every phase — the hand-rule
  sweeps where the rotation cannot decide them, the face walk's
  crossing test, the hole-boundary walk's direction and exit tests,
  the superseding rule's divider sides, the zone machinery at a node
  coincident with its destination — performs the same floating-point
  operations in the same order as the reference: ``atan2``/``fmod``
  normalisation, tie-breaks, epsilon conventions, raised errors.

* **Decisions the rotation proves.**  On a row the rotation leaves
  unflagged, neighbour angles lie more than 1e-9 apart, so a sweep's
  winner is the first admissible neighbour in rotation order from the
  reference, unless the reference lies within 1e-9 of a neighbour's
  angle; a flagged row or such a reference runs the replica
  (:meth:`_Executor._sweep`).  The numpy build's angles may sit an ulp
  off the replica's, far inside that band.  The quadrant lists hold
  exactly what each scan's own sign tests admit, in row order, so
  every scan keeps its first-strict-minimum tie-break.

A router runs the executor of its nearest built-in base class
(:func:`executor_for`), unless its class overrides ``_run``: then it
routes through its own loop, one packet at a time.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_left
from itertools import chain

from repro._optional import load_numpy
from repro.core.regions import Hand
from repro.core.safety import STATUS_TUPLES
from repro.network.node import NodeId
from repro.routing.base import Phase, RouteResult, Router, RoutingError
from repro.routing.greedy import GreedyRouter
from repro.routing.lgf import LgfRouter
from repro.routing.slgf import SlgfRouter
from repro.routing.slgf2 import Slgf2Router

__all__ = ["executor_for", "numpy_kernel_for"]

_EPS = 1e-9  # the schemes' successor-selection and exit tolerance

# Relative margin of the squared-distance prefilter.  Squaring and
# ``hypot`` each err by ~1 ulp (~1.1e-16 relative); a candidate whose
# squared distance exceeds the bound by 1e-12 relative is therefore
# provably farther than the incumbent, with ~1e4 slack.
_GUARD = 1.0 + 1e-12

# The geometry layer's sign and angle band (``angles``, ``segment``,
# ``regions``): sweep exclusivity, crossing bounds and divider sides.
_GEOM_EPS = 1e-12
_CROSS_HI = 1.0 - _GEOM_EPS

# A sweep reference this close to a neighbour's angle is left to the
# scalar sweep: an offset's rounding (~1e-15) could order it either way.
_REF_BAND = 1e-9

_GREEDY = Phase.GREEDY
_SAFE = Phase.SAFE
_BACKUP = Phase.BACKUP
_PERIMETER = Phase.PERIMETER

_TAU = math.tau

# Q_t as sign tests: an offset (dx, dy) from the apex lies in the closed
# quadrant t when sx * dx >= 0 and sy * dy >= 0 (the apex itself is in
# no forwarding zone).  Multiplying by +-1.0 is exact.
_QUADRANT_SIGNS = (None, (1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0))

# The safety tuple (1, 1, 1, 1): the executors' tables hold this object.
_ALL_SAFE = STATUS_TUPLES[0b1111]


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
    """Shared per-topology state, argument checks and result records."""

    def __init__(self, router: Router, core) -> None:
        # Weak: the router caches its executor, so a strong reference
        # back would make every dropped network a reference cycle,
        # freed only when the cyclic collector next runs.
        self.router = weakref.proxy(router)
        self.core = core
        self.dense = core.dense  # node id == core index
        self.xs, self.ys = core.coords_by_id()
        self.rows = core.rows_by_id()
        self._rotation = None  # core.rotation(), on the first sweep

    def _check(self, source: NodeId, destination: NodeId) -> None:
        graph = self.router.graph
        if source not in graph or destination not in graph:
            raise RoutingError("source or destination not in graph")
        if source == destination:
            raise RoutingError("source equals destination")

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
        backup_entries: int = 0,
        bound_escapes: int = 0,
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
            backup_entries=backup_entries,
            bound_escapes=bound_escapes,
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
        """Algorithm 1 step 4 (reference: ``lgf_tried_set_perimeter``).

        Right-hand-rule sweep over untried neighbours with
        backtracking; returns ``(current, length, failure, walking)``
        where ``walking=False`` means the phase ended (resume greedy,
        arrived, or failed).  Appends to ``path``/``phases`` in place.
        """
        xs = self.xs
        ys = self.ys
        rows = self.rows
        hyp = math.hypot
        atan2 = math.atan2
        sweep = self._sweep
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
            # The CCW "first node hit by the ray ud" sweep over the
            # untried neighbours.
            ref = _norm(atan2(yd - yu, xd - xu))
            best = sweep(u, xu, yu, ref, True, False, tried=tried)
            if best >= 0:
                tried.add(best)
                stack.append(best)
                path.append(best)
                phases.append(_PERIMETER)
                length += hyp(xu - xs[best], yu - ys[best])
                u = best
                hops += 1
                continue
            if any(v not in tried for v in row):
                # Every untried neighbour coincides with u: the sweep
                # hits nothing, and the hop to None raises.
                raise RoutingError(f"illegal hop {u} -> None: not an edge")
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

    # -- the hand-rule sweeps --------------------------------------------

    def _sweep(
        self,
        u: NodeId,
        xu: float,
        yu: float,
        ref: float,
        ccw: bool,
        exclusive: bool,
        among=None,
        tried=None,
    ) -> NodeId:
        """:meth:`_hand_sweep` from ``u`` = ``(xu, yu)``, read off the
        core's rotation; -1 when nothing is hit.

        The candidates are ``among`` (some of ``u``'s neighbours, in
        row order) or else ``u``'s neighbours not in ``tried``.  On a
        row the rotation leaves unflagged, neighbour angles lie more
        than 1e-9 apart and off the axes, and no neighbour coincides
        with ``u``: the offsets order the neighbours exactly as the
        rotation does, so the first candidate in rotation order from
        the reference (counter-clockwise, or clockwise) wins outright.
        A reference within 1e-9 of a neighbour's angle could round to
        either side of it, so the scalar sweep decides it, as it does
        a flagged row.  The exception is an exclusive sweep's
        reference exactly on a neighbour's angle (the edge it arrived
        on): the scalar sweep pushes that zero offset a full turn
        away, so that neighbour comes last.  The angles are the
        rotation's own; the numpy build's may sit an ulp off this
        sweep's, which only ever sends a reference to the scalar sweep.
        """
        rotation = self._rotation
        if rotation is None:
            rotation = self._rotation = self.core.rotation()
        ids = rotation.ids
        i = u if self.dense else self.core.index_of(u)
        if rotation.band[i]:
            if among is None:
                among = [v for v in self.rows[u] if v not in tried]
            return self._hand_sweep(xu, yu, ref, among, ccw, exclusive)
        indptr = rotation.indptr
        head = rotation.head
        lo = indptr[i]
        hi = indptr[i + 1]
        if lo == hi:
            return -1  # no neighbours
        angles = rotation.angles
        b = bisect_left(angles, ref, lo, hi)  # first angle >= ref
        exact = b < hi and angles[b] == ref
        # Negated comparisons: a NaN reference is near everything.
        if (
            b < hi
            and not angles[b] - ref > _REF_BAND
            and not (exclusive and exact)
        ) or (b > lo and not ref - angles[b - 1] > _REF_BAND):
            if among is None:
                among = [v for v in self.rows[u] if v not in tried]
            return self._hand_sweep(xu, yu, ref, among, ccw, exclusive)
        if exact and ccw:
            b += 1  # the arrival edge comes last
        if ccw:
            slots = chain(range(b, hi), range(lo, b))
        else:
            slots = chain(range(b - 1, lo - 1, -1), range(hi - 1, b - 1, -1))
        if among is not None:
            for s in slots:
                v = ids[head[s]]
                if v in among:
                    return v
        else:
            for s in slots:
                v = ids[head[s]]
                if v not in tried:
                    return v
        return -1

    def _hand_sweep(
        self,
        xu: float,
        yu: float,
        ref: float,
        candidates,
        ccw: bool,
        exclusive: bool,
    ) -> NodeId:
        """The scalar hand-rule sweep (reference: ``hand_sweep``); -1
        when nothing is hit.

        The first candidate a ray from ``(xu, yu)`` at angle ``ref``
        hits, rotating counter-clockwise (``ccw``, the right hand) or
        clockwise: smaller offset first, Euclidean distance on exact
        offset ties, first-seen on full ties.  Candidates coincident
        with the origin are skipped; under ``exclusive`` a zero offset
        is pushed a full turn away.
        """
        xs = self.xs
        ys = self.ys
        atan2 = math.atan2
        best = -1
        best_off = 0.0
        best_dist = -1.0  # lazily computed, only on offset ties
        for v in candidates:
            xv = xs[v]
            yv = ys[v]
            if xv == xu and yv == yu:
                continue
            theta = _norm(atan2(yv - yu, xv - xu))
            off = _norm(theta - ref) if ccw else _norm(ref - theta)
            if exclusive and off < _GEOM_EPS:
                off = _TAU
            if best < 0 or off < best_off:
                best = v
                best_off = off
                best_dist = -1.0
            elif off == best_off:
                if best_dist < 0.0:
                    best_dist = math.hypot(xu - xs[best], yu - ys[best])
                dv = math.hypot(xu - xv, yu - yv)
                if dv < best_dist:
                    best = v
                    best_dist = dv
        return best

    # -- the face walk (GF's recovery, SLGF2's perimeter phase) --------

    def _face_phase(self, u, destination, path, phases, length, ttl, ccw):
        """GPSR's face walk (reference: ``face_recovery``).

        ``ccw`` is the hand: GF always walks with the right hand
        (``True``), SLGF2 with the one its either-hand rule chose.
        Returns ``(current, length, failure)``; ``failure`` is ``None``
        when forwarding resumes (or the packet arrived).
        """
        xs = self.xs
        ys = self.ys
        rows = self.rows
        planar = self.router._planar.adjacency
        hyp = math.hypot
        atan2 = math.atan2
        sweep = self._sweep
        xd = xs[destination]
        yd = ys[destination]
        stuck = u
        sx = xs[u]
        sy = ys[u]
        # The stuck->destination segment of proper_intersection_point.
        ex = xd - sx
        ey = yd - sy
        exit_dist = hyp(sx - xd, sy - yd)
        exit_limit = exit_dist - _EPS
        best_cross = exit_dist
        first_u = -1  # the face's first edge, (first_u, first_v)
        first_v = -1
        hops = len(path) - 1
        while hops < ttl:
            xu = xs[u]
            yu = ys[u]
            if u != stuck and hyp(xu - xd, yu - yd) < exit_limit:
                return u, length, None  # resume forwarding
            if destination in rows[u]:
                path.append(destination)
                phases.append(_PERIMETER)
                length += hyp(xu - xd, yu - yd)
                return destination, length, None
            candidates = planar[u]
            if not candidates:
                return u, length, "isolated_in_planar_graph"
            if first_u < 0:
                ref = _norm(atan2(yd - yu, xd - xu))
                nxt = sweep(u, xu, yu, ref, ccw, False, candidates)
            else:
                prev = path[-2]
                ref = _norm(atan2(ys[prev] - yu, xs[prev] - xu))
                nxt = sweep(u, xu, yu, ref, ccw, True, candidates)
            if nxt < 0:
                return u, length, "isolated_in_planar_graph"
            # Face change: rotate past edges crossing the stuck->d
            # segment closer to d (proper_intersection_point's bounds).
            changed_face = False
            px = sx - xu
            py = sy - yu
            for _ in range(len(candidates)):
                xn = xs[nxt]
                yn = ys[nxt]
                d1x = xn - xu
                d1y = yn - yu
                denom = d1x * ey - d1y * ex
                if abs(denom) <= _GEOM_EPS:
                    break
                t = (px * ey - py * ex) / denom
                s = (px * d1y - py * d1x) / denom
                if not (
                    _GEOM_EPS < t < _CROSS_HI and _GEOM_EPS < s < _CROSS_HI
                ):
                    break
                cross_dist = hyp(xu + t * d1x - xd, yu + t * d1y - yd)
                if cross_dist >= best_cross - _EPS:
                    break
                best_cross = cross_dist
                changed_face = True
                ref = _norm(atan2(yn - yu, xn - xu))
                rotated = sweep(u, xu, yu, ref, ccw, True, candidates)
                if rotated < 0:
                    break
                nxt = rotated
            if changed_face or first_u < 0:
                first_u = u
                first_v = nxt
            elif u == first_u and nxt == first_v:
                return u, length, "unreachable"  # GPSR drop rule
            path.append(nxt)
            phases.append(_PERIMETER)
            length += hyp(xu - xs[nxt], yu - ys[nxt])
            u = nxt
            hops += 1
        return u, length, "ttl_exceeded"


class _GreedyExecutor(_Executor):
    """GF on indices: greedy advance and both recovery modes.

    At a local minimum the packet recovers here (reference:
    ``gf_run``): ``recovery="face"`` runs the right-hand face walk,
    and ``recovery="boundhole"`` walks the stuck node's hole boundary
    (:meth:`_boundary_walk`).
    """

    def __init__(self, router: GreedyRouter, core) -> None:
        super().__init__(router, core)
        self.boundhole = router._recovery == "boundhole"
        # id(cycle) -> (cycle, the positions whose edge the graph lacks).
        self._stale: dict[int, tuple] = {}

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
        perimeter_entries = 0
        failure = None
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
                # Local minimum: recover, then resume greedy wherever
                # the phase left the packet.
                perimeter_entries += 1
                if self.boundhole:
                    u, length, failure = self._boundary_walk(
                        u, destination, path, phases, length, ttl
                    )
                else:
                    u, length, failure = self._face_phase(
                        u, destination, path, phases, length, ttl, True
                    )
                if failure is not None:
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
            failure,
        )

    def _boundary_walk(self, u, destination, path, phases, length, ttl):
        """BOUNDHOLE recovery (reference: ``gf_boundhole_recovery``).

        Walks the hole boundary through the stuck node ``u`` in the
        direction whose first node is no farther from ``d``, and exits
        on the first node closer to ``d`` than ``u``.  The face walk
        takes over when there is no boundary through ``u``, a first
        node the graph no longer has, or a boundary edge the graph no
        longer has.  Returns ``(current, length, failure)`` like
        :meth:`_face_phase`.
        """
        cycle = self.router._hole_boundaries().boundary_of(u)
        if cycle is None or len(cycle) < 2:
            return self._face_phase(
                u, destination, path, phases, length, ttl, True
            )
        # Walk by position from u's first occurrence; negative positions
        # wrap, so forward runs index + 1 - m .. index - 1 and backward
        # index - 1 .. index + 1 - m.
        index = cycle.index(u)
        m = len(cycle)
        ahead = cycle[index + 1 - m]
        behind = cycle[index - 1]
        graph = self.router.graph
        if ahead not in graph or behind not in graph:
            # A stale cycle names a node the graph no longer has.
            return self._face_phase(
                u, destination, path, phases, length, ttl, True
            )
        xs = self.xs
        ys = self.ys
        rows = self.rows
        hyp = math.hypot
        xd = xs[destination]
        yd = ys[destination]
        exit_limit = hyp(xs[u] - xd, ys[u] - yd) - _EPS
        # A step onto position p crosses the cycle edge that enters p
        # (forward) or p + 1 (backward).
        if hyp(xs[ahead] - xd, ys[ahead] - yd) <= hyp(
            xs[behind] - xd, ys[behind] - yd
        ):
            walk = range(index + 1 - m, index)
            shift = 0
        else:
            walk = range(index - 1, index - m, -1)
            shift = 1
        stale = self._stale_edges(cycle)
        near_destination = set(rows[destination])
        hops = len(path) - 1
        for position in walk:
            node = cycle[position]
            if hops >= ttl:
                return u, length, "ttl_exceeded"
            if stale and (position + shift) % m in stale:
                # A stale boundary (the graph lost this edge).
                return self._face_phase(
                    u, destination, path, phases, length, ttl, True
                )
            xn = xs[node]
            yn = ys[node]
            path.append(node)
            phases.append(_PERIMETER)
            length += hyp(xs[u] - xn, ys[u] - yn)
            u = node
            hops += 1
            if node in near_destination:
                if hops >= ttl:
                    return u, length, "ttl_exceeded"
                path.append(destination)
                phases.append(_PERIMETER)
                length += hyp(xn - xd, yn - yd)
                return destination, length, None
            if hyp(xn - xd, yn - yd) < exit_limit:
                return u, length, None  # resume greedy
        return u, length, "unreachable"  # the whole cycle, no closer

    def _stale_edges(self, cycle) -> frozenset:
        """The positions ``p`` of ``cycle`` whose entering edge, from
        position ``p - 1`` (cyclically), the graph lacks; computed once
        per cycle and executor."""
        memo = self._stale.get(id(cycle))
        if memo is not None and memo[0] is cycle:
            return memo[1]
        rows = self.rows
        size = len(rows)
        stale = frozenset(
            p
            for p, (a, b) in enumerate(zip(cycle[-1:] + cycle[:-1], cycle))
            if not (0 <= a < size and b in rows[a])
        )
        self._stale[id(cycle)] = (cycle, stale)
        return stale


class _LgfExecutor(_Executor):
    """LGF on indices: request-zone greedy advance + ray-sweep perimeter."""

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
                # Q_k(u) ∩ strictly-closer (quadrant scope).  At a node
                # coincident with d, zone_type_of raises; the request
                # zone (above) degenerates to d's point instead.
                ddx = xd - xu
                ddy = yd - yu
                if ddx > 0.0 and ddy >= 0.0:
                    k = 1
                elif ddx <= 0.0 and ddy > 0.0:
                    k = 2
                elif ddx < 0.0 and ddy <= 0.0:
                    k = 3
                elif xu == xd and yu == yd:
                    raise ValueError(
                        "zone type undefined for coincident points"
                    )
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
    """Safety tuples indexed by node id (None where no node), read off
    the safety column through its 16 possible tuples."""
    safety = model.safety
    table: list = [None] * size
    for u, bits in zip(safety.graph.core.ids, safety.mask):
        table[u] = STATUS_TUPLES[bits]
    return table


class _SlgfExecutor(_LgfExecutor):
    """SLGF on indices: safe-preferred zone advance + ray-sweep perimeter."""

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
                elif xu == xd and yu == yd:
                    raise ValueError(
                        "zone type undefined for coincident points"
                    )
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
    """SLGF2 on indices: every rung of Algorithm 3 (reference:
    ``slgf2_run``).

    Safe forwarding under the superseding rule, unsafe greedy entry
    (with the safe-arrival gate and the size-aware entry test), backup
    episodes and the perimeter phase — face walk or (bounded) DFS —
    run on the core's flat columns with the per-packet state: the
    committed hand, the backup flag and budget, and the backup visited
    set, which lives for the whole packet.

    Lazily memoised, never built up front (serve rebuilds the executor
    after every write; a paper cell routes 20 pairs through it): per
    node and quadrant, the members the safe scan and ``_zone_scan``
    admit; per node, the split-capable (quadrant, anchor, far corner)
    records of the node itself and of its neighbourhood, and the
    backup episode cap.  The rare size-aware entry test and the bound
    of a DFS phase call the router itself, which is exact by
    construction.
    """

    def __init__(self, router: Slgf2Router, core) -> None:
        super().__init__(router, core)
        self.quadrant_scope = router._scope == "quadrant"
        self.superseding = router._use_superseding
        self.use_backup = router._use_backup
        # Adaptive greedy widens the quadrant scope only.
        self.adaptive = router._adaptive_greedy and self.quadrant_scope
        self.face = router._perimeter_mode == "face"
        self.either_hand = router._perimeter_hand == "either"
        # Touching .model here rebuilds it if a rebind left it stale,
        # exactly as the first route() after a rebind would.
        self.model = router.model
        self.safety = _statuses_by_id(self.model, len(self.rows))
        self._own: list = [None] * len(self.rows)
        self._near: list = [None] * len(self.rows)
        self._caps: dict[NodeId, int] = {}
        # Q_k(u) of the safe scan and of _zone_scan, at 4 * u + k - 1.
        self._scan_q: list = [None] * (4 * len(self.rows))
        self._zone_q: list = [None] * (4 * len(self.rows))

    # -- the superseding rule's splits ----------------------------------

    def _own_splits(self, w: NodeId) -> tuple:
        """``(sx, sy, ax, ay, cx, cy)`` for each split ``w`` can induce:
        the quadrant signs of its type, ``w``'s position and the far
        corner.

        One record per unsafe type with a shape record whose far
        corner differs from ``w``'s position (``region_split_for``'s
        ``None`` cases), types ascending.
        """
        records = self._own[w]
        if records is None:
            status = self.safety[w]
            shapes = self.model.shapes
            i = shapes.graph.core.index_of(w)
            ax = self.xs[w]
            ay = self.ys[w]
            found = []
            for t in (1, 2, 3, 4):
                if status[t - 1]:
                    continue
                # Every unsafe node has a record: its far corner.
                cx = shapes.cx[t][i]
                cy = shapes.cy[t][i]
                if cx == ax and cy == ay:
                    continue
                found.append((*_QUADRANT_SIGNS[t], ax, ay, cx, cy))
            records = self._own[w] = tuple(found)
        return records

    def _near_splits(self, u: NodeId) -> tuple:
        """The split records of ``u``, then of its neighbours ascending:
        ``slgf2_region_splits_at``'s enumeration order.  A fully safe
        neighbour induces none."""
        records = self._near[u]
        if records is None:
            safety = self.safety
            found = list(self._own_splits(u))
            for w in self.rows[u]:
                if safety[w] is not _ALL_SAFE:
                    found.extend(self._own_splits(w))
            records = self._near[u] = tuple(found)
        return records

    @staticmethod
    def _visible(records, xd: float, yd: float) -> list:
        """``slgf2_region_splits_at``: the records whose forwarding zone
        holds the destination off the divider, with the destination's
        side."""
        splits = []
        for sx, sy, ax, ay, cx, cy in records:
            dx = xd - ax
            dy = yd - ay
            if sx * dx < 0.0 or sy * dy < 0.0 or (dx == 0.0 and dy == 0.0):
                continue
            # regions._side, operation for operation, with its band.
            cross = (cx - ax) * dy - (cy - ay) * dx
            if cross > _GEOM_EPS:
                splits.append((sx, sy, ax, ay, cx, cy, 1))
            elif cross < -_GEOM_EPS:
                splits.append((sx, sy, ax, ay, cx, cy, -1))
        return splits

    @staticmethod
    def _forbidden(splits, xv: float, yv: float) -> bool:
        """``in_forbidden_region`` of any visible split."""
        for sx, sy, ax, ay, cx, cy, side in splits:
            dx = xv - ax
            dy = yv - ay
            if sx * dx < 0.0 or sy * dy < 0.0 or (dx == 0.0 and dy == 0.0):
                continue
            cross = (cx - ax) * dy - (cy - ay) * dx
            if (cross < -_GEOM_EPS) if side > 0 else (cross > _GEOM_EPS):
                return True
        return False

    def _prefer(self, candidates: list, splits) -> NodeId:
        """``slgf2_prefer_non_forbidden`` then ``slgf2_greedy_pick``.

        ``candidates`` are ``(node, distance to d)`` in row order, so
        the first strict minimum is the smallest id among ties.  When
        every candidate is forbidden the superseding rule yields and
        all of them compete.
        """
        xs = self.xs
        ys = self.ys
        forbidden = self._forbidden
        best = -1
        best_dist = math.inf
        for v, dv in candidates:
            if dv < best_dist and not forbidden(splits, xs[v], ys[v]):
                best = v
                best_dist = dv
        if best < 0:
            for v, dv in candidates:
                if dv < best_dist:
                    best = v
                    best_dist = dv
        return best

    def _superseded(self, u: NodeId, candidates: list, xd, yd) -> NodeId:
        """Greedy pick at ``u`` under the superseding rule, if enabled."""
        if self.superseding:
            records = self._near_splits(u)
            if records:
                return self._prefer(candidates, self._visible(records, xd, yd))
        return self._prefer(candidates, ())

    def _hand_at(self, u: NodeId, xd: float, yd: float) -> Hand:
        """``slgf2_choose_hand``: the first visible split's side, else right."""
        splits = self._visible(self._near_splits(u), xd, yd)
        return Hand.LEFT if splits and splits[0][6] < 0 else Hand.RIGHT

    # -- candidate sets --------------------------------------------------

    def _zone_scan(self, u, row, xu, yu, xd, yd, k, du) -> tuple[list, list]:
        """``slgf2_plain_zone_candidates`` and
        ``slgf2_safe_zone_candidates``.

        Both as ``(node, distance to d)`` lists in row order; ``k`` is
        the quadrant type, ignored under the rectangle scope.
        """
        xs = self.xs
        ys = self.ys
        if self.quadrant_scope:
            members = self._zone_q[4 * u + k - 1]
            if members is None:
                # A NaN offset fails these tests (the safe scan's pass).
                sx, sy = _QUADRANT_SIGNS[k]
                members = self._zone_q[4 * u + k - 1] = tuple(
                    v
                    for v in row
                    if sx * (xs[v] - xu) >= 0.0
                    and sy * (ys[v] - yu) >= 0.0
                    and (xs[v] != xu or ys[v] != yu)
                )
            floor = du - _EPS  # strictly closer only
        else:
            xlo, xhi = (xu, xd) if xu <= xd else (xd, xu)
            ylo, yhi = (yu, yd) if yu <= yd else (yd, yu)
            members = [
                v for v in row if xlo <= xs[v] <= xhi and ylo <= ys[v] <= yhi
            ]
            floor = math.inf
        plain, safe = self._closer(members, xd, yd, floor)
        if not plain and self.adaptive:
            # Adaptive greedy: any strictly closer neighbour.
            plain, safe = self._closer(row, xd, yd, floor)
        return plain, safe

    def _scan_members(self, u: NodeId, k: int) -> tuple:
        """``Q_k(u)`` as the safe scan of :meth:`route` admits it: ``u``'s
        neighbours in row order, minus those its sign tests rule out
        (a NaN offset passes them) and those coincident with ``u``."""
        xs = self.xs
        ys = self.ys
        xu = xs[u]
        yu = ys[u]
        sx, sy = _QUADRANT_SIGNS[k]
        members = []
        for v in self.rows[u]:
            dx = xs[v] - xu
            dy = ys[v] - yu
            if sx * dx < 0.0 or sy * dy < 0.0 or (dx == 0.0 and dy == 0.0):
                continue
            members.append(v)
        members = self._scan_q[4 * u + k - 1] = tuple(members)
        return members

    def _closer(self, nodes, xd, yd, floor) -> tuple[list, list]:
        """``(node, distance)`` of the ``nodes`` closer to d than
        ``floor``, and those of them safe for their own zone toward d."""
        xs = self.xs
        ys = self.ys
        safety = self.safety
        plain: list = []
        safe: list = []
        for v in nodes:
            dx = xs[v] - xd
            dy = ys[v] - yd
            dv = math.hypot(dx, dy)
            if dv < floor:
                plain.append((v, dv))
                kv = _zone_type_rel(dx, dy)
                if kv == 0 or safety[v][kv - 1]:
                    safe.append((v, dv))
        return plain, safe

    def _backup_cap(self, u: NodeId) -> int:
        """``Slgf2Router._backup_cap``, memoised per node."""
        cap = self._caps.get(u)
        if cap is None:
            cap = self._caps[u] = self.router._backup_cap(u)
        return cap

    # -- the packet -----------------------------------------------------

    def route(self, source: NodeId, destination: NodeId) -> RouteResult:
        self._check(source, destination)
        router = self.router
        xs = self.xs
        ys = self.ys
        rows = self.rows
        safety = self.safety
        near = self._near
        scan_q = self._scan_q
        superseding = self.superseding
        use_backup = self.use_backup
        hyp = math.hypot
        quadrant_scope = self.quadrant_scope
        ttl = router.ttl
        xd = xs[destination]
        yd = ys[destination]
        arrival = safety[destination]
        path = [source]
        phases: list[str] = []
        length = 0.0
        u = source
        hops = 0
        hand: Hand | None = None  # committed hand while in backup mode
        in_backup = False
        budget = 0
        visited: set[NodeId] = set()  # per packet, see slgf2's docstring
        backup_entries = 0
        perimeter_entries = 0
        bound_escapes = 0
        failure = None
        while hops < ttl:
            if u == destination:
                break
            row = rows[u]
            xu = xs[u]
            yu = ys[u]
            if destination in row:
                path.append(destination)
                phases.append(_BACKUP if in_backup else _SAFE)
                length += hyp(xu - xd, yu - yd)
                u = destination
                break
            ddx = xd - xu
            ddy = yd - yu
            if ddx > 0.0 and ddy >= 0.0:
                k = 1
            elif ddx <= 0.0 and ddy > 0.0:
                k = 2
            elif ddx < 0.0 and ddy <= 0.0:
                k = 3
            elif xu == xd and yu == yd:
                raise ValueError("zone type undefined for coincident points")
            else:
                k = 4
            du = hyp(xu - xd, yu - yd)

            # Steps 2+3, the dominant case: the nearest safe zone
            # candidate, found under the squared-distance prefilter.
            if quadrant_scope:
                floor = du - _EPS
                cut = floor * floor * _GUARD
                members = scan_q[4 * u + k - 1]
                if members is None:
                    members = self._scan_members(u, k)
            else:
                xlo, xhi = (xu, xd) if xu <= xd else (xd, xu)
                ylo, yhi = (yu, yd) if yu <= yd else (yd, yu)
                floor = math.inf
                cut = math.inf
                members = row
            pick = -1
            safe_dist = floor
            for v in members:
                xv = xs[v]
                yv = ys[v]
                if not quadrant_scope:
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
                        pick = v
                        safe_dist = dv
                        cut = dv * dv * _GUARD
            safe = None
            if pick < 0:
                plain, safe = self._zone_scan(u, row, xu, yu, xd, yd, k, du)
                if safe:  # adaptive greedy widened the candidate set
                    pick = self._prefer(safe, ())
            if pick >= 0:
                if superseding:
                    records = near[u]
                    if records is None:
                        records = self._near_splits(u)
                    if records:
                        # The nearest safe candidate stands unless a
                        # visible split forbids it.
                        splits = self._visible(records, xd, yd)
                        if splits and self._forbidden(
                            splits, xs[pick], ys[pick]
                        ):
                            if safe is None:
                                _, safe = self._zone_scan(
                                    u, row, xu, yu, xd, yd, k, du
                                )
                            pick = self._prefer(safe, splits)
                if in_backup:
                    # "until the forwarding from v to d is safe".
                    in_backup = False
                    hand = None
                phase = _SAFE
            else:
                # Safe-arrival gate, and the backup trigger on u's own
                # status, with the size-aware entry test last (it is
                # the only costly term; the router computes it).
                arrival_safe = arrival[(k + 1) % 4]  # S_k'(d), k' = k + 2
                status = safety[u]
                detour = (
                    use_backup
                    and arrival_safe
                    and not status[k - 1]
                    and (status[0] or status[1] or status[2] or status[3])
                    and not (
                        plain
                        and router._entering_is_cheap(
                            self._prefer(plain, ()),
                            router.graph.position(destination),
                        )
                    )
                )
                if plain and not detour:
                    pick = self._superseded(u, plain, xd, yd)
                    phase = _GREEDY
                elif use_backup and arrival_safe:
                    # Step 4: backup path forwarding.
                    if in_backup and budget <= 0:
                        # Episode over budget: enter the area if possible.
                        if plain:
                            pick = self._superseded(u, plain, xd, yd)
                            phase = _GREEDY
                            in_backup = False
                            hand = None
                    else:
                        # Safe type-t forwarding for some quadrant type
                        # t that v occupies relative to u.
                        backup = []
                        for v in row:
                            if v in visited:
                                continue
                            dx = xs[v] - xu
                            dy = ys[v] - yu
                            if dx == 0.0 and dy == 0.0:
                                continue
                            sv = safety[v]
                            if (
                                (sv[0] and dx >= 0.0 and dy >= 0.0)
                                or (sv[1] and dx <= 0.0 and dy >= 0.0)
                                or (sv[2] and dx <= 0.0 and dy <= 0.0)
                                or (sv[3] and dx >= 0.0 and dy <= 0.0)
                            ):
                                backup.append(v)
                        if backup:
                            if not in_backup:
                                in_backup = True
                                backup_entries += 1
                                budget = self._backup_cap(u)
                                visited.add(u)
                                if hand is None:
                                    hand = self._hand_at(u, xd, yd)
                            pick = self._sweep(
                                u,
                                xu,
                                yu,
                                _norm(math.atan2(yd - yu, xd - xu)),
                                hand is Hand.RIGHT,
                                False,
                                backup,
                            )
                            if pick >= 0:
                                visited.add(pick)
                                budget -= 1
                                phase = _BACKUP
                if pick < 0:
                    # Step 5: perimeter routing.
                    in_backup = False
                    perimeter_entries += 1
                    if not self.either_hand:
                        ccw = True
                    elif hand is not None:
                        ccw = hand is Hand.RIGHT
                    else:
                        ccw = self._hand_at(u, xd, yd) is Hand.RIGHT
                    if self.face:
                        u, length, failure = self._face_phase(
                            u, destination, path, phases, length, ttl, ccw
                        )
                    else:
                        u, length, failure, escapes = self._dfs_phase(
                            u, destination, path, phases, length, ttl, ccw
                        )
                        bound_escapes += escapes
                    if failure is not None:
                        break
                    hand = None
                    hops = len(path) - 1
                    continue
            path.append(pick)
            phases.append(phase)
            length += hyp(xu - xs[pick], yu - ys[pick])
            u = pick
            hops += 1
        return self._finish(
            source,
            destination,
            path,
            phases,
            length,
            u == destination,
            perimeter_entries,
            failure,
            backup_entries,
            bound_escapes,
        )

    # -- step 5's DFS perimeter phase -----------------------------------

    def _dfs_phase(self, u, destination, path, phases, length, ttl, ccw):
        """The (bounded) DFS perimeter phase (reference:
        ``slgf2_bounded_perimeter_phase``).

        Returns ``(current, length, failure, bound_escapes)``.  Unlike
        the face walk, the edge to ``d`` is tested before the exit.
        """
        xs = self.xs
        ys = self.ys
        rows = self.rows
        hyp = math.hypot
        xd = xs[destination]
        yd = ys[destination]
        bound = self.router._perimeter_bound(u)
        if bound is not None:
            bx0, by0 = bound.x_min, bound.y_min
            bx1, by1 = bound.x_max, bound.y_max
        entry = u
        entry_limit = hyp(xs[u] - xd, ys[u] - yd) - _EPS
        escapes = 0
        tried = {u}
        stack = [u]
        hops = len(path) - 1
        while hops < ttl:
            xu = xs[u]
            yu = ys[u]
            row = rows[u]
            if destination in row:
                path.append(destination)
                phases.append(_PERIMETER)
                length += hyp(xu - xd, yu - yd)
                return destination, length, None, escapes
            if u != entry and hyp(xu - xd, yu - yd) < entry_limit:
                return u, length, None, escapes  # resume the ladder
            candidates = [v for v in row if v not in tried]
            if bound is not None and candidates:
                inside = [
                    v
                    for v in candidates
                    if bx0 <= xs[v] <= bx1 and by0 <= ys[v] <= by1
                ]
                if inside:
                    candidates = inside
                else:
                    escapes += 1
            if candidates:
                pick = self._sweep(
                    u,
                    xu,
                    yu,
                    _norm(math.atan2(yd - yu, xd - xu)),
                    ccw,
                    False,
                    candidates,
                )
                if pick >= 0:
                    tried.add(pick)
                    stack.append(pick)
                    path.append(pick)
                    phases.append(_PERIMETER)
                    length += hyp(xu - xs[pick], yu - ys[pick])
                    u = pick
                    hops += 1
                    continue
            # Dead end inside the bound: backtrack.
            stack.pop()
            if not stack:
                return u, length, "unreachable", escapes
            prev = stack[-1]
            path.append(prev)
            phases.append(_PERIMETER)
            length += hyp(xu - xs[prev], yu - ys[prev])
            u = prev
            hops += 1
        return u, length, "ttl_exceeded", escapes


_BUILDERS = {
    GreedyRouter: _GreedyExecutor,
    LgfRouter: _LgfExecutor,
    SlgfRouter: _SlgfExecutor,
    Slgf2Router: _Slgf2Executor,
}


def _scheme_of(router: Router) -> type | None:
    """The built-in scheme whose loop ``router`` runs: its nearest
    built-in base class, or ``None`` when its class overrides ``_run``
    (or descends from no built-in scheme)."""
    cls = type(router)
    if cls._run is not Router._run:
        return None
    for base in cls.__mro__:
        if base in _BUILDERS:
            return base
    return None


def executor_for(router: Router):
    """The scalar executor for ``router``, or ``None``.

    ``None`` when the router routes through its own ``_run`` (see
    :func:`_scheme_of`); otherwise its scheme's executor over the
    graph's columnar core.
    """
    scheme = _scheme_of(router)
    if scheme is None:
        return None
    return _BUILDERS[scheme](router, router.graph.core)


# ---------------------------------------------------------------------------
# The vectorized (numpy) batch backend.
# ---------------------------------------------------------------------------

# A packet this close to the destination defects: the quadrant-scope
# floor ``du - _EPS`` stops being meaningfully positive, and coincident
# geometry (a node at the destination's position) hides below it.  Far
# larger than the decision bands, far smaller than any real hop.
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
        self.router = weakref.proxy(router)  # weak, as in _Executor
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
            # exactly as the scalar executors do.  Zone-type-t safety
            # of neighbour (u, slot) is bit t-1 of the safety column,
            # as one int8.  The phantom row is all-safe (0b1111); its
            # inf distance already excludes it.
            packed = np.empty(n + 1, dtype=np.int8)
            packed[:n] = np.frombuffer(router.model.safety.mask, np.int8)
            packed[n] = 0b1111
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
    when numpy is unavailable, or when the router routes through its
    own ``_run`` — the kernel defects packets to the scalar executor,
    so it cannot exist without one.  The scheme is picked by the rule
    that picks the executor (:func:`_scheme_of`).  ``executor`` reuses
    an already-built scalar executor instead of building a fresh one.
    """
    mode = _KERNEL_MODES.get(_scheme_of(router))
    if mode is None:
        return None
    np = load_numpy()
    if np is None:
        return None
    if executor is None:
        executor = executor_for(router)
    return _NumpyBatchKernel(np, mode, router, router.graph.core, executor)


_KERNEL_MODES = {
    GreedyRouter: "gf",
    LgfRouter: "lgf",
    SlgfRouter: "slgf",
}
