"""SLGF2: the paper's routing algorithm (Algorithm 3, Section 4).

The phase ladder, "in the following order":

1. **Safe forwarding** — forward to a request-zone candidate that is
   safe for its own request zone toward ``d`` (step 2).
2. **Either-hand superseding rule** (step 3) — among candidates,
   prefer ones *not* in the forbidden region of any known unsafe area
   while the destination sits in the critical region.
3. **Backup path forwarding** (step 4) — when safe forwarding is
   unavailable and the unsafe area ahead is *large*, forward along
   other-type safe nodes chosen by the either-hand rule, sticking with
   the chosen hand, until safe forwarding resumes.  This routes
   *around* the unsafe area instead of entering it and triggering a
   perimeter phase.
4. **Perimeter routing** (step 5) — last resort, sticking with one
   hand.  Three mechanics are provided via ``perimeter_mode``:

   * ``"face"`` (default) — either-hand face routing on the Gabriel
     subgraph (the paper's perimeter policy cites the face-routing
     paper, its ref [2]); this is what realises contribution (c)'s
     promise of "avoid[ing] many unnecessary trials";
   * ``"dfs"`` — the untried-node ray sweep with backtracking that LGF
     and SLGF use (Algorithm 1 step 4), for like-for-like ablations;
   * ``"dfs-bounded"`` — the DFS confined to the union of estimated
     unsafe rectangles (the literal reading of contribution (c)).
     Measured effect is *negative* under DFS mechanics — the bound
     overrides the hand sweep's angular order (see
     ``benchmarks/bench_ablation.py``) — which is why it is not the
     default.
     ``bound_escapes`` counts fallbacks when the bound starves the
     sweep.

Engineering decisions layered on the paper's text (each stated below,
each surfaced as a constructor flag for the ablation benches):

* **Safe-arrival gate.**  "When the destination d is type-k' safe
  (k' = (k+2) Mod 4), a straightforward path is achieved" — and when
  ``d`` is *not* type-k' safe no safe-forwarding path can complete the
  route, so the router behaves like SLGF with an unsafe destination
  (greedy + perimeter, "without the safety information"), still
  steering with the superseding filter.
* **Size-aware entry.**  Contribution (b) avoids "enter[ing] an unsafe
  area, which will directly lead to a perimeter routing phase" — but
  when the estimated rectangle ahead is tiny, entering and recovering
  is cheaper than orbiting.  The router enters when the predicted
  block's rectangle diagonal is below ``enter_threshold_factor`` radii
  (or contains the destination), and detours otherwise.  The rectangle
  is exactly the paper's own size estimate: "the number of detours is
  in proportion[] [to] the perimeter of the unsafe area".
* **Backup episode cap.**  For the same reason, one backup episode is
  capped at a multiple of (estimated area perimeter / radius) hops;
  beyond that the packet stops orbiting and enters (or falls to the
  perimeter phase).
* **Per-packet backup memory.**  Safety statuses are quadrant-based
  while forwarding is zone-limited, so "safe forwarding resumed" can
  be a false escape leading straight back into the same dead end; the
  backup visited-set persists for the packet's lifetime to force
  progress.

As a delta of SLGF: candidates default to the quadrant scope, a
superseding filter steers every greedy pick, and backup episodes and
a hand-committed face or DFS perimeter replace SLGF's tried-set
perimeter.  The forwarding loop is ``_Slgf2Executor`` in
:mod:`repro.routing.batch`, which also runs the size-aware entry test
on the shape columns; the router keeps the two decisions that join
the estimated rectangles (episode cap, DFS bound), which the executor
calls.
"""

from __future__ import annotations

import math

from repro.core.model import InformationModel
from repro.geometry import Rect
from repro.network.node import NodeId
from repro.routing.base import Router
from repro.routing.perimeter import PlanarizationCache

__all__ = ["Slgf2Router"]


class Slgf2Router(Router):
    """SLGF2 routing (Algorithm 3)."""

    name = "SLGF2"

    def __init__(
        self,
        model: InformationModel,
        ttl: int | None = None,
        use_superseding: bool = True,
        use_backup: bool = True,
        perimeter_mode: str = "face",
        bound_margin_factor: float = 1.0,
        enter_threshold_factor: float = 3.0,
        backup_cap_factor: float = 2.0,
        candidate_scope: str = "quadrant",
        perimeter_hand: str = "right",
        adaptive_greedy: bool = False,
    ):
        super().__init__(model.graph, ttl)
        if candidate_scope not in ("zone", "quadrant"):
            raise ValueError(
                f"unknown candidate_scope {candidate_scope!r}; "
                "expected 'zone' or 'quadrant'"
            )
        if perimeter_mode not in ("face", "dfs", "dfs-bounded"):
            raise ValueError(
                f"unknown perimeter_mode {perimeter_mode!r}; "
                "expected 'face', 'dfs' or 'dfs-bounded'"
            )
        if perimeter_hand not in ("right", "either"):
            raise ValueError(
                f"unknown perimeter_hand {perimeter_hand!r}; "
                "expected 'right' or 'either'"
            )
        self._perimeter_hand = perimeter_hand
        self._adaptive_greedy = adaptive_greedy
        self._scope = candidate_scope
        if bound_margin_factor < 0:
            raise ValueError("bound_margin_factor must be non-negative")
        if enter_threshold_factor < 0:
            raise ValueError("enter_threshold_factor must be non-negative")
        if backup_cap_factor <= 0:
            raise ValueError("backup_cap_factor must be positive")
        self._model = model
        self._model_stale = False
        self._use_superseding = use_superseding
        self._use_backup = use_backup
        self._perimeter_mode = perimeter_mode
        self._bound_margin_factor = bound_margin_factor
        self._enter_threshold_factor = enter_threshold_factor
        self._bound_margin = bound_margin_factor * model.graph.radius
        self._enter_threshold = enter_threshold_factor * model.graph.radius
        self._backup_cap_factor = backup_cap_factor
        self._planar = (
            PlanarizationCache(model.graph, "gabriel")
            if perimeter_mode == "face"
            else None
        )

    @property
    def model(self) -> InformationModel:
        """The information model this router consults.

        Rebuilt lazily after a :meth:`~repro.routing.base.Router.rebind`
        (the periodic-beaconing re-construction), preserving the
        original model's construction options
        (:meth:`InformationModel.rebuild`) so the rebound router is
        indistinguishable from a freshly built one.
        """
        if self._model_stale:
            self._model = self._model.rebuild(self.graph)
            self._model_stale = False
        return self._model

    def _on_topology_change(self, delta) -> None:
        """Safety/shape information and the planarization go stale.

        The radius-derived thresholds are re-derived too — a rebind
        normally keeps the radius (a network's communication range is
        a hardware constant), but the contract is rebind == fresh
        router, whatever graph arrives.
        """
        self._model_stale = True
        radius = self.graph.radius
        self._bound_margin = self._bound_margin_factor * radius
        self._enter_threshold = self._enter_threshold_factor * radius
        if self._planar is not None:
            self._planar.rebind(self.graph)

    # ------------------------------------------------------------------
    # Backup episode cap and DFS bound
    # ------------------------------------------------------------------

    def _backup_cap(self, u: NodeId) -> int:
        """Episode hop budget: proportional to the estimated perimeter.

        "The number of detours is in proportion[] [to] the perimeter of
        the unsafe area.  Due to the limited size of each unsafe area,
        the length of the routing path can be controlled."
        """
        rects = self.model.known_unsafe_rects(u)
        if not rects:
            return 8
        bound = rects[0]
        for rect in rects[1:]:
            bound = bound.union_bounds(rect)
        hops_around = bound.perimeter / self.graph.radius
        return max(8, math.ceil(self._backup_cap_factor * hops_around))

    def _perimeter_bound(self, u: NodeId) -> Rect | None:
        """The rectangle that "covers all four E areas" known at ``u``.

        Union of the estimated unsafe-area rectangles of ``u`` and its
        neighbours, fattened by one bound margin (default: one
        communication radius) so the detour path *around* the area
        stays inside the bound.
        """
        if self._perimeter_mode != "dfs-bounded":
            return None
        rects = self.model.known_unsafe_rects(u)
        if not rects:
            return None
        bound = rects[0]
        for rect in rects[1:]:
            bound = bound.union_bounds(rect)
        return bound.expanded(self._bound_margin)
