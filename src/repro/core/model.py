"""The information model facade: safety labels + shape estimates.

Routers need the whole of Section 3 — the stabilised safety statuses
*and* the estimated shape rectangles — plus the graph they were
computed from.  :class:`InformationModel` bundles those, so the rest of
the code base passes one object around and cannot accidentally pair a
safety model with the shapes of a different network.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from repro.core.regions import RegionSplit, region_split_for
from repro.core.safety import SafetyModel, compute_safety
from repro.core.shape import ShapeModel, compute_shapes
from repro.core.zones import ZONE_TYPES, ZoneType
from repro.geometry import Point, Rect
from repro.network.graph import WasnGraph
from repro.network.node import NodeId

__all__ = ["InformationModel"]

# Models made by ``rebuild``, by (graph id, class, shape mode); weak, so
# an entry lasts only while its model, and so its graph, is alive.
_REBUILT: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()


@dataclass(frozen=True)
class InformationModel:
    """Everything an information-based router consults at a node."""

    graph: WasnGraph
    safety: SafetyModel
    shapes: ShapeModel
    #: How the shapes were estimated — recorded so :meth:`rebuild`
    #: can re-run the identical construction on an updated graph.
    shape_mode: str = "chain"

    @classmethod
    def build(
        cls,
        graph: WasnGraph,
        shape_mode: str = "chain",
        backend: str = "auto",
    ) -> "InformationModel":
        """Construct the full model for ``graph`` (Definition 1 +
        Algorithm 2).

        ``shape_mode="exact"`` swaps Algorithm 2's chain estimate for
        the exact greedy-region bounding boxes — the paper's
        future-work item on "more accurate information for unsafe
        areas" (see :func:`repro.core.shape.compute_shapes`).

        ``backend`` is forwarded to :func:`~repro.core.safety.compute_safety`
        (vectorized quadrant classification); it cannot change any
        value in the model.
        """
        safety = compute_safety(graph, backend=backend)
        shapes = compute_shapes(safety, mode=shape_mode)
        return cls(
            graph=graph,
            safety=safety,
            shapes=shapes,
            shape_mode=shape_mode,
        )

    def rebuild(self, graph: WasnGraph) -> "InformationModel":
        """The same construction — same ``shape_mode`` — over an
        updated graph.  What a router's rebind uses so that a drifted
        topology gets exactly the information a fresh construction
        with the original options would produce.

        Routers that rebind to the same graph share one model: a second
        rebuild over that graph object, with the same class and
        ``shape_mode``, returns the first one's model."""
        key = (id(graph), type(self), self.shape_mode)
        model = _REBUILT.get(key)
        if model is None or model.graph is not graph:
            model = type(self).build(graph, shape_mode=self.shape_mode)
            _REBUILT[key] = model
        return model

    # Convenience pass-throughs used heavily by the routers -----------

    def is_safe(self, u: NodeId, zone_type: ZoneType) -> bool:
        """``S_i(u)`` — see :meth:`SafetyModel.is_safe`."""
        return self.safety.is_safe(u, zone_type)

    def is_safe_any(self, u: NodeId) -> bool:
        """Some-type safety — see :meth:`SafetyModel.is_safe_any`."""
        return self.safety.is_safe_any(u)

    def is_fully_unsafe(self, u: NodeId) -> bool:
        """Tuple (0,0,0,0) — see :meth:`SafetyModel.is_fully_unsafe`."""
        return self.safety.is_fully_unsafe(u)

    def estimated_area(self, u: NodeId, zone_type: ZoneType) -> Rect | None:
        """``E_i(u)`` — see :meth:`ShapeModel.estimated_area`."""
        return self.shapes.estimated_area(u, zone_type)

    def region_split(
        self, unsafe_neighbor: NodeId, zone_type: ZoneType, destination: Point
    ) -> RegionSplit | None:
        """Critical/forbidden split — see :func:`region_split_for`."""
        return region_split_for(
            self.shapes, unsafe_neighbor, zone_type, destination
        )

    def known_unsafe_rects(self, u: NodeId) -> list[Rect]:
        """Estimated rectangles visible from ``u``: its own and its
        unsafe neighbours', over all types.

        SLGF2's bounded perimeter phase routes "in the area that covers
        all four E areas" — this is that collection, gathered exactly
        the way a real node would (from its own state and its
        neighbours' broadcasts)."""
        rects: list[Rect] = []
        for zone_type in ZONE_TYPES:
            own = self.shapes.estimated_area(u, zone_type)
            if own is not None:
                rects.append(own)
            for v in self.graph.neighbors(u):
                theirs = self.shapes.estimated_area(v, zone_type)
                if theirs is not None:
                    rects.append(theirs)
        return rects
