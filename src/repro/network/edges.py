"""Edge-node detection — the hull of the interest area.

Section 3: "We assume that all of the communication actions occur
inside the interest area.  This area is an inner part of the deployment
area encircled by the edge of networks, which can easily be built by
the hull algorithm.  In our labeling process, each edge node will
always keep its status tuple as (1, 1, 1, 1).  Thus, the edge of
interest area will not affect the label of nodes inside."

Without this pinning the labeling of Definition 1 would degenerate: the
north-east-most node of any finite deployment has no neighbour in its
quadrant I, would be labeled type-1 unsafe, and the unsafe status would
cascade across the entire network.  Edge nodes are the boundary
condition that stops the cascade at the deployment outline.

Three strategies are provided:

* ``convex`` — nodes on the convex hull (including collinear boundary
  nodes).  Matches "the hull algorithm" and is exact for convex
  deployments (the IA model).
* ``alpha`` — alpha-shape boundary at the communication-radius scale;
  follows concave outlines, which matters when FA obstacles touch the
  deployment boundary.
* ``margin`` — nodes within a fixed distance of the deployment
  rectangle's border; the cheap engineering approximation, useful as a
  baseline in the ablation benches.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry import Point, Rect, alpha_shape_boundary
from repro.geometry.hull import hull_indices
from repro.network import construct as _construct
from repro.network.graph import WasnGraph
from repro.network.node import NodeId

__all__ = ["EdgeDetector"]

_STRATEGIES = ("convex", "alpha", "margin")


@dataclass(frozen=True)
class EdgeDetector:
    """Detects the edge nodes of a deployed network.

    ``alpha_scale`` multiplies the communication radius to obtain the
    alpha-shape parameter (only used by the ``alpha`` strategy);
    ``margin`` is the border band width for the ``margin`` strategy,
    interpreted as a multiple of the communication radius.
    """

    strategy: str = "convex"
    alpha_scale: float = 1.0
    margin: float = 0.75

    def __post_init__(self) -> None:
        if self.strategy not in _STRATEGIES:
            raise ValueError(
                f"unknown edge strategy {self.strategy!r}; "
                f"expected one of {_STRATEGIES}"
            )
        if self.alpha_scale <= 0:
            raise ValueError("alpha_scale must be positive")
        if self.margin < 0:
            raise ValueError("margin must be non-negative")

    def detect(self, graph: WasnGraph, area: Rect | None = None) -> set[NodeId]:
        """Ids of the edge nodes of ``graph``.

        ``area`` (the deployment rectangle) is only consulted by the
        ``margin`` strategy; the hull strategies derive the outline from
        the node positions alone, as the paper's hull algorithm does.
        All strategies read the core's position columns.  With numpy,
        the convex strategy runs the monotone chain only on the nodes
        :func:`~repro.network.construct.hull_candidates` keeps — the
        same hull; the scalar backend runs it on every node.
        """
        core = graph.core
        ids = core.ids
        xs, ys = core.xs, core.ys
        if not ids:
            return set()

        if self.strategy == "convex":
            np = _construct.resolve_backend(
                core.backend, "EdgeDetector('convex') (backend='numpy')"
            )
            if np is None:
                kept = range(len(ids))
            else:
                kept = _construct.hull_candidates(
                    np,
                    np.frombuffer(xs, dtype=np.float64),
                    np.frombuffer(ys, dtype=np.float64),
                ).tolist()
            hull = hull_indices([Point(xs[i], ys[i]) for i in kept])
            return {ids[kept[k]] for k in hull}

        positions = [Point(x, y) for x, y in zip(xs, ys)]
        if self.strategy == "alpha":
            alpha = self.alpha_scale * core.radius
            return {
                ids[i] for i in alpha_shape_boundary(positions, alpha)
            }

        # margin strategy
        if area is None:
            raise ValueError("margin strategy requires the deployment area")
        band = self.margin * core.radius
        inner = area.expanded(-band)
        return {
            node_id
            for node_id, p in zip(ids, positions)
            if not inner.contains(p)
        }

    def apply(self, graph: WasnGraph, area: Rect | None = None) -> WasnGraph:
        """A copy of ``graph`` with edge flags set by this detector."""
        return graph.with_edge_nodes(self.detect(graph, area))
