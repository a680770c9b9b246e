"""LGF: limited geographic greedy forwarding (Algorithm 1).

    "1. If d ∈ N(u), v = d.
     2. Determine the request zone Z_k(u, d) according to L(u), L(d).
     3. Select v ∈ Z_k(u, d) ∩ N(u).
     4. If such a v does not exist, send the packet in the perimeter
        routing by the 'right-hand rule' policy [rotating] the ray
        ``ud`` counter-clockwise until the first *untried* node
        v ∈ N(u) is hit by the ray."

Step 3 is greedy within the request zone: among zone candidates the one
closest to the destination is chosen (LGF is a "limited geographic
*greedy* routing").  Because every point of ``Z_k(u, d)`` other than
``u`` is strictly closer to ``d`` than ``u`` is, zone hops are strictly
distance-decreasing and the greedy phase can never loop.

The perimeter phase keeps the paper's "untried" memory: a tried-set is
carried with the packet, the CCW ray sweep only considers untried
neighbours, and a node with no untried neighbour backtracks — so the
phase degenerates to an angle-ordered depth-first search, whose cost is
exactly the "more blocking cases" behaviour the evaluation attributes
to LGF.  The phase ends at any node closer to the destination than the
stuck node that started it.

``candidate_scope`` selects step-3's candidate set: ``"zone"`` (the
request zone, Algorithm 1 as printed) or ``"quadrant"`` (the full
forwarding zone ``Q_k(u)``, matching the prose definition of the local
minimum and the safety model's semantics: the labels of Definition 1
are computed over ``Q_k``).  Quadrant scope also requires a candidate
to be strictly closer to ``d`` than ``u``: the quadrant extends beyond
``d``, and without that guard a packet could overshoot and oscillate.

The forwarding loop is ``_LgfExecutor`` in :mod:`repro.routing.batch`.
"""

from __future__ import annotations

from repro.network.graph import WasnGraph
from repro.routing.base import Router

__all__ = ["LgfRouter"]


class LgfRouter(Router):
    """LGF routing (Algorithm 1)."""

    name = "LGF"

    def __init__(
        self,
        graph: WasnGraph,
        ttl: int | None = None,
        candidate_scope: str = "zone",
    ):
        super().__init__(graph, ttl)
        if candidate_scope not in ("zone", "quadrant"):
            raise ValueError(
                f"unknown candidate_scope {candidate_scope!r}; "
                "expected 'zone' or 'quadrant'"
            )
        self._scope = candidate_scope
