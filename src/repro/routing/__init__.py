"""The four evaluated routing schemes and their shared machinery.

* :class:`~repro.routing.greedy.GreedyRouter` — GF, greedy forwarding
  with GPSR-style face recovery or BOUNDHOLE boundary recovery;
* :class:`~repro.routing.lgf.LgfRouter` — LGF, Algorithm 1;
* :class:`~repro.routing.slgf.SlgfRouter` — SLGF, the safety-informed
  predecessor (paper ref [7]);
* :class:`~repro.routing.slgf2.Slgf2Router` — SLGF2, Algorithm 3 (the
  paper's contribution).

All share the :class:`~repro.routing.base.Router` interface: construct
once per network, then ``route(source, destination)`` per packet (or
``route_batch(pairs)``), yielding a
:class:`~repro.routing.base.RouteResult`.  Each scheme's forwarding
loop is its executor in :mod:`repro.routing.batch`.
"""

from repro.routing.base import (
    MIN_TTL,
    HopEvent,
    PacketTrace,
    Phase,
    RouteResult,
    Router,
    RoutingError,
)
from repro.routing.greedy import GreedyRouter, HoleBoundaries
from repro.routing.lgf import LgfRouter
from repro.routing.metrics import (
    RadioEnergyModel,
    effective_path_length,
    interference_footprint,
    nodes_involved,
    path_energy,
    path_is_valid,
    retransmission_energy,
)
from repro.routing.slgf import SlgfRouter
from repro.routing.slgf2 import Slgf2Router

__all__ = [
    "GreedyRouter",
    "HoleBoundaries",
    "HopEvent",
    "LgfRouter",
    "MIN_TTL",
    "PacketTrace",
    "Phase",
    "RadioEnergyModel",
    "RouteResult",
    "Router",
    "RoutingError",
    "SlgfRouter",
    "Slgf2Router",
    "effective_path_length",
    "interference_footprint",
    "nodes_involved",
    "path_energy",
    "path_is_valid",
    "retransmission_energy",
]
