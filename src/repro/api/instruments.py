"""Ready-made hop observers for the routing instrumentation hooks.

:meth:`repro.routing.base.Router.route` accepts ``on_hop`` and
``on_phase_change`` callables; these classes are the common consumers,
so tracing, energy accounting and path animation need no router
subclassing:

* :class:`TraceRecorder` — records every :class:`HopEvent` and phase
  transition, and can replay the path growth as animation frames for
  :func:`repro.viz.network_map.path_animation`;
* :class:`EnergyMeter` — accumulates first-order radio energy hop by
  hop, using :class:`~repro.routing.metrics.RadioEnergyModel`.

For the built-in schemes, ``route()`` feeds observers after the route
is decided, replaying it in hop order; a route that raises feeds them
nothing.
"""

from __future__ import annotations

from repro.network.node import NodeId
from repro.routing.base import HopEvent
from repro.routing.metrics import RadioEnergyModel

__all__ = ["EnergyMeter", "TraceRecorder"]


class TraceRecorder:
    """Collects hop events and phase transitions as they happen.

    Attach both callbacks::

        recorder = TraceRecorder()
        router.route(s, d, on_hop=recorder.on_hop,
                     on_phase_change=recorder.on_phase_change)
        recorder.events          # every HopEvent, in order
        recorder.phase_changes   # (hop_index, old, new) transitions
        recorder.path()          # the node sequence seen so far
    """

    def __init__(self) -> None:
        self.events: list[HopEvent] = []
        self.phase_changes: list[tuple[int, str | None, str]] = []

    def on_hop(self, event: HopEvent) -> None:
        self.events.append(event)

    def on_phase_change(
        self, index: int, previous: str | None, new: str
    ) -> None:
        self.phase_changes.append((index, previous, new))

    def path(self) -> tuple[NodeId, ...]:
        """The node sequence implied by the recorded hops."""
        if not self.events:
            return ()
        nodes = [self.events[0].sender]
        nodes.extend(event.receiver for event in self.events)
        return tuple(nodes)

    def path_prefixes(self) -> list[tuple[NodeId, ...]]:
        """Growing path per hop — animation frames for the viz layer."""
        full = self.path()
        return [full[: i + 2] for i in range(len(self.events))]

    def __len__(self) -> int:
        return len(self.events)


class EnergyMeter:
    """Accumulates radio energy per hop, in hop order.

    Unlike :func:`~repro.routing.metrics.path_energy` (which walks a
    finished result), the meter is an observer — running budgets,
    per-phase breakdowns and abort-on-budget experiments all become
    one callback (an abort ends the observation; a built-in scheme has
    decided its route by then)::

        meter = EnergyMeter(bits=1_000)
        router.route(s, d, on_hop=meter.on_hop)
        meter.total_j                # transmit + receive, joules
        meter.per_phase_j["greedy"]  # energy by routing phase
    """

    def __init__(
        self, bits: int = 1, model: RadioEnergyModel | None = None
    ) -> None:
        self.bits = bits
        self.model = model if model is not None else RadioEnergyModel()
        self.total_j = 0.0
        self.per_phase_j: dict[str, float] = {}

    def on_hop(self, event: HopEvent) -> None:
        hop_j = self.model.transmit(
            event.distance, self.bits
        ) + self.model.receive(self.bits)
        self.total_j += hop_j
        self.per_phase_j[event.phase] = (
            self.per_phase_j.get(event.phase, 0.0) + hop_j
        )
