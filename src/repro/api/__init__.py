"""repro.api — the public facade over the whole reproduction stack.

Every consumer (CLI, examples, experiment engine, visualisation,
tests) drives the system through three ideas:

* a **router registry** (:data:`default_registry`,
  :func:`register_router`): routing schemes are discoverable by name,
  accept per-scheme options, and third-party schemes plug into sweeps,
  caching, reports and figure legends with no harness edits;
* a declarative :class:`Scenario` plus a :class:`Session` facade:
  describe the network once, materialise it once, then
  ``route``/``route_pairs``/``run`` against it;
* a declarative :class:`Study`: a base Scenario swept along named
  axes (any Scenario field — densities, seeds, failure schedules,
  obstacle fields, router options), streamed cell by cell through
  worker processes with scenario-fingerprint caching;
* **instrumentation hooks**: :class:`TraceRecorder` /
  :class:`EnergyMeter` attach to any route call via ``on_hop`` /
  ``on_phase_change`` — no subclassing.  For the built-in schemes the
  observers run after the route is decided, in hop order, and a route
  that raises emits no event.

Quickstart::

    from repro.api import Scenario, Session

    session = Session(Scenario(deployment_model="IA", node_count=400,
                               seed=7))
    print(session.route_all(*session.sample_pairs(1)[0]))

    routes = session.run()              # the scenario's workload
    print(routes.aggregate("SLGF2").hops.mean)

A parameter study over any Scenario feature::

    from repro.api import RandomFailure, Study

    study = Study(Scenario(networks=10),
                  nodes=range(400, 801, 100),
                  vary={"failures": [(), (RandomFailure(20),)]})
    for cell, result in study.stream(jobs=4):
        print(cell.label(), result.metric("SLGF2", "delivery_rate"))

Registering a fifth scheme::

    from repro.api import register_router

    @register_router("GF-FACE", order=4)
    def build_gf_face(instance, **kwargs):
        return GreedyRouter(instance.graph, recovery="face", **kwargs)

See ``docs/API.md`` for the full tour.
"""

from repro.api.instruments import EnergyMeter, TraceRecorder
from repro.api.registry import (
    RouterRegistry,
    RouterSpec,
    default_registry,
    register_router,
    router_order,
)
from repro.api.routeset import RouteSet, RouterAggregate
from repro.api.scenario import (
    FailureSpec,
    MobilitySchedule,
    NodesFailure,
    RandomFailure,
    RegionFailure,
    Scenario,
)
from repro.api.session import Session, connected_session, run_scenario
from repro.api.study import (
    Cell,
    CellResult,
    Study,
    StudyResult,
    scenario_fingerprint,
)
from repro.experiments.progress import ProgressEvent
from repro.network.channel import (
    CommunicationModel,
    DeadLinks,
    DutyCycle,
    IntermittentLinks,
    LinkFaultModel,
    LogNormalShadowing,
    Transmission,
    UnitDisk,
)
from repro.network.dynamic import DynamicTopology, TopologyDelta
from repro.routing.base import HopEvent, PacketTrace, RouteResult

__all__ = [
    "Cell",
    "CellResult",
    "CommunicationModel",
    "DeadLinks",
    "DutyCycle",
    "DynamicTopology",
    "EnergyMeter",
    "FailureSpec",
    "HopEvent",
    "IntermittentLinks",
    "LinkFaultModel",
    "LogNormalShadowing",
    "MobilitySchedule",
    "NodesFailure",
    "PacketTrace",
    "ProgressEvent",
    "RandomFailure",
    "RegionFailure",
    "RouteResult",
    "TopologyDelta",
    "RouteSet",
    "Transmission",
    "UnitDisk",
    "RouterAggregate",
    "RouterRegistry",
    "RouterSpec",
    "Scenario",
    "Session",
    "Study",
    "StudyResult",
    "TraceRecorder",
    "connected_session",
    "default_registry",
    "register_router",
    "router_order",
    "run_scenario",
    "scenario_fingerprint",
]
