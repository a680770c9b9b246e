"""repro.serve — routing-as-a-service over resident sessions.

The serving layer of the stack: a long-running asyncio JSON-over-HTTP
server (stdlib only) that loads :class:`~repro.api.Scenario` documents
into resident :class:`~repro.api.Session` objects and answers
``route``/``route_pairs`` queries from many concurrent clients,
micro-batching them into
:meth:`~repro.routing.base.Router.route_batch` calls.  Live topology
events (move/fail/restore) stream into the residents through
:class:`~repro.network.dynamic.DynamicTopology`, rebinding routers
incrementally.

Start it from the CLI (``repro-wasn serve``) or in-process::

    from repro.serve import RoutingServer, ServerConfig

    server = RoutingServer(ServerConfig(port=0))
    await server.start()          # server.port holds the bound port
    ...
    await server.stop()

Responses are bit-identical to direct Session calls — the serve test
suite and ``benchmarks/bench_serve.py`` pin that — so the service is a
deployment shape, not a second implementation.

See ``docs/API.md`` ("The routing service") for the wire protocol and
``tools/loadgen.py`` for a ready-made load generator.
"""

from repro.serve.http import HttpError
from repro.serve.resident import (
    Backpressure,
    LatencyHistogram,
    ResidentSession,
    SessionManager,
    SessionStats,
)
from repro.serve.server import RoutingServer, ServerConfig
from repro.serve.wire import (
    WireError,
    scenario_from_dict,
    scenario_to_dict,
    topology_events_from_dict,
)

__all__ = [
    "Backpressure",
    "HttpError",
    "LatencyHistogram",
    "ResidentSession",
    "RoutingServer",
    "ServerConfig",
    "SessionManager",
    "SessionStats",
    "WireError",
    "scenario_from_dict",
    "scenario_to_dict",
    "topology_events_from_dict",
]
