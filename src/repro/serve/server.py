"""Routing-as-a-service: the asyncio query server.

:class:`RoutingServer` binds the resident-session layer
(:mod:`repro.serve.resident`) to the wire (:mod:`repro.serve.http`,
:mod:`repro.serve.wire`).  The protocol is JSON over HTTP/1.1:

====== ============================== =====================================
Method Path                           Meaning
====== ============================== =====================================
POST   ``/sessions``                  Load a Scenario into a resident
                                      session (idempotent; the id is the
                                      scenario fingerprint)
GET    ``/sessions``                  List resident sessions
DELETE ``/sessions/<id>``             Evict one resident session
POST   ``/sessions/<id>/route``       Route one source→destination packet
POST   ``/sessions/<id>/route_pairs`` Route the scenario's sampled-pair
                                      workload (the ``Session.route_pairs``
                                      contract, bit-identical)
POST   ``/sessions/<id>/topology``    Apply move/fail/restore events to the
                                      live topology
GET    ``/healthz``                   Liveness probe
GET    ``/stats``                     Per-session query/latency counters
====== ============================== =====================================

Failure semantics clients can rely on:

* a malformed body answers **400** with a message naming the offending
  key (never a traceback);
* an unknown session answers **404**; state conflicts (topology event
  on a down node) answer **409**;
* a full intake queue answers **503** with a ``Retry-After`` header —
  bounded queues are the backpressure story, nothing is dropped
  silently;
* a request that cannot be answered within its deadline (body
  ``timeout_ms``, default ``default_timeout``) answers **504** — the
  server never leaves a client hanging.

All CPU-bound work (materialisation, routing, topology application)
runs in a thread-pool executor; the event loop only parses, queues and
responds, so a slow query stream cannot freeze the health probe.
"""

from __future__ import annotations

import asyncio
import math
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro import __version__
from repro.api.registry import RouterRegistry
from repro.routing.base import RoutingError
from repro.serve.http import (
    HttpError,
    Request,
    read_request,
    write_response,
)
from repro.serve.resident import Backpressure, SessionManager
from repro.serve.wire import (
    WireError,
    scenario_from_dict,
    topology_events_from_dict,
)

__all__ = ["RoutingServer", "ServerConfig"]

_SESSION_PATH = re.compile(
    r"^/sessions/(?P<id>[0-9a-f]{8,64})"
    r"(?P<op>/route|/route_pairs|/topology)?$"
)


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of one server instance (all have serving defaults)."""

    host: str = "127.0.0.1"
    port: int = 8707  # "8707" ~ WASN-ish; 0 = ephemeral (tests, CI)
    #: Batch cap: a session's drain dispatches whatever is queued the
    #: moment it is free, at most this many requests per batch.
    max_batch: int = 64
    #: Intake bound per session; full queue = 503 + Retry-After.
    queue_depth: int = 256
    retry_after: float = 1.0
    #: Per-request deadline (seconds) when the body names none.
    default_timeout: float = 30.0
    #: Resident-session lifecycle.
    max_sessions: int = 16
    idle_ttl: float = 300.0
    #: Routing backend handed to ``route_batch`` (requests may
    #: override per call; every backend is bit-identical).
    backend: str = "auto"
    #: Executor threads (routing, materialisation).
    workers: int = 2

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.backend not in ("auto", "scalar", "numpy"):
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                "expected 'auto', 'scalar' or 'numpy'"
            )


class RoutingServer:
    """The long-running query server over resident sessions."""

    def __init__(
        self,
        config: ServerConfig | None = None,
        registry: RouterRegistry | None = None,
    ) -> None:
        self.config = config if config is not None else ServerConfig()
        self._registry = registry
        self._server: asyncio.AbstractServer | None = None
        self._executor: ThreadPoolExecutor | None = None
        self.sessions: SessionManager | None = None
        self._started_at = time.time()
        self.port: int | None = None

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and start serving (returns once listening)."""
        config = self.config
        self._executor = ThreadPoolExecutor(
            max_workers=config.workers,
            thread_name_prefix="repro-serve",
        )
        self.sessions = SessionManager(
            queue_depth=config.queue_depth,
            max_batch=config.max_batch,
            retry_after=config.retry_after,
            backend=config.backend,
            max_sessions=config.max_sessions,
            idle_ttl=config.idle_ttl,
            executor=self._executor,
            registry=self._registry,
        )
        self.sessions.start()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=config.host,
            port=config.port,
            limit=64 << 10,
        )
        self._started_at = time.time()
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.sessions is not None:
            await self.sessions.close()
            self.sessions = None
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    # -- connection handling --------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as error:
                    write_response(
                        writer,
                        error.status,
                        {"error": str(error)},
                        headers=error.headers,
                        keep_alive=False,
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                keep_alive = request.keep_alive
                status, payload, headers = await self._dispatch(request)
                write_response(
                    writer,
                    status,
                    payload,
                    headers=headers,
                    keep_alive=keep_alive,
                )
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-exchange; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(
        self, request: Request
    ) -> tuple[int, dict, dict]:
        """Route one request; every outcome becomes (status, body)."""
        try:
            return await self._route_request(request)
        except Backpressure as error:
            # ceil() so Retry-After: 0 can never tell a client "now",
            # and a fractional hint like 2.5 s always rounds *up* —
            # round() would banker's-round it down to 2 and invite the
            # client back half a second early.
            return (
                503,
                {"error": str(error)},
                {"Retry-After": str(max(1, math.ceil(error.retry_after)))},
            )
        except asyncio.TimeoutError:
            return (
                504,
                {"error": "request timed out before it was answered"},
                {},
            )
        except (WireError, HttpError) as error:
            return error.status, {"error": str(error)}, getattr(
                error, "headers", {}
            )
        except (RoutingError, ValueError) as error:
            # ValueError out of the facade (ambiguous router choice,
            # bad option combination) is a client mistake, not a crash.
            return 400, {"error": str(error)}, {}
        except Exception as error:  # noqa: BLE001 - the 500 boundary
            return (
                500,
                {"error": f"{type(error).__name__}: {error}"},
                {},
            )

    async def _route_request(
        self, request: Request
    ) -> tuple[int, dict, dict]:
        method, path = request.method, request.path
        if path == "/healthz":
            self._require(method, "GET", path)
            return 200, self._healthz(), {}
        if path == "/stats":
            self._require(method, "GET", path)
            return 200, self._stats(), {}
        if path == "/sessions":
            if method == "GET":
                return 200, {"sessions": self.sessions.describe()}, {}
            self._require(method, "POST", path, allowed="GET, POST")
            return await self._create_session(request)
        match = _SESSION_PATH.match(path)
        if match is None:
            raise HttpError(404, f"no route for {path!r}")
        session_id, op = match.group("id"), match.group("op")
        if op is None:
            self._require(method, "DELETE", path)
            self.sessions.get(session_id)  # 404 before a no-op delete
            await self.sessions.evict(session_id)
            return 200, {"evicted": session_id}, {}
        self._require(method, "POST", path)
        resident = self.sessions.get(session_id)
        body = request.json()
        if op == "/route":
            return await self._route_one(resident, body)
        if op == "/route_pairs":
            return await self._route_pairs(resident, body)
        return await self._topology(resident, body)

    @staticmethod
    def _require(
        method: str, expected: str, path: str, allowed: str | None = None
    ) -> None:
        if method != expected:
            raise HttpError(
                405,
                f"{method} not allowed on {path!r}",
                headers={"Allow": allowed or expected},
            )

    # -- endpoints ------------------------------------------------------

    def _healthz(self) -> dict:
        return {
            "status": "ok",
            "version": __version__,
            "sessions": len(self.sessions),
            "uptime_s": time.time() - self._started_at,
        }

    def _stats(self) -> dict:
        config = self.config
        return {
            "uptime_s": time.time() - self._started_at,
            "config": {
                "max_batch": config.max_batch,
                "queue_depth": config.queue_depth,
                "max_sessions": config.max_sessions,
                "idle_ttl": config.idle_ttl,
                "backend": config.backend,
                "workers": config.workers,
            },
            "sessions": self.sessions.stats(),
        }

    async def _create_session(
        self, request: Request
    ) -> tuple[int, dict, dict]:
        body = request.json()
        if "scenario" not in body:
            raise WireError("body must carry a 'scenario' object")
        unknown = sorted(set(body) - {"scenario"})
        if unknown:
            raise WireError(
                f"body has unknown key(s): {', '.join(map(repr, unknown))}"
            )
        scenario = scenario_from_dict(body["scenario"])
        resident, created = await self.sessions.create(scenario)
        payload = {
            "session": resident.id,
            "created": created,
            "nodes": len(resident.node_ids),
            "node_ids": resident.node_ids,
            "connected": resident.connected,
            "routers": list(resident.router_names),
        }
        return (201 if created else 200), payload, {}

    def _timeout(self, body: dict) -> float:
        value = body.get("timeout_ms")
        if value is None:
            return self.config.default_timeout
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or value <= 0
        ):
            raise WireError(f"timeout_ms must be a positive number, "
                            f"got {value!r}")
        return float(value) / 1e3

    async def _route_one(
        self, resident, body: dict
    ) -> tuple[int, dict, dict]:
        unknown = sorted(
            set(body) - {"source", "destination", "router", "timeout_ms"}
        )
        if unknown:
            raise WireError(
                f"body has unknown key(s): {', '.join(map(repr, unknown))}"
            )
        for key in ("source", "destination"):
            if key not in body:
                raise WireError(f"body is missing key {key!r}")
            value = body[key]
            if isinstance(value, bool) or not isinstance(value, int):
                raise WireError(
                    f"{key} must be an integer node id, got {value!r}"
                )
        router = body.get("router")
        if router is not None and not isinstance(router, str):
            raise WireError(f"router must be a name, got {router!r}")
        if router is not None and router not in resident.router_names:
            known = ", ".join(resident.router_names)
            raise WireError(
                f"router {router!r} not resident; present: {known}"
            )
        timeout = self._timeout(body)
        payload = {
            "source": body["source"],
            "destination": body["destination"],
            "router": router,
        }
        result = await self._queued(resident, "route", payload, timeout)
        return 200, result, {}

    async def _route_pairs(
        self, resident, body: dict
    ) -> tuple[int, dict, dict]:
        unknown = sorted(
            set(body)
            - {"count", "routers", "energy", "backend", "timeout_ms"}
        )
        if unknown:
            raise WireError(
                f"body has unknown key(s): {', '.join(map(repr, unknown))}"
            )
        payload: dict = {}
        if body.get("count") is not None:
            count = body["count"]
            if (
                isinstance(count, bool)
                or not isinstance(count, int)
                or count < 1
            ):
                raise WireError(
                    f"count must be a positive integer, got {count!r}"
                )
            payload["count"] = count
        if body.get("routers") is not None:
            routers = body["routers"]
            if not isinstance(routers, list) or not all(
                isinstance(name, str) for name in routers
            ):
                raise WireError("routers must be an array of names")
            unknown_routers = [
                name
                for name in routers
                if name not in resident.router_names
            ]
            if unknown_routers:
                known = ", ".join(resident.router_names)
                raise WireError(
                    f"router(s) not resident: "
                    f"{', '.join(map(repr, unknown_routers))}; "
                    f"present: {known}"
                )
            payload["routers"] = routers
        if body.get("energy") is not None:
            if not isinstance(body["energy"], bool):
                raise WireError("energy must be a boolean")
            payload["energy"] = body["energy"]
        if body.get("backend") is not None:
            backend = body["backend"]
            if backend not in ("auto", "scalar", "numpy"):
                raise WireError(
                    f"unknown backend {backend!r}; expected 'auto', "
                    "'scalar' or 'numpy'"
                )
            payload["backend"] = backend
        timeout = self._timeout(body)
        try:
            result = await self._queued(
                resident, "route_pairs", payload, timeout
            )
        except ImportError as error:
            # backend="numpy" without numpy: the client asked for a
            # specific implementation this deployment cannot offer.
            raise WireError(str(error)) from None
        return 200, result, {}

    async def _topology(
        self, resident, body: dict
    ) -> tuple[int, dict, dict]:
        timeout = self._timeout(
            body if "timeout_ms" in body else {}
        )
        events = topology_events_from_dict(
            {"events": body.get("events")}
            if "events" in body
            else body
        )
        result = await self._queued(
            resident, "topology", {"events": events}, timeout
        )
        return 200, result, {}

    @staticmethod
    async def _queued(resident, kind: str, payload: dict, timeout: float):
        """Queue one request on ``resident`` and wait for its answer.

        The latency histogram records every request that was queued,
        whatever its outcome (504s and errors included); a 503 from
        :meth:`~repro.serve.resident.ResidentSession.submit` never
        queued and counts only in ``rejected``.
        """
        started = time.perf_counter()
        future = resident.submit(kind, payload, timeout)
        try:
            return await asyncio.wait_for(future, timeout)
        finally:
            resident.stats.latency.record(time.perf_counter() - started)
