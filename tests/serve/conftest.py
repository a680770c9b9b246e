"""Fixtures: an in-process :class:`RoutingServer` driven from tests.

The server runs on its own event-loop thread bound to port 0; tests
talk to it two ways:

* :meth:`ServeHarness.request` — real HTTP over ``http.client``, the
  same wire a remote client uses;
* :meth:`ServeHarness.call` — run a callable on the server's loop
  thread, for white-box pokes (holding a resident's drain task,
  inspecting the session table) that the black-box tests build on.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import http.client
import json
import threading

import pytest

from repro.serve import RoutingServer, ServerConfig

#: Small enough to materialise in milliseconds, big enough to stay
#: connected and exercise both routers' perimeter machinery.
SCENARIO = {
    "node_count": 120,
    "seed": 5,
    "routes_per_network": 6,
    "routers": ["GF", "SLGF2"],
}


class ServeHarness:
    """One RoutingServer on a dedicated event-loop thread."""

    def __init__(self, **overrides) -> None:
        overrides.setdefault("port", 0)
        self.config = ServerConfig(**overrides)
        self.server = RoutingServer(self.config)
        self.loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._stop_event: asyncio.Event | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "ServeHarness":
        self._thread.start()
        assert self._ready.wait(30), "server failed to start"
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self.loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        await self.server.start()
        self._ready.set()
        await self._stop_event.wait()
        await self.server.stop()

    def stop(self) -> None:
        if self.loop is not None:
            self.loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=30)

    @property
    def port(self) -> int:
        return self.server.port

    # -- white-box access (runs on the loop thread) ---------------------

    def call(self, fn, *args):
        future: concurrent.futures.Future = concurrent.futures.Future()

        def run() -> None:
            try:
                future.set_result(fn(*args))
            except BaseException as error:  # noqa: BLE001 - test relay
                future.set_exception(error)

        self.loop.call_soon_threadsafe(run)
        return future.result(30)

    def resident(self, session_id: str):
        return self.call(self.server.sessions.get, session_id)

    # -- the wire -------------------------------------------------------

    def request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        timeout: float = 30.0,
    ) -> tuple[int, dict, dict]:
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=timeout
        )
        try:
            conn.request(
                method,
                path,
                body=None if body is None else json.dumps(body),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            raw = response.read()
            data = json.loads(raw) if raw else {}
            return response.status, data, dict(response.getheaders())
        finally:
            conn.close()

    def create(self, scenario: dict) -> dict:
        status, data, _ = self.request(
            "POST", "/sessions", {"scenario": scenario}
        )
        assert status in (200, 201), data
        return data


@pytest.fixture(scope="session")
def scenario_doc():
    """A fresh copy of the shared scenario document."""
    return dict(SCENARIO)


@pytest.fixture(scope="module")
def harness():
    """A shared default-config server (per test module)."""
    server = ServeHarness().start()
    yield server
    server.stop()


@pytest.fixture
def make_harness():
    """Factory for servers with custom configs (tiny queues, TTLs)."""
    made: list[ServeHarness] = []

    def factory(**overrides) -> ServeHarness:
        server = ServeHarness(**overrides).start()
        made.append(server)
        return server

    yield factory
    for server in made:
        server.stop()
