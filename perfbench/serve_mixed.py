"""serve_mixed: one resident session served over loopback, open loop.

Inputs: a ``repro-wasn serve`` subprocess with its default config
holding one IA n = 800 session (``seed`` 2009) with LGF, SLGF and SLGF2
resident.  GF is not resident, so BOUNDHOLE never runs.  From the
workload seed the benchmark draws a churn subset of ``CHURN_NODES``
nodes and, from the rest, a stable subset of ``STABLE_NODES``.  The
request stream, built before timing as raw HTTP bytes:

* ``MIX["route"]`` single ``route`` reads, endpoints from the stable
  subset, scheme uniform over the three;
* ``MIX["route_pairs"]`` ``route_pairs`` reads of ``PAIRS`` pairs;
* ``MIX["topology"]`` writes, alternately failing and restoring a group
  of ``FAIL_GROUP`` churn nodes.

One client (this process) offers the stream at ``RATE`` requests per
second on a fixed schedule over ``CONNECTIONS`` keep-alive
connections; a request waits in the client while both connections are
busy, and a write also waits for the previous write to be answered.
Latency runs from a request's due time to its answer.

The server runs on one CPU and the client on another, so the two never
share a core and the scheduler does not move them.  The schedule is
offered in blocks of ``BLOCK_S`` seconds.  After each block the client
waits for every answer and then, with the server idle, times
``PAUSE_CHUNKS`` chunks of the reference loop on each of the two CPUs.
The read p50 is reported in reference milliseconds: scaled by the mean
of all those chunks, with exponent ``ELASTICITY``.  A reading or two
is too noisy to scale by, since the box flips between a fast and a slow
state within seconds (single chunks spread by a third when idle);
the mean of chunks sampled every half second across the load phase
follows the share of the run spent slow.

Checks: every answer is a 2xx, and every read answered while no write
was in flight equals an in-process replay of the same stream at the
same write count.  The replay is traced and gives the per-layer
figures of a traced run.
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from perfbench.measure import (
    SETUP_SAMPLES,
    Tracer,
    cpu_seconds,
    nearest_rank,
    peak_rss_mb,
    reference_chunk,
    reference_reading,
    scaled,
    with_self_time,
)

SCENARIO = {
    "deployment_model": "IA",
    "node_count": 800,
    "seed": 2009,
    "routers": ["LGF", "SLGF", "SLGF2"],
    "routes_per_network": 20,
}
ROUTERS = tuple(SCENARIO["routers"])
RATE = 60.0
MIX = {"route": 0.93, "route_pairs": 0.05, "topology": 0.02}
PAIRS = 20
STABLE_NODES = 200
CHURN_NODES = 24
FAIL_GROUP = 2
CONNECTIONS = 2
REQUEST_TIMEOUT_S = 10.0
BLOCK_S = 0.5
PAUSE_CHUNKS = 5
#: Read latency follows the loop less than fully: the 2 ms flush window
#: and the kernel's share of each round trip do not slow with it.  Over
#: 10 runs of 20 s that straddled a slow spell, log(read p50) followed
#: log(mean chunk) with slope 0.74 (correlation 0.99), and scaling with
#: 0.75 cut the spread from 12.8% of the median to 2.5%.
ELASTICITY = 0.75
SERVER_START_TIMEOUT_S = 60.0


def _encode(method: str, path: str, body: dict | None = None) -> bytes:
    payload = b"" if body is None else json.dumps(body).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        "Host: 127.0.0.1\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n"
    )
    return head.encode("latin-1") + payload


class Connection:
    """One keep-alive connection sending pre-encoded requests."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._reader = None
        self._writer = None

    async def open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            "127.0.0.1", self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except OSError:
                pass
            self._writer = None

    async def exchange(self, raw: bytes) -> tuple[int, bytes]:
        self._writer.write(raw)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        body = await self._reader.readexactly(length) if length else b""
        return status, body


class Request:
    """One planned request and, once sent, what happened to it."""

    def __init__(self, kind: str, path: str, body: dict, offset: float):
        self.kind = kind
        self.body = body
        self.raw = _encode("POST", path, body)
        self.offset = offset
        self.due = self.sent = self.answered = 0.0
        self.status = 0
        self.response = b""
        self.error = None
        self.writes_before = 0  # writes answered when it was sent
        self.clean = False  # no write in flight while it was in flight

    @property
    def payload(self) -> bytes:
        return self.raw.split(b"\r\n\r\n", 1)[1]

    @property
    def ok(self) -> bool:
        return self.error is None and 200 <= self.status < 300


def _plan(seed: int, session_id: str, node_ids, seconds: float):
    """The seeded warm-up and timed request lists."""
    rng = random.Random(f"serve_mixed/{seed}")
    nodes = sorted(node_ids)
    churn = rng.sample(nodes, CHURN_NODES)
    churn_set = set(churn)
    stable = rng.sample([u for u in nodes if u not in churn_set], STABLE_NODES)
    prefix = f"/sessions/{session_id}"
    groups = [
        churn[i : i + FAIL_GROUP] for i in range(0, CHURN_NODES, FAIL_GROUP)
    ]
    writes = {"count": 0}

    def read(kind: str, offset: float, router: str | None = None):
        if kind == "route_pairs":
            body = {"count": PAIRS}
            return Request(kind, f"{prefix}/route_pairs", body, offset)
        source, destination = rng.sample(stable, 2)
        body = {
            "source": source,
            "destination": destination,
            "router": router or rng.choice(ROUTERS),
        }
        return Request(kind, f"{prefix}/route", body, offset)

    def write(offset: float):
        index = writes["count"]
        writes["count"] += 1
        group = groups[(index // 2) % len(groups)]
        op = "fail" if index % 2 == 0 else "restore"
        body = {"events": [{"op": op, "nodes": group}]}
        return Request("topology", f"{prefix}/topology", body, offset)

    warmup = [read("route", 0.0, router) for router in ROUTERS * 2]
    warmup += [read("route_pairs", 0.0), write(0.0), write(0.0)]
    warmup += [read("route", 0.0, router) for router in ROUTERS]
    warmup += [read("route_pairs", 0.0)]

    kinds = list(MIX)
    weights = [MIX[kind] for kind in kinds]
    timed = []
    for index in range(max(1, round(RATE * seconds))):
        offset = index / RATE
        kind = rng.choices(kinds, weights)[0]
        timed.append(
            write(offset) if kind == "topology" else read(kind, offset)
        )
    return warmup, timed, stable


@functools.cache
def _cpus() -> tuple[int, int]:
    """(server CPU, client CPU): two different ones where there are two."""
    available = sorted(os.sched_getaffinity(0))
    return available[-1], available[0]


def _pin(pid: int, cpu: int) -> None:
    """Every thread of ``pid`` onto ``cpu``; later threads inherit it.

    A process or thread that has already exited is skipped; the caller
    notices the exit when it polls.
    """
    try:
        for task in Path(f"/proc/{pid}/task").iterdir():
            try:
                os.sched_setaffinity(int(task.name), {cpu})
            except ProcessLookupError:
                pass
    except FileNotFoundError:
        pass


class _Server:
    """A ``repro-wasn serve`` subprocess on an ephemeral port."""

    def __init__(self, root: Path, workdir: Path, tag: str) -> None:
        port_file = workdir / f"port-{tag}"
        port_file.unlink(missing_ok=True)
        self.log = (workdir / f"server-{tag}.log").open("w")
        env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith("REPRO_")
        }
        env["PYTHONPATH"] = str(root / "src")
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--port-file",
                str(port_file),
            ],
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=self.log,
            stderr=subprocess.STDOUT,
        )
        self.cpu = _cpus()[0]
        _pin(self.proc.pid, self.cpu)
        deadline = self.spawned + SERVER_START_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                self.log.close()
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}; "
                    f"see {self.log.name}"
                )
            try:
                text = port_file.read_text(encoding="ascii")
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                self.port = int(text)
                _pin(self.proc.pid, self.cpu)
                break
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("server did not start listening")
            time.sleep(0.005)

    def stop(self) -> None:
        # SIGTERM, not SIGINT: a process started from a background job
        # inherits SIGINT as ignored, and the server then never exits.
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


async def _call(conn: Connection, request: Request) -> None:
    request.sent = time.perf_counter()
    try:
        request.status, request.response = await asyncio.wait_for(
            conn.exchange(request.raw), REQUEST_TIMEOUT_S
        )
    except (asyncio.TimeoutError, ConnectionError, OSError) as error:
        request.error = repr(error)
        await conn.close()
        await conn.open()
    request.answered = time.perf_counter()


async def _start(root: Path, workdir: Path, tag: str, seed: int, seconds):
    """Server up, session created, warm-up answered: the set-up.

    Set-up time runs from the server's spawn to the last warm-up answer
    and is reference-scaled between readings taken just before the
    spawn and just after (the server is idle during both).
    """
    before = reference_reading()
    server = _Server(root, workdir, tag)
    try:
        conns = [Connection(server.port) for _ in range(CONNECTIONS)]
        for conn in conns:
            await conn.open()
        create = Request("create", "/sessions", {"scenario": SCENARIO}, 0.0)
        await _call(conns[0], create)
        if not create.ok:
            raise RuntimeError(f"session create failed: {create.response!r}")
        info = json.loads(create.response)
        warmup, timed, stable = _plan(
            seed, info["session"], info["node_ids"], seconds
        )
        writes = 0
        for request in warmup:
            request.writes_before = writes
            request.clean = True
            await _call(conns[0], request)
            if not request.ok:
                raise RuntimeError(
                    f"warm-up request failed: {request.response!r}"
                )
            writes += request.kind == "topology"
    except BaseException:
        server.stop()
        raise
    raw = time.monotonic() - server.spawned
    reference = (before + reference_reading()) / 2
    setup = {
        "raw_s": raw,
        "reference_s": reference,
        "scaled_s": scaled(raw, reference),
    }
    return server, conns, info, warmup, timed, stable, setup


async def _drive(
    conns, requests: list[Request], writes_before: int, base: float = 0.0
) -> None:
    """Offer ``requests`` on their schedule; open loop, FIFO dispatch.

    A request is due ``offset - base`` seconds after the start.
    """
    queue: asyncio.Queue = asyncio.Queue()
    write_idle = asyncio.Event()
    write_idle.set()
    tally = {"answered": writes_before, "events": 0}
    start = time.perf_counter() + 0.05

    async def dispatch() -> None:
        for request in requests:
            request.due = start + request.offset - base
            delay = request.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait(request)
        for _ in conns:
            queue.put_nowait(None)

    async def work(conn: Connection) -> None:
        while (request := await queue.get()) is not None:
            if request.kind == "topology":
                await write_idle.wait()
                write_idle.clear()
                tally["events"] += 1
                request.writes_before = tally["answered"]
                await _call(conn, request)
                tally["events"] += 1
                tally["answered"] += request.ok
                write_idle.set()
            else:
                events = tally["events"]
                request.writes_before = tally["answered"]
                clean = write_idle.is_set()
                await _call(conn, request)
                request.clean = clean and tally["events"] == events

    await asyncio.gather(dispatch(), *(work(conn) for conn in conns))


def _chunks_on(cpu: int, count: int) -> list[float]:
    """``count`` reference chunks timed on ``cpu``."""
    home = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        return [reference_chunk() for _ in range(count)]
    finally:
        os.sched_setaffinity(0, home)


async def _drive_blocks(conns, timed: list[Request], writes_before: int):
    """Offer ``timed`` block by block, timing reference chunks between.

    Returns the chunk times per CPU and the seconds spent in pauses.
    """
    server_cpu, client_cpu = _cpus()
    chunks: dict[str, list[float]] = {"server": [], "client": []}
    paused = 0.0
    blocks: dict[int, list[Request]] = defaultdict(list)
    for request in timed:
        blocks[int(request.offset // BLOCK_S)].append(request)
    for index in sorted(blocks):
        block = blocks[index]
        await _drive(conns, block, writes_before, base=index * BLOCK_S)
        writes_before += sum(r.kind == "topology" and r.ok for r in block)
        pause_started = time.perf_counter()
        chunks["server"] += _chunks_on(server_cpu, PAUSE_CHUNKS)
        chunks["client"] += _chunks_on(client_cpu, PAUSE_CHUNKS)
        paused += time.perf_counter() - pause_started
    return chunks, paused


async def _session(root: Path, workdir: Path, seed: int, seconds: float):
    os.sched_setaffinity(0, {_cpus()[1]})
    setups = []
    for sample in range(SETUP_SAMPLES - 1):
        server, conns, *_, setup = await _start(
            root, workdir, f"setup{sample}", seed, seconds
        )
        setups.append(setup)
        for conn in conns:
            await conn.close()
        server.stop()
    server, conns, info, warmup, timed, stable, setup = await _start(
        root, workdir, "main", seed, seconds
    )
    setups.append(setup)
    try:
        cpu_before = cpu_seconds(server.proc.pid)
        started = time.perf_counter()
        chunks, paused = await _drive_blocks(
            conns, timed, sum(r.kind == "topology" for r in warmup)
        )
        # Offered time only: the server idles while the client pauses.
        wall = time.perf_counter() - started - paused
        cpu = cpu_seconds(server.proc.pid) - cpu_before
        stats_request = Request("stats", "/stats", {}, 0.0)
        stats_request.raw = _encode("GET", "/stats")
        await _call(conns[0], stats_request)
        stats = json.loads(stats_request.response)["sessions"][info["session"]]
        rss = peak_rss_mb(server.proc.pid)
        for conn in conns:
            await conn.close()
    finally:
        server.stop()
    return {
        "setups": setups,
        "load_reference_s": statistics.fmean(
            chunks["server"] + chunks["client"]
        ),
        "load_chunks_s": chunks,
        "paused_s": paused,
        "info": info,
        "warmup": warmup,
        "timed": timed,
        "stable": stable,
        "server_cpu_s": cpu,
        "wall_s": wall,
        "stats": stats,
        "peak_rss_mb": rss,
    }


def _replay(run: dict, tracer: Tracer) -> dict:
    """The stream re-run in process; returns per-request reference answers.

    Writes apply in the order they were sent (they never overlap); each
    read is answered in the state after the writes that preceded it.
    After a write, one probe route per scheme pays the routers' lazy rebuild
    (``routing.rebind``), so the reads that follow time steady routing.
    """
    from repro.api import DynamicTopology, Session
    from repro.network.edges import EdgeDetector
    from repro.serve.wire import scenario_from_dict, topology_events_from_dict

    scenario = scenario_from_dict(SCENARIO)
    base = Session(scenario)
    routers = base.routers
    seed = base.instance.seed
    requests = run["warmup"] + run["timed"]
    writes = sorted(
        (
            (position, r)
            for position, r in enumerate(requests)
            if r.kind == "topology" and r.ok
        ),
        key=lambda item: item[1].sent,
    )
    reads_at = defaultdict(list)
    for position, request in enumerate(requests):
        if request.kind != "topology" and request.clean and request.ok:
            reads_at[request.writes_before].append((position, request))
    probe = tuple(run["stable"][:2])
    topology = None
    graph = base.graph
    expected: dict[int, object] = {}
    for state in range(len(writes) + 1):
        if state:
            position, request = writes[state - 1]
            with tracer.span("serve.wire", position):
                events = topology_events_from_dict(json.loads(request.payload))
            if topology is None:
                topology = DynamicTopology.from_graph(
                    graph,
                    edge_detector=EdgeDetector(strategy="convex"),
                    area=scenario.area,
                )
                for router in routers.values():
                    router.track(topology)
            with tracer.span("network.update", position):
                for op, nodes, *_ in events:
                    if op == "fail":
                        topology.fail_many(nodes)
                    else:
                        topology.restore_many(nodes)
            graph = topology.graph
            with tracer.span("routing.rebind", position):
                for router in routers.values():
                    router.route_batch([probe])
        pairs_answer = None
        for position, request in reads_at.get(state, ()):
            if request.kind == "route_pairs":
                if pairs_answer is None:
                    session = Session.from_graph(
                        graph, scenario, seed=seed, routers=routers
                    )
                    with tracer.span("routing.read_pairs", position):
                        routes = session.route_pairs(count=PAIRS)
                    pairs_answer = {"routeset": routes.to_dict()}
                answer = pairs_answer
            else:
                body = request.body
                router = routers[body["router"]]
                pair = (body["source"], body["destination"])
                with tracer.span("routing.read", position):
                    result = router.route_batch([pair])[0]
                with tracer.span("serve.wire", position):
                    json.loads(request.payload)
                    answer = {"result": result.to_dict()}
                    json.dumps(answer)
            expected[id(request)] = json.loads(json.dumps(answer))
    return expected


def run(root: Path, workdir: Path, seed: int, seconds: float, trace_path):
    run_data = asyncio.run(_session(root, workdir, seed, seconds))
    timed = run_data["timed"]
    tracer = Tracer()
    replay_started = time.perf_counter()
    expected = _replay(run_data, tracer)
    replay_s = time.perf_counter() - replay_started

    failed = 0
    mismatches = []
    checked = 0
    delivered = routed = 0
    for request in timed:
        if not request.ok:
            failed += 1
            mismatches.append(
                f"{request.kind} at {request.offset:.3f}s: status "
                f"{request.status} {request.error or ''}".rstrip()
            )
            continue
        if request.kind == "topology":
            continue
        answer = json.loads(request.response)
        routes = (
            [answer["result"]]
            if request.kind == "route"
            else answer["routeset"]["routes"]
        )
        routed += len(routes)
        delivered += sum(route["delivered"] for route in routes)
        if request.clean:
            checked += 1
            if answer != expected.get(id(request)):
                failed += 1
                mismatches.append(
                    f"{request.kind} at {request.offset:.3f}s differs "
                    "from the in-process replay"
                )

    reads = [r for r in timed if r.kind != "topology"]
    writes = [r for r in timed if r.kind == "topology"]
    read_ms = [1e3 * (r.answered - r.due) for r in reads]
    write_ms = [1e3 * (r.answered - r.due) for r in writes]
    wait_ms = [1e3 * (r.sent - r.due) for r in timed]
    query_p50_raw_ms = nearest_rank(read_ms, 50)
    load_reference = run_data["load_reference_s"]
    document = {
        "attempted": len(timed),
        "failed": failed,
        "mismatches": mismatches,
        "checked_reads": checked,
        "setup_samples": run_data["setups"],
        "setup_s": statistics.median(
            setup["scaled_s"] for setup in run_data["setups"]
        ),
        "load_reference_s": load_reference,
        "load_chunks_s": run_data["load_chunks_s"],
        "paused_s": run_data["paused_s"],
        "answer_ms": scaled(query_p50_raw_ms, load_reference, ELASTICITY),
        "delivery": [delivered, routed],
        "peak_rss_mb": run_data["peak_rss_mb"],
        "reads": len(reads),
        "writes": len(writes),
        "offered_rate_per_s": RATE,
        "achieved_rate_per_s": len(timed) / run_data["wall_s"],
        "query_p50_raw_ms": query_p50_raw_ms,
        "query_p99_ms": nearest_rank(read_ms, 99),
        "update_p50_ms": nearest_rank(write_ms, 50) if write_ms else None,
        "client_wait_mean_ms": statistics.fmean(wait_ms),
        "client_wait_max_ms": max(wait_ms),
        "server_cpu_s": run_data["server_cpu_s"],
        "wall_s": run_data["wall_s"],
        "replay_s": replay_s,
        "stats": {
            k: v for k, v in run_data["stats"].items() if k != "latency"
        },
    }
    if trace_path is not None:
        document["per_layer"] = _per_layer(
            tracer, run_data, document, wait_ms, trace_path
        )
    return document


def _per_layer(tracer, run_data, document, wait_ms, trace_path) -> dict:
    spans = with_self_time(tracer.spans)

    def median_ms(name: str) -> float:
        values = [s["self"] for s in spans if s["name"] == name]
        return 1e3 * statistics.median(values) if values else 0.0

    stats = run_data["stats"]
    answered = sum(r.ok for r in run_data["timed"])
    metrics = {
        "serve.batch_size_mean": float(stats["mean_batch_size"]),
        "serve.rejected": float(stats["rejected"]),
        "serve.timeouts": float(stats["timeouts"]),
        "serve.busy_share": run_data["server_cpu_s"] / run_data["wall_s"],
        "serve.cpu_per_query_ms": 1e3 * run_data["server_cpu_s"] / answered,
        "serve.client_wait_ms": statistics.fmean(wait_ms),
        "serve.wire_ms": median_ms("serve.wire"),
        "serve.query_p99_ms": document["query_p99_ms"],
        "serve.update_p50_ms": document["update_p50_ms"] or 0.0,
        "routing.read_ms": median_ms("routing.read"),
        "network.update_ms": median_ms("network.update"),
        # One sample per write: the three probe routes together.
        "routing.rebind_ms": median_ms("routing.rebind"),
    }
    tracer.write(
        trace_path,
        workload="serve_mixed",
        unit="raw milliseconds",
        # Spans wrap only the in-process replay; the timed phase is
        # identical in traced and untraced runs.
        served_path_spans=0,
        replay_traced_total_ms=1e3 * sum(
            s["duration"] for s in spans if s["parent"] is None
        ),
        replay_wall_ms=1e3 * document["replay_s"],
        metrics=metrics,
    )
    return metrics
