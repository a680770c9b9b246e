"""``repro-wasn serve`` — run the routing service from the shell.

A thin argparse front over :class:`~repro.serve.server.RoutingServer`:
every :class:`~repro.serve.server.ServerConfig` knob is a flag, the
bound address is printed once on startup (machine-readable via
``--port-file`` for scripts that bind port 0), and Ctrl-C shuts the
server down cleanly.

Examples::

    repro-wasn serve                         # 127.0.0.1:8707
    repro-wasn serve --port 0 --port-file /tmp/port
    repro-wasn serve --backend scalar --max-batch 128 --workers 4
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from pathlib import Path

from repro.serve.server import RoutingServer, ServerConfig

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    defaults = ServerConfig()
    parser = argparse.ArgumentParser(
        prog="repro-wasn serve",
        description=(
            "Serve route/route_pairs queries over resident sessions "
            "(JSON over HTTP)."
        ),
    )
    parser.add_argument(
        "--host", default=defaults.host, help="bind address"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=defaults.port,
        help="bind port (0 = ephemeral; see --port-file)",
    )
    parser.add_argument(
        "--port-file",
        type=Path,
        default=None,
        help="write the bound port here once listening "
        "(for scripts using --port 0)",
    )
    parser.add_argument(
        "--backend",
        choices=["auto", "scalar", "numpy"],
        default=defaults.backend,
        help="route_batch backend (all bit-identical; default: auto)",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=defaults.max_batch,
        metavar="N",
        help="cap on requests per batch (a batch is whatever is "
        "queued when the drain is free)",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=defaults.queue_depth,
        metavar="N",
        help="per-session intake bound (full queue answers 503)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=defaults.default_timeout,
        metavar="S",
        help="default per-request deadline, seconds",
    )
    parser.add_argument(
        "--max-sessions",
        type=int,
        default=defaults.max_sessions,
        metavar="N",
        help="resident-session capacity (LRU eviction beyond it)",
    )
    parser.add_argument(
        "--idle-ttl",
        type=float,
        default=defaults.idle_ttl,
        metavar="S",
        help="evict sessions idle this long (0 disables)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=defaults.workers,
        metavar="N",
        help="executor threads for routing/materialisation",
    )
    return parser


async def _run(config: ServerConfig, port_file: Path | None) -> None:
    server = RoutingServer(config)
    await server.start()
    address = f"http://{config.host}:{server.port}"
    print(f"repro-wasn serve: listening on {address}", flush=True)
    if port_file is not None:
        port_file.write_text(f"{server.port}\n", encoding="utf-8")
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        config = ServerConfig(
            host=args.host,
            port=args.port,
            backend=args.backend,
            max_batch=args.max_batch,
            queue_depth=args.queue_depth,
            default_timeout=args.timeout,
            max_sessions=args.max_sessions,
            idle_ttl=args.idle_ttl,
            workers=args.workers,
        )
    except ValueError as error:
        parser.error(str(error))  # exits 2 with usage, no traceback
    try:
        asyncio.run(_run(config, args.port_file))
    except KeyboardInterrupt:
        print("repro-wasn serve: shut down", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
