"""Process harness of the in-process workloads (paper_cells, bulk_routes).

Each run of such a workload is a fresh process::

    python -m perfbench.worker <workload> --seed N --seconds S \
        --trace 0|1 --out result.json [--setup-only]

The process imports and sets up the workload, notes the monotonic
instant it became ready (the orchestrator subtracts its spawn instant:
that is ``setup_s``) together with a reference reading, then — unless
``--setup-only`` — runs the timed phase and writes one JSON document
to ``--out``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import time
from pathlib import Path

from perfbench.measure import peak_rss_mb, reference_reading

WORKLOADS = ("paper_cells", "bulk_routes")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    module = importlib.import_module(f"perfbench.{args.workload}")
    state = module.setup(args.seed, bool(args.trace))
    ready = time.monotonic()
    document = {"ready": ready, "ready_reference_s": reference_reading()}
    if not args.setup_only:
        document.update(
            module.measure(
                state,
                seed=args.seed,
                seconds=args.seconds,
                workdir=args.out.parent,
                trace_path=(
                    args.out.with_suffix(".trace.json")
                    if args.trace
                    else None
                ),
            )
        )
        document["peak_rss_mb"] = peak_rss_mb()
    args.out.write_text(json.dumps(document), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
