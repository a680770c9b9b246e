"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_cells --seed 1 \
        --seconds 25 --trace 0

Workloads, metrics and their units are listed in ``BENCHMARK.json``.
With ``--trace 0`` the last stdout line carries the end-to-end
metrics, with ``--trace 1`` the per-layer ones (a layer a workload does
not exercise reads 0).  Everything else a run measured — raw wall
times, every reference-loop reading, set-up samples, check results —
goes to ``.perfbench/<run>/details.json``, and a traced run also writes
its spans to a ``*.trace.json`` file beside it.

The in-process workloads (paper_cells, bulk_routes) run in fresh
worker processes (:mod:`perfbench.worker`); ``setup_s`` is the median
over ``measure.SETUP_SAMPLES`` of them of the time from spawn to the
first timed operation, in reference seconds.  serve_mixed runs its
client in this process against ``repro-wasn serve`` subprocesses, and
times each server's set-up the same way.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import measure, serve_mixed  # noqa: E402

WORKER_TIMEOUT_S = 150.0


def _fail(message: str) -> int:
    print(f"perfbench: error: {message}", file=sys.stderr)
    return 2


def _spawn_worker(args, workdir: Path, tag: str, setup_only: bool) -> dict:
    out = workdir / f"{tag}.json"
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(Path(__file__).resolve().parent.parent)]
    )
    command = [
        sys.executable,
        "-m",
        "perfbench.worker",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
        "--out",
        str(out),
    ] + (["--setup-only"] if setup_only else [])
    before = measure.reference_reading()
    spawned = time.monotonic()
    completed = subprocess.run(
        command,
        cwd=ROOT,
        env=env,
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"worker {tag} exited with {completed.returncode}:\n"
            + completed.stderr[-4000:]
        )
    document = json.loads(out.read_text(encoding="utf-8"))
    raw = document["ready"] - spawned
    reference = (before + document["ready_reference_s"]) / 2
    document["setup"] = {
        "raw_s": raw,
        "reference_s": reference,
        "scaled_s": measure.scaled(raw, reference),
    }
    return document


def _in_process(args, workdir: Path) -> dict:
    setups = [
        _spawn_worker(args, workdir, f"setup{i}", setup_only=True)["setup"]
        for i in range(measure.SETUP_SAMPLES - 1)
    ]
    document = _spawn_worker(args, workdir, "main", setup_only=False)
    setups.append(document["setup"])
    document["setup_samples"] = setups
    document["setup_s"] = statistics.median(s["scaled_s"] for s in setups)
    return document


def _serve(args, workdir: Path) -> dict:
    return serve_mixed.run(
        ROOT,
        workdir,
        args.seed,
        args.seconds,
        workdir / "main.trace.json" if args.trace else None,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail("no src/repro package here; run from the repository root")
    sys.path.insert(0, str(ROOT / "src"))  # serve_mixed's in-process replay
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    except (OSError, ValueError) as error:
        return _fail(f"cannot read BENCHMARK.json: {error}")
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        return _fail(f"unknown workload {args.workload!r}; one of {workloads}")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    workdir = (
        ROOT
        / ".perfbench"
        / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    )
    workdir.mkdir(parents=True, exist_ok=True)
    if args.workload == "serve_mixed":
        document = _serve(args, workdir)
    else:
        document = _in_process(args, workdir)

    delivered, routed = document["delivery"]
    end_to_end = {
        "setup_s": document["setup_s"],
        "answer_ms": document["answer_ms"],
        "delivery_ratio": delivered / routed,
        "peak_rss_mb": document["peak_rss_mb"],
    }
    if args.trace:
        layers = document["per_layer"]
        unknown = set(layers) - {m["name"] for m in spec["per_layer"]}
        if unknown:
            raise RuntimeError(
                f"per-layer metrics missing from BENCHMARK.json: "
                f"{sorted(unknown)}"
            )
        chosen = spec["per_layer"]
        values = {m["name"]: float(layers.get(m["name"], 0.0)) for m in chosen}
        document["not_exercised"] = sorted(
            m["name"] for m in chosen if m["name"] not in layers
        )
    else:
        chosen = spec["end_to_end"]
        values = {m["name"]: float(end_to_end[m["name"]]) for m in chosen}
    document["end_to_end"] = end_to_end
    (workdir / "details.json").write_text(
        json.dumps(document, indent=1, default=str), encoding="utf-8"
    )

    references = document.get("reference_readings_s")
    print(
        f"perfbench: {args.workload} seed={args.seed} "
        f"attempted={document['attempted']} failed={document['failed']} "
        f"details={workdir.relative_to(ROOT) / 'details.json'}"
    )
    if references:
        print(
            "perfbench: reference loop median "
            f"{1e3 * statistics.median(references):.3f} ms over "
            f"{len(references)} readings (nominal "
            f"{1e3 * measure.REF_NOMINAL_S:.3f} ms); raw ms per pass "
            + " ".join(
                f"{1e3 * sum(i['raw_s'] for i in p) / len(p):.1f}"
                for p in document["passes"]
            )
        )
    for mismatch in document["mismatches"][:20]:
        print(f"perfbench: check failed: {mismatch}")
    result = {
        "correct": document["failed"] == 0 and document["attempted"] > 0,
        "attempted": int(document["attempted"]),
        "failed": int(document["failed"]),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in chosen
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
