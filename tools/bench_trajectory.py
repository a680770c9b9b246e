#!/usr/bin/env python3
"""Run every benchmark workload and write one ``BENCH_<pr>.json``.

The committed ``BENCH_*.json`` files are the performance trajectory:
one per change that claims or risks a performance effect.  The script
first byte-compiles ``src`` and ``perfbench`` (``python -m compileall``,
which writes bytecode even under ``PYTHONDONTWRITEBYTECODE=1``), so
that no run's ``setup_s`` or ``peak_rss_mb`` includes compiling modules
a checkout has no valid bytecode for.  Then, for each workload in
``BENCHMARK.json``, it runs ``perfbench/run.py`` untraced on seeds
``1..runs`` and once traced (seed 1), and writes:

* per end-to-end metric: the runs, their median and quartiles;
* the traced run's per-layer values;
* ``attempted`` and ``failed`` per run;
* the git SHA (and whether tracked files differed from it), the CPU
  count, the Python and numpy versions, and the compile step.

It then prints the diff against the newest ``BENCH_<n>.json`` in the
repository root with ``n < pr``, marking each end-to-end metric whose
median moved the worse way by more than its bound (a fraction of the
earlier median, as ``BENCHMARK.json`` states it).

Run from the repository root::

    python3 tools/bench_trajectory.py --pr N
    python3 tools/bench_trajectory.py --pr 0 --runs 1 --seconds 1 --out /tmp/bench.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_run_line(stdout: str) -> dict:
    """The JSON result ``perfbench/run.py`` prints as its last line."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("perfbench printed nothing")
    return json.loads(lines[-1])


def spread(values: list) -> dict:
    """Runs, median and quartiles (inclusive method) of one metric."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def summarize(spec: dict, runs: dict, traced: dict, meta: dict) -> dict:
    """The BENCH document from parsed run lines.

    ``runs`` maps each workload to its untraced results, ``traced`` to
    its traced one; ``meta`` is stored as given.
    """
    workloads = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        results = runs[name]
        end_to_end = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            end_to_end[metric["name"]] = {
                "unit": metric["unit"],
                **spread(values),
            }
        workloads[name] = {
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "end_to_end": end_to_end,
            "per_layer": {
                key: entry["value"]
                for key, entry in traced[name]["metrics"].items()
            },
            "traced": {
                "attempted": traced[name]["attempted"],
                "failed": traced[name]["failed"],
            },
        }
    return {**meta, "workloads": workloads}


def _change(old: float, new: float) -> float | None:
    return None if old == 0 else (new - old) / abs(old)


def diff(spec: dict, old: dict, new: dict) -> list[str]:
    """Human-readable diff lines; ``!!`` marks a move past its bound."""
    lines = []
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for name, now in new["workloads"].items():
        then = old["workloads"].get(name)
        if then is None:
            lines.append(f"{name}: new workload")
            continue
        for metric, entry in now["end_to_end"].items():
            if metric not in then["end_to_end"]:
                continue
            before = then["end_to_end"][metric]["median"]
            after = entry["median"]
            change = _change(before, after)
            text = f"{name} {metric}: {before:.4g} -> {after:.4g} {entry['unit']}"
            if change is None:
                lines.append(text)
                continue
            text += f" ({100 * change:+.1f}%)"
            bound = bounds[metric]
            worse = change if bound["better"] == "lower" else -change
            if worse > bound["bound"]:
                text += f"  !! worse by more than {100 * bound['bound']:.0f}%"
            lines.append(text)
        for key, after in now["per_layer"].items():
            before = then["per_layer"].get(key)
            if before is None or (before == 0 and after == 0):
                continue
            change = _change(before, after)
            suffix = "" if change is None else f" ({100 * change:+.1f}%)"
            lines.append(f"{name} {key}: {before:.4g} -> {after:.4g}{suffix}")
        failed = (sum(then["failed"]), sum(now["failed"]))
        if failed != (0, 0):
            lines.append(f"{name} failed: {failed[0]} -> {failed[1]}")
    return lines


def latest_earlier(root: Path, pr: int) -> Path | None:
    """The ``BENCH_<n>.json`` in ``root`` with the largest ``n < pr``."""
    found = []
    for path in root.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match and int(match.group(1)) < pr:
            found.append((int(match.group(1)), path))
    return max(found)[1] if found else None


def environment() -> dict:
    """Git SHA, CPU count and interpreter versions of this run."""

    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True
            )
        except OSError:
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    try:
        import numpy
    except ImportError:
        numpy_version = None
    else:
        numpy_version = numpy.__version__
    dirty = git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if dirty is None else bool(dirty),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


#: Run before the first workload, so every run sees valid bytecode.
COMPILE_STEP = ("-m", "compileall", "-q", "src", "perfbench")


def compile_sources() -> str:
    """Byte-compile the benchmarked code once; returns the command run."""
    args = [sys.executable, *COMPILE_STEP]
    done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        output = (done.stdout + done.stderr)[-4000:]
        raise SystemExit(
            f"bench_trajectory: {' '.join(args)} exited with "
            f"{done.returncode}:\n{output}"
        )
    return " ".join(("python", *COMPILE_STEP))


def run_workload(command: list, workload: str, seed: int, seconds, trace):
    """One ``perfbench/run.py`` run, parsed; a failed run stops the tool."""
    args = [
        *command,
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
    ]
    done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(
            f"bench_trajectory: {' '.join(args)} exited with "
            f"{done.returncode}:\n{done.stderr[-4000:]}"
        )
    return parse_run_line(done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="tools/bench_trajectory.py")
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    # BENCHMARK.json's command, run by this interpreter.
    command = [sys.executable, *spec["command"][1:]]
    compiled = compile_sources()
    runs, traced = {}, {}
    for workload in spec["workloads"]:
        name = workload["name"]
        runs[name] = []
        for seed in range(1, args.runs + 1):
            print(f"bench_trajectory: {name} seed {seed}", flush=True)
            runs[name].append(run_workload(command, name, seed, seconds, 0))
        print(f"bench_trajectory: {name} traced", flush=True)
        traced[name] = run_workload(command, name, 1, seconds, 1)
    meta = {
        "pr": args.pr,
        **environment(),
        "run_seconds": seconds,
        "runs": args.runs,
        "compile_step": compiled,
    }
    document = summarize(spec, runs, traced, meta)
    out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"bench_trajectory: wrote {out}")
    earlier = latest_earlier(ROOT, args.pr)
    if earlier is None:
        print("bench_trajectory: no earlier BENCH_*.json to diff against")
        return 0
    print(f"bench_trajectory: against {earlier.name}")
    old = json.loads(earlier.read_text("utf-8"))
    for line in diff(spec, old, document):
        print(f"  {line}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
