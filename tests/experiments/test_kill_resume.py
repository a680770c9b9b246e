"""A study killed mid-stream resumes from exactly what it stored.

The engine persists each computed cell before yielding it, so a run
that dies at any point — pool workers included — leaves a cache from
which the next run serves the yielded cells and computes only the
rest.  The killed run is a real process group: this file, run as a
script, streams the study with ``jobs=2`` and SIGKILLs its own group
right after the first yielded cell.

Run standalone (as the test does)::

    PYTHONPATH=src python tests/experiments/test_kill_resume.py CACHE_DIR
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

from repro.api import Scenario, Study, scenario_fingerprint
from repro.api.study import StudyResult
from repro.experiments import ResultCache

SRC = Path(__file__).resolve().parents[2] / "src"


def tiny_study() -> Study:
    """Four quick cells (2 node counts x 2 seeds), two routers."""
    base = Scenario(
        node_count=120,
        seed=7,
        networks=1,
        routes_per_network=3,
        routers=("GF", "SLGF"),
    )
    return Study(base, nodes=(120, 140), seeds=(7, 8))


def _digest(result: StudyResult) -> str:
    return json.dumps(result.to_dicts(), sort_keys=True)


def stream_then_kill(cache_root: str) -> None:
    """Print the first yielded cell's label, then SIGKILL the group."""
    stream = tiny_study().stream(jobs=2, cache=ResultCache(cache_root))
    cell, _ = next(stream)
    print(cell.label(), flush=True)
    os.killpg(0, signal.SIGKILL)


def test_killed_stream_resumes_from_stored_cells(tmp_path):
    root = tmp_path / "cache"
    killed = subprocess.run(
        [sys.executable, __file__, str(root)],
        capture_output=True,
        text=True,
        timeout=120,
        start_new_session=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert killed.returncode == -signal.SIGKILL, killed.stderr
    study = tiny_study()
    (first,) = [
        cell for cell in study.cells()
        if cell.label() == killed.stdout.strip()
    ]
    # Exactly the one yielded cell reached the disk before the kill.
    stored = {path.stem for path in root.rglob("*.json")}
    assert stored == {
        scenario_fingerprint(study.scenario(first), study.registry)
    }

    events: list = []
    kinds = {}
    results = {}
    rerun = study.stream(
        jobs=2, cache=ResultCache(root), progress=events.append
    )
    for cell, result in rerun:
        kinds[cell] = events[-1].kind  # emitted just before the yield
        results[cell] = result
    assert kinds == {
        cell: "cached" if cell == first else "computed"
        for cell in study.cells()
    }
    uncached = tiny_study().run(cache=ResultCache.disabled())
    assert _digest(StudyResult(study, results)) == _digest(uncached)


if __name__ == "__main__":
    stream_then_kill(sys.argv[1])
