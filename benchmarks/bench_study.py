"""SCALE — Study streaming dispatch must add no measurable overhead.

A Study cell's work is the Session evaluation itself
(:func:`repro.api.study._evaluate_cell`); everything the Study layer
adds — plan compilation, EngineTask construction, the streaming
generator, one ProgressEvent per cell — is bookkeeping that must stay
within **5 %** of the evaluator's own time.  The dispatch is measured
inside one streamed run, as its wall time minus the summed
``_evaluate_cell`` time of that same run, so the box's run-to-run
spread (larger than 5 % of a cell) does not enter it.  The ratio
against separate direct calls is still printed.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_study.py -q
"""

from __future__ import annotations

import time

import repro.api.study
from repro.api import Scenario, Study
from repro.api.study import _evaluate_cell
from repro.experiments import ResultCache

_BASE = Scenario(
    deployment_model="IA",
    seed=23,
    networks=2,
    routes_per_network=10,
    routers=("GF", "SLGF2"),
)
_NODES = (350, 400, 450)


def _study() -> Study:
    return Study(_BASE, nodes=_NODES)


def _time_pair(a, b, repeats: int = 5) -> tuple[float, float]:
    """Best-of-N for two rivals, measured in alternating rounds.

    Interleaving decorrelates the two timings from one-sided load
    spikes (shared CI runners): a noisy neighbour hits both rivals,
    not just the second one.
    """
    best_a = best_b = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        a()
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        b()
        best_b = min(best_b, time.perf_counter() - start)
    return best_a, best_b


def test_stream_matches_direct_calls():
    """Same scenarios either way -> identical per-cell points."""
    study = _study()
    direct = {
        cell: _evaluate_cell(scenario, study.registry)
        for cell, scenario in study.plan()
    }
    result = study.run(jobs=1, cache=ResultCache.disabled())
    assert {cell: r.point for cell, r in result.results().items()} == direct


def test_streaming_dispatch_overhead_under_5_percent(results_dir, monkeypatch):
    study = _study()
    plan = study.plan()
    # Each streamed run's (wall, summed evaluator) seconds.
    runs: list[tuple[float, float]] = []
    evaluated: list[float] = []

    def timed_cell(*args):
        start = time.perf_counter()
        try:
            return _evaluate_cell(*args)
        finally:
            evaluated.append(time.perf_counter() - start)

    monkeypatch.setattr(repro.api.study, "_evaluate_cell", timed_cell)

    def direct():
        return [
            _evaluate_cell(scenario, study.registry)
            for _, scenario in plan
        ]

    def streamed():
        evaluated.clear()
        start = time.perf_counter()
        result = study.run(jobs=1, cache=ResultCache.disabled())
        runs.append((time.perf_counter() - start, sum(evaluated)))
        return result

    direct()  # warm both paths (imports, spatial-grid caches)
    streamed()
    runs.clear()
    direct_s, stream_s = _time_pair(direct, streamed)
    # The fastest streamed run, and its own evaluator time (every cell
    # went through the timed evaluator).
    wall_s, evaluator_s = min(runs)
    assert len(evaluated) == len(plan)

    overhead = stream_s / direct_s - 1.0
    dispatch = wall_s / evaluator_s - 1.0
    lines = [
        "Study streaming dispatch vs direct evaluator calls "
        f"({len(plan)} cells, n in {_NODES})",
        f"  direct calls       : {direct_s * 1e3:8.1f} ms",
        f"  Study.run (stream) : {stream_s * 1e3:8.1f} ms "
        f"({overhead * 100:+.1f}%)",
        f"  its evaluator time : {evaluator_s * 1e3:8.1f} ms "
        f"(dispatch {dispatch * 100:+.1f}%)",
        f"  per-cell dispatch  : "
        f"{(wall_s - evaluator_s) / len(plan) * 1e6:8.1f} us",
    ]
    report = "\n".join(lines)
    print("\n" + report)
    (results_dir / "study_overhead.txt").write_text(report + "\n")

    # The bound: streaming dispatch <= 5% of the evaluator time of the
    # same run.
    assert wall_s <= evaluator_s * 1.05, report
