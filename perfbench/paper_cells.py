"""paper_cells: Section 5's density sweep as a Study, timed per network.

Inputs: a ``Study`` over ``deployment_model`` {IA, FA} x ``node_count``
{400, 600, 800} on the paper's 200 m x 200 m field with r = 20 m, one
network per cell (``Scenario.seed`` 2009, network index 0), 20 pairs
through all four schemes, ``jobs=1``, a fresh empty cache directory
for every pass.  The inputs do not depend on the workload seed: the
Study derives every network and pair from ``Scenario.seed``, and
seed-drawn networks would swing the work of a pass several-fold (see
README.md).

Timed phase: whole passes over the six cells until ``seconds`` have
elapsed.  Each cell is timed from the Study's stream, between two
reference readings (see :mod:`perfbench.measure`).

Checks: every pass yields the same per-scheme delivered/hops, and a
stage-by-stage replay of the six networks (:mod:`perfbench.stages`)
routes to the same delivered/hops as the Study.  The replay is traced;
in a traced run its spans give the per-layer metrics.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time
from pathlib import Path

from perfbench import stages
from perfbench.measure import Drift, Tracer, scaled, with_self_time
from perfbench.stages import COUNTS, STAGES

MODELS = ("IA", "FA")
NODE_COUNTS = (400, 600, 800)
NETWORK_SEED = 2009
PAIRS = 20
SCHEMES = ("GF", "LGF", "SLGF", "SLGF2")


def setup(seed: int, trace: bool):
    from repro.api import Scenario, Study

    study = Study(
        Scenario(seed=NETWORK_SEED, networks=1, routes_per_network=PAIRS),
        vary={"deployment_model": MODELS, "node_count": NODE_COUNTS},
    )
    study.plan()
    return study


def _study_outcome(result) -> dict:
    """Per scheme: [routed, delivered, mean hops over delivered routes]."""
    return {
        name: [metrics.samples, metrics.delivered, metrics.hops.mean]
        for name, metrics in result.point.per_router.items()
    }


def _replay_outcome(session, routers, tracer, item) -> tuple[dict, int]:
    pairs = session.sample_pairs(PAIRS)
    outcome = {}
    hops_total = 0
    for name, router in routers.items():
        with tracer.span(f"routing.{name}", item):
            results = router.route_batch(pairs)
        delivered = [float(r.hops) for r in results if r.delivered]
        hops_total += sum(r.hops for r in results)
        outcome[name] = [
            len(results),
            len(delivered),
            sum(delivered) / len(delivered) if delivered else 0.0,
        ]
    return outcome, hops_total


def _study_pass(study, drift: Drift, workdir: Path) -> list[dict]:
    from repro.experiments.cache import ResultCache

    cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=workdir))
    cells = []
    try:
        stream = study.stream(jobs=1, cache=ResultCache(root=cache_dir))
        while True:
            try:
                (cell, result), raw, scaled_s, reference = drift.time(
                    next, stream
                )
            except StopIteration:
                break
            cells.append(
                {
                    "cell": cell.label(),
                    "raw_s": raw,
                    "scaled_s": scaled_s,
                    "reference_s": reference,
                    "outcome": _study_outcome(result),
                }
            )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return cells


def measure(study, *, seed, seconds, workdir, trace_path):
    drift = Drift()
    passes: list[list[dict]] = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        passes.append(_study_pass(study, drift, workdir))
    measured_s = time.perf_counter() - started

    expected = {cell["cell"]: cell["outcome"] for cell in passes[0]}
    failed_cells = {
        cell["cell"]
        for cells in passes
        for cell in cells
        if cell["outcome"] != expected[cell["cell"]]
    }
    mismatches = [
        f"{label}: passes disagree" for label in sorted(failed_cells)
    ]

    # Stage-by-stage replay of the same networks: the output check and,
    # in a traced run, the per-layer figures.
    tracer = Tracer()
    replay = {}
    for cell, scenario in study.plan():
        label = cell.label()
        before = drift.reading()
        with tracer.span("network", label) as span:
            session, routers = stages.materialise(scenario, 0, tracer, label)
            outcome, hops = _replay_outcome(session, routers, tracer, label)
        reference = (before + drift.reading()) / 2
        replay[label] = {
            "reference_s": reference,
            "span": span["id"],
            "hops": hops,
        }
        if outcome != expected[label]:
            mismatches.append(f"{label}: replay differs from the Study")
            failed_cells.add(label)

    attempted = sum(len(cells) for cells in passes)
    failed = sum(
        1 for cells in passes for cell in cells if cell["cell"] in failed_cells
    )
    counts = [v for outcome in expected.values() for v in outcome.values()]
    routed = sum(v[0] for v in counts)
    delivered = sum(v[1] for v in counts)
    per_pass_ms = [
        1e3 * sum(cell["scaled_s"] for cell in cells) / len(cells)
        for cells in passes
    ]
    document = {
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches,
        "answer_ms": statistics.median(per_pass_ms),
        "delivery": [delivered, routed],
        "measured_s": measured_s,
        "passes": passes,
        "per_pass_ms": per_pass_ms,
        "reference_readings_s": drift.readings,
    }
    if trace_path is not None:
        document["per_layer"] = _per_layer(tracer, replay, passes, trace_path)
    return document


def _per_layer(tracer: Tracer, replay: dict, passes, trace_path: Path) -> dict:
    """Per-network medians of the replay's stage spans (reference ms)."""
    spans = with_self_time(tracer.spans)
    untraced = {
        label: statistics.median(
            cell["scaled_s"]
            for cells in passes
            for cell in cells
            if cell["cell"] == label
        )
        for label in replay
    }
    per_network: dict[str, dict[str, float]] = {}
    for label, info in replay.items():
        reference = info["reference_s"]
        row = {f"{name}_ms": 0.0 for name in STAGES}
        row.update({f"routing.{name}_ms": 0.0 for name in SCHEMES})
        stage_sum = 0.0
        for span in spans:
            if span["parent"] != info["span"]:
                continue
            value = scaled(span["self"], reference)
            stage_sum += value
            row[f"{span['name']}_ms"] = 1e3 * value
        network = spans[info["span"]]
        row["traced_total_ms"] = 1e3 * scaled(network["duration"], reference)
        row["untraced_ms"] = 1e3 * untraced[label]
        row["experiments.overhead_ms"] = 1e3 * (untraced[label] - stage_sum)
        row["routing.hops"] = float(info["hops"])
        for count in tracer.counts:
            if count["item"] == label:
                row[count["name"]] = float(count["value"])
        per_network[label] = row
    names = (
        [f"{name}_ms" for name in STAGES]
        + [f"routing.{name}_ms" for name in SCHEMES]
        + list(COUNTS)
        + ["routing.hops", "experiments.overhead_ms"]
    )
    metrics = {
        name: statistics.median(
            row.get(name, 0.0) for row in per_network.values()
        )
        for name in names
    }
    tracer.write(
        trace_path,
        workload="paper_cells",
        unit="per-network medians in reference milliseconds",
        untraced_total_ms=sum(r["untraced_ms"] for r in per_network.values()),
        traced_total_ms=sum(
            r["traced_total_ms"] for r in per_network.values()
        ),
        per_network=per_network,
        metrics=metrics,
    )
    return metrics
