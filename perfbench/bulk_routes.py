"""bulk_routes: large route batches on two prepared paper-scale networks.

Inputs: one IA and one FA network at n = 800 (``Scenario.seed`` 2009,
network index 0, the paper's field and radius), prepared in set-up
stage by stage — construction, safety, shape, BOUNDHOLE, the four
routers — plus one ``WARM_UP``-pair warm-up batch per scheme.  The
timed phase routes successive batches of ``BATCH`` fresh pairs, drawn
from the workload seed over each network's largest component, through
``Router.route_batch`` on the default backend: per pass, one batch per
scheme and network.

Checks: every delivered path is an edge walk from its source to its
destination, and the first pass's batches are identical under
``backend="scalar"``.
"""

from __future__ import annotations

import random
import statistics
import time
from types import SimpleNamespace

from perfbench import stages
from perfbench.measure import Drift, NullTracer, Tracer, scaled, with_self_time

MODELS = ("IA", "FA")
NODE_COUNT = 800
NETWORK_SEED = 2009
BATCH = 2000
#: Pairs of the set-up's warm-up batch: enough to build every lazy
#: structure a scheme's first batch builds.
WARM_UP = 200
SCHEMES = ("GF", "LGF", "SLGF", "SLGF2")
SETUP_STAGES = stages.STAGES + ("routing.first_batch",)


def _draw(rng: random.Random, pool: list, count: int) -> list:
    return [tuple(rng.sample(pool, 2)) for _ in range(count)]


def setup(seed: int, trace: bool):
    from repro.api import Scenario

    tracer = Tracer() if trace else NullTracer()
    drift = Drift()
    warm_rng = random.Random("bulk_routes/warm-up")
    networks = []
    for model in MODELS:
        label = f"{model}-{NODE_COUNT}"
        scenario = Scenario(
            deployment_model=model, node_count=NODE_COUNT, seed=NETWORK_SEED
        )
        before = drift.reading()
        with tracer.span("setup", label):
            session, routers = stages.materialise(scenario, 0, tracer, label)
            graph = session.graph
            pool = sorted(graph.connected_components()[0])
            with tracer.span("routing.first_batch", label):
                pairs = _draw(warm_rng, pool, WARM_UP)
                for router in routers.values():
                    router.route_batch(pairs)
        networks.append(
            SimpleNamespace(
                label=label,
                graph=graph,
                routers=routers,
                pool=pool,
                setup_reference_s=(before + drift.reading()) / 2,
            )
        )
    return SimpleNamespace(networks=networks, tracer=tracer)


def _walk_errors(adjacency: dict, results) -> int:
    """Delivered routes whose path is not an edge walk from s to d."""
    bad = 0
    for result in results:
        if not result.delivered:
            continue
        path = result.path
        if (
            not path
            or path[0] != result.source
            or path[-1] != result.destination
            or any(b not in adjacency[a] for a, b in zip(path, path[1:]))
        ):
            bad += 1
    return bad


def measure(state, *, seed, seconds, workdir, trace_path):
    tracer = state.tracer
    rng = random.Random(f"bulk_routes/{seed}")
    drift = Drift()
    adjacency = {
        net.label: {u: set(net.graph.neighbors(u)) for u in net.graph.node_ids}
        for net in state.networks
    }
    passes: list[list[dict]] = []
    first_pass: list = []
    mismatches: list[str] = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        # A traced run leaves every other pass untraced, so the trace
        # file can set traced against untraced batch time.
        spans = tracer if len(passes) % 2 else NullTracer()
        batches = []
        for net in state.networks:
            pairs = _draw(rng, net.pool, BATCH)
            for name, router in net.routers.items():

                def call(router=router, name=name, label=net.label):
                    with spans.span(f"routing.{name}.batch", label):
                        return router.route_batch(pairs)

                results, raw, scaled_s, reference = drift.time(call)
                errors = _walk_errors(adjacency[net.label], results)
                if errors:
                    mismatches.append(
                        f"{net.label} {name}: {errors} delivered path(s) "
                        "are not edge walks from source to destination"
                    )
                if not passes:
                    first_pass.append((net, name, pairs, results))
                batches.append(
                    {
                        "network": net.label,
                        "scheme": name,
                        "raw_s": raw,
                        "scaled_s": scaled_s,
                        "reference_s": reference,
                        "routes": len(results),
                        "delivered": sum(r.delivered for r in results),
                        "hops": sum(r.hops for r in results),
                        "failed": bool(errors),
                        "traced": isinstance(spans, Tracer),
                    }
                )
        passes.append(batches)
    measured_s = time.perf_counter() - started

    for index, (net, name, pairs, results) in enumerate(first_pass):
        if net.routers[name].route_batch(pairs, backend="scalar") != results:
            mismatches.append(
                f"{net.label} {name}: auto and scalar batches differ"
            )
            passes[0][index]["failed"] = True

    batches = [batch for batches in passes for batch in batches]
    routes = sum(b["routes"] for b in batches)
    per_pass_ms = [
        1e3 * sum(b["scaled_s"] for b in batches) / len(batches)
        for batches in passes
    ]
    document = {
        "attempted": len(batches),
        "failed": sum(b["failed"] for b in batches),
        "mismatches": mismatches,
        "answer_ms": statistics.median(per_pass_ms),
        "delivery": [sum(b["delivered"] for b in batches), routes],
        "routes_per_s": routes / sum(b["scaled_s"] for b in batches),
        "measured_s": measured_s,
        "batch_pairs": BATCH,
        "passes": passes,
        "per_pass_ms": per_pass_ms,
        "reference_readings_s": drift.readings,
    }
    if trace_path is not None:
        document["per_layer"] = _per_layer(state, batches, trace_path)
    return document


def _per_layer(state, batches: list[dict], trace_path) -> dict:
    metrics = {
        f"routing.{name}.batch_ms": 1e3
        * statistics.median(
            b["scaled_s"] for b in batches if b["scheme"] == name
        )
        for name in SCHEMES
    }
    metrics["routing.hops_per_route"] = sum(b["hops"] for b in batches) / sum(
        b["routes"] for b in batches
    )
    # Set-up stages and BOUNDHOLE counts: medians over the two networks.
    spans = with_self_time(state.tracer.spans)
    for stage in SETUP_STAGES:
        values = []
        for net in state.networks:
            total = sum(
                span["self"]
                for span in spans
                if span["name"] == stage and span["item"] == net.label
            )
            values.append(1e3 * scaled(total, net.setup_reference_s))
        metrics[f"{stage}_ms"] = statistics.median(values)
    for name in stages.COUNTS:
        metrics[name] = statistics.median(
            float(c["value"]) for c in state.tracer.counts if c["name"] == name
        )
    traced = [b["scaled_s"] for b in batches if b["traced"]]
    untraced = [b["scaled_s"] for b in batches if not b["traced"]]
    state.tracer.write(
        trace_path,
        workload="bulk_routes",
        unit="reference milliseconds",
        traced_batch_ms=1e3 * statistics.fmean(traced) if traced else None,
        untraced_batch_ms=1e3 * statistics.fmean(untraced),
        metrics=metrics,
        batches=batches,
    )
    return metrics
