"""Shared fixtures for the benchmark suite.

The figure benches share one evaluation sweep per deployment model
(running it once instead of once per figure), default to the quick
configuration, and switch to the paper-scale sweep when ``REPRO_FULL=1``
is set.  Regenerated tables/CSVs are written under
``benchmarks/results/`` so a benchmark run leaves the paper's numbers
on disk.

The shared sweeps deliberately go through the default result cache
(``.repro_cache/``): running ``bench_fig5.py`` then ``bench_fig6.py``
in separate pytest invocations computes the sweep once, which at
paper scale is the difference between minutes and milliseconds.  The
cache key includes a digest of the package source, so it can never
serve results from edited code; set ``REPRO_CACHE=0`` to force fresh
computation (as CI does).  Note the *timed* portions of the benches
never touch this cache — only the session fixtures do.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from repro.api import Scenario, Session, Study
from repro.experiments import active_config
from repro.network import (
    EdgeDetector,
    build_unit_disk_graph,
    deploy_forbidden_area_model,
)


def _density_sweep(config, model):
    """One model's classic density sweep via the Study pipeline."""
    return (
        Study.from_config(config, (model,)).run().sweep_result(model)
    )


@pytest.fixture(scope="session")
def config():
    return active_config()


@pytest.fixture(scope="session")
def ia_sweep(config):
    return _density_sweep(config, "IA")


@pytest.fixture(scope="session")
def fa_sweep(config):
    return _density_sweep(config, "FA")


@pytest.fixture(scope="session")
def results_dir():
    path = Path(__file__).parent / "results"
    path.mkdir(exist_ok=True)
    return path


@pytest.fixture(scope="session")
def fa500():
    """FA n=500 network ``seed`` as a Session: the fixed workload of
    the ablation and phase benches (pairs from ``sample_pairs``, whose
    stream is seeded with ``seed + 1``)."""
    scenario = Scenario(deployment_model="FA", node_count=500)

    def build(seed: int) -> Session:
        deployment = deploy_forbidden_area_model(
            scenario.node_count, scenario.area, random.Random(seed)
        )
        graph = build_unit_disk_graph(
            list(deployment.positions), scenario.radius
        )
        graph = EdgeDetector(strategy="convex").apply(graph)
        return Session.from_graph(graph, scenario, seed=seed)

    return build
