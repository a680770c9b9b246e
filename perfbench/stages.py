"""One network, stage by stage, through the package's public calls.

The traced replays of every workload build their networks here, so
each construction layer gets its own span: deploy, unit-disk build
(with convex edge detection), Gabriel planarization, safety, shape,
BOUNDHOLE and the router registry.  The result is the network a
:class:`repro.api.Session` of the same scenario and network index
materialises; the workloads' output checks compare the two.
"""

from __future__ import annotations

import random
from types import SimpleNamespace


#: Span names of the construction stages, in pipeline order, and the
#: BOUNDHOLE counts recorded beside them.
STAGES = (
    "network.deploy",
    "network.build",
    "network.planarize",
    "core.safety",
    "core.shape",
    "protocols.boundhole",
    "api.routers",
)
COUNTS = (
    "protocols.boundhole.stuck",
    "protocols.boundhole.walks",
    "protocols.boundhole.closed_share",
)


def network_seed(scenario, index: int) -> int:
    """The Study's per-network seed for network ``index`` of a scenario.

    Written out here rather than imported from a private helper; a
    drift between the two shows as a paper_cells output mismatch.
    """
    key = (
        f"{scenario.seed}/{scenario.deployment_model}/"
        f"{scenario.node_count}/{index}"
    )
    return random.Random(key).getrandbits(63)


def materialise(scenario, index: int, tracer, item=None):
    """Build network ``index`` of ``scenario`` with one span per stage.

    Returns ``(session, routers)``: a :class:`repro.api.Session` over
    the built graph (the pair stream of the Study's network) and the
    registry-built routers it holds.  BOUNDHOLE runs only when a
    selected scheme needs hole boundaries (GF).
    """
    from repro.api import DynamicTopology, Session, default_registry
    from repro.core.model import InformationModel
    from repro.core.safety import compute_safety
    from repro.core.shape import compute_shapes
    from repro.network.deployment import (
        deploy_forbidden_area_model,
        deploy_uniform_model,
    )
    from repro.network.edges import EdgeDetector
    from repro.protocols.boundhole import (
        build_hole_boundaries,
        tent_stuck_nodes,
    )

    seed = network_seed(scenario, index)
    rng = random.Random(seed)
    with tracer.span("network.deploy", item):
        if scenario.deployment_model == "FA":
            deployment = deploy_forbidden_area_model(
                scenario.node_count,
                scenario.area,
                rng,
                obstacle_count=scenario.obstacle_count,
                min_obstacle_size=scenario.min_obstacle_size,
                max_obstacle_size=scenario.max_obstacle_size,
            )
        else:
            deployment = deploy_uniform_model(
                scenario.node_count, scenario.area, rng
            )
        positions = list(deployment.positions)
    with tracer.span("network.build", item):
        topology = DynamicTopology(
            positions,
            scenario.radius,
            edge_detector=EdgeDetector(strategy="convex"),
        )
        graph = topology.graph
    with tracer.span("network.planarize", item):
        graph.core.planar_adjacency("gabriel")
    with tracer.span("core.safety", item):
        safety = compute_safety(graph)
    with tracer.span("core.shape", item):
        shapes = compute_shapes(safety)
    names = scenario.routers or default_registry.names()
    boundaries = None
    if "GF" in names:
        with tracer.span("protocols.boundhole", item):
            boundaries = build_hole_boundaries(graph)
        if tracer.recording:
            # Each stuck node on no closed boundary was walked once and
            # failed; every closed boundary is one successful walk.
            stuck = tent_stuck_nodes(graph)
            failed = len(stuck - boundaries.nodes_on_boundaries())
            walks = len(boundaries) + failed
            tracer.count("protocols.boundhole.stuck", len(stuck), item)
            tracer.count("protocols.boundhole.walks", walks, item)
            tracer.count(
                "protocols.boundhole.closed_share",
                len(boundaries) / walks if walks else 1.0,
                item,
            )
    instance = SimpleNamespace(
        graph=graph,
        model=InformationModel(graph=graph, safety=safety, shapes=shapes),
        boundaries=boundaries,
        deployment_model=scenario.deployment_model,
        seed=seed,
    )
    with tracer.span("api.routers", item):
        routers = default_registry.build(
            instance,
            names=scenario.routers or None,
            options=scenario.router_options,
        )
    session = Session.from_graph(graph, scenario, seed=seed, routers=routers)
    return session, routers
