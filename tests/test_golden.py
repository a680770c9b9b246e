"""Golden regression test: exact behaviour pinned on a fixed network.

Everything in the pipeline is seeded and deterministic, so the routing
outcome on a fixed network is an exact regression signature.  If an
intentional algorithm change breaks this test, recompute the goldens
(the generating script is embedded in the fixtures below) and record
the change, with before/after numbers, in docs/REPRODUCING.md; an
*unintentional* failure means routing behaviour drifted.
"""

import random

import pytest

from repro.core import InformationModel
from repro.geometry import Rect
from repro.network import (
    EdgeDetector,
    RectObstacle,
    UniformDeployment,
    build_unit_disk_graph,
)
from repro.protocols import build_hole_boundaries
from repro.routing import GreedyRouter, LgfRouter, SlgfRouter, Slgf2Router

PAIRS = [
    (57, 12),
    (140, 125),
    (114, 71),
    (52, 279),
    (44, 216),
    (16, 15),
    (47, 111),
    (119, 258),
]

# (delivered, hops, length rounded to 0.1) per pair, per router.
GOLDEN = {
    "GF": [
        (True, 9, 141.2),
        (True, 21, 314.3),
        (True, 8, 126.7),
        (True, 5, 84.2),
        (True, 6, 90.3),
        (True, 4, 60.7),
        (True, 11, 179.6),
        (True, 10, 157.8),
    ],
    "LGF": [
        (True, 27, 389.2),
        (True, 27, 394.1),
        (True, 39, 531.1),
        (True, 5, 84.2),
        (True, 7, 97.0),
        (True, 4, 59.4),
        (True, 12, 181.2),
        (True, 30, 407.8),
    ],
    "SLGF": [
        (True, 27, 388.8),
        (True, 18, 278.9),
        (True, 39, 531.1),
        (True, 5, 84.2),
        (True, 7, 92.2),
        (True, 4, 59.4),
        (True, 13, 176.9),
        (True, 30, 400.6),
    ],
    "SLGF2": [
        (True, 10, 174.7),
        (True, 18, 278.9),
        (True, 20, 283.9),
        (True, 5, 84.2),
        (True, 7, 92.2),
        (True, 4, 59.4),
        (True, 20, 196.6),
        (True, 18, 258.9),
    ],
}

GOLDEN_UNSAFE_COUNTS = [146, 120, 107, 140]
GOLDEN_ROUNDS = 17


@pytest.fixture(scope="module")
def fixture_network():
    rng = random.Random(20090622)  # the workshop's year+date, fixed
    obstacle = RectObstacle(Rect(60, 60, 140, 120))
    positions = UniformDeployment(
        Rect(0, 0, 200, 200), (obstacle,)
    ).sample(300, rng)
    g = build_unit_disk_graph(positions, 20.0)
    g = EdgeDetector(strategy="convex").apply(g)
    model = InformationModel.build(g)
    return g, model


class TestGolden:
    def test_network_signature(self, fixture_network):
        g, model = fixture_network
        assert g.is_connected()
        assert g.edge_count() == 1418
        assert [
            len(model.safety.unsafe_nodes(t)) for t in (1, 2, 3, 4)
        ] == GOLDEN_UNSAFE_COUNTS
        assert model.safety.rounds == GOLDEN_ROUNDS

    @pytest.mark.parametrize("router_name", sorted(GOLDEN))
    def test_routing_signature(self, fixture_network, router_name):
        g, model = fixture_network
        if router_name == "GF":
            router = GreedyRouter(
                g,
                recovery="boundhole",
                hole_boundaries=build_hole_boundaries(g),
            )
        elif router_name == "LGF":
            router = LgfRouter(g, candidate_scope="quadrant")
        elif router_name == "SLGF":
            router = SlgfRouter(model, candidate_scope="quadrant")
        else:
            router = Slgf2Router(model)
        for (s, d), (delivered, hops, length) in zip(
            PAIRS, GOLDEN[router_name]
        ):
            result = router.route(s, d)
            assert result.delivered == delivered, (router_name, s, d)
            assert result.hops == hops, (router_name, s, d)
            assert round(result.length, 1) == pytest.approx(
                length, abs=0.05
            ), (router_name, s, d)
