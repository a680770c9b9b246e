"""Served answers are bit-identical to direct Session calls.

The service is a deployment shape, not a second implementation: every
response must decode to exactly what the in-process facade returns —
under concurrency, across backends, and through topology updates.
"""

import threading
import time

import pytest

from repro._optional import load_numpy
from repro.api import RouteSet, Session
from repro.network.dynamic import DynamicTopology
from repro.network.edges import EdgeDetector
from repro.routing import RouteResult
from repro.serve import scenario_from_dict


@pytest.fixture(scope="module")
def direct(scenario_doc):
    """The reference: the same scenario, materialised in-process."""
    return Session(scenario_from_dict(scenario_doc))


class TestRoutePairsIdentity:
    def test_served_equals_direct(self, harness, scenario_doc, direct):
        created = harness.create(scenario_doc)
        status, body, _ = harness.request(
            "POST", f"/sessions/{created['session']}/route_pairs", {}
        )
        assert status == 200
        assert body["routeset"] == direct.route_pairs().to_dict()

    def test_round_trips_through_routeset(
        self, harness, scenario_doc, direct
    ):
        created = harness.create(scenario_doc)
        _, body, _ = harness.request(
            "POST",
            f"/sessions/{created['session']}/route_pairs",
            {"count": 4},
        )
        served = RouteSet.from_dict(body["routeset"])
        assert served == direct.route_pairs(count=4)

    def test_every_knob_matches(self, harness, scenario_doc, direct):
        created = harness.create(scenario_doc)
        request = {"count": 5, "routers": ["SLGF2"], "energy": True}
        _, body, _ = harness.request(
            "POST",
            f"/sessions/{created['session']}/route_pairs",
            request,
        )
        expected = direct.route_pairs(
            count=5, routers=["SLGF2"], energy=True
        )
        assert body["routeset"] == expected.to_dict()

    def test_backends_agree_over_the_wire(
        self, harness, scenario_doc, direct
    ):
        """The numpy kernel (when numpy imports) and the scalar
        executor serve the same bits; ``auto`` runs a 6-pair batch on
        the scalar executor, so the kernel is asked for by name."""
        created = harness.create(scenario_doc)
        backends = ("scalar",) + (
            ("numpy",) if load_numpy() is not None else ()
        )
        expected = direct.route_pairs(count=6).to_dict()
        for backend in backends:
            _, body, _ = harness.request(
                "POST",
                f"/sessions/{created['session']}/route_pairs",
                {"count": 6, "backend": backend},
            )
            assert body["routeset"] == expected, backend


class TestRouteIdentity:
    def test_single_route_equals_direct(
        self, harness, scenario_doc, direct
    ):
        created = harness.create(scenario_doc)
        source, destination = created["node_ids"][0], created["node_ids"][9]
        status, body, _ = harness.request(
            "POST",
            f"/sessions/{created['session']}/route",
            {"source": source, "destination": destination, "router": "GF"},
        )
        assert status == 200
        expected = direct.router("GF").route(source, destination)
        assert RouteResult.from_dict(body["result"]) == expected

    def test_concurrent_clients_are_bit_identical(
        self, harness, scenario_doc, direct
    ):
        """Micro-batched concurrent queries == sequential direct calls.

        Many threads fire interleaved route/route_pairs queries; the
        coalescer groups them into shared route_batch calls — and every
        single answer must still equal the sequential reference.
        """
        created = harness.create(scenario_doc)
        session_id = created["session"]
        node_ids = created["node_ids"]
        pairs = [
            (node_ids[i], node_ids[-(i + 1)]) for i in range(12)
        ]
        expected_routes = {
            (router, s, d): direct.router(router).route(s, d).to_dict()
            for router in ("GF", "SLGF2")
            for s, d in pairs
        }
        expected_pairs = direct.route_pairs(count=3).to_dict()
        failures: list[str] = []
        barrier = threading.Barrier(8)

        def worker(index: int) -> None:
            barrier.wait()  # maximise in-flight overlap
            router = ("GF", "SLGF2")[index % 2]
            for s, d in pairs:
                status, body, _ = harness.request(
                    "POST",
                    f"/sessions/{session_id}/route",
                    {"source": s, "destination": d, "router": router},
                )
                if status != 200:
                    failures.append(f"route {s}->{d}: {status} {body}")
                elif body["result"] != expected_routes[(router, s, d)]:
                    failures.append(f"route {s}->{d} differs ({router})")
            status, body, _ = harness.request(
                "POST",
                f"/sessions/{session_id}/route_pairs",
                {"count": 3},
            )
            if status != 200 or body["routeset"] != expected_pairs:
                failures.append(f"route_pairs differs: {status}")

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not failures, failures[:5]


class TestTopologyConsistency:
    def test_update_during_queries_is_atomic(self, harness, scenario_doc):
        """Every answer matches pre- or post-update — never a mix.

        Queries race a fail-event barrier; each response must be bit
        -identical to one of the two legitimate topologies' answers.
        """
        scenario_wire = dict(scenario_doc, seed=211)
        scenario = scenario_from_dict(scenario_wire)
        created = harness.create(scenario_wire)
        session_id = created["session"]
        node_ids = created["node_ids"]
        victims = node_ids[40:43]

        pre = Session(scenario)
        topology = DynamicTopology.from_graph(
            pre.graph,
            edge_detector=EdgeDetector(strategy="convex"),
            area=pre.scenario.area,
        )
        topology.fail_many(victims)
        post = Session.from_graph(
            topology.graph, scenario, seed=pre.instance.seed
        )

        pairs = [
            (node_ids[i], node_ids[-(i + 1)])
            for i in range(10)
            if node_ids[i] not in victims
            and node_ids[-(i + 1)] not in victims
        ]
        legitimate = {
            (s, d): {
                "pre": pre.router("GF").route(s, d).to_dict(),
                "post": post.router("GF").route(s, d).to_dict(),
            }
            for s, d in pairs
        }
        failures: list[str] = []
        barrier = threading.Barrier(5)

        def query_worker() -> None:
            barrier.wait()
            for _ in range(4):
                for s, d in pairs:
                    status, body, _ = harness.request(
                        "POST",
                        f"/sessions/{session_id}/route",
                        {"source": s, "destination": d, "router": "GF"},
                    )
                    if status != 200:
                        failures.append(f"{s}->{d}: {status}")
                    elif body["result"] not in (
                        legitimate[(s, d)]["pre"],
                        legitimate[(s, d)]["post"],
                    ):
                        failures.append(f"{s}->{d}: mixed-topology answer")

        def update_worker() -> None:
            barrier.wait()
            status, body, _ = harness.request(
                "POST",
                f"/sessions/{session_id}/topology",
                {"events": [{"op": "fail", "nodes": list(victims)}]},
            )
            if status != 200:
                failures.append(f"topology update: {status} {body}")

        threads = [threading.Thread(target=query_worker) for _ in range(4)]
        threads.append(threading.Thread(target=update_worker))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not failures, failures[:5]

        # Settled state: served answers == the post-update reference,
        # for single routes and for the sampled-pair workload alike.
        for s, d in pairs[:3]:
            _, body, _ = harness.request(
                "POST",
                f"/sessions/{session_id}/route",
                {"source": s, "destination": d, "router": "GF"},
            )
            assert body["result"] == legitimate[(s, d)]["post"]
        _, body, _ = harness.request(
            "POST", f"/sessions/{session_id}/route_pairs", {"count": 4}
        )
        assert body["routeset"] == post.route_pairs(count=4).to_dict()


class TestWithoutNumpy:
    def test_auto_degrades_to_scalar_answers(
        self, make_harness, scenario_doc, no_numpy
    ):
        """A numpy-less server serves — same bits, scalar speed."""
        server = make_harness()
        created = server.create(scenario_doc)
        _, body, _ = server.request(
            "POST",
            f"/sessions/{created['session']}/route_pairs",
            {"count": 5},
        )
        direct = Session(scenario_from_dict(scenario_doc))
        expected = direct.route_pairs(count=5, backend="scalar")
        assert body["routeset"] == expected.to_dict()

    def test_explicit_numpy_backend_answers_400(
        self, make_harness, scenario_doc, no_numpy
    ):
        server = make_harness()
        created = server.create(scenario_doc)
        status, body, _ = server.request(
            "POST",
            f"/sessions/{created['session']}/route_pairs",
            {"count": 2, "backend": "numpy"},
        )
        assert status == 400
        assert "numpy" in body["error"]

    def test_a_numpy_request_leaves_its_batch_mates_alone(
        self, make_harness, scenario_doc, no_numpy
    ):
        """The 400 is that request's alone: a plain route sharing its
        micro-batch still answers 200 with the direct result."""
        server = make_harness()
        created = server.create(scenario_doc)
        session_id = created["session"]
        source, destination = created["node_ids"][0], created["node_ids"][9]
        resident = server.resident(session_id)

        def queued():
            return server.call(lambda: sum(resident.stats.queries.values()))

        before = queued()
        server.call(resident.hold)
        answers = {}

        def send(kind, body):
            answers[kind] = server.request(
                "POST", f"/sessions/{session_id}/{kind}", body
            )

        threads = [
            threading.Thread(
                target=send,
                args=("route_pairs", {"count": 2, "backend": "numpy"}),
            ),
            threading.Thread(
                target=send,
                args=(
                    "route",
                    {
                        "source": source,
                        "destination": destination,
                        "router": "GF",
                    },
                ),
            ),
        ]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 30
        while queued() < before + 2:  # both wait for the held drain
            assert time.monotonic() < deadline, "requests never queued"
            time.sleep(0.01)
        server.call(resident.release)
        for thread in threads:
            thread.join(timeout=30)
        status, body, _ = answers["route_pairs"]
        assert status == 400
        assert "numpy" in body["error"]
        status, body, _ = answers["route"]
        assert status == 200, body
        direct = Session(scenario_from_dict(scenario_doc))
        expected = direct.router("GF").route(source, destination)
        assert RouteResult.from_dict(body["result"]) == expected
