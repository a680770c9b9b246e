"""Bounded intake, deadlines, eviction policies, clone sharing."""

import threading
import time

import pytest


class TestBackpressure:
    def test_full_queue_answers_503_with_retry_after(
        self, make_harness, scenario_doc
    ):
        server = make_harness(queue_depth=2, retry_after=2.0)
        created = server.create(scenario_doc)
        session_id = created["session"]
        resident = server.resident(session_id)
        server.call(resident.hold)  # drain pauses; the queue can only fill
        try:
            statuses: list[tuple[int, dict]] = []
            lock = threading.Lock()

            def fire() -> None:
                status, _, headers = server.request(
                    "POST",
                    f"/sessions/{session_id}/route_pairs",
                    {"count": 1, "timeout_ms": 3000},
                    timeout=30,
                )
                with lock:
                    statuses.append((status, headers))

            # queue_depth=2 (+1 the drain may already hold): enough
            # requests that at least one must bounce.
            threads = [threading.Thread(target=fire) for _ in range(6)]
            for thread in threads:
                thread.start()
            deadline = time.time() + 10
            while time.time() < deadline:
                with lock:
                    if any(s == 503 for s, _ in statuses):
                        break
                time.sleep(0.02)
            with lock:
                rejected = [h for s, h in statuses if s == 503]
            assert rejected, f"no 503 seen: {[s for s, _ in statuses]}"
            assert rejected[0].get("Retry-After") == "2"
        finally:
            server.call(resident.release)
            for thread in threads:
                thread.join(timeout=30)
        # Rejections are counted, and the survivors were answered.
        _, stats, _ = server.request("GET", "/stats")
        per_session = stats["sessions"][session_id]
        assert per_session["rejected"] >= 1

    def test_nothing_is_dropped_silently(self, make_harness, scenario_doc):
        """Every request gets exactly one answer: 200, 503 or 504."""
        server = make_harness(queue_depth=2)
        created = server.create(scenario_doc)
        session_id = created["session"]
        answers: list[int] = []
        lock = threading.Lock()

        def fire() -> None:
            status, _, _ = server.request(
                "POST",
                f"/sessions/{session_id}/route_pairs",
                {"count": 1, "timeout_ms": 10_000},
                timeout=30,
            )
            with lock:
                answers.append(status)

        threads = [threading.Thread(target=fire) for _ in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len(answers) == 12
        assert set(answers) <= {200, 503, 504}
        assert 200 in answers


class TestTimeouts:
    def test_held_request_answers_504(self, make_harness, scenario_doc):
        server = make_harness()
        created = server.create(scenario_doc)
        session_id = created["session"]
        resident = server.resident(session_id)
        server.call(resident.hold)
        try:
            started = time.perf_counter()
            status, body, _ = server.request(
                "POST",
                f"/sessions/{session_id}/route_pairs",
                {"count": 1, "timeout_ms": 200},
                timeout=30,
            )
            elapsed = time.perf_counter() - started
        finally:
            server.call(resident.release)
        assert status == 504
        assert "timed out" in body["error"]
        assert elapsed < 10  # answered at the deadline, not at release
        # The slow tail reaches /stats: the 504 is in the histogram.
        _, stats, _ = server.request("GET", "/stats")
        latency = stats["sessions"][session_id]["latency"]
        assert latency["count"] == 1
        assert latency["max_ms"] >= 200

    def test_expired_work_is_not_routed(self, make_harness, scenario_doc):
        """A request that times out while queued is counted, and the
        drain discards it instead of routing into the void."""
        server = make_harness()
        created = server.create(scenario_doc)
        session_id = created["session"]
        resident = server.resident(session_id)
        server.call(resident.hold)
        try:
            status, _, _ = server.request(
                "POST",
                f"/sessions/{session_id}/route_pairs",
                {"count": 1, "timeout_ms": 100},
                timeout=30,
            )
            assert status == 504
        finally:
            server.call(resident.release)
        deadline = time.time() + 10
        while time.time() < deadline:
            if server.resident(session_id).stats.timeouts >= 1:
                break
            time.sleep(0.02)
        assert server.resident(session_id).stats.timeouts >= 1


class TestEvictionPolicies:
    def test_idle_sessions_are_reaped(self, make_harness, scenario_doc):
        server = make_harness(idle_ttl=0.3)
        created = server.create(dict(scenario_doc, seed=301))
        session_id = created["session"]
        # Poll the listing (which does not touch last_active) until
        # the reaper has taken the idle session.
        deadline = time.time() + 10
        while time.time() < deadline:
            _, listing, _ = server.request("GET", "/sessions")
            if not any(
                entry["session"] == session_id
                for entry in listing["sessions"]
            ):
                break
            time.sleep(0.1)
        status, _, _ = server.request(
            "POST", f"/sessions/{session_id}/route_pairs", {"count": 1}
        )
        assert status == 404

    def test_lru_eviction_beyond_capacity(self, make_harness, scenario_doc):
        server = make_harness(max_sessions=2)
        first = server.create(dict(scenario_doc, seed=311))["session"]
        second = server.create(dict(scenario_doc, seed=312))["session"]
        # Touch the first so the *second* is the LRU victim.
        server.request(
            "POST", f"/sessions/{first}/route_pairs", {"count": 1}
        )
        third = server.create(dict(scenario_doc, seed=313))["session"]
        _, listing, _ = server.request("GET", "/sessions")
        resident_ids = {entry["session"] for entry in listing["sessions"]}
        assert resident_ids == {first, third}
        status, _, _ = server.request(
            "POST", f"/sessions/{second}/route_pairs", {"count": 1}
        )
        assert status == 404


class TestCloneSharing:
    def test_routing_side_variant_shares_the_network(
        self, make_harness, scenario_doc
    ):
        """Same network-side fields, different routing side: the second
        resident clones the first's materialised instance (O(1) load)
        — and still answers bit-identically to a fresh direct build."""
        from repro.api import Session
        from repro.serve import scenario_from_dict

        server = make_harness()
        base = dict(scenario_doc, seed=321)
        variant = dict(base, routers=["SLGF2"], routes_per_network=9)
        first = server.create(base)
        second = server.create(variant)
        assert second["created"] is True
        assert second["session"] != first["session"]

        shared = server.call(
            lambda: (
                server.server.sessions.get(first["session"]).session.instance
                is server.server.sessions.get(
                    second["session"]
                ).session.instance
            )
        )
        assert shared, "clone did not share the materialised instance"

        _, body, _ = server.request(
            "POST",
            f"/sessions/{second['session']}/route_pairs",
            {},
        )
        direct = Session(scenario_from_dict(variant))
        assert body["routeset"] == direct.route_pairs().to_dict()

    def test_touched_topology_is_never_shared(
        self, make_harness, scenario_doc
    ):
        """After a topology update, the resident's network is live
        state — a new variant must materialise its own."""
        server = make_harness()
        base = dict(scenario_doc, seed=331)
        first = server.create(base)
        victim = first["node_ids"][5]
        server.request(
            "POST",
            f"/sessions/{first['session']}/topology",
            {"events": [{"op": "fail", "nodes": [victim]}]},
        )
        variant = dict(base, routers=["SLGF2"])
        second = server.create(variant)
        shared = server.call(
            lambda: (
                server.server.sessions.get(first["session"]).session.instance
                is server.server.sessions.get(
                    second["session"]
                ).session.instance
            )
        )
        assert not shared
        # And the variant answers on the *pristine* network.
        assert second["nodes"] == scenario_doc["node_count"]
