"""The drain's batching policy and what eviction answers.

These tests drive a :class:`ResidentSession` on a private event loop
and count loop iterations, never wall time.  The policy is "dispatch
the moment the drain is free", so what they pin is which requests
share a batch, in what order batches run, and that nothing the drain
holds is left unanswered.
"""

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.api import Session
from repro.network.dynamic import DynamicTopology
from repro.network.edges import EdgeDetector
from repro.serve import (
    ResidentSession,
    WireError,
    scenario_from_dict,
    topology_events_from_dict,
)


def _run(scenario_doc, body, **options):
    """Run ``body(resident)`` on a fresh loop against a started resident.

    The drain gets one loop iteration to reach its queue before
    ``body`` runs; the resident is closed afterwards either way.
    """
    options = dict(queue_depth=64, max_batch=64, retry_after=1.0) | options

    async def main():
        with ThreadPoolExecutor(max_workers=1) as executor:
            resident = ResidentSession(
                "ab" * 8,
                Session(scenario_from_dict(scenario_doc)),
                executor=executor,
                **options,
            )
            resident.start()
            await asyncio.sleep(0)
            try:
                return await body(resident)
            finally:
                await resident.close()

    return asyncio.run(main())


def _spy(resident) -> list[list[str]]:
    """Record every dispatched batch as the kinds of its items."""
    batches: list[list[str]] = []
    execute, apply = resident._execute_batch, resident._apply_topology

    def execute_batch(batch):
        batches.append([work.kind for work in batch])
        execute(batch)

    def apply_topology(work):
        batches.append([work.kind])
        apply(work)

    resident._execute_batch = execute_batch
    resident._apply_topology = apply_topology
    return batches


def _read(source, destination):
    return {"source": source, "destination": destination, "router": "GF"}


def _assert_evicted(future):
    assert future.done(), "left unanswered by the eviction"
    error = future.exception()
    assert isinstance(error, WireError) and error.status == 409, error


class TestDrainPolicy:
    def test_a_lone_request_is_dispatched_within_one_loop_iteration(
        self, scenario_doc
    ):
        async def body(resident):
            ids = resident.node_ids
            future = resident.submit("route", _read(ids[0], ids[9]), None)
            await asyncio.sleep(0)
            assert resident.stats.batches == 1
            await future

        _run(scenario_doc, body)

    def test_work_queued_while_the_drain_is_busy_forms_the_next_batch(
        self, scenario_doc
    ):
        async def body(resident):
            batches = _spy(resident)
            ids = resident.node_ids
            resident.hold()
            futures = [
                resident.submit("route", _read(ids[i], ids[-(i + 1)]), None)
                for i in range(7)
            ]
            await asyncio.sleep(0)  # the drain takes one, then waits
            resident.release()
            await asyncio.gather(*futures)
            assert [len(batch) for batch in batches] == [3, 3, 1]

        _run(scenario_doc, body, max_batch=3)

    def test_a_write_splits_the_queued_reads(self, scenario_doc):
        scenario = scenario_from_dict(scenario_doc)
        pre = Session(scenario)
        ids = pre.graph.node_ids
        pairs = [(ids[i], ids[-(i + 1)]) for i in range(3)]
        # Fail two relays of the first pair's route, so that the write
        # changes at least one answer.
        victims = list(pre.router("GF").route(*pairs[0]).path[1:3])
        assert len(victims) == 2
        topology = DynamicTopology.from_graph(
            pre.graph,
            edge_detector=EdgeDetector(strategy="convex"),
            area=scenario.area,
        )
        topology.fail_many(victims)
        post = Session.from_graph(
            topology.graph, scenario, seed=pre.instance.seed
        )
        expected = {
            "pre": [pre.router("GF").route(*p).to_dict() for p in pairs],
            "post": [post.router("GF").route(*p).to_dict() for p in pairs],
        }
        assert expected["pre"] != expected["post"]
        events = topology_events_from_dict(
            {"events": [{"op": "fail", "nodes": victims}]}
        )

        async def body(resident):
            batches = _spy(resident)
            resident.hold()
            before = [resident.submit("route", _read(*p), None) for p in pairs]
            write = resident.submit("topology", {"events": events}, None)
            after = [resident.submit("route", _read(*p), None) for p in pairs]
            await asyncio.sleep(0)
            resident.release()
            answers = await asyncio.gather(*before, write, *after)
            assert batches == [["route"] * 3, ["topology"], ["route"] * 3]
            assert answers[3]["nodes_down"] == 2
            assert [a["result"] for a in answers[:3]] == expected["pre"]
            assert [a["result"] for a in answers[4:]] == expected["post"]

        _run(scenario_doc, body)


class TestEviction:
    """``close()`` answers 409 at once for the work in the drain's
    hands, not just for what is still queued."""

    def test_a_held_item_answers_409(self, scenario_doc):
        async def body(resident):
            ids = resident.node_ids
            resident.hold()
            future = resident.submit("route", _read(ids[0], ids[9]), None)
            await asyncio.sleep(0)  # the drain takes it, then waits
            assert resident._queue.empty()
            await resident.close()
            _assert_evicted(future)

        _run(scenario_doc, body)

    def test_a_write_carried_behind_a_running_batch_answers_409(
        self, scenario_doc
    ):
        entered, gate = threading.Event(), threading.Event()

        async def body(resident):
            execute = resident._execute_batch

            def gated(batch):
                entered.set()
                assert gate.wait(30)
                execute(batch)

            resident._execute_batch = gated
            victim = resident.node_ids[5]
            events = topology_events_from_dict(
                {"events": [{"op": "fail", "nodes": [victim]}]}
            )
            resident.hold()
            read = resident.submit("route_pairs", {"count": 2}, None)
            write = resident.submit("topology", {"events": events}, None)
            await asyncio.sleep(0)  # the drain takes the read, then waits
            resident.release()
            # The read's batch runs; the drain carries the write.
            assert await asyncio.to_thread(entered.wait, 30)
            assert resident._queue.empty()
            try:
                await resident.close()
            finally:
                gate.set()
            _assert_evicted(write)
            _assert_evicted(read)

        _run(scenario_doc, body)

