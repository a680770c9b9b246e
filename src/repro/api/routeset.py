"""Route collections with lazy aggregate metrics.

A :class:`RouteSet` is what the Session facade hands back: every
individual :class:`~repro.routing.base.RouteResult`, grouped per
router in routing order, with the aggregates the paper reports —
delivery ratio, hop/length/energy summaries — computed lazily and
cached on first access.

It also closes the serialisation loop: ``to_dicts`` / ``from_dicts``
round-trip every route (phases and failure reasons included) through
plain JSON, so exports and the report layer stop hand-rolling their
own encodings.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from repro.analysis.stats import Summary, summarize
from repro.experiments.sweep import PointResult, RouterPointMetrics
from repro.network.channel import Transmission
from repro.routing.base import RouteResult

__all__ = ["RouteSet", "RouterAggregate"]


class RouterAggregate:
    """Lazy per-router summary over one RouteSet's routes.

    Hop and length statistics are over *delivered* routes only (the
    paper reports path metrics; failures surface via
    :attr:`delivery_rate`), as in
    :class:`~repro.experiments.sweep.RouterPointMetrics`, which
    :meth:`RouteSet.point_result` freezes from these aggregates.
    Energy is summarised over delivered routes too, when the set
    carries energies.
    """

    def __init__(
        self,
        router: str,
        results: list[RouteResult],
        energies: "list[float | None]",
        transmissions: "list[Transmission | None] | None" = None,
    ) -> None:
        self.router = router
        # Snapshot the lists: an aggregate is a consistent view of the
        # set at creation time, never a half-cached mix of before and
        # after a later add()/merge().
        self._results = list(results)
        self._energies = list(energies)  # parallel; None = unmeasured
        # Parallel channel accounting; None = perfect-link route.
        self._transmissions = (
            list(transmissions)
            if transmissions is not None
            else [None] * len(self._results)
        )
        self._cache: dict[str, object] = {}

    @property
    def samples(self) -> int:
        return len(self._results)

    @property
    def delivered(self) -> int:
        return sum(1 for r in self._results if r.delivered)

    @property
    def delivery_rate(self) -> float:
        return self.delivered / self.samples if self.samples else 0.0

    def _summary(self, key: str, values: list[float]) -> Summary:
        if key not in self._cache:
            self._cache[key] = summarize(values or [0.0])
        return self._cache[key]  # type: ignore[return-value]

    @property
    def hops(self) -> Summary:
        return self._summary(
            "hops",
            [float(r.hops) for r in self._results if r.delivered],
        )

    @property
    def length(self) -> Summary:
        return self._summary(
            "length", [r.length for r in self._results if r.delivered]
        )

    @property
    def energy(self) -> Summary:
        """Radio energy per delivered route (J); zeros when unmeasured.

        ``_energies`` is index-aligned with ``_results`` (``None`` for
        routes collected without energy), so mixed sets aggregate only
        the measured routes — never a mispaired value.
        """
        return self._summary(
            "energy",
            [
                e
                for r, e in zip(self._results, self._energies)
                if r.delivered and e is not None
            ],
        )

    # -- channel/retransmission aggregates (lossy scenarios) -----------

    @property
    def channel_delivered(self) -> int:
        """Routes delivered end to end: routing found the destination
        *and* every hop survived the channel.  Equals :attr:`delivered`
        for perfect-link routes (no transmission record)."""
        return sum(
            1
            for r, t in zip(self._results, self._transmissions)
            if r.delivered and (t is None or t.delivered)
        )

    @property
    def channel_delivery_rate(self) -> float:
        return self.channel_delivered / self.samples if self.samples else 0.0

    @property
    def retransmits(self) -> Summary:
        """Retransmissions per route, over transmission-carrying routes.

        Undelivered routes count too — a packet that burned its whole
        budget into a dead link is exactly the energy story this
        aggregate exists to tell.  Zeros when the set has no channel
        accounting (perfect links).
        """
        return self._summary(
            "retransmits",
            [
                float(t.retransmits)
                for t in self._transmissions
                if t is not None
            ],
        )

    @property
    def effective_hops(self) -> Summary:
        """Hops actually crossed, over channel-delivered routes.

        The lossy counterpart of :attr:`hops` (which reports the
        routing layer's path over delivered routes).
        """
        return self._summary(
            "effective_hops",
            [
                float(t.effective_hops)
                for r, t in zip(self._results, self._transmissions)
                if t is not None and r.delivered and t.delivered
            ],
        )

    @property
    def retransmit_energy(self) -> Summary:
        """Radio energy incl. retransmissions/acks (J), where measured.

        Summarised over every transmission-carrying route whose energy
        was computed (``energy=True`` workloads) — dropped packets
        included, since their failed attempts cost real energy.
        """
        return self._summary(
            "retransmit_energy",
            [
                t.energy
                for t in self._transmissions
                if t is not None and t.energy is not None
            ],
        )

    @property
    def max_hops(self) -> int:
        return max(
            (r.hops for r in self._results if r.delivered), default=0
        )

    @property
    def perimeter_entries_per_route(self) -> float:
        samples = self.samples or 1
        return sum(r.perimeter_entries for r in self._results) / samples

    @property
    def backup_entries_per_route(self) -> float:
        samples = self.samples or 1
        return sum(r.backup_entries for r in self._results) / samples

    def phase_hops(self) -> dict[str, int]:
        """Total hop count per phase label, across all routes."""
        totals: dict[str, int] = {}
        for result in self._results:
            for phase, hops in result.phase_hops().items():
                totals[phase] = totals.get(phase, 0) + hops
        return totals


class RouteSet:
    """Ordered, per-router collection of routed packets.

    Results append per router in routing order; that order is the
    aggregation order, so float reductions are reproducible across
    runs, processes and worker counts.
    """

    def __init__(self) -> None:
        self._results: dict[str, list[RouteResult]] = {}
        # Always index-aligned with _results (None = no energy measured
        # for that route), so merged/mixed sets can never mispair.
        self._energies: dict[str, list[float | None]] = {}
        # Likewise index-aligned: channel/retransmission accounting
        # (None = perfect-link route, no accounting).
        self._transmissions: dict[str, list[Transmission | None]] = {}

    # -- collection -----------------------------------------------------

    def add(
        self,
        result: RouteResult,
        energy: float | None = None,
        router: str | None = None,
        transmission: Transmission | None = None,
    ) -> None:
        """Append one routed packet (optionally with its radio energy
        and its lossy-channel :class:`Transmission` accounting).

        ``router`` overrides the grouping key — the Session passes the
        *registry* name, which may differ from the scheme's own
        ``result.router`` label (e.g. a registered variant of GF).
        """
        key = router if router is not None else result.router
        self._results.setdefault(key, []).append(result)
        self._energies.setdefault(key, []).append(energy)
        self._transmissions.setdefault(key, []).append(transmission)

    def extend(self, results: Iterable[RouteResult]) -> None:
        for result in results:
            self.add(result)

    def merge(self, other: "RouteSet") -> None:
        """Fold another set in, router by router, preserving order."""
        for router, results in other._results.items():
            self._results.setdefault(router, []).extend(results)
        for router, energies in other._energies.items():
            self._energies.setdefault(router, []).extend(energies)
        for router, transmissions in other._transmissions.items():
            self._transmissions.setdefault(router, []).extend(transmissions)

    # -- access ---------------------------------------------------------

    def routers(self) -> tuple[str, ...]:
        """Router names, in insertion (= routing) order."""
        return tuple(self._results)

    def results(self, router: str | None = None) -> tuple[RouteResult, ...]:
        """All routes, or one router's routes, in routing order."""
        if router is not None:
            return tuple(self._results.get(router, ()))
        return tuple(
            result
            for results in self._results.values()
            for result in results
        )

    def aggregate(self, router: str) -> RouterAggregate:
        """Lazy summary of one router's routes."""
        if router not in self._results:
            known = ", ".join(self._results) or "none"
            raise KeyError(
                f"no routes for router {router!r}; present: {known}"
            )
        return RouterAggregate(
            router,
            self._results[router],
            self._energies[router],
            self._transmissions[router],
        )

    def aggregates(self) -> dict[str, RouterAggregate]:
        """Every router's lazy summary, in routing order."""
        return {name: self.aggregate(name) for name in self._results}

    def delivery_rate(self, router: str | None = None) -> float:
        """Delivered fraction for one router, or over every route."""
        if router is not None:
            return self.aggregate(router).delivery_rate
        results = self.results()
        if not results:
            return 0.0
        return sum(1 for r in results if r.delivered) / len(results)

    def __len__(self) -> int:
        return sum(len(r) for r in self._results.values())

    def __iter__(self) -> Iterator[RouteResult]:
        return iter(self.results())

    def __repr__(self) -> str:
        per_router = ", ".join(
            f"{name}:{len(results)}"
            for name, results in self._results.items()
        )
        return f"RouteSet({per_router or 'empty'})"

    def __eq__(self, other: object) -> bool:
        """Value equality: same routes, energies and grouping order.

        Makes the wire round-trip contract directly assertable:
        ``RouteSet.from_dict(rs.to_dict()) == rs``.
        """
        if not isinstance(other, RouteSet):
            return NotImplemented
        return (
            self._results == other._results
            and self._energies == other._energies
            and self._transmissions == other._transmissions
        )

    __hash__ = None  # mutable collection; value equality forbids hashing

    # -- the Study cell payload -----------------------------------------

    def point_result(
        self, deployment_model: str, node_count: int, networks: int
    ) -> PointResult:
        """This set as a :class:`~repro.experiments.sweep.PointResult`.

        The payload of one Study cell, and the figure/report input:
        each router's :class:`RouterAggregate`, frozen.  Routers with
        no routes are left out.
        """
        per_router = {}
        for name in self._results:
            aggregate = self.aggregate(name)
            if not aggregate.samples:
                continue
            per_router[name] = RouterPointMetrics(
                router=name,
                samples=aggregate.samples,
                delivered=aggregate.delivered,
                hops=aggregate.hops,
                length=aggregate.length,
                max_hops=aggregate.max_hops,
                perimeter_entries_per_route=(
                    aggregate.perimeter_entries_per_route
                ),
                backup_entries_per_route=aggregate.backup_entries_per_route,
            )
        return PointResult(
            deployment_model=deployment_model,
            node_count=node_count,
            networks=networks,
            per_router=per_router,
        )

    # -- serialisation --------------------------------------------------

    def to_dicts(self) -> list[dict]:
        """Every route as a JSON-ready dict, in routing order.

        Each record is the route's :meth:`RouteResult.to_dict` plus,
        when present, the set-level extras: ``registry_router`` (the
        grouping key, only when it differs from the scheme's own
        label), ``energy`` and ``transmission`` (the lossy-channel
        retransmission accounting) — so a round-trip loses nothing,
        and perfect-link sets serialise exactly as before.
        """
        records = []
        for name, results in self._results.items():
            energies = self._energies[name]
            transmissions = self._transmissions[name]
            for result, energy, transmission in zip(
                results, energies, transmissions
            ):
                record = result.to_dict()
                if name != result.router:
                    record["registry_router"] = name
                if energy is not None:
                    record["energy"] = energy
                if transmission is not None:
                    record["transmission"] = transmission.to_dict()
                records.append(record)
        return records

    @classmethod
    def from_dicts(cls, records: Iterable[Mapping]) -> "RouteSet":
        """Rebuild a set from :meth:`to_dicts` output."""
        out = cls()
        for record in records:
            transmission = record.get("transmission")
            out.add(
                RouteResult.from_dict(record),
                energy=record.get("energy"),
                router=record.get("registry_router"),
                transmission=(
                    Transmission.from_dict(transmission)
                    if transmission is not None
                    else None
                ),
            )
        return out

    def to_dict(self) -> dict:
        """The whole set as one JSON-ready document.

        The wire form used by the serve layer
        (:mod:`repro.serve`): the route records of
        :meth:`to_dicts` under a ``"routes"`` key, so the document
        can grow siblings (versioning, per-set metadata) without
        breaking readers that index into it.
        """
        return {"routes": self.to_dicts()}

    @classmethod
    def from_dict(cls, data: Mapping) -> "RouteSet":
        """Rebuild a set from :meth:`to_dict` output.

        Raises ``KeyError`` on a document without ``"routes"`` —
        a truncated or foreign payload must not decode as an empty
        (successful-looking) set.
        """
        return cls.from_dicts(data["routes"])

    def to_json(self, path: str | Path) -> Path:
        """Write the set as a JSON array of route records."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_dicts(), indent=2) + "\n", encoding="utf-8"
        )
        return path

    @classmethod
    def from_json(cls, path: str | Path) -> "RouteSet":
        """Read a set written by :meth:`to_json`."""
        records = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls.from_dicts(records)
