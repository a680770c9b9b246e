"""Declarative scenarios: everything a routing experiment needs, once.

A :class:`Scenario` is a frozen value object naming a complete
experimental setting — deployment model, density, obstacles, failure
and mobility schedules, workload and seed — with no behaviour of its
own.  A :class:`~repro.api.session.Session` materialises it into a
concrete network; :func:`~repro.api.session.run_scenario` evaluates it
end to end.

Determinism contract: a Scenario with the same field values always
produces the same networks, the same source-destination pairs and the
same routes — each network's seed derives from ``(seed, deployment
model, node count, network index)`` alone — which is what the golden
digest tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, TypeAlias, Union

from repro.experiments.config import ExperimentConfig
from repro.geometry import Rect
from repro.network.channel import (
    CommunicationModel,
    LinkFaultModel,
    UnitDisk,
)
from repro.network.obstacles import Obstacle

__all__ = [
    "FailureSpec",
    "MobilitySchedule",
    "NodesFailure",
    "RandomFailure",
    "RegionFailure",
    "Scenario",
]


@dataclass(frozen=True)
class RegionFailure:
    """Jam/destroy every node within ``radius`` of ``(x, y)``.

    The "communication jamming" and "power exhaustion" holes of
    Section 1, applied to the deployed network before the information
    construction runs.  Nodes listed in ``protect`` survive even
    inside the region (e.g. an experiment's source and destination).
    """

    x: float
    y: float
    radius: float
    protect: tuple[int, ...] = ()


@dataclass(frozen=True)
class NodesFailure:
    """Fail an explicit set of node ids."""

    nodes: tuple[int, ...]


@dataclass(frozen=True)
class RandomFailure:
    """Fail ``count`` uniformly chosen nodes (seeded per network).

    Nodes listed in ``protect`` are never drawn.
    """

    count: int
    protect: tuple[int, ...] = ()


#: Any one entry of a Scenario failure schedule.  A real alias (not a
#: string): usable in ``isinstance``-free annotations throughout the
#: Session and wire layers, and introspectable via ``typing.get_args``.
FailureSpec: TypeAlias = Union[RegionFailure, NodesFailure, RandomFailure]


@dataclass(frozen=True)
class MobilitySchedule:
    """Random-waypoint drift: periodic topology snapshots.

    A mobile scenario yields one network *epoch* per snapshot (see
    :meth:`repro.api.session.Session.epochs`), each re-running the
    information construction — the paper's periodic beaconing.
    """

    speed_min: float = 1.0
    speed_max: float = 3.0
    pause: float = 2.0
    dt: float = 10.0
    epochs: int = 6

    def __post_init__(self) -> None:
        # Validated here, at declaration time: the epoch loop in
        # Session.epochs() would otherwise turn e.g. epochs=0 into a
        # silent zero-result "mobile" run.
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.speed_min <= 0 or self.speed_max < self.speed_min:
            raise ValueError("need 0 < speed_min <= speed_max")
        if self.pause < 0:
            raise ValueError("pause must be non-negative")


@dataclass(frozen=True)
class Scenario:
    """One fully specified routing experiment.

    Defaults reproduce the paper's setting: a 200 m x 200 m interest
    area, 20 m radio range, uniform (IA) deployment.  ``routers``
    selects registered schemes by name (empty = all registered);
    ``router_options`` passes per-scheme constructor kwargs, e.g.
    ``{"SLGF2": {"perimeter_mode": "dfs"}}``.
    """

    deployment_model: str = "IA"
    node_count: int = 400
    area: Rect = field(default_factory=lambda: Rect(0, 0, 200, 200))
    radius: float = 20.0
    seed: int = 2009
    # Workload: how much routing a full `run()` does.
    networks: int = 1
    routes_per_network: int = 20
    # FA model: either a random obstacle field (the paper's setting) …
    obstacle_count: int = 3
    min_obstacle_size: float = 20.0
    max_obstacle_size: float = 60.0
    # … or explicit obstacle shapes (overrides the random field).
    obstacles: tuple[Obstacle, ...] = ()
    # Dynamic schedules.
    failures: tuple[FailureSpec, ...] = ()
    mobility: MobilitySchedule | None = None
    # Radio channel: per-link delivery model, attempt-level link
    # faults, per-hop retransmission budget.  The default is the
    # paper's perfect unit-disk radio — bit-identical to the
    # historical pipeline, with no transmission accounting at all.
    channel: CommunicationModel = field(default_factory=UnitDisk)
    link_faults: LinkFaultModel | None = None
    max_retransmits: int = 3
    # Router selection (names from the registry; () = all registered).
    routers: tuple[str, ...] = ()
    router_options: Mapping[str, Mapping] = field(default_factory=dict)
    # Bits per routed packet, for the energy aggregates.
    packet_bits: int = 1

    def __post_init__(self) -> None:
        if self.deployment_model not in ("IA", "FA"):
            raise ValueError(
                f"unknown deployment model {self.deployment_model!r}; "
                "expected 'IA' or 'FA'"
            )
        if self.node_count < 2:
            raise ValueError("node_count must be >= 2")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.networks < 1 or self.routes_per_network < 1:
            raise ValueError("networks and routes_per_network must be >= 1")
        if self.packet_bits < 1:
            raise ValueError("packet_bits must be >= 1")
        if not isinstance(self.channel, CommunicationModel):
            raise ValueError(
                f"channel must be a CommunicationModel, "
                f"got {self.channel!r}"
            )
        if self.link_faults is not None and not isinstance(
            self.link_faults, LinkFaultModel
        ):
            raise ValueError(
                f"link_faults must be a LinkFaultModel or None, "
                f"got {self.link_faults!r}"
            )
        if isinstance(self.max_retransmits, bool) or not isinstance(
            self.max_retransmits, int
        ):
            raise ValueError(
                f"max_retransmits must be an integer, "
                f"got {self.max_retransmits!r}"
            )
        if self.max_retransmits < 0:
            raise ValueError("max_retransmits must be >= 0")
        if self.obstacles and self.deployment_model == "IA":
            raise ValueError(
                "explicit obstacles need the FA deployment model"
            )
        if self.mobility is not None and (self.failures or self.obstacles):
            # The random-waypoint walker knows nothing about forbidden
            # areas or failure schedules; dropping them silently would
            # mislabel the results, so the combination is rejected.
            raise ValueError(
                "mobility schedules cannot be combined with obstacles "
                "or failure schedules (not supported yet)"
            )
        # Normalise mutable-by-accident inputs to immutable forms.
        # router_options stays a mapping (callers read it back as one);
        # __hash__ below canonicalises it, keeping the frozen contract.
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        object.__setattr__(self, "failures", tuple(self.failures))
        object.__setattr__(self, "routers", tuple(self.routers))
        object.__setattr__(
            self,
            "router_options",
            {
                name: dict(opts)
                for name, opts in dict(self.router_options).items()
            },
        )

    def __hash__(self) -> int:
        # Explicit because the generated hash would choke on the
        # router_options dict; a Scenario must work as a memoisation
        # key.  Consistent with the generated __eq__: equal dicts
        # canonicalise to equal tuples.
        options = tuple(
            sorted(
                (name, tuple(sorted(opts.items())))
                for name, opts in self.router_options.items()
            )
        )
        return hash(
            (
                self.deployment_model,
                self.node_count,
                self.area,
                self.radius,
                self.seed,
                self.networks,
                self.routes_per_network,
                self.obstacle_count,
                self.min_obstacle_size,
                self.max_obstacle_size,
                self.obstacles,
                self.failures,
                self.mobility,
                self.routers,
                options,
                self.packet_bits,
                self.channel,
                self.link_faults,
                self.max_retransmits,
            )
        )

    # -- conversions ----------------------------------------------------

    def to_config(self) -> ExperimentConfig:
        """The :class:`ExperimentConfig` this scenario implies.

        The inverse of :meth:`from_config` for one node count;
        :meth:`~repro.api.study.StudyResult.sweep_result` labels its
        panels with it.
        """
        return ExperimentConfig(
            area=self.area,
            radius=self.radius,
            node_counts=(self.node_count,),
            networks_per_point=self.networks,
            routes_per_network=self.routes_per_network,
            seed=self.seed,
            obstacle_count=self.obstacle_count,
            min_obstacle_size=self.min_obstacle_size,
            max_obstacle_size=self.max_obstacle_size,
        )

    @classmethod
    def from_config(
        cls,
        config: ExperimentConfig,
        deployment_model: str,
        node_count: int,
        **overrides,
    ) -> "Scenario":
        """Scenario for one figure point of an experiment config."""
        return cls(
            deployment_model=deployment_model,
            node_count=node_count,
            area=config.area,
            radius=config.radius,
            seed=config.seed,
            networks=config.networks_per_point,
            routes_per_network=config.routes_per_network,
            obstacle_count=config.obstacle_count,
            min_obstacle_size=config.min_obstacle_size,
            max_obstacle_size=config.max_obstacle_size,
            **overrides,
        )

    def with_(self, **changes) -> "Scenario":
        """A modified copy (thin, readable ``dataclasses.replace``)."""
        return replace(self, **changes)

    @property
    def is_dynamic(self) -> bool:
        """Whether any schedule diverges from the paper's static setup."""
        return bool(self.failures or self.obstacles or self.mobility)

    @property
    def is_lossy(self) -> bool:
        """Whether routed packets need channel/retransmission accounting.

        ``False`` exactly when the channel is perfect (``UnitDisk``
        with no link faults) — the bit-identity guarantee: such
        scenarios skip the channel layer entirely.
        """
        return not (self.channel.is_perfect and self.link_faults is None)
