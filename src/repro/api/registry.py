"""Pluggable router registry: routing schemes discoverable by name.

The paper evaluates four schemes, but nothing about the harness is
four-specific: a scheme is just "a way to build a
:class:`~repro.routing.base.Router` for a prepared network".  This
module makes that the extension point.  A scheme registers once::

    from repro.api import register_router

    @register_router("SLGF2-DFS", order=4.5)
    def build_slgf2_dfs(instance, **kwargs):
        return Slgf2Router(instance.model, perimeter_mode="dfs", **kwargs)

and from then on it is constructible by name everywhere — the CLI's
``--routers`` flag, :class:`~repro.api.Scenario`, Study grids,
figure legends and the result cache — with no harness edits.

``order`` controls presentation order (figure legends, table columns);
the paper's four schemes occupy orders 0-3, so third-party schemes
slot after them by default.

Cache identity: :meth:`RouterRegistry.fingerprint` digests the
factories behind a name selection (module-qualified names, plus source
digests for factories defined outside the ``repro`` package, plus any
per-router options), so the Study result cache distinguishes runs with
different registered routers or options.  A factory with no stable
identity (lambda/closure) makes the selection uncacheable rather than
wrongly cached.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Mapping, Protocol, Sequence

from repro.core.model import InformationModel
from repro.network.graph import WasnGraph
from repro.routing import (
    GreedyRouter,
    LgfRouter,
    Router,
    SlgfRouter,
    Slgf2Router,
)

__all__ = [
    "RouterRegistry",
    "RouterSpec",
    "RoutableNetwork",
    "default_registry",
    "register_router",
    "router_order",
]


class RoutableNetwork(Protocol):
    """What a router factory receives: a fully prepared network.

    A :class:`~repro.api.session.Session`'s prepared network is the
    usual concrete type; any object with these attributes (e.g. a
    ``types.SimpleNamespace``) works too.
    """

    graph: WasnGraph
    model: InformationModel
    boundaries: object


#: A router factory: builds one router for a prepared network.
RouterBuilder = Callable[..., Router]


@dataclass(frozen=True)
class RouterSpec:
    """One registered scheme: its name, factory and legend position."""

    name: str
    factory: RouterBuilder
    order: float
    description: str = ""

    def build(self, instance: RoutableNetwork, **kwargs) -> Router:
        """Construct the router for ``instance``."""
        return self.factory(instance, **kwargs)


def _factory_identity(factory: Callable) -> str | None:
    """Stable cross-run identity of a factory, or ``None``.

    Only module-level functions are nameable across runs; lambdas,
    closures (qualnames containing ``<lambda>``/``<locals>``) and
    callables without a qualified name (e.g. ``functools.partial``)
    would collide under a shared name, so they have none.  Factories
    defined outside the ``repro`` package additionally fold in a digest
    of their module's source, so editing one invalidates its cached
    results; one whose source cannot be read has no identity.
    """
    module = getattr(factory, "__module__", None)
    qualname = getattr(factory, "__qualname__", None)
    if not module or not qualname:
        return None
    if "<lambda>" in qualname or "<locals>" in qualname:
        return None
    try:
        source = inspect.getsourcefile(factory)
    except TypeError:
        return None
    if source is None:
        return None
    path = Path(source).resolve()
    package_root = Path(__file__).resolve().parent.parent
    if path.is_relative_to(package_root):
        # Package code is covered by the sweep-wide source digest.
        return f"{module}:{qualname}"
    try:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None
    return f"{module}:{qualname}:{digest}"


class RouterRegistry:
    """Mutable name -> :class:`RouterSpec` mapping with stable order.

    Names are case-sensitive and unique; re-registering a taken name
    raises (use :meth:`unregister` first if replacement is really
    intended — silent shadowing of a scheme would corrupt comparisons).
    """

    def __init__(self) -> None:
        # Equal orders tie-break by registration (dict insertion)
        # order, via sorted()'s stability in names().
        self._specs: dict[str, RouterSpec] = {}

    # -- registration ---------------------------------------------------

    def register(
        self,
        name: str,
        factory: RouterBuilder | None = None,
        *,
        order: float | None = None,
        description: str = "",
    ):
        """Register ``factory`` under ``name``.

        Usable directly (``registry.register("GF", build_gf)``) or as
        a decorator (``@registry.register("GF", order=0)``).  ``order``
        defaults to after every currently registered scheme.
        """
        if not name or not isinstance(name, str):
            raise ValueError(f"router name must be a non-empty string, got {name!r}")

        def _register(builder: RouterBuilder) -> RouterBuilder:
            if name in self._specs:
                raise ValueError(
                    f"router {name!r} is already registered; unregister it "
                    "first if you really mean to replace it"
                )
            position = order
            if position is None:
                position = max(
                    (spec.order for spec in self._specs.values()),
                    default=-1.0,
                ) + 1.0
            self._specs[name] = RouterSpec(
                name=name,
                factory=builder,
                order=float(position),
                description=description,
            )
            return builder

        if factory is not None:
            _register(factory)
            return factory
        return _register

    def unregister(self, name: str) -> None:
        """Remove a scheme (mainly for tests and experiment teardown)."""
        self.get(name)  # raise the helpful error on unknown names
        del self._specs[name]

    # -- lookup ---------------------------------------------------------

    def get(self, name: str) -> RouterSpec:
        """The spec for ``name``; unknown names list what *is* known."""
        try:
            return self._specs[name]
        except KeyError:
            known = ", ".join(self.names()) or "none registered"
            raise KeyError(
                f"unknown router {name!r}; known routers: {known}"
            ) from None

    def names(self) -> tuple[str, ...]:
        """Every registered name, in presentation (legend) order."""
        return tuple(
            spec.name
            for spec in sorted(self._specs.values(), key=lambda s: s.order)
        )

    def describe_unknown(self, names: Sequence[str]) -> str | None:
        """Usage-style error message for unknown names, or ``None``.

        The one validation message every name-taking CLI surface
        shares, so the wording cannot drift between entry points.
        """
        unknown = [n for n in names if n not in self]
        if not unknown:
            return None
        return (
            f"unknown router(s) {', '.join(unknown)}; "
            f"registered: {', '.join(self.names())}"
        )

    def specs(self) -> tuple[RouterSpec, ...]:
        """Every spec, in presentation order."""
        return tuple(self.get(name) for name in self.names())

    def __contains__(self, name: object) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._specs)

    # -- construction ---------------------------------------------------

    def create(
        self, name: str, instance: RoutableNetwork, **kwargs
    ) -> Router:
        """Build one router by name for a prepared network."""
        return self.get(name).build(instance, **kwargs)

    def build(
        self,
        instance: RoutableNetwork,
        names: Sequence[str] | None = None,
        options: Mapping[str, Mapping] | None = None,
    ) -> dict[str, Router]:
        """Build a router per name, in presentation order.

        The result is always ordered by the registry's ``order`` keys,
        regardless of the order ``names`` are given in (legends and
        tables must not depend on call-site spelling).  ``names=None``
        means every registered scheme.  ``options`` maps
        a router name to extra constructor kwargs; an option for a
        name outside the selection is an error (it would otherwise be
        silently ignored — the classic misspelled-knob trap).
        """
        selected = self.names() if names is None else tuple(names)
        for name in selected:
            self.get(name)  # validate early, with the helpful error
        options = dict(options or {})
        unknown = set(options) - set(selected)
        if unknown:
            raise KeyError(
                f"router options for unselected router(s) "
                f"{sorted(unknown)}; selected: {list(selected)}"
            )
        ordered = [n for n in self.names() if n in selected]
        return {
            name: self.create(name, instance, **dict(options.get(name, {})))
            for name in ordered
        }

    # -- cache identity -------------------------------------------------

    def fingerprint(
        self,
        names: Sequence[str] | None = None,
        options: Mapping[str, Mapping] | None = None,
    ) -> str | None:
        """Digest identifying a name selection's factories and options.

        ``None`` when any selected factory has no stable identity —
        such a selection must not be cached (two different lambdas
        would collide under one key).

        The selection is normalised to registry order first — exactly
        as :meth:`build` orders construction — so spelling the same
        names in a different order yields the same key (and the same
        warm cache).
        """
        selected = self.names() if names is None else tuple(names)
        for name in selected:
            self.get(name)  # unknown names get the helpful error
        chosen = set(selected)
        ordered = [n for n in self.names() if n in chosen]
        parts: list[str] = []
        for name in ordered:
            identity = _factory_identity(self.get(name).factory)
            if identity is None:
                return None
            opts = dict((options or {}).get(name, {}))
            try:
                # Strict JSON only: a repr() fallback would let two
                # distinct option objects with coinciding reprs share
                # a key (wrongly cached) or address-bearing reprs
                # never hit; non-JSON options are uncacheable instead.
                encoded = json.dumps(opts, sort_keys=True)
            except (TypeError, ValueError):
                return None
            parts.append(f"{name}={identity}|{encoded}")
        payload = ";".join(parts)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: The process-wide registry every facade consults by default.
default_registry = RouterRegistry()

#: Decorator/function registering into :data:`default_registry`.
register_router = default_registry.register


def router_order() -> tuple[str, ...]:
    """Presentation order of the default registry's schemes.

    Figure legends, table columns and result dictionaries all follow
    this order; newly registered schemes join it by their ``order``.
    """
    return default_registry.names()


# ---------------------------------------------------------------------------
# The paper's four schemes, registered exactly as Section 5 runs them:
# GF gets BOUNDHOLE boundary information, LGF/SLGF run quadrant-scoped,
# SLGF2 defaults.


@register_router("GF", order=0, description="greedy + BOUNDHOLE recovery")
def build_gf(instance: RoutableNetwork, **kwargs) -> Router:
    kwargs.setdefault("recovery", "boundhole")
    if kwargs["recovery"] == "boundhole":
        kwargs.setdefault("hole_boundaries", instance.boundaries)
    return GreedyRouter(instance.graph, **kwargs)


@register_router("LGF", order=1, description="location-aided greedy (Alg. 1)")
def build_lgf(instance: RoutableNetwork, **kwargs) -> Router:
    kwargs.setdefault("candidate_scope", "quadrant")
    return LgfRouter(instance.graph, **kwargs)


@register_router("SLGF", order=2, description="safety-informed LGF")
def build_slgf(instance: RoutableNetwork, **kwargs) -> Router:
    kwargs.setdefault("candidate_scope", "quadrant")
    return SlgfRouter(instance.model, **kwargs)


@register_router("SLGF2", order=3, description="shape-aware SLGF (Alg. 3)")
def build_slgf2(instance: RoutableNetwork, **kwargs) -> Router:
    return Slgf2Router(instance.model, **kwargs)
