"""SLGF: safety-information-based LGF routing (the paper's ref [7]).

The immediate predecessor of SLGF2 and one of the four evaluated
schemes.  This paper summarises it as: LGF where "a straightforward
path can be achieved if and only if safe nodes are used" — the router
prefers request-zone successors that are *safe with respect to their
own request zone toward the destination*, predicting holes before
walking into them.  When no safe candidate exists it degrades exactly
to LGF: plain greedy within the zone, then the tried-set perimeter
phase ("when a routing is initiated at an unsafe source or has an
unsafe destination, the perimeter routing without the safety
information is adopted", Section 2).

The full SLGF paper (INFOCOM 2008) is not reprinted here; this
reconstruction follows the description in Sections 2-4 and is the
behaviour the evaluation curves need: fewer perimeter entries than
LGF/GF, but more detours than SLGF2 because it lacks shape information
(no either-hand rule, no backup paths, no bounded perimeter).

As a delta of LGF: a candidate's safety is read for *its own* request
zone toward ``d`` ("k and k-bar are not necessarily the same",
Section 4), a node at exactly the destination's position counts as
safe, and the nearest safe candidate wins over the nearest plain one.
The forwarding loop is ``_SlgfExecutor`` in :mod:`repro.routing.batch`.
"""

from __future__ import annotations

from repro.core.model import InformationModel
from repro.routing.lgf import LgfRouter

__all__ = ["SlgfRouter"]


class SlgfRouter(LgfRouter):
    """SLGF routing: LGF + safety-status successor preference."""

    name = "SLGF"

    def __init__(
        self,
        model: InformationModel,
        ttl: int | None = None,
        candidate_scope: str = "zone",
    ):
        super().__init__(model.graph, ttl, candidate_scope)
        self._model = model
        self._model_stale = False

    @property
    def model(self) -> InformationModel:
        """The information model this router consults.

        Rebuilt lazily after a :meth:`~repro.routing.base.Router.rebind`
        — the paper's periodic beaconing re-runs the information
        construction whenever the topology drifts.  The rebuild keeps
        the original model's construction options
        (:meth:`InformationModel.rebuild`), so it restores exactly
        what a fresh construction with the same options would hold.
        """
        if self._model_stale:
            self._model = self._model.rebuild(self.graph)
            self._model_stale = False
        return self._model

    def _on_topology_change(self, delta) -> None:
        """Safety labels go stale with the topology; rebuild on demand."""
        self._model_stale = True
