"""Figure regeneration: the tables behind Figs. 5, 6 and 7.

Each paper figure is two panels (IA and FA) of four curves (GF, LGF,
SLGF, SLGF2) against node count:

* **Fig. 5** — "the upper bound of the number of hops of routing path"
  (maximum hops observed at each point);
* **Fig. 6** — "the average number of hops of routing path";
* **Fig. 7** — "the corresponding length of entire routing path on
  average".

A :class:`FigureTable` is the numeric content of one panel; the report
module renders it as an aligned table, a CSV file, or an ASCII chart.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.registry import router_order
from repro.experiments.sweep import SweepResult

__all__ = [
    "FIGURES",
    "FigureTable",
    "all_figures",
    "figure_table",
    "fig5",
    "fig6",
    "fig7",
]

# figure id -> (metric key, human description)
FIGURES: dict[str, tuple[str, str]] = {
    "fig5": ("max_hops", "Maximum number of hops of a routing path"),
    "fig6": ("mean_hops", "Average number of hops of a routing path"),
    "fig7": ("mean_length", "Average length (m) of a routing path"),
}


@dataclass(frozen=True)
class FigureTable:
    """One figure panel: rows = node counts, columns = routers."""

    figure_id: str
    title: str
    deployment_model: str
    metric: str
    node_counts: tuple[int, ...]
    routers: tuple[str, ...]
    values: dict[str, list[float]]  # router -> series over node_counts

    def row(self, node_count: int) -> list[float]:
        index = self.node_counts.index(node_count)
        return [self.values[r][index] for r in self.routers]

    def winner_per_point(self) -> list[str]:
        """Router with the lowest metric at each node count.

        All three paper metrics are lower-is-better, so this is the
        "who wins" series (the ``best per point`` row) that
        docs/REPRODUCING.md compares to the paper.
        """
        winners = []
        for i in range(len(self.node_counts)):
            winners.append(
                min(self.routers, key=lambda r: self.values[r][i])
            )
        return winners


def figure_table(sweep: SweepResult, figure_id: str) -> FigureTable:
    """Project one figure's metric out of a finished sweep."""
    if figure_id not in FIGURES:
        raise KeyError(
            f"unknown figure {figure_id!r}; expected one of {sorted(FIGURES)}"
        )
    metric, title = FIGURES[figure_id]
    # Legend order comes from the router registry, so a scheme
    # registered via repro.api slots into every figure automatically.
    routers = tuple(r for r in router_order() if r in sweep.routers())
    extras = tuple(r for r in sweep.routers() if r not in routers)
    routers += extras
    return FigureTable(
        figure_id=figure_id,
        title=f"{title} ({sweep.deployment_model} model)",
        deployment_model=sweep.deployment_model,
        metric=metric,
        node_counts=sweep.node_counts,
        routers=routers,
        values={r: sweep.series(r, metric) for r in routers},
    )


def all_figures(sweep: SweepResult) -> dict[str, FigureTable]:
    """Every paper figure's panel for one sweep, keyed by figure id.

    A sweep holds the full per-point results, so projecting all three
    figures costs nothing beyond the sweep itself.
    """
    return {figure_id: figure_table(sweep, figure_id) for figure_id in FIGURES}


def fig5(sweep: SweepResult) -> FigureTable:
    """Fig. 5 panel for the sweep's deployment model (max hops)."""
    return figure_table(sweep, "fig5")


def fig6(sweep: SweepResult) -> FigureTable:
    """Fig. 6 panel (average hops)."""
    return figure_table(sweep, "fig6")


def fig7(sweep: SweepResult) -> FigureTable:
    """Fig. 7 panel (average path length)."""
    return figure_table(sweep, "fig7")
