"""Fig. 7 — average routing path length, IA and FA panels.

Regenerates both panels of the paper's Fig. 7 (mean Euclidean length
of the delivered paths), persists artifacts and checks the paper's
conclusion for this figure: "the new routing under our safety
information model can always achieve shorter path and conserve more
energy" — i.e. SLGF2 produces the shortest paths of the LGF family,
and under FA beats the BOUNDHOLE-guided GF baseline too.
"""

from __future__ import annotations

from repro.api import Scenario, run_scenario
from repro.experiments import (
    ExperimentConfig,
    figure_table,
    format_table,
    to_chart,
    to_csv,
)

_POINT = ExperimentConfig(
    node_counts=(800,), networks_per_point=1, routes_per_network=5
)


def _persist(table, results_dir):
    name = f"{table.figure_id}_{table.deployment_model.lower()}"
    (results_dir / f"{name}.txt").write_text(
        format_table(table) + "\n\n" + to_chart(table) + "\n"
    )
    to_csv(table, results_dir / f"{name}.csv")


def test_fig7_point_regeneration(benchmark):
    """Time the densest figure point end to end."""
    scenario = Scenario.from_config(_POINT, "IA", 800)
    routes = benchmark(run_scenario, scenario)
    assert set(routes.routers()) == {"GF", "LGF", "SLGF", "SLGF2"}


def test_fig7_ia_panel(benchmark, ia_sweep, results_dir):
    table = benchmark(figure_table, ia_sweep, "fig7")
    _persist(table, results_dir)
    slgf2 = sum(table.values["SLGF2"])
    slgf = sum(table.values["SLGF"])
    lgf = sum(table.values["LGF"])
    assert slgf2 <= slgf <= 1.10 * lgf


def test_fig7_fa_panel(benchmark, fa_sweep, results_dir):
    table = benchmark(figure_table, fa_sweep, "fig7")
    _persist(table, results_dir)
    slgf2 = sum(table.values["SLGF2"])
    gf = sum(table.values["GF"])
    lgf = sum(table.values["LGF"])
    assert slgf2 <= lgf
    assert slgf2 <= gf
