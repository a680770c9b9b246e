"""Fig. 6 — average number of hops, IA and FA panels.

Regenerates both panels of the paper's Fig. 6, persists artifacts and
checks the headline ordering: the safety-informed routers beat LGF on
average hops, with SLGF2 the best of the information-based family
("both information based routings SLGF and SLGF2 ... require the
fewest number of hops in detour", with SLGF2 improving further).
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
    node_counts=(600,), networks_per_point=1, routes_per_network=5
)


def _persist(table, results_dir):
    name = f"{table.figure_id}_{table.deployment_model.lower()}"
    (results_dir / f"{name}.txt").write_text(
        format_table(table) + "\n\n" + to_chart(table) + "\n"
    )
    to_csv(table, results_dir / f"{name}.csv")


def test_fig6_point_regeneration(benchmark):
    """Time one mid-density figure point end to end."""
    scenario = Scenario.from_config(_POINT, "FA", 600)
    routes = benchmark(run_scenario, scenario)
    assert set(routes.routers()) == {"GF", "LGF", "SLGF", "SLGF2"}


def test_fig6_ia_panel(benchmark, ia_sweep, results_dir):
    table = benchmark(figure_table, ia_sweep, "fig6")
    _persist(table, results_dir)
    # Aggregate family ordering across the sweep.  Under IA the SLGF /
    # SLGF2 averages sit within a hop of each other (as in the paper's
    # Fig. 6(a)); the 5% slack absorbs quick-config sampling noise —
    # the paper-scale run (REPRO_FULL=1) tightens both curves.
    slgf2 = sum(table.values["SLGF2"])
    slgf = sum(table.values["SLGF"])
    lgf = sum(table.values["LGF"])
    assert slgf2 <= 1.05 * slgf
    assert slgf <= 1.10 * lgf


def test_fig6_fa_panel(benchmark, fa_sweep, results_dir):
    table = benchmark(figure_table, fa_sweep, "fig6")
    _persist(table, results_dir)
    slgf2 = sum(table.values["SLGF2"])
    slgf = sum(table.values["SLGF"])
    lgf = sum(table.values["LGF"])
    gf = sum(table.values["GF"])
    assert slgf2 <= 1.05 * slgf
    assert slgf <= 1.10 * lgf
    # Under FA, BOUNDHOLE-guided GF pays for its blunt boundary walks:
    # the safety-informed routers win (the paper's headline).
    assert slgf2 <= gf
