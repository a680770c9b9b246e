"""Tests for the evaluation harness (config through figures)."""

import pytest

from repro.api import Scenario, Session, Study, run_scenario
from repro.experiments import (
    ExperimentConfig,
    FIGURES,
    ResultCache,
    figure_table,
    format_table,
    to_chart,
    to_csv,
)

TINY = ExperimentConfig(
    node_counts=(300, 400),
    networks_per_point=2,
    routes_per_network=4,
)


def _session(model, n, index=0):
    return Session(Scenario.from_config(TINY, model, n), index)


def _point(model, n):
    """One figure point, evaluated as a Study cell evaluates it."""
    scenario = Scenario.from_config(TINY, model, n)
    return run_scenario(scenario).point_result(model, n, scenario.networks)


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = ExperimentConfig()
        assert cfg.node_counts == tuple(range(400, 801, 50))
        assert cfg.networks_per_point == 100
        assert cfg.radius == 20.0
        assert cfg.area.width == 200.0 and cfg.area.height == 200.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(radius=0)
        with pytest.raises(ValueError):
            ExperimentConfig(node_counts=())
        with pytest.raises(ValueError):
            ExperimentConfig(node_counts=(1,))
        with pytest.raises(ValueError):
            ExperimentConfig(networks_per_point=0)

    def test_active_config_env(self, monkeypatch):
        from repro.experiments import active_config
        from repro.experiments.config import PAPER_CONFIG, QUICK_CONFIG

        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert active_config() is QUICK_CONFIG
        monkeypatch.setenv("REPRO_FULL", "1")
        assert active_config() is PAPER_CONFIG


class TestWorkload:
    def test_build_network_ia(self):
        session = _session("IA", 300)
        assert len(session.graph) == 300
        assert session.instance.deployment_model == "IA"
        assert session.model.graph is session.graph

    def test_build_network_fa_avoids_obstacles(self):
        session = _session("FA", 300)
        assert session.instance.deployment_model == "FA"
        # FA networks must have been deployed around obstacles; the
        # obstacles themselves live in the deployment result, but the
        # detectable consequence is a valid graph of the right size.
        assert len(session.graph) == 300

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            Scenario.from_config(TINY, "XX", 300)

    def test_deterministic_by_seed(self):
        a = _session("IA", 300, index=1)
        b = _session("IA", 300, index=1)
        assert [n.position for n in a.graph.nodes()] == [
            n.position for n in b.graph.nodes()
        ]

    def test_sample_pairs_within_component(self):
        session = _session("IA", 300)
        pairs = session.sample_pairs(30)
        assert len(pairs) == 30
        for s, d in pairs:
            assert s != d
            assert session.graph.same_component(s, d)

    def test_sample_pairs_tiny_graph(self):
        from repro.network import build_unit_disk_graph
        from repro.geometry import Point

        g = build_unit_disk_graph([Point(0, 0)], radius=5)
        assert Session.from_graph(g).sample_pairs(5) == []


class TestEvaluatePoint:
    @pytest.fixture(scope="class")
    def point(self):
        return _point("IA", 300)

    def test_all_routers_present(self, point):
        assert set(point.per_router) == {"GF", "LGF", "SLGF", "SLGF2"}

    def test_sample_counts(self, point):
        for metrics in point.per_router.values():
            assert metrics.samples == 2 * 4  # networks x routes

    def test_delivery_rate_bounds(self, point):
        for metrics in point.per_router.values():
            assert 0.0 <= metrics.delivery_rate <= 1.0
            assert metrics.delivery_rate >= 0.5

    def test_metric_projection(self, point):
        assert point.metric("SLGF2", "mean_hops") == point.per_router[
            "SLGF2"
        ].hops.mean
        assert point.metric("GF", "max_hops") == float(
            point.per_router["GF"].max_hops
        )
        with pytest.raises(KeyError):
            point.metric("GF", "bogus")


class TestSweepAndFigures:
    @pytest.fixture(scope="class")
    def sweep(self):
        # Tests mean "compute fresh": no on-disk cache side effects.
        return (
            Study.from_config(TINY, ("IA",))
            .run(cache=ResultCache.disabled())
            .sweep_result("IA")
        )

    def test_sweep_structure(self, sweep):
        assert sweep.node_counts == (300, 400)
        assert set(sweep.routers()) == {"GF", "LGF", "SLGF", "SLGF2"}
        series = sweep.series("SLGF2", "mean_hops")
        assert len(series) == 2

    def test_every_figure_projects(self, sweep):
        for figure_id in FIGURES:
            table = figure_table(sweep, figure_id)
            assert table.node_counts == (300, 400)
            for router in table.routers:
                assert len(table.values[router]) == 2

    def test_all_figures(self, sweep):
        from repro.experiments import all_figures

        tables = all_figures(sweep)
        assert set(tables) == set(FIGURES)
        for figure_id, table in tables.items():
            assert table == figure_table(sweep, figure_id)

    def test_unknown_figure_rejected(self, sweep):
        with pytest.raises(KeyError):
            figure_table(sweep, "fig9")

    def test_format_table(self, sweep):
        text = format_table(figure_table(sweep, "fig6"))
        assert "FIG6" in text
        assert "SLGF2" in text
        assert "best per point" in text

    def test_to_chart(self, sweep):
        chart = to_chart(figure_table(sweep, "fig6"))
        assert "mean_hops" in chart
        assert "SLGF2" in chart

    def test_to_csv(self, sweep, tmp_path):
        path = to_csv(figure_table(sweep, "fig5"), tmp_path / "fig5.csv")
        content = path.read_text().splitlines()
        assert content[0].startswith("figure,deployment,metric,nodes")
        assert len(content) == 3  # header + 2 node counts

    def test_winner_per_point(self, sweep):
        table = figure_table(sweep, "fig6")
        winners = table.winner_per_point()
        assert len(winners) == 2
        assert all(w in table.routers for w in winners)

    def test_row_accessor(self, sweep):
        table = figure_table(sweep, "fig6")
        row = table.row(300)
        assert len(row) == len(table.routers)


class TestDeterminism:
    def test_same_config_same_results(self):
        a = _point("IA", 300)
        b = _point("IA", 300)
        for name in a.per_router:
            assert a.per_router[name].hops.mean == b.per_router[name].hops.mean
            assert a.per_router[name].max_hops == b.per_router[name].max_hops
