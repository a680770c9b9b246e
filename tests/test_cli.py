"""Smoke tests for the repro-wasn command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "repro-wasn" in out
        assert "--full" in out

    def test_invalid_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["--figures", "fig9"])

    def test_removed_dist_worker_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dist-worker", "--plan", "shard_0.json"])
        assert exc.value.code == 2
        assert "usage: repro-wasn" in capsys.readouterr().err

    def test_duplicate_models_collapse(self, capsys, monkeypatch):
        # Regression: repeated --models must not become a repeated
        # study axis value (panels are per model, duplicates collapse).
        import repro.cli as cli
        from repro.experiments import ExperimentConfig

        tiny = ExperimentConfig(
            node_counts=(300,), networks_per_point=1, routes_per_network=3
        )
        monkeypatch.setattr(cli, "QUICK_CONFIG", tiny)
        code = main(
            [
                "--figures", "fig6",
                "--models", "IA", "IA",
                "--no-chart", "--no-cache",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.count("FIG6") == 1

    def test_summary_reports_cache_hit_rate(
        self, capsys, monkeypatch, tmp_path
    ):
        # Cold run: everything computed; warm rerun: everything cached
        # — and the hit-rate line must say so without double-counting.
        import repro.cli as cli
        from repro.experiments import ExperimentConfig

        tiny = ExperimentConfig(
            node_counts=(300,), networks_per_point=1, routes_per_network=3
        )
        monkeypatch.setattr(cli, "QUICK_CONFIG", tiny)
        args = [
            "--figures", "fig6", "--models", "IA", "--no-chart",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        cold = capsys.readouterr().err
        assert "[study] 1 cells: 0 cached, 1 computed (0% cache hit rate)" in cold
        assert main(args) == 0
        warm = capsys.readouterr().err
        assert "[study] 1 cells: 1 cached, 0 computed (100% cache hit rate)" in warm

    def test_quick_single_panel(self, capsys, monkeypatch, tmp_path):
        # Shrink the quick config further for test speed.
        import repro.cli as cli
        from repro.experiments import ExperimentConfig

        tiny = ExperimentConfig(
            node_counts=(300,), networks_per_point=1, routes_per_network=3
        )
        monkeypatch.setattr(cli, "QUICK_CONFIG", tiny)
        code = main(
            [
                "--figures",
                "fig6",
                "--models",
                "IA",
                "--csv-dir",
                str(tmp_path),
                "--no-chart",
                "--no-cache",  # keep the test free of CWD side effects
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "FIG6" in out
        assert (tmp_path / "fig6_ia.csv").exists()
