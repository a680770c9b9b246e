"""``tools/bench_trajectory.py``: the BENCH summary and its diff.

Fed canned ``perfbench/run.py`` output, so no benchmark runs here;
CI's perfbench-smoke job runs the tool against the real harness.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SPEC = {
    "command": ["python3", "perfbench/run.py"],
    "run_seconds": 25,
    "workloads": [{"name": "bulk_routes"}],
    "end_to_end": [
        {"name": "answer_ms", "unit": "ms", "better": "lower", "bound": 0.2},
        {
            "name": "delivery_ratio",
            "unit": "ratio",
            "better": "higher",
            "bound": 0.02,
        },
    ],
}


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location(
        "bench_trajectory", ROOT / "tools" / "bench_trajectory.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_line(attempted, failed, **metrics):
    """What ``perfbench/run.py`` prints: progress lines, then JSON."""
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()},
    }
    return (
        "perfbench: bulk_routes seed=1 attempted=8 failed=0 details=...\n"
        "perfbench: reference loop median 2.000 ms over 12 readings\n"
        + json.dumps(result)
        + "\n"
    )


def bench(tool, answers, ratio=0.99, layer=200.0):
    runs = [
        tool.parse_run_line(run_line(8, 0, answer_ms=a, delivery_ratio=ratio))
        for a in answers
    ]
    traced = tool.parse_run_line(run_line(4, 0, **{"routing.GF.batch_ms": layer}))
    return tool.summarize(
        SPEC, {"bulk_routes": runs}, {"bulk_routes": traced}, {"pr": 1}
    )


class TestImport:
    def test_importing_starts_no_run(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("importing the tool ran a process")

        monkeypatch.setattr(subprocess, "run", refuse)
        monkeypatch.setattr(subprocess, "Popen", refuse)
        spec = importlib.util.spec_from_file_location(
            "bench_trajectory_import", ROOT / "tools" / "bench_trajectory.py"
        )
        spec.loader.exec_module(importlib.util.module_from_spec(spec))


class TestSummary:
    def test_medians_quartiles_and_counts(self, tool):
        document = bench(tool, [150.0, 140.0, 160.0, 145.0, 155.0])
        entry = document["workloads"]["bulk_routes"]
        answer = entry["end_to_end"]["answer_ms"]
        assert answer["runs"] == [150.0, 140.0, 160.0, 145.0, 155.0]
        assert answer["median"] == 150.0
        assert (answer["q1"], answer["q3"]) == (145.0, 155.0)
        assert answer["unit"] == "ms"
        assert entry["attempted"] == [8] * 5 and entry["failed"] == [0] * 5
        assert entry["per_layer"] == {"routing.GF.batch_ms": 200.0}
        assert entry["traced"] == {"attempted": 4, "failed": 0}
        assert document["pr"] == 1

    def test_a_single_run_is_its_own_quartiles(self, tool):
        answer = bench(tool, [150.0])["workloads"]["bulk_routes"]
        answer = answer["end_to_end"]["answer_ms"]
        assert answer["median"] == answer["q1"] == answer["q3"] == 150.0

    def test_the_last_line_is_the_result(self, tool):
        with pytest.raises(ValueError):
            tool.parse_run_line("\n\n")


class TestDiff:
    def test_marks_only_moves_past_the_bound_the_worse_way(self, tool):
        old = bench(tool, [180.0] * 3, ratio=0.99, layer=400.0)
        faster = bench(tool, [140.0] * 3, ratio=0.99, layer=150.0)
        lines = tool.diff(SPEC, old, faster)
        assert not any("!!" in line for line in lines)
        assert "bulk_routes answer_ms: 180 -> 140 ms (-22.2%)" in lines
        assert "bulk_routes routing.GF.batch_ms: 400 -> 150 (-62.5%)" in lines
        # Lower is worse for delivery_ratio; slower beyond 20% is worse.
        worse = bench(tool, [220.0] * 3, ratio=0.95)
        marked = [line for line in tool.diff(SPEC, old, worse) if "!!" in line]
        assert [line.split(":")[0] for line in marked] == [
            "bulk_routes answer_ms",
            "bulk_routes delivery_ratio",
        ]
        within = bench(tool, [210.0] * 3, ratio=0.98)
        assert not any("!!" in line for line in tool.diff(SPEC, old, within))

    def test_diffs_against_the_newest_smaller_number(self, tool, tmp_path):
        for n in (3, 12, 20, 25):
            (tmp_path / f"BENCH_{n}.json").write_text("{}")
        (tmp_path / "BENCH_x.json").write_text("{}")
        assert tool.latest_earlier(tmp_path, 20).name == "BENCH_12.json"
        assert tool.latest_earlier(tmp_path, 3) is None


class TestCompileStep:
    def test_compiles_before_the_first_run(self, tool, monkeypatch, tmp_path):
        """Bytecode is written once, up front, and the step is recorded."""
        calls = []
        metrics = dict(setup_s=0.2, answer_ms=1.0, delivery_ratio=1.0)
        metrics["peak_rss_mb"] = 40.0

        def fake_run(args, **kwargs):
            calls.append(list(args))
            if args[0] == "git" or "compileall" in args:
                return subprocess.CompletedProcess(args, 0, "", "")
            out = run_line(8, 0, **metrics)
            return subprocess.CompletedProcess(args, 0, out, "")

        monkeypatch.setattr(tool.subprocess, "run", fake_run)
        out = tmp_path / "bench.json"
        argv = ["--pr", "0", "--runs", "1", "--seconds", "1"]
        assert tool.main([*argv, "--out", str(out)]) == 0
        steps = [c for c in calls if c[0] != "git"]
        assert steps[0][1:] == ["-m", "compileall", "-q", "src", "perfbench"]
        assert all("--workload" in c for c in steps[1:]) and steps[1:]
        document = json.loads(out.read_text())
        assert document["compile_step"] == (
            "python -m compileall -q src perfbench"
        )

    def test_a_failed_compile_stops_the_tool(self, tool, monkeypatch):
        def fake_run(args, **kwargs):
            return subprocess.CompletedProcess(args, 1, "", "SyntaxError")

        monkeypatch.setattr(tool.subprocess, "run", fake_run)
        with pytest.raises(SystemExit, match="SyntaxError"):
            tool.compile_sources()
