"""The benchmark's own tests.

Not collected by the repository's default test run (the file name does
not match ``test_*.py``); run them by path from the repository root::

    python3 -m pytest perfbench/check_perfbench.py -q

Unit tests cover the nearest-rank percentile, span self time and
reference scaling; smoke tests run every workload for one second in
both modes and check that every metric ``BENCHMARK.json`` names is
emitted with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import measure  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- nearest-rank percentile -------------------------------------------------


def test_nearest_rank_picks_an_observed_sample():
    values = [7.0, 1.0, 3.0, 9.0, 5.0, 2.0, 10.0, 4.0, 8.0, 6.0]
    assert measure.nearest_rank(values, 50) == 5.0
    assert measure.nearest_rank(values, 10) == 1.0
    assert measure.nearest_rank(values, 11) == 2.0
    assert measure.nearest_rank(values, 99) == 10.0
    assert measure.nearest_rank(values, 100) == 10.0
    assert measure.nearest_rank([4.5], 50) == 4.5


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        measure.nearest_rank([], 50)
    with pytest.raises(ValueError):
        measure.nearest_rank([1.0], 0)
    with pytest.raises(ValueError):
        measure.nearest_rank([1.0], 101)


# -- span self time ----------------------------------------------------------


def _span(sid, start, end, parent=None):
    return {
        "id": sid,
        "name": f"s{sid}",
        "start": start,
        "end": end,
        "parent": parent,
        "item": None,
    }


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, parent=0),
        _span(2, 2.0, 5.0, parent=0),  # overlaps its sibling: counted once
        _span(3, 8.0, 12.0, parent=0),  # runs past its parent: clipped
        _span(4, 2.5, 4.5, parent=2),  # a grandchild leaves span 0 alone
    ]
    out = {s["id"]: s for s in measure.with_self_time(spans)}
    assert out[0]["duration"] == 10.0
    assert out[0]["self"] == pytest.approx(10.0 - 4.0 - 2.0)
    assert out[2]["self"] == pytest.approx(3.0 - 2.0)
    assert out[4]["self"] == pytest.approx(2.0)


def test_tracer_nests_spans_and_writes_self_time(tmp_path):
    tracer = measure.Tracer()
    with tracer.span("outer", "net-1"):
        with tracer.span("inner", "net-1"):
            pass
    tracer.count("walks", 3, "net-1")
    path = tmp_path / "trace.json"
    tracer.write(path, workload="unit")
    document = json.loads(path.read_text())
    outer, inner = document["spans"]
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert inner["item"] == "net-1"
    assert outer["self"] == pytest.approx(
        outer["duration"] - inner["duration"]
    )
    assert document["counts"] == [
        {"name": "walks", "value": 3, "item": "net-1"}
    ]
    assert document["summary"] == {"workload": "unit"}


# -- reference scaling -------------------------------------------------------


def test_scaling_divides_out_the_reference_loop():
    nominal = measure.REF_NOMINAL_S
    assert measure.scaled(2.0, nominal) == pytest.approx(2.0)
    # A machine running the loop twice as slow divides the reported
    # time by 2 ** elasticity.
    slower = 2.0 / 2 ** measure.REF_ELASTICITY
    assert measure.scaled(2.0, 2 * nominal) == pytest.approx(slower)
    assert measure.scaled(2.0, 4 * nominal, 0.5) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        measure.scaled(1.0, 0.0)


def test_drift_times_an_item_between_two_readings():
    drift = measure.Drift()
    result, raw, scaled_s, reference = drift.time(sum, [1, 2, 3])
    assert result == 6
    assert len(drift.readings) == 2
    assert reference == pytest.approx(sum(drift.readings) / 2)
    assert scaled_s == pytest.approx(measure.scaled(raw, reference))


# -- smoke runs of every workload --------------------------------------------


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [
            sys.executable,
            str(cwd / "perfbench" / "run.py"),
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            str(trace),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize(
    "workload", [w["name"] for w in SPEC["workloads"]]
)
def test_workload_emits_every_named_metric(workload, trace):
    completed = _run(ROOT, workload, trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in named}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = _run(tmp_path, "paper_cells", 0)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
