"""The Study API: grid compilation, streaming, caching, sweep panels.

Four promises under test:

* a Study **compiles** deterministically — axis order, row-major
  product, eager validation through Scenario's own rules;
* a plain density Study's columnar projections and **sweep panels**
  carry exactly its cells' points (the figure digests themselves are
  pinned in ``tests/api/test_golden_api.py``);
* **streaming** is order-independent, cancellable mid-run without
  losing cached progress, and fires exactly one progress event per
  cell;
* the **cache key** covers the full scenario — failure schedules,
  obstacle layouts and router options never share an entry — and is
  stable across processes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import (
    Cell,
    ProgressEvent,
    RandomFailure,
    RegionFailure,
    Scenario,
    Session,
    Study,
    scenario_fingerprint,
)
from repro.api.registry import RouterRegistry
from repro.experiments import ExperimentConfig, ResultCache
from repro.geometry import Rect
from repro.network.obstacles import RectObstacle

TINY = ExperimentConfig(
    node_counts=(250, 300),
    networks_per_point=2,
    routes_per_network=3,
)

_RECT = RectObstacle(Rect(60, 60, 120, 100))


def _tiny_base(**overrides) -> Scenario:
    defaults = dict(
        node_count=250, networks=1, routes_per_network=3, seed=2009
    )
    defaults.update(overrides)
    return Scenario(**defaults)


class TestPlanCompilation:
    def test_axis_order_and_row_major_product(self):
        study = Study(
            _tiny_base(),
            nodes=(250, 300),
            vary={"seed": (1, 2, 3)},
        )
        assert list(study.axes) == ["node_count", "seed"]
        assert len(study) == 6
        coords = [
            (cell["node_count"], cell["seed"])
            for cell, _ in study.plan()
        ]
        # Row-major: last axis fastest.
        assert coords == [
            (250, 1), (250, 2), (250, 3),
            (300, 1), (300, 2), (300, 3),
        ]

    def test_cells_carry_resolved_scenarios(self):
        study = Study(_tiny_base(), nodes=(250, 300))
        for cell, scenario in study.plan():
            assert scenario.node_count == cell["node_count"]
            assert scenario == study.scenario(cell)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown Scenario axis"):
            Study(_tiny_base(), vary={"densitee": (1, 2)})

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            Study(_tiny_base(), nodes=())

    def test_duplicate_axis_values_rejected(self):
        with pytest.raises(ValueError, match="repeats a value"):
            Study(_tiny_base(), nodes=(250, 250))

    def test_sugar_and_vary_collision_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            Study(
                _tiny_base(),
                nodes=(250,),
                vary={"node_count": (300,)},
            )

    def test_invalid_combination_fails_at_compile_time(self):
        # Explicit obstacles require the FA model; the bad cell must
        # surface when the plan compiles, not inside a worker.
        study = Study(
            _tiny_base(deployment_model="IA"),
            vary={"obstacles": [(), (_RECT,)]},
        )
        with pytest.raises(ValueError, match="FA deployment model"):
            study.plan()

    def test_axisless_study_is_the_base_cell(self):
        study = Study(_tiny_base())
        assert len(study) == 1
        (cell, scenario), = study.plan()
        assert scenario == study.base
        assert cell.label() == ""


class TestCell:
    def test_mapping_protocol(self):
        cell = Cell(("node_count", "seed"), (400, 7))
        assert cell["node_count"] == 400
        assert cell.get("seed") == 7
        assert cell.get("missing", "x") == "x"
        assert "seed" in cell and "missing" not in cell
        with pytest.raises(KeyError):
            cell["missing"]

    def test_hashable_with_unhashable_axis_values(self):
        options = {"SLGF2": {"ttl": 64}}
        a = Cell(("router_options",), (options,))
        b = Cell(("router_options",), ({"SLGF2": {"ttl": 64}},))
        c = Cell(("router_options",), ({"SLGF2": {"ttl": 65}},))
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert len({a, b, c}) == 2

    def test_label_names_failure_specs(self):
        cell = Cell(
            ("failures",), ((RandomFailure(5), RegionFailure(1, 2, 3)),)
        )
        assert cell.label() == "failures=RandomFailure+RegionFailure"


class TestGoldenDensityParity:
    """A plain density Study: projections and the sweep adapter."""

    @pytest.fixture(scope="class")
    def study_result(self):
        return Study.from_config(TINY, ("IA", "FA")).run(
            cache=ResultCache.disabled()
        )

    def test_columnar_projections_agree_with_points(self, study_result):
        axis, series = study_result.series(
            "SLGF2", "mean_hops", along="node_count",
            where={"deployment_model": "IA"},
        )
        assert axis == [250, 300]
        points = [
            study_result.cell(deployment_model="IA", node_count=n).point
            for n in TINY.node_counts
        ]
        assert series == [p.metric("SLGF2", "mean_hops") for p in points]
        # The figure layer's panel carries exactly these points.
        sweep = study_result.sweep_result("IA")
        assert sweep.points == tuple(points)
        assert sweep.config == TINY

    def test_sweep_adapter_guards(self, study_result):
        with pytest.raises(ValueError, match="name one"):
            study_result.sweep_result()
        richer = Study(
            _tiny_base(), vary={"failures": [(), (RandomFailure(2),)]}
        ).run(cache=ResultCache.disabled())
        with pytest.raises(ValueError, match="plain density study"):
            richer.sweep_result()

    def test_sweep_adapter_rejects_unevaluated_model(self):
        # Regression: an IA-only study must not hand back IA numbers
        # relabeled as FA.
        ia_only = Study(_tiny_base(), nodes=(250,)).run(
            cache=ResultCache.disabled()
        )
        with pytest.raises(ValueError, match="not 'FA'"):
            ia_only.sweep_result("FA")


class TestScenarioAxesEndToEnd:
    """ISSUE acceptance: failure-schedule and obstacle axes, streamed
    plus cached re-run."""

    def test_failure_and_obstacle_axes_stream_and_resume(self, tmp_path):
        base = _tiny_base(deployment_model="FA", node_count=260)
        study = Study(
            base,
            vary={
                "failures": [(), (RandomFailure(5),)],
                "obstacles": [(), (_RECT,)],
            },
        )
        assert len(study) == 4

        cache = ResultCache(tmp_path)
        events = []
        streamed = dict(study.stream(cache=cache, progress=events.append))
        assert set(streamed) == set(study.cells())
        completions = [e.kind for e in events if e.kind != "start"]
        assert completions == ["computed"] * 4

        # The cached re-run serves every cell without recomputing and
        # reproduces the streamed numbers exactly.
        rerun_events = []
        rerun = study.run(cache=cache, progress=rerun_events.append)
        assert [e.kind for e in rerun_events] == ["cached"] * 4
        for cell in study.cells():
            assert rerun[cell].point == streamed[cell].point

    def test_router_options_axis(self):
        study = Study(
            _tiny_base(routers=("GF",)),
            vary={
                "router_options": [
                    {},
                    {"GF": {"recovery": "face"}},
                ]
            },
        )
        result = study.run(cache=ResultCache.disabled())
        default_cell, face_cell = study.cells()
        assert result[default_cell].routers() == ("GF",)
        assert result[face_cell].routers() == ("GF",)

    def test_router_selection_axis(self):
        # Regression: a routers axis means cells carry different
        # scheme sets; the result surface must still project.
        study = Study(
            _tiny_base(),
            vary={"routers": [("GF",), ("SLGF2",)]},
        )
        result = study.run(cache=ResultCache.disabled())
        assert result.routers() == ("GF", "SLGF2")  # union, seen order
        table = result.table("mean_hops")
        assert "-" in table  # absent scheme/cell combinations render


class TestStreaming:
    def _study(self):
        return Study(_tiny_base(), nodes=(250, 280, 300))

    def test_stream_merge_equals_run(self, tmp_path):
        study = self._study()
        streamed = dict(study.stream(cache=ResultCache.disabled()))
        assembled = study.run(cache=ResultCache.disabled())
        assert set(streamed) == set(assembled.results())
        for cell, result in streamed.items():
            assert assembled[cell].point == result.point

    def test_progress_fires_once_per_cell(self):
        study = self._study()
        events = []
        study.run(cache=ResultCache.disabled(), progress=events.append)
        unit_events = [
            e for e in events if e.kind in ("cached", "computed")
        ]
        assert len(unit_events) == len(study)
        assert len({e.description for e in unit_events}) == len(study)
        assert [e.completed for e in unit_events] == [1, 2, 3]
        assert all(e.total == len(study) for e in unit_events)
        # Events are strings too: legacy line sinks keep working.
        assert all(isinstance(e, str) for e in events)
        assert any("n=250" in e for e in unit_events)

    def test_cancellation_mid_stream_leaves_cache_resumable(
        self, tmp_path
    ):
        study = self._study()
        cache = ResultCache(tmp_path)
        stream = study.stream(cache=cache)
        first_cell, first_result = next(stream)
        stream.close()

        # Exactly the yielded cell is on disk; the rerun serves it
        # from cache and computes only the remainder.
        events = []
        resumed = study.run(cache=ResultCache(tmp_path),
                            progress=events.append)
        kinds = [e.kind for e in events if e.kind in ("cached", "computed")]
        assert kinds.count("cached") == 1
        assert kinds.count("computed") == len(study) - 1
        assert resumed[first_cell].point == first_result.point

    def test_progress_splits_cached_from_computed(self, tmp_path):
        """Satellite: ``completed == cached + computed`` on every event.

        Pre-dispatch cache hits must be reported as *cached*, never
        folded into the computed count — the invariant the CLI's
        hit-rate line reads off the final event."""
        study = self._study()
        cold_events, warm_events = [], []
        study.run(cache=ResultCache(tmp_path), progress=cold_events.append)
        study.run(cache=ResultCache(tmp_path), progress=warm_events.append)
        for events in (cold_events, warm_events):
            for event in events:
                assert event.completed == event.cached + event.computed
        cold_final = [e for e in cold_events if e.kind == "computed"][-1]
        assert cold_final.computed == len(study) and cold_final.cached == 0
        warm_units = [
            e for e in warm_events if e.kind in ("cached", "computed")
        ]
        assert [e.kind for e in warm_units] == ["cached"] * len(study)
        assert warm_units[-1].cached == len(study)
        assert warm_units[-1].computed == 0

    def test_parallel_stream_bit_identical_to_serial(self):
        study = self._study()
        serial = study.run(jobs=1, cache=ResultCache.disabled())
        parallel = study.run(jobs=2, cache=ResultCache.disabled())
        for cell in study.cells():
            assert serial[cell].point == parallel[cell].point


class TestFingerprints:
    """Satellite: the cache key covers the *full* scenario."""

    def test_dynamic_features_never_share_an_entry(self):
        base = _tiny_base(deployment_model="FA")
        variants = [
            base,
            base.with_(failures=(RandomFailure(5),)),
            base.with_(failures=(RegionFailure(50, 50, 20),)),
            base.with_(obstacles=(_RECT,)),
            base.with_(
                obstacles=(RectObstacle(Rect(60, 60, 120, 101)),)
            ),
            base.with_(router_options={"SLGF2": {"ttl": 64}}),
            base.with_(router_options={"SLGF2": {"ttl": 65}}),
            base.with_(packet_bits=8),
        ]
        prints = [scenario_fingerprint(s) for s in variants]
        assert None not in prints
        assert len(set(prints)) == len(prints)

    def test_two_studies_differing_only_in_schedule_share_no_entry(
        self, tmp_path
    ):
        cache = ResultCache(tmp_path)
        base = _tiny_base(node_count=260)
        plain = Study(base, nodes=(260,))
        failing = Study(
            base.with_(failures=(RandomFailure(5),)), nodes=(260,)
        )
        plain.run(cache=cache)
        stored_plain = {p.name for p in tmp_path.rglob("*.json")}
        failing.run(cache=cache)
        stored_all = {p.name for p in tmp_path.rglob("*.json")}
        assert stored_plain and len(stored_all) == 2 * len(stored_plain)
        # And the rerun of either study still hits its own entries.
        events = []
        plain.run(cache=ResultCache(tmp_path), progress=events.append)
        assert [e.kind for e in events] == ["cached"]

    def test_implicit_and_explicit_full_selection_share_a_key(self):
        from repro.api import default_registry

        implicit = scenario_fingerprint(_tiny_base(routers=()))
        explicit = scenario_fingerprint(
            _tiny_base(routers=default_registry.names())
        )
        assert implicit == explicit

    def test_selection_spelling_shares_a_key(self, tmp_path):
        # The Session builds a selection in registry order, each scheme
        # once, so these spellings route identically — and must hit
        # one cache entry, not recompute under three keys.
        spellings = [("GF", "SLGF2"), ("SLGF2", "GF"), ("GF", "GF", "SLGF2")]
        scenarios = [_tiny_base(routers=r) for r in spellings]
        assert len({scenario_fingerprint(s) for s in scenarios}) == 1
        routes = [Session(s).run() for s in scenarios]
        assert routes[1] == routes[0] and routes[2] == routes[0]

        cache = ResultCache(tmp_path)
        Study(scenarios[0], nodes=(250, 300)).run(cache=cache)
        for scenario in scenarios[1:]:
            events = []
            Study(scenario, nodes=(250, 300)).run(
                cache=cache, progress=events.append
            )
            assert [e.kind for e in events] == ["cached", "cached"]

    def test_unfingerprintable_registry_disables_caching(self, tmp_path):
        registry = RouterRegistry()
        registry.register("ANON", lambda instance, **kw: None, order=0)
        scenario = _tiny_base(routers=("ANON",))
        assert scenario_fingerprint(scenario, registry) is None

    def test_stable_across_processes_and_hash_seeds(self):
        script = (
            "from repro.api import RandomFailure, Scenario,"
            " scenario_fingerprint\n"
            "from repro.geometry import Rect\n"
            "from repro.network.obstacles import RectObstacle\n"
            "s = Scenario(deployment_model='FA', node_count=260,"
            " networks=1, routes_per_network=3,"
            " failures=(RandomFailure(5, protect=(1, 2)),),"
            " obstacles=(RectObstacle(Rect(60, 60, 120, 100)),),"
            " router_options={'SLGF2': {'ttl': 64}, 'GF': {}})\n"
            "print(scenario_fingerprint(s))\n"
        )
        root = Path(__file__).resolve().parents[2]
        digests = set()
        for hash_seed in ("1", "17"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get(
                "PYTHONPATH", ""
            )
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                cwd=root,
                check=True,
            )
            digests.add(out.stdout.strip())
        assert len(digests) == 1
        assert len(digests.pop()) == 64  # sha256 hex


class TestSweepShimRemoval:
    def test_shims_are_gone(self):
        """The one-release deprecation window closed: repro.api no
        longer exports sweeps()/sweep(); Study is the only surface."""
        import repro.api

        assert not hasattr(repro.api, "sweeps")
        assert not hasattr(repro.api, "sweep")
        assert "sweeps" not in repro.api.__all__


class TestProgressEvent:
    def test_is_a_string_with_structure(self):
        event = ProgressEvent.unit(
            "computed", "[IA] n=400", 3, 18, 12.5, eta_s=62.0
        )
        assert isinstance(event, str)
        assert "[IA] n=400" in event
        assert "3/18" in event
        assert "eta 1m02s" in event
        assert event.kind == "computed"
        assert event.completed == 3 and event.total == 18
        assert event.elapsed_s == 12.5 and event.eta_s == 62.0

    def test_note_form(self):
        note = ProgressEvent.note("serial fallback", 2, 9, 1.0)
        assert note.kind == "note"
        assert str(note) == "serial fallback"
