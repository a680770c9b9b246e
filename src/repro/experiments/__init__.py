"""Evaluation harness: regenerate every figure of Section 5.

Pipeline: :mod:`~repro.experiments.config` fixes the parameters;
:class:`repro.api.study.Study` compiles them into a grid of Scenario
cells, each evaluated by :func:`~repro.api.session.run_scenario` into
a :class:`~repro.experiments.sweep.PointResult`;
:mod:`~repro.experiments.engine` streams those cells through worker
processes and the :mod:`~repro.experiments.cache` result cache
(reporting :mod:`~repro.experiments.progress` events); and
:mod:`~repro.experiments.figures` / :mod:`~repro.experiments.report`
project and render the paper's Figs. 5-7 from the
:class:`~repro.experiments.sweep.SweepResult` panels that
``Study.from_config(...).run().sweep_result(model)`` produces.
"""

from repro.experiments.cache import (
    CacheCorruptionWarning,
    ResultCache,
    default_cache,
    point_from_dict,
    point_to_dict,
)
from repro.experiments.config import (
    PAPER_CONFIG,
    QUICK_CONFIG,
    ExperimentConfig,
    active_config,
    default_jobs,
)
from repro.experiments.engine import (
    EngineTask,
    ExperimentEngine,
    resolve_jobs,
)
from repro.experiments.progress import Progress, ProgressEvent
from repro.experiments.figures import (
    FIGURES,
    FigureTable,
    all_figures,
    fig5,
    fig6,
    fig7,
    figure_table,
)
from repro.experiments.report import format_table, to_chart, to_csv, to_json
from repro.experiments.sweep import PointResult, RouterPointMetrics, SweepResult

__all__ = [
    "FIGURES",
    "CacheCorruptionWarning",
    "EngineTask",
    "ExperimentConfig",
    "ExperimentEngine",
    "FigureTable",
    "PAPER_CONFIG",
    "PointResult",
    "Progress",
    "ProgressEvent",
    "QUICK_CONFIG",
    "ResultCache",
    "RouterPointMetrics",
    "SweepResult",
    "active_config",
    "all_figures",
    "default_cache",
    "default_jobs",
    "fig5",
    "fig6",
    "fig7",
    "figure_table",
    "format_table",
    "point_from_dict",
    "point_to_dict",
    "resolve_jobs",
    "to_chart",
    "to_csv",
    "to_json",
]
