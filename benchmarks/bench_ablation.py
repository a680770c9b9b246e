"""ABL — ablations of SLGF2's design choices.

The docstring of :mod:`repro.routing.slgf2` calls out the decisions
layered on Algorithm 3; this bench measures each against the full
configuration on a fixed FA workload:

* ABL-EH     — superseding rule (critical/forbidden filter) off;
* ABL-BP     — backup-path phase off (straight to perimeter);
* ABL-BOUND  — perimeter mechanics: face (default) vs DFS vs
               rectangle-bounded DFS (the literal contribution (c));
* ABL-HAND   — perimeter hand: right (default) vs either-hand (the
               paper's letter);
* ABL-SCOPE  — candidate scope: quadrant (default) vs request-zone
               (Algorithm 1's letter).

The persisted table is the evidence behind those implementation-choice
notes.
"""

from __future__ import annotations

from statistics import mean

from repro.routing import Slgf2Router

_VARIANTS: dict[str, dict] = {
    "full": {},
    "no-superseding": {"use_superseding": False},
    "no-backup": {"use_backup": False},
    "perimeter-dfs": {"perimeter_mode": "dfs"},
    "perimeter-dfs-bounded": {"perimeter_mode": "dfs-bounded"},
    "either-hand-perimeter": {"perimeter_hand": "either"},
    "zone-scope": {"candidate_scope": "zone"},
    # Future-work extensions (Section 6):
    "adaptive-greedy": {"adaptive_greedy": True},
    "exact-shapes": {"_shape_mode": "exact"},
}


def _workloads(fa500, seeds=(4, 5, 6)):
    sessions = [fa500(seed) for seed in seeds]
    return [(session, session.sample_pairs(40)) for session in sessions]


def _evaluate(workloads, **kwargs):
    from repro.core import InformationModel

    shape_mode = kwargs.pop("_shape_mode", None)
    hops, lengths, delivered, total = [], [], 0, 0
    max_hops = 0
    for session, pairs in workloads:
        model = session.model
        if shape_mode is not None:
            model = InformationModel.build(session.graph, shape_mode)
        router = Slgf2Router(model, **kwargs)
        for s, d in pairs:
            result = router.route(s, d)
            total += 1
            if result.delivered:
                delivered += 1
                hops.append(result.hops)
                lengths.append(result.length)
                max_hops = max(max_hops, result.hops)
    return {
        "delivery": delivered / total,
        "mean_hops": mean(hops),
        "max_hops": max_hops,
        "mean_length": mean(lengths),
    }


def test_slgf2_ablations(benchmark, results_dir, fa500):
    workloads = _workloads(fa500)
    results = {name: _evaluate(workloads, **kw) for name, kw in _VARIANTS.items()}
    # The timed unit: the full configuration on the same workload.
    benchmark(_evaluate, workloads)

    lines = ["ABL: SLGF2 ablations (FA, n=500, 3 networks x 40 routes)"]
    lines.append(
        f"{'variant':24s} {'deliv':>6s} {'hops':>7s} {'max':>5s} {'len':>8s}"
    )
    for name, stats in results.items():
        lines.append(
            f"{name:24s} {stats['delivery']:6.2f} "
            f"{stats['mean_hops']:7.2f} {stats['max_hops']:5d} "
            f"{stats['mean_length']:8.1f}"
        )
    (results_dir / "ablation.txt").write_text("\n".join(lines) + "\n")

    full = results["full"]
    # Everything must still deliver.
    for name, stats in results.items():
        assert stats["delivery"] >= 0.95, name
    # The backup phase is the load-bearing contribution: removing it
    # must not make things better.
    assert full["mean_hops"] <= 1.05 * results["no-backup"]["mean_hops"]
