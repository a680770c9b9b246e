"""PHASES — where each router spends its hops.

Section 5 attributes the win to phase structure: "LGF routing may
experience more perimeter routing phases than GF routing ... With the
safety information, the routing can predict the holes ahead and avoid
being blocked ... the SLGF2 routing can improve the performance by
reducing a great number of detours in its perimeter routing phase."

This bench routes a fixed workload on one FA network and breaks every
router's hop total down by phase label, persisting the table and
asserting the structural claims (perimeter entries: SLGF2 < SLGF <=
LGF; SLGF2 shifts hops from perimeter to safe/backup phases).
"""

from __future__ import annotations


def _route_all(routers, pairs):
    breakdown: dict[str, dict[str, float]] = {}
    for name, router in routers.items():
        phase_hops: dict[str, int] = {}
        perimeter_entries = 0
        delivered = 0
        for s, d in pairs:
            result = router.route(s, d)
            delivered += result.delivered
            perimeter_entries += result.perimeter_entries
            for phase, hops in result.phase_hops().items():
                phase_hops[phase] = phase_hops.get(phase, 0) + hops
        breakdown[name] = {
            "delivered": delivered,
            "perimeter_entries": perimeter_entries,
            **phase_hops,
        }
    return breakdown


def test_phase_breakdown(benchmark, results_dir, fa500):
    session = fa500(4)
    breakdown = benchmark(
        _route_all, session.routers, session.sample_pairs(60)
    )

    phases = ("greedy", "safe", "backup", "perimeter")
    lines = ["PHASES: hop breakdown per router (FA, n=500, 60 routes)"]
    header = f"{'router':8s} {'deliv':>5s} {'peri#':>5s} " + " ".join(
        f"{p:>9s}" for p in phases
    )
    lines.append(header)
    for name, stats in breakdown.items():
        lines.append(
            f"{name:8s} {stats['delivered']:5.0f} "
            f"{stats['perimeter_entries']:5.0f} "
            + " ".join(f"{stats.get(p, 0):9.0f}" for p in phases)
        )
    (results_dir / "phase_breakdown.txt").write_text("\n".join(lines) + "\n")

    # Structural claims.
    assert (
        breakdown["SLGF2"]["perimeter_entries"]
        <= breakdown["SLGF"]["perimeter_entries"]
    )
    assert (
        breakdown["SLGF"]["perimeter_entries"]
        <= breakdown["LGF"]["perimeter_entries"]
    )
    assert breakdown["SLGF2"].get("perimeter", 0) <= breakdown["SLGF"].get(
        "perimeter", 0
    )
