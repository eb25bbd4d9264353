"""Windowed metric trends across mission progress, split by outcome group.

Simulates a mixed corpus, splits it into top-25% and bottom-25% teams by
rescue score, and prints the averaged inter-role distance trend for each
group. Coordinated teams converge on red victims early and spread out after
the cutoff, so their top-group curve jumps once red victims lock.
"""
import numpy as np

from teamcoord.core import Role
from teamcoord.metrics import metric_time_series
from teamcoord.outcomes import team_performance
from teamcoord.sim import AgentPolicy, PolicyKind, builtin_map, run_mission
from teamcoord.stats import PerformanceGroup, performance_groups


def team(kind):
    policy = AgentPolicy(kind)
    return [(Role.MEDIC, policy), (Role.MEDIC, policy),
            (Role.ENGINEER, policy), (Role.ENGINEER, policy)]


def main():
    spec = builtin_map("medium")
    corpus = [run_mission(spec, team(PolicyKind.COORDINATED), seed=s) for s in range(6)]
    corpus += [run_mission(spec, team(PolicyKind.GREEDY), seed=s) for s in range(3)]
    corpus += [run_mission(spec, team(PolicyKind.RANDOM_WALK), seed=s) for s in range(3)]

    scores = {s.session_id: float(team_performance(s.events).points) for s in corpus}
    groups = performance_groups(scores)
    cutoff = spec.clock.red_cutoff_s / spec.clock.mission_duration_s

    curves = {}
    for label, group in (("top 25%", PerformanceGroup.TOP25),
                         ("bottom 25%", PerformanceGroup.BOTTOM25)):
        members = [s for s in corpus if groups[s.session_id] is group]
        per_progress = {}
        for s in members:
            ts = metric_time_series(s, "inter_role_distance", window_ticks=10, smooth_ticks=5)
            for progress, value in ts.values:
                per_progress.setdefault(progress, []).append(value)
        curves[label] = {p: float(np.mean(v)) for p, v in sorted(per_progress.items())}

    print("mean inter-role distance by mission progress "
          f"(red victims lock at the {cutoff:.0%} mark)\n")
    print("progress   top 25%   bottom 25%")
    for p in list(curves["top 25%"])[::10]:
        marker = "  <- cutoff" if abs(p - cutoff) < 0.05 else ""
        print(f"  {p:5.0%}    {curves['top 25%'][p]:7.2f}   {curves['bottom 25%'].get(p, float('nan')):10.2f}{marker}")

    for label, curve in curves.items():
        pre = [v for p, v in curve.items() if p < cutoff]
        post = [v for p, v in curve.items() if p >= cutoff]
        print(f"\n{label}: mean distance {np.mean(pre):.2f} before the cutoff, "
              f"{np.mean(post):.2f} after")


if __name__ == "__main__":
    main()
