"""The three spatial coordination metrics, from first principles to missions.

- exploration diversity: mean pairwise Jensen-Shannon divergence between the
  players' grid-occupancy distributions;
- movement specialization: entropy balance of the role-pooled distributions
  times one minus their territorial (Jaccard) overlap;
- proximity adaptation: normalized change of the mean medic-engineer distance
  between the two mission halves.

The script first evaluates hand-built corner cases with known values, then
contrasts coordinated and random teams on a real map.
"""
import numpy as np

from teamcoord import GridSpec, Role
from teamcoord.core import SAMPLE, PlayerTrajectory, TeamSession
from teamcoord.metrics import coordination_metrics
from teamcoord.sim import AgentPolicy, PolicyKind, builtin_map, run_mission


def walk(pid, role, cells):
    # one SAMPLE row per tick: no action (-1) and no target
    samples = np.array([(i, 3.0 * i, x, y, -1, 0, 0, False) for i, (x, y) in enumerate(cells)],
                       dtype=SAMPLE)
    return PlayerTrajectory(pid, role, samples)


def session(medics, engineers, grid):
    players = tuple(walk(f"medic{i+1}", Role.MEDIC, c) for i, c in enumerate(medics))
    players += tuple(walk(f"engineer{i+1}", Role.ENGINEER, c) for i, c in enumerate(engineers))
    return TeamSession("demo", grid, players)


def main():
    grid = GridSpec(8, 8)

    print("corner cases")
    print("------------")
    path = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2)]
    clones = session([path, path], [path, path], grid)
    m = coordination_metrics(clones)
    print(f"four identical trajectories : sed={m.sed:.3f} sms={m.sms:.3f} spa={m.spa:.3f}")

    corners = session([[(0, 0)] * 6, [(7, 0)] * 6], [[(0, 7)] * 6, [(7, 7)] * 6], grid)
    m = coordination_metrics(corners)
    print(f"four disjoint corner sitters: sed={m.sed:.3f} sms={m.sms:.3f} spa={m.spa:.3f}")

    medics = [[(0, 0), (1, 0)] * 3, [(0, 0), (1, 0)] * 3]
    engineers = [[(0, 4), (1, 4)] * 3, [(0, 4), (1, 4)] * 3]
    split = session(medics, engineers, grid)
    m = coordination_metrics(split)
    print(f"roles on disjoint patrols   : sed={m.sed:.3f} sms={m.sms:.3f} spa={m.spa:.3f}")

    print("\nsimulated teams on the medium map (5 seeds each)")
    print("-------------------------------------------------")
    spec = builtin_map("medium")
    for kind in (PolicyKind.COORDINATED, PolicyKind.RANDOM_WALK):
        policy = AgentPolicy(kind)
        policies = [(Role.MEDIC, policy), (Role.MEDIC, policy),
                    (Role.ENGINEER, policy), (Role.ENGINEER, policy)]
        triples = [coordination_metrics(run_mission(spec, policies, seed=s)) for s in range(5)]
        print(f"{kind.value:12s} sed={np.mean([t.sed for t in triples]):.3f} "
              f"sms={np.mean([t.sms for t in triples]):.3f} "
              f"spa={np.mean([t.spa for t in triples]):.3f}")
    print("\ncoordinated teams specialize more (higher sms) and adapt their"
          "\nproximity across the cutoff (higher spa) than random walkers.")


if __name__ == "__main__":
    main()
