"""Run seeded search-and-rescue missions and inspect the session records.

Three scripted team policies play the same map: blind random walkers, greedy
independent rescuers, and coordinated specialists that pair up on red victims
before splitting the map between roles. Every mission is bit-reproducible
from (map, policies, seed).
"""
import tempfile
from pathlib import Path

import numpy as np

from teamcoord import Role, validate_session
from teamcoord.outcomes import team_performance
from teamcoord.session_io import read_session, write_session
from teamcoord.sim import AgentPolicy, PolicyKind, builtin_map, run_mission

OUT = Path(__file__).parent / "out"


def team(kind: PolicyKind):
    policy = AgentPolicy(kind)
    return [(Role.MEDIC, policy), (Role.MEDIC, policy),
            (Role.ENGINEER, policy), (Role.ENGINEER, policy)]


def main():
    spec = builtin_map("medium")
    start_y, start_x = divmod(spec.start, spec.grid.width)  # cells are row-major ints
    print(f"map {spec.name!r}: {spec.grid.width}x{spec.grid.height}, "
          f"{np.count_nonzero(spec.victim_codes)} victims, {spec.door_mask.sum()} doors, "
          f"{spec.rubble_mask.sum()} rubble cells, start at ({start_x}, {start_y})")
    print(f"mission {spec.mission_duration_s:.0f}s, red victims lock at {spec.red_cutoff_s:.0f}s\n")

    for kind in PolicyKind:
        session = run_mission(spec, team(kind), seed=7)
        perf = team_performance(session.events)
        rescues = ", ".join(f"{k.value}={n}" for k, n in sorted(perf.rescues.items(),
                                                                key=lambda kv: kv[0].value))
        print(f"{kind.value:12s} -> {perf.points:4d} points ({rescues})")
        assert validate_session(session) == []

    print("\nreplaying the coordinated mission twice and comparing files...")
    OUT.mkdir(exist_ok=True)
    a = run_mission(spec, team(PolicyKind.COORDINATED), seed=7, session_id="replay")
    b = run_mission(spec, team(PolicyKind.COORDINATED), seed=7, session_id="replay")
    pa, _ = write_session(a, OUT / "replay_a.jsonl")
    with tempfile.TemporaryDirectory() as tmp:
        pb, _ = write_session(b, Path(tmp) / "replay_b.jsonl")
        print("byte-identical:", pa.read_bytes() == pb.read_bytes())
    print("round-trip preserves the session exactly:", read_session(pa) == a)

    print("\nfirst red rescue of the replay:")
    red = next(e for e in a.events if e.victim_type.value == "red")
    print(f"  t={red.time_s:.0f}s at ({red.victim_cell.x}, {red.victim_cell.y}) "
          f"by {' + '.join(red.actor_ids)}")


if __name__ == "__main__":
    main()
