import math

import numpy as np
import pytest

from teamcoord.core import (
    CONFIG,
    DISCONTINUITY,
    DUPLICATE_ID,
    EVENT_TIME,
    PLAYER_COUNT,
    POSITION_BOUNDS,
    RED_ACTORS,
    RED_CUTOFF,
    ROLE_COMPOSITION,
    SAMPLE,
    TIME_MISMATCH,
    ActionTag,
    CompositionError,
    DuplicateIdError,
    GridSpec,
    MapMeta,
    MissionClock,
    PlayerTrajectory,
    Position,
    RescueEvent,
    Role,
    TeamSession,
    VictimType,
    Violation,
    team_roles_partition,
    validate_session,
)
from teamcoord.metrics import SeriesMetric
from teamcoord.sim.policies import PolicyKind
from teamcoord.stats import PerformanceGroup

from helpers import random_session, session_from_cells, traj
from oracles import validate_session_reference

GRID = GridSpec(6, 6)


def square_session(**kw):
    return session_from_cells(
        [[(0, 0), (1, 0), (1, 1)], [(2, 2), (2, 3), (2, 3)]],
        [[(4, 4), (4, 5), (3, 5)], [(5, 0), (5, 1), (5, 2)]],
        GRID, **kw)


def codes(report):
    return {v.code for v in report}


def test_well_formed_session_validates_clean():
    assert validate_session(square_session()) == []


@pytest.mark.parametrize("duration, flagged", [
    (3e6, False),  # exactly 10**6 sample intervals
    (3e6 + 1.5, False),  # 1000000.5 intervals round to the even 10**6
    (3e6 + 3.0, True), (1e300, True), (float("inf"), True)])
def test_mission_clock_spans_at_most_a_million_ticks(duration, flagged):
    s = square_session(clock=MissionClock(mission_duration_s=duration))
    report = validate_session(s)
    assert (CONFIG in codes(report)) is flagged
    assert report == validate_session_reference(s)


def test_three_players_flagged():
    s = square_session()
    s = TeamSession(s.session_id, s.grid, s.players[:3], s.events)
    assert PLAYER_COUNT in codes(validate_session(s))


def test_session_without_players_is_only_a_player_count_violation():
    s = TeamSession(session_id="empty", grid=GridSpec(4, 4), players=(), events=())
    assert validate_session(s) == [Violation(PLAYER_COUNT, "expected 4 players, found 0")]


def test_two_cell_jump_flagged():
    s = session_from_cells(
        [[(0, 0), (2, 0), (2, 1)], [(1, 1)] * 3],
        [[(3, 3)] * 3, [(4, 4)] * 3], GRID)
    assert DISCONTINUITY in codes(validate_session(s))


def test_diagonal_step_flagged():
    s = session_from_cells(
        [[(0, 0), (1, 1), (1, 2)], [(2, 2)] * 3],
        [[(3, 3)] * 3, [(4, 4)] * 3], GRID)
    assert DISCONTINUITY in codes(validate_session(s))


def test_skipped_tick_flagged():
    s = square_session()
    p = s.players[0]
    broken = traj(p.player_id, p.role, [(0, 0), (1, 0), (1, 1)])
    # renumber the last sample's tick to introduce a gap
    samples = broken.samples.copy()
    samples["tick"][-1], samples["time_s"][-1] = 4, 12.0
    broken = PlayerTrajectory(p.player_id, p.role, samples)
    s = TeamSession(s.session_id, s.grid, (broken,) + s.players[1:], s.events)
    assert DISCONTINUITY in codes(validate_session(s))


def test_time_mismatch_flagged():
    s = square_session()
    p = s.players[0]
    samples = p.samples.copy()
    samples["time_s"][1] = 5.0
    s = TeamSession(s.session_id, s.grid, (PlayerTrajectory(p.player_id, p.role, samples),) + s.players[1:])
    assert TIME_MISMATCH in codes(validate_session(s))


def test_off_grid_position_flagged():
    s = session_from_cells(
        [[(0, 0), (0, 1), (0, 2)], [(1, 1)] * 3],
        [[(3, 3)] * 3, [(5, 6)] * 3],  # y=6 outside a 6x6 grid
        GridSpec(6, 7))
    s = TeamSession(s.session_id, GRID, s.players, s.events)
    assert POSITION_BOUNDS in codes(validate_session(s))


def test_role_composition_flagged():
    s = session_from_cells(
        [[(0, 0)] * 3, [(1, 1)] * 3, [(2, 2)] * 3],
        [[(3, 3)] * 3], GRID)
    report = validate_session(s)
    assert ROLE_COMPOSITION in codes(report)
    assert report == validate_session_reference(s)  # pins the counts: "found 3 + 1"


def test_duplicate_player_id_flagged():
    s = square_session()
    clone = traj(s.players[0].player_id, Role.ENGINEER, [(4, 4), (4, 5), (3, 5)])
    s = TeamSession(s.session_id, s.grid, s.players[:3] + (clone,), s.events)
    assert DUPLICATE_ID in codes(validate_session(s))


def test_red_event_after_cutoff_flagged():
    ev = RescueEvent(time_s=240.0, victim_type=VictimType.RED,
                     victim_cell=Position(1, 1), actor_ids=("medic1", "engineer1"))
    s = square_session(events=(ev,))
    report = validate_session(s)
    assert RED_CUTOFF in codes(report)


def test_red_event_without_adjacent_engineer_flagged():
    # medic1 is at (1, 0) on tick 1 (adjacent to (1, 1)); both engineers are far away
    ev = RescueEvent(time_s=3.0, victim_type=VictimType.RED,
                     victim_cell=Position(1, 1), actor_ids=("medic1", "engineer1"))
    s = square_session(events=(ev,))
    assert RED_ACTORS in codes(validate_session(s))


def test_valid_red_event_passes():
    # tick 1: medic1 at (1,0), engineer at (2,1); victim at (1,1) is adjacent to both
    s = session_from_cells(
        [[(0, 0), (1, 0), (1, 1)], [(2, 2), (2, 3), (2, 3)]],
        [[(2, 0), (2, 1), (2, 1)], [(5, 0), (5, 1), (5, 2)]],
        GRID,
        events=(RescueEvent(3.0, VictimType.RED, Position(1, 1), ("medic1", "engineer1")),))
    assert validate_session(s) == []


# A red rescue at tick 1 beside a medic and an engineer, in a 3-tick log.
RED_AT_TICK_1 = RescueEvent(3.0, VictimType.RED, Position(1, 1), ("medic1", "engineer1"))


@pytest.mark.parametrize("clock, event, expected", [
    (MissionClock(9.0, 3.0), RED_AT_TICK_1, {RED_CUTOFF}),  # at the cutoff is too late
    (MissionClock(9.0, 6.0), RED_AT_TICK_1, set()),
    (MissionClock(9.0, 9.0), RED_AT_TICK_1, set()),  # the cutoff may end the mission
    (MissionClock(9.0, math.nan), RED_AT_TICK_1, {CONFIG}),  # a nan cutoff closes no rescue
    (MissionClock(9.0, 9.0), RescueEvent(9.0, VictimType.GREEN, Position(1, 1), ("medic1",)),
     {EVENT_TIME}),  # an event at the mission's end is outside it
    (MissionClock(9.0, 9.0), RescueEvent(6.0, VictimType.GREEN, Position(1, 1), ("medic1",)),
     set()),
    (MissionClock(), RescueEvent(9.0, VictimType.RED, Position(1, 1), ("medic1", "engineer1")),
     {RED_ACTORS}),  # tick 3 is one past the log
])
def test_mission_clock_boundaries_match_reference(clock, event, expected):
    s = session_from_cells(
        [[(0, 0), (1, 0), (1, 1)], [(2, 2), (2, 3), (2, 3)]],
        [[(2, 0), (2, 1), (2, 1)], [(5, 0), (5, 1), (5, 2)]],
        GRID, events=(event,), clock=clock)
    report = validate_session(s)
    assert codes(report) == expected
    assert report == validate_session_reference(s)


def test_event_outside_mission_flagged():
    ev = RescueEvent(time_s=400.0, victim_type=VictimType.GREEN,
                     victim_cell=Position(1, 1), actor_ids=("medic1",))
    s = square_session(events=(ev,))
    assert EVENT_TIME in codes(validate_session(s))


def test_partition_standard_session():
    s = square_session()
    part = team_roles_partition(s)
    assert [p.player_id for p in part[Role.MEDIC]] == ["medic1", "medic2"]
    assert [p.player_id for p in part[Role.ENGINEER]] == ["engineer1", "engineer2"]


def test_partition_rejects_three_medics():
    s = square_session()
    p = s.players[2]
    relabeled = PlayerTrajectory(p.player_id, Role.MEDIC, p.samples)
    s = TeamSession(s.session_id, s.grid, s.players[:2] + (relabeled, s.players[3]))
    with pytest.raises(CompositionError):
        team_roles_partition(s)


def test_partition_rejects_duplicate_ids():
    s = square_session()
    clone = traj(s.players[0].player_id, Role.ENGINEER, [(4, 4), (4, 5), (3, 5)])
    s = TeamSession(s.session_id, s.grid, s.players[:3] + (clone,))
    with pytest.raises(DuplicateIdError):
        team_roles_partition(s)


def test_partition_is_a_true_partition():
    rng = np.random.default_rng(7)
    for _ in range(50):
        s = random_session(rng)
        part = team_roles_partition(s)
        collected = part[Role.MEDIC] + part[Role.ENGINEER]
        assert sorted(p.player_id for p in collected) == sorted(p.player_id for p in s.players)
        assert len(collected) == 4


def test_random_sessions_validate_clean():
    rng = np.random.default_rng(11)
    for _ in range(50):
        assert validate_session(random_session(rng)) == []


def test_grid_rejects_degenerate_dimensions():
    with pytest.raises(ValueError):
        GridSpec(0, 4)


def acting_trajectory():
    """Three ticks with an action and a target on every row but the last."""
    return traj("engineer1", Role.ENGINEER, [(1, 1), (1, 2), (1, 2)],
                actions=[ActionTag.MOVE, ActionTag.CLEAR, None],
                targets=[Position(1, 2), Position(2, 2), None])


def test_trajectory_rows_hold_codes_and_empty_target_filler():
    rows = acting_trajectory().samples.tolist()
    assert rows == [(0, 0.0, 1, 1, 0, 1, 2, True),
                    (1, 3.0, 1, 2, 3, 2, 2, True),
                    (2, 6.0, 1, 2, -1, 0, 0, False)]


# One changed value in one row, per SAMPLE field.
CHANGED_FIELD = {
    "tick": 5, "time_s": 3.5, "x": 0, "y": 3, "action": 1,
    "target_x": 0, "target_y": 0, "has_target": False,
}


@pytest.mark.parametrize("field", SAMPLE.names)
def test_trajectory_equality_sees_every_sample_field(field):
    a = acting_trajectory()
    samples = a.samples.copy()
    assert samples[field][1] != CHANGED_FIELD[field]
    samples[field][1] = CHANGED_FIELD[field]
    assert a == PlayerTrajectory(a.player_id, a.role, a.samples.copy())
    assert a != PlayerTrajectory(a.player_id, a.role, samples)


def test_trajectory_equality_sees_id_role_and_length():
    a = acting_trajectory()
    assert a != PlayerTrajectory("engineer2", a.role, a.samples)
    assert a != PlayerTrajectory(a.player_id, Role.MEDIC, a.samples)
    assert a != PlayerTrajectory(a.player_id, a.role, a.samples[:2])
    assert a != a.samples


def test_trajectory_samples_and_xy_are_read_only():
    source = acting_trajectory().samples.copy()
    p = PlayerTrajectory("engineer1", Role.ENGINEER, source)
    source["x"][0] = 4  # the trajectory holds its own copy
    assert p.samples["x"][0] == 1
    with pytest.raises(ValueError):
        p.samples["x"][0] = 4
    with pytest.raises(ValueError):
        p.samples["y"][0] = 4
    assert p.samples[["x", "y"]].tolist() == [(1, 1), (1, 2), (1, 2)]


def test_validation_matches_reference_loop_on_random_faults():
    # random sessions with random ticks, times and cells, some of them off
    # grid, some players empty: the masks must flag what the loop flags, in
    # its order and wording
    rng = np.random.default_rng(29)
    for case in range(200):
        s = random_session(rng, width=5, height=4, n_ticks=int(rng.integers(0, 7)))
        players = []
        for p in s.players:
            rows = p.samples.copy()
            for field, low, high in (("tick", -2, 9), ("x", -2, 7), ("y", -2, 6)):
                hit = rng.random(len(rows)) < 0.15
                rows[field][hit] = rng.integers(low, high, hit.sum())
            rows["time_s"][rng.random(len(rows)) < 0.1] = rng.choice([np.nan, np.inf, 1.5])
            players.append(PlayerTrajectory(p.player_id, p.role, rows[:int(rng.integers(0, 8))]))
        s = TeamSession(s.session_id, s.grid, tuple(players),
                        sample_interval_s=float(rng.choice([3.0, 0.5, np.inf])))
        assert validate_session(s) == validate_session_reference(s), case


def naive_discontinuities(samples, dtype=np.int64):
    """Per step, whether the tick jumps or the position moves more than one
    cell, from `t[:-1] + 1` and `np.diff` on int64 or float64 columns."""
    t = samples["tick"]
    x, y = samples["x"].astype(dtype), samples["y"].astype(dtype)
    return ((t[1:] != t[:-1] + 1) | (np.abs(np.diff(x)) + np.abs(np.diff(y)) > 1)).tolist()


# Two samples of one player at the int64 limits: the fields of each row, and
# the dtype of the naive check that misses the step between them.
INT64_STEPS = {
    "tick_max_then_min": ((2 ** 63 - 1, 0), (-2 ** 63, 0), np.int64),
    "x_minus_one_then_max": ((0, -1), (1, 2 ** 63 - 1), np.int64),
    "x_two_apart_past_float_precision": ((0, 2 ** 62), (1, 2 ** 62 + 2), np.float64),
    "x_min_then_max": ((0, -2 ** 63), (1, 2 ** 63 - 1), np.int64),
}


@pytest.mark.parametrize("case", sorted(INT64_STEPS))
def test_validation_at_the_int64_limits_matches_reference(case):
    (t0, x0), (t1, x1), naive_dtype = INT64_STEPS[case]
    rows = np.array([(t0, 0.0, x0, 1, -1, 0, 0, False), (t1, 3.0, x1, 1, -1, 0, 0, False)],
                    dtype=SAMPLE)
    s = square_session()
    s = TeamSession(s.session_id, s.grid,
                    (PlayerTrajectory("medic1", Role.MEDIC, rows),) + s.players[1:])
    report = validate_session(s)
    assert report == validate_session_reference(s)
    assert any(v.code == DISCONTINUITY and "medic1" in v.message and (
        "tick jumps" in v.message or "moved" in v.message) for v in report)
    assert naive_discontinuities(rows, naive_dtype) == [False]


def test_smallest_grid_and_inventory_build_and_the_cell_bound_is_exact():
    assert GridSpec(1, 1).n_cells == 1
    assert MapMeta(traversable_cells=1, max_tasks={}).traversable_cells == 1
    with pytest.raises(ValueError, match="too large for int64 cell indices"):
        GridSpec(2 ** 62, 2)  # exactly 2**63 cells


def test_map_meta_needs_a_traversable_cell():
    with pytest.raises(ValueError, match="traversable cell count must be positive"):
        MapMeta(traversable_cells=0, max_tasks={})


@pytest.mark.parametrize("enum", [Role, VictimType, ActionTag, SeriesMetric, PolicyKind,
                                  PerformanceGroup], ids=lambda e: e.__name__)
def test_enum_members_print_as_their_values(enum):
    for member in enum:
        assert str(member) == f"{member}" == format(member) == member.value
        assert format(member, ">24") == format(member.value, ">24")
