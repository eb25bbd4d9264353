import numpy as np
import pytest

from teamcoord.core import (ACTIONS, ActionTag, GridSpec, PlayerTrajectory, Position, RescueEvent, Role,
                            TeamSession, VictimType)
from teamcoord.outcomes import (
    InconsistentMetadataError,
    MapMeta,
    collective_intelligence,
    team_performance,
)
from teamcoord.stats import performance_groups, spearman

from helpers import random_session, session_from_cells, traj

G = GridSpec(6, 6)


def ev(kind, t=3.0, cell=(1, 1), actors=("medic1",)):
    return RescueEvent(time_s=t, victim_type=kind, victim_cell=Position(*cell), actor_ids=actors)


def test_no_rescues_scores_zero():
    score = team_performance([])
    assert score.points == 0
    assert all(v == 0 for v in score.rescues.values())


def test_weighted_score_hand_case():
    events = [ev(VictimType.RED)] * 2 + [ev(VictimType.YELLOW)] * 3 + [ev(VictimType.GREEN)]
    score = team_performance(events)
    assert score.points == 2 * 60 + 3 * 30 + 1 * 10 == 220
    assert score.rescues[VictimType.RED] == 2
    assert score.rescues[VictimType.YELLOW] == 3
    assert score.rescues[VictimType.GREEN] == 1


def test_single_green_scores_ten():
    assert team_performance([ev(VictimType.GREEN)]).points == 10


def test_performance_additive_over_disjoint_event_lists():
    rng = np.random.default_rng(17)
    kinds = list(VictimType)
    for _ in range(30):
        a = [ev(kinds[rng.integers(3)]) for _ in range(rng.integers(0, 8))]
        b = [ev(kinds[rng.integers(3)]) for _ in range(rng.integers(0, 8))]
        assert team_performance(a + b).points == team_performance(a).points + team_performance(b).points


def meta(traversable=36, medic=4, engineer=4):
    return MapMeta(traversable_cells=traversable, max_tasks={Role.MEDIC: medic, Role.ENGINEER: engineer})


def test_ci_idle_player_components():
    s = session_from_cells(
        [[(0, 0)] * 5, [(1, 1)] * 5],
        [[(2, 2)] * 5, [(3, 3)] * 5], G)
    ci = collective_intelligence(s, meta())
    idle = ci.per_player["medic1"]
    assert idle.effort == pytest.approx(1 / 36)
    assert idle.skill == 0.0
    assert idle.task_strategy == 0.0


def test_ci_full_coverage_effort_is_one():
    cells = [(x, 0) for x in range(6)]  # entire 6x1 strip
    grid = GridSpec(6, 1)
    s = session_from_cells([cells, cells], [cells, cells], grid)
    ci = collective_intelligence(s, MapMeta(6, {Role.MEDIC: 1, Role.ENGINEER: 1}))
    assert all(c.effort == 1.0 for c in ci.per_player.values())


def test_ci_medic_completing_all_tasks():
    events = (
        ev(VictimType.GREEN, 3.0, actors=("medic1",)),
        ev(VictimType.YELLOW, 6.0, actors=("medic1",)),
    )
    s = session_from_cells(
        [[(0, 0), (0, 1), (0, 2)], [(1, 1)] * 3],
        [[(2, 2)] * 3, [(3, 3)] * 3], G, events=events)
    ci = collective_intelligence(s, meta(medic=2))
    assert ci.per_player["medic1"].task_strategy == 1.0


def test_ci_joint_red_rescue_credits_both_actors():
    events = (ev(VictimType.RED, 3.0, actors=("medic1", "engineer1")),)
    s = session_from_cells(
        [[(0, 0)] * 4, [(1, 1)] * 4],
        [[(2, 2)] * 4, [(3, 3)] * 4], G, events=events)
    ci = collective_intelligence(s, meta())
    assert ci.per_player["medic1"].task_strategy == pytest.approx(1 / 4)
    assert ci.per_player["engineer1"].task_strategy == pytest.approx(1 / 4)


def test_ci_engineer_counts_clears_and_opens():
    actions = [None, ActionTag.CLEAR, ActionTag.OPEN, ActionTag.MOVE]
    eng = traj("engineer1", Role.ENGINEER, [(2, 2)] * 4, actions=actions)
    players = (
        traj("medic1", Role.MEDIC, [(0, 0)] * 4),
        traj("medic2", Role.MEDIC, [(1, 1)] * 4),
        eng,
        traj("engineer2", Role.ENGINEER, [(3, 3)] * 4),
    )
    s = TeamSession("s", G, players)
    ci = collective_intelligence(s, meta())
    assert ci.per_player["engineer1"].task_strategy == pytest.approx(2 / 4)
    assert ci.per_player["engineer1"].skill == pytest.approx(2 / 4)


def test_ci_ignores_action_codes_outside_the_action_list():
    def coded(pid, role, codes):
        return PlayerTrajectory(pid, role, [(i, 3.0 * i, 0, 0, c, 0, 0, False)
                                            for i, c in enumerate(codes)])

    rescue, clear, open_ = (ACTIONS.index(a) for a in (ActionTag.RESCUE, ActionTag.CLEAR,
                                                       ActionTag.OPEN))
    players = (
        coded("medic1", Role.MEDIC, [-1, -5, 9, rescue, 9, -1, rescue, -5]),
        coded("medic2", Role.MEDIC, [-5] * 8),
        coded("engineer1", Role.ENGINEER, [9, clear, -5, open_, -1, rescue, 9, clear]),
        coded("engineer2", Role.ENGINEER, [9] * 8),
    )
    ci = collective_intelligence(TeamSession("s", G, players), meta())
    # what np.isin over the role's action codes counted: -1, -5 and 9 are no action
    assert [c.skill for c in ci.per_player.values()] == [2 / 8, 0.0, 4 / 8, 0.0]
    assert [c.task_strategy for c in ci.per_player.values()] == [0.0, 0.0, 3 / 4, 0.0]


def test_ci_inconsistent_metadata_raises():
    events = tuple(ev(VictimType.GREEN, 3.0 * i, actors=("medic1",)) for i in range(1, 6))
    s = session_from_cells(
        [[(0, 0)] * 6, [(1, 1)] * 6],
        [[(2, 2)] * 6, [(3, 3)] * 6], G, events=events)
    with pytest.raises(InconsistentMetadataError):
        collective_intelligence(s, meta(medic=3))


def test_team_ci_is_mean_of_player_means():
    rng = np.random.default_rng(23)
    for _ in range(20):
        s = random_session(rng)
        ci = collective_intelligence(s, meta(traversable=64))
        expected = np.mean([c.mean for c in ci.per_player.values()])
        assert ci.team_ci == pytest.approx(expected, abs=1e-12)
        assert 0.0 <= ci.team_ci <= 1.0


def test_team_ci_monotone_in_completions_and_actions():
    base = session_from_cells(
        [[(0, 0), (0, 1), (0, 2)], [(1, 1)] * 3],
        [[(2, 2)] * 3, [(3, 3)] * 3], G)
    m = meta()
    low = collective_intelligence(base, m).team_ci
    # one more credited rescue raises the medic's task strategy, so team ci rises
    credited = TeamSession(base.session_id, base.grid, base.players,
                           (ev(VictimType.GREEN, 3.0, actors=("medic1",)),))
    assert collective_intelligence(credited, m).team_ci > low
    # a role-specific action raises skill the same way
    acted = traj("medic2", Role.MEDIC, [(1, 1)] * 3,
                 actions=[None, ActionTag.RESCUE, None])
    with_action = TeamSession(base.session_id, base.grid,
                              (base.players[0], acted) + base.players[2:])
    assert collective_intelligence(with_action, m).team_ci > low


def test_scaling_performance_preserves_rank_statistics_and_groups():
    rng = np.random.default_rng(29)
    scores = {f"t{i:02d}": float(rng.integers(0, 400)) for i in range(12)}
    other = rng.random(12)
    ids = sorted(scores)
    base = spearman(other, [scores[i] for i in ids])
    base_groups = performance_groups(scores)
    for k in (2.0, 7.5, 0.25):
        scaled = {i: k * v for i, v in scores.items()}
        r = spearman(other, [scaled[i] for i in ids])
        assert r.rho == pytest.approx(base.rho, abs=1e-12)
        assert performance_groups(scaled) == base_groups
