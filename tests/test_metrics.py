import dataclasses
import itertools

import numpy as np
import pytest

from teamcoord import metrics
from teamcoord.core import (CompositionError, GridSpec, MissionClock, PlayerTrajectory, Role,
                            TeamSession)
from teamcoord.metrics import (
    MisalignedSessionError,
    SeriesMetric,
    TooShortSessionError,
    UnsupportedMetricError,
    WindowTooLargeError,
    coordination_metrics,
    cross_role_distances,
    metric_time_series,
    spatial_exploration_diversity,
    spatial_movement_specialization,
    spatial_proximity_adaptation,
)
from teamcoord.sim import AgentPolicy, PolicyKind, builtin_map, run_mission
from teamcoord.sim.maps import map_from_ascii

from helpers import random_session, session_from_cells, traj
from oracles import jsd_base2, moving_average_loop, window_series_loop
from test_golden import EDGE_ART

G = GridSpec(8, 8)


def static(cell, n=6):
    return [cell] * n


# --- exploration diversity ---------------------------------------------------

def test_sed_zero_for_identical_trajectories():
    path = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2)]
    s = session_from_cells([path, path], [path, path], G)
    assert spatial_exploration_diversity(s) == 0.0


def test_sed_one_for_disjoint_static_players():
    s = session_from_cells([static((0, 0)), static((7, 0))],
                           [static((0, 7)), static((7, 7))], G)
    assert spatial_exploration_diversity(s) == pytest.approx(1.0, abs=1e-12)


def test_sed_two_identical_pairs():
    # two pairs, identical within and disjoint across: 2 pairs at 0, 4 at 1
    s = session_from_cells([static((0, 0)), static((0, 0))],
                           [static((7, 7)), static((7, 7))], G)
    assert spatial_exploration_diversity(s) == pytest.approx(4 / 6, abs=1e-12)


def test_sed_needs_two_players():
    s = session_from_cells([static((0, 0))], [], G)
    with pytest.raises(CompositionError, match="^exploration diversity needs at least two players$"):
        spatial_exploration_diversity(s)


def test_sed_permutation_invariant():
    rng = np.random.default_rng(21)
    for _ in range(20):
        s = random_session(rng)
        base = spatial_exploration_diversity(s)
        perm = list(s.players)
        rng.shuffle(perm)
        shuffled = TeamSession(s.session_id, s.grid, tuple(perm))
        assert spatial_exploration_diversity(shuffled) == pytest.approx(base, abs=1e-12)


# --- movement specialization -------------------------------------------------

def test_sms_equal_entropy_zero_overlap_is_one():
    medic = [(0, 0), (1, 0)] * 4
    engineer = [(0, 2), (1, 2)] * 4
    s = session_from_cells([medic, medic], [engineer, engineer], G)
    assert spatial_movement_specialization(s) == pytest.approx(1.0, abs=1e-12)


def test_sms_identical_roles_is_zero():
    path = [(0, 0), (1, 0), (1, 1), (0, 1)] * 2
    s = session_from_cells([path, path], [path, path], G)
    assert spatial_movement_specialization(s) == 0.0


def test_sms_product_of_components():
    # medics uniform over a 2x2 block (entropy 2); engineers alternate two
    # cells (entropy 1); one shared cell of five => overlap 0.2
    medic = [(0, 0), (1, 0), (1, 1), (0, 1)] * 2
    engineer = [(1, 1), (2, 1)] * 4
    s = session_from_cells([medic, medic], [engineer, engineer], G)
    assert spatial_movement_specialization(s) == pytest.approx(0.5 * (1 - 0.2), abs=1e-12)


def test_sms_invariant_to_role_label_swap():
    rng = np.random.default_rng(31)
    for _ in range(20):
        s = random_session(rng)
        base = spatial_movement_specialization(s)
        flipped = tuple(
            PlayerTrajectory(p.player_id,
                             Role.ENGINEER if p.role is Role.MEDIC else Role.MEDIC,
                             p.samples)
            for p in s.players)
        assert spatial_movement_specialization(
            TeamSession(s.session_id, s.grid, flipped)) == pytest.approx(base, abs=1e-12)


# --- proximity adaptation ----------------------------------------------------

def test_spa_zero_for_static_formation():
    s = session_from_cells([static((0, 0)), static((1, 0))],
                           [static((5, 0)), static((6, 0))], G)
    assert spatial_proximity_adaptation(s) == 0.0


def test_spa_zero_when_all_colocated():
    s = session_from_cells([static((3, 3)), static((3, 3))],
                           [static((3, 3)), static((3, 3))], G)
    assert spatial_proximity_adaptation(s) == 0.0


def test_spa_hand_constructed_halves():
    # engineers sit at x=10 for ten ticks, then walk to x=5 and hold:
    # D1 = 10, D2 = (9+8+7+6+5*6)/10 = 6, so SPA = 4/10
    grid = GridSpec(21, 1)
    eng = [(10, 0)] * 10 + [(9, 0), (8, 0), (7, 0), (6, 0), (5, 0)] + [(5, 0)] * 5
    med = [(0, 0)] * 20
    s = session_from_cells([med, med], [eng, eng], grid)
    assert spatial_proximity_adaptation(s) == pytest.approx(0.4, abs=1e-12)


def test_spa_invariant_to_time_reversal():
    rng = np.random.default_rng(41)
    for _ in range(20):
        s = random_session(rng, n_ticks=14)
        base = spatial_proximity_adaptation(s)
        rev_players = tuple(
            traj(p.player_id, p.role, p.samples[["x", "y"]][::-1].tolist())
            for p in s.players)
        rev = TeamSession(s.session_id, s.grid, rev_players)
        assert spatial_proximity_adaptation(rev) == pytest.approx(base, abs=1e-12)


def test_spa_needs_two_ticks():
    s = session_from_cells([[(0, 0)], [(1, 0)]], [[(2, 0)], [(3, 0)]], G)
    with pytest.raises(TooShortSessionError):
        spatial_proximity_adaptation(s)


def test_cross_role_distance_is_euclidean():
    s = session_from_cells([static((0, 0)), static((0, 0))],
                           [static((3, 4)), static((3, 4))], G)
    assert cross_role_distances(s)[0] == pytest.approx(5.0)


# --- bounds on random sessions ----------------------------------------------

def test_metric_triple_within_bounds():
    rng = np.random.default_rng(51)
    for _ in range(100):
        m = coordination_metrics(random_session(rng))
        assert 0.0 <= m.sed <= 1.0
        assert 0.0 <= m.sms <= 1.0
        assert 0.0 <= m.spa <= 1.0


# --- time series ---------------------------------------------------------

def split_session(t_join=30, t_total=60):
    """All four players co-move at the origin, then scatter to the corners."""
    grid = GridSpec(31, 31)
    p1 = [(0, 0)] * t_total
    p2 = [(0, 0)] * t_join + [(i + 1, 0) for i in range(t_total - t_join)]
    p3 = [(0, 0)] * t_join + [(0, i + 1) for i in range(t_total - t_join)]
    p4 = [(0, 0)] * t_join
    x = y = 0
    for i in range(t_total - t_join):
        if i % 2 == 0:
            x += 1
        else:
            y += 1
        p4.append((x, y))
    return session_from_cells([p1, p2], [p3, p4], grid,
                              clock=MissionClock(float(t_total * 3), float(t_total * 3) * 0.6))


def test_series_constant_for_static_inter_role_distance():
    s = session_from_cells([static((0, 0), 30), static((1, 0), 30)],
                           [static((5, 0), 30), static((6, 0), 30)], G)
    ts = metric_time_series(s, "inter_role_distance", window_ticks=5, smooth_ticks=3)
    vals = np.array([v for _, v in ts.values])
    assert np.allclose(vals, vals[0])


def test_series_rolling_adaptation_zero_on_constant_distance():
    s = session_from_cells([static((0, 0), 30), static((1, 0), 30)],
                           [static((5, 0), 30), static((6, 0), 30)], G)
    ts = metric_time_series(s, SeriesMetric.SPA_ROLLING, window_ticks=5, smooth_ticks=1)
    assert np.allclose([v for _, v in ts.values], 0.0)


def test_series_sed_monotone_around_divergence():
    s = split_session()
    ts = metric_time_series(s, "sed", window_ticks=10, smooth_ticks=1)
    by_end = {round(p * s.nominal_ticks): v for p, v in ts.values}
    transition = [by_end[e] for e in range(29, 46)]
    assert all(b >= a - 1e-12 for a, b in zip(transition, transition[1:]))
    assert transition[0] == 0.0
    assert transition[-1] > 0.5

    # independent recomputation of each window from sub-trajectories
    for end in (32, 36, 40):
        start = end - 9
        dists = [np.bincount(p.samples["y"][start:end + 1] * s.grid.width
                             + p.samples["x"][start:end + 1], minlength=s.grid.n_cells) / 10
                 for p in s.players]
        expected = np.mean([jsd_base2(a.tolist(), b.tolist())
                            for a, b in itertools.combinations(dists, 2)])
        assert by_end[end] == pytest.approx(expected, abs=1e-12)


def test_series_progress_is_strictly_increasing_in_unit_interval():
    s = split_session()
    for metric in SeriesMetric:
        ts = metric_time_series(s, metric, window_ticks=8, smooth_ticks=3)
        prog = np.array([p for p, _ in ts.values])
        assert np.all(np.diff(prog) > 0)
        assert prog[0] >= 0.0 and prog[-1] <= 1.0


def test_single_window_series_matches_whole_mission_metrics():
    rng = np.random.default_rng(61)
    for _ in range(10):
        s = random_session(rng, n_ticks=16)
        t = s.n_ticks
        sed_ts = metric_time_series(s, "sed", window_ticks=t, smooth_ticks=1)
        assert len(sed_ts.values) == 1
        assert same_bits(sed_ts.values[0][1], spatial_exploration_diversity(s))
        sms_ts = metric_time_series(s, "sms", window_ticks=t, smooth_ticks=1)
        assert same_bits(sms_ts.values[0][1], spatial_movement_specialization(s))
        d_ts = metric_time_series(s, "inter_role_distance", window_ticks=t, smooth_ticks=1)
        assert d_ts.values[0][1] == pytest.approx(float(cross_role_distances(s).mean()), abs=1e-12)


@pytest.mark.parametrize("entry", [
    spatial_exploration_diversity,
    spatial_movement_specialization,
    coordination_metrics,
    cross_role_distances,
    lambda s: metric_time_series(s, "sed", window_ticks=4),
    lambda s: metric_time_series(s, "inter_role_distance", window_ticks=4),
], ids=["sed", "sms", "coordination_metrics", "cross_role_distances", "series_sed",
        "series_distance"])
def test_misaligned_tick_counts_raise_naming_each_count(entry):
    # the last engineer lost its final sample
    s = session_from_cells([static((0, 0), 5), static((1, 0), 5)],
                           [static((5, 0), 5), static((6, 0), 4)], G)
    with pytest.raises(MisalignedSessionError) as err:
        entry(s)
    assert str(err.value) == ("players disagree on tick count: "
                              "medic1 5, medic2 5, engineer1 5, engineer2 4")


def test_series_window_too_large():
    s = random_session(np.random.default_rng(71), n_ticks=10)
    with pytest.raises(WindowTooLargeError):
        metric_time_series(s, "sed", window_ticks=11)


def test_series_rolling_adaptation_needs_two_windows():
    s = random_session(np.random.default_rng(73), n_ticks=10)
    assert len(metric_time_series(s, "spa_rolling", window_ticks=9).values) == 1
    with pytest.raises(WindowTooLargeError, match="^rolling adaptation needs at least two windows$"):
        metric_time_series(s, "spa_rolling", window_ticks=10)


def test_series_unknown_metric():
    s = random_session(np.random.default_rng(81), n_ticks=10)
    for metric in ("velocity", 3, None, ["sed"]):
        with pytest.raises(UnsupportedMetricError) as exc:
            metric_time_series(s, metric, window_ticks=4)
        assert str(exc.value) == f"unknown metric {metric!r}"


# --- window kernels against the per-window loop -------------------------------

def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def test_numpy_row_sums_round_like_1d_sums():
    # The SED/SMS kernels and the moving average rely on this: `.sum(axis=1)`
    # over a C-contiguous 2-D float array reduces each row exactly like that
    # row's 1-D `.sum()`. A numpy release that changes it fails here.
    rng = np.random.default_rng(5)
    for n in [*range(1, 201), 1000, 8191, 8192, 8193]:
        rows = rng.standard_normal((7, n)) * 10.0 ** rng.uniform(-8, 8, (7, n))
        assert rows.flags.c_contiguous
        assert same_bits(rows.sum(axis=1), [row.sum() for row in rows]), n


def test_moving_average_matches_loop_with_shrinking_edges():
    rng = np.random.default_rng(9)
    for n in range(1, 121):
        values = rng.random(n) * 10.0 ** rng.uniform(-3, 3, n)
        for k in range(1, 16):
            assert same_bits(metrics._moving_average(values, k), moving_average_loop(values, k)), (n, k)


@pytest.mark.parametrize("kind", ["random_walk", "greedy", "coordinated"])
@pytest.mark.parametrize("map_name", ["small", "medium", "corridor", "edge"])
def test_sed_sms_series_match_window_loop(map_name, kind):
    # "edge" has no border walls, so cells on the outer rows and columns are visited
    spec = map_from_ascii("edge", EDGE_ART) if map_name == "edge" else builtin_map(map_name)
    policy = AgentPolicy(PolicyKind(kind))
    s = run_mission(spec, [(Role.MEDIC, policy)] * 2 + [(Role.ENGINEER, policy)] * 2, seed=11)
    for metric in ("sed", "sms"):
        for window in (2, 7, 20, s.n_ticks):
            for coarsen in (1, 2, 3):
                for smooth in (1, 5):
                    got = metric_time_series(s, metric, window, smooth, coarsen=coarsen)
                    want = window_series_loop(s, metric, window, smooth, coarsen)
                    assert same_bits(got.values, want), (metric, window, coarsen, smooth)


@pytest.mark.parametrize("kind", ["random_walk", "greedy", "coordinated"])
@pytest.mark.parametrize("map_name", ["small", "medium", "corridor"])
def test_coordination_metrics_share_one_cell_index_array(monkeypatch, map_name, kind):
    calls = []
    index = metrics.cell_indices
    monkeypatch.setattr(metrics, "cell_indices",
                        lambda traj, *args: calls.append(traj.player_id) or index(traj, *args))
    policy = AgentPolicy(PolicyKind(kind))
    for seed in (0, 1, 2):
        s = run_mission(builtin_map(map_name),
                        [(Role.MEDIC, policy)] * 2 + [(Role.ENGINEER, policy)] * 2, seed=seed)
        # engineers first: SMS pools players by role in any order
        for session in (s, dataclasses.replace(s, players=s.players[2:] + s.players[:2])):
            for coarsen in (1, 2, 3):
                calls.clear()
                m = coordination_metrics(session, coarsen=coarsen)
                assert calls == [p.player_id for p in session.players]
                for metric, value in (("sed", m.sed), ("sms", m.sms)):
                    (_, want), = window_series_loop(session, metric, session.n_ticks, 1, coarsen)
                    assert same_bits(value, want), (metric, seed, coarsen)


def test_sed_sms_series_match_window_loop_across_blocks():
    s = random_session(np.random.default_rng(17), width=24, height=24, n_ticks=1500)
    visited = np.unique(np.concatenate([p.samples["y"] * 24 + p.samples["x"] for p in s.players])).size
    # windows times the (pair, side) rows of SED times visited cells: many blocks
    assert (s.n_ticks - 20) * 12 * visited > 4 * metrics._SERIES_BLOCK_CELLS
    for metric in ("sed", "sms"):
        # 600-tick windows have supports above 128 cells, where numpy's pairwise sum splits
        for window, smooth in ((20, 5), (600, 1)):
            got = metric_time_series(s, metric, window, smooth)
            assert same_bits(got.values, window_series_loop(s, metric, window, smooth)), metric
