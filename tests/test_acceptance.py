"""Acceptance suite: one test per release criterion, run at stated tolerances.

Each test prints a `[acceptance] criterion N PASS` line so a plain
`pytest -s tests/test_acceptance.py` reads as a checklist.
"""
import math
import time

import numpy as np
import pytest

from teamcoord.core import ActionTag, GridSpec, Position, Role, VictimType, validate_session
from teamcoord.metrics import (
    coordination_metrics,
    cross_role_distances,
    spatial_exploration_diversity,
    spatial_movement_specialization,
    spatial_proximity_adaptation,
)
from teamcoord.occupancy import jensen_shannon_divergence
from teamcoord.outcomes import team_performance
from teamcoord.session_io import (
    MetricTableError,
    MetricsTableRow,
    format_metrics_table,
    read_map,
    read_metrics_table,
    read_session,
    write_map,
    write_session,
)
from teamcoord.sim import (
    AgentAction,
    AgentPolicy,
    AgentState,
    MapSpec,
    PolicyKind,
    WorldState,
    builtin_map,
    initial_state,
    map_from_cells,
    run_mission,
    step_resolved,
)
from teamcoord.sim.world import VICTIM_CODES
from teamcoord.stats import (
    bootstrap_mediation,
    mann_whitney_u,
    mann_whitney_u_exact,
    ols,
    one_way_anova,
    pct_mediated,
    quadratic_fit,
    spearman,
    vertex_of,
)

from helpers import random_session, session_from_cells
from oracles import (
    anova_f,
    f_sf_quad,
    jsd_base2,
    mann_whitney_exact_p,
    mann_whitney_normal_p,
    mission_rule_audit,
    ols_normal_equations,
    spearman_rho,
    t_two_sided_quad,
    to_cell,
    u_statistic,
)


def ok(n, message):
    print(f"[acceptance] criterion {n} PASS - {message}")


def policy_team(kind):
    p = AgentPolicy(kind)
    return [(Role.MEDIC, p), (Role.MEDIC, p), (Role.ENGINEER, p), (Role.ENGINEER, p)]


_corpus_cache = {}


@pytest.fixture(scope="module")
def medium_corpus():
    """30 coordinated and 30 random-walk missions on the medium map."""
    if "data" not in _corpus_cache:
        t0 = time.monotonic()
        spec = builtin_map("medium")
        coordinated = [run_mission(spec, policy_team(PolicyKind.COORDINATED), seed=s)
                       for s in range(30)]
        random_walk = [run_mission(spec, policy_team(PolicyKind.RANDOM_WALK), seed=s)
                       for s in range(30)]
        _corpus_cache["data"] = (spec, coordinated, random_walk)
        _corpus_cache["elapsed"] = time.monotonic() - t0
    return _corpus_cache["data"], _corpus_cache["elapsed"]


# -------------------------------------------------------------------------
# 1. metric bounds and identities over randomized valid sessions


def test_c1_metric_bounds_and_identities():
    t0 = time.monotonic()
    rng = np.random.default_rng(2027)
    n_sessions = 10_000
    for i in range(n_sessions):
        s = random_session(rng, width=8, height=8, n_ticks=12)
        m = coordination_metrics(s)
        assert 0.0 <= m.sed <= 1.0
        assert 0.0 <= m.sms <= 1.0
        assert 0.0 <= m.spa <= 1.0

    grid = GridSpec(8, 8)
    path = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2)]
    identical = session_from_cells([path, path], [path, path], grid)
    assert spatial_exploration_diversity(identical) == 0.0
    assert spatial_movement_specialization(identical) == 0.0  # same cells, same distribution
    static = session_from_cells([[(0, 0)] * 6, [(3, 3)] * 6],
                                [[(6, 6)] * 6, [(1, 5)] * 6], grid)
    assert spatial_proximity_adaptation(static) == 0.0
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"bound suite took {elapsed:.1f}s"
    ok(1, f"{n_sessions} random sessions in bounds, identities hold, {elapsed:.1f}s")


# -------------------------------------------------------------------------
# 2. divergence against the double-sum oracle


def test_c2_jsd_oracle():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(400):
        n = int(rng.integers(2, 257))
        p = rng.random(n) ** rng.integers(1, 6)
        q = rng.random(n) ** rng.integers(1, 6)
        if rng.random() < 0.5:  # sparse supports stress the zero handling
            p[rng.random(n) < 0.5] = 0.0
            q[rng.random(n) < 0.5] = 0.0
        if p.sum() == 0:
            p[0] = 1.0
        if q.sum() == 0:
            q[-1] = 1.0
        p /= p.sum()
        q /= q.sum()
        got = jensen_shannon_divergence(p, q)
        worst = max(worst, abs(got - jsd_base2(p.tolist(), q.tolist())))
    assert worst <= 1e-12

    hand = jensen_shannon_divergence([1.0, 0.0], [0.5, 0.5])
    assert hand == pytest.approx(0.311278, abs=1e-6)
    ok(2, f"400 oracle pairs agree within {worst:.2e}; hand case 0.311278 reproduced")


# -------------------------------------------------------------------------
# 3. quadratic optimum


def test_c3_quadratic_optimum():
    assert vertex_of(4660.33, -6693.82) == pytest.approx(0.348, abs=5e-4)

    rng = np.random.default_rng(348)
    x = rng.uniform(0.158, 0.597, size=34)
    y = -326.04 + 4660.33 * x - 6693.82 * x ** 2 + rng.normal(scale=40.0, size=34)
    fit = quadratic_fit(x, y)
    assert fit.vertex_x == pytest.approx(vertex_of(4660.33, -6693.82), abs=0.01)
    assert fit.inverted_u
    ok(3, f"vertex arithmetic 0.348 and corpus recovery at {fit.vertex_x:.4f}")


# -------------------------------------------------------------------------
# 4. mediation arithmetic, identity, reproducibility


def test_c4_mediation():
    t0 = time.monotonic()
    assert pct_mediated(540.64, 1135.67) == pytest.approx(47.6, abs=0.1)

    rng = np.random.default_rng(44)
    for _ in range(25):
        n = int(rng.integers(6, 40))
        x = rng.normal(scale=rng.uniform(0.5, 2.0), size=n)
        m = rng.normal(size=n) + rng.uniform(-2, 2) * x
        y = rng.normal(size=n) + rng.uniform(-2, 2) * m + rng.uniform(-2, 2) * x
        res = bootstrap_mediation(x, m, y, resamples=5, seed=0)
        assert abs(res.c_total - (res.c_prime + res.a * res.b)) < 1e-8

    x = rng.normal(size=30)
    m = 0.8 * x + rng.normal(scale=0.5, size=30)
    y = 1.2 * m + rng.normal(scale=0.5, size=30)
    r1 = bootstrap_mediation(x, m, y, resamples=5000, seed=7)
    r2 = bootstrap_mediation(x, m, y, resamples=5000, seed=7)
    assert (r1.ci_low, r1.ci_high, r1.boot_indirect_mean) == \
        (r2.ci_low, r2.ci_high, r2.boot_indirect_mean)

    chain_rng = np.random.default_rng(31)
    cx = chain_rng.normal(size=34)
    cm = cx + chain_rng.normal(scale=0.1, size=34)
    cy = cm + chain_rng.normal(scale=0.1, size=34)
    chain = bootstrap_mediation(cx, cm, cy, resamples=5000, seed=7)
    assert chain.ci_low > 0.0
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"mediation suite took {elapsed:.1f}s"
    ok(4, f"47.6% arithmetic, identity to 1e-8, bit-stable CIs, chain CI "
          f"[{chain.ci_low:.2f}, {chain.ci_high:.2f}] excludes 0, {elapsed:.1f}s")


# -------------------------------------------------------------------------
# 5. estimator oracles


def test_c5_statistical_oracles():
    rng = np.random.default_rng(55)

    for _ in range(100):  # Spearman
        n = int(rng.integers(4, 16))
        x = rng.integers(0, 6, size=n).astype(float)
        y = rng.normal(size=n)
        if np.unique(x).size < 2:
            x[0] += 1.0
        r = spearman(x, y)
        rho_ref = spearman_rho(x.tolist(), y.tolist())
        assert abs(r.rho - rho_ref) <= 1e-9
        if abs(rho_ref) < 1.0:
            t = rho_ref * math.sqrt((n - 2) / (1 - rho_ref ** 2))
            assert abs(r.p_value - t_two_sided_quad(t, n - 2)) <= 1e-6

    for _ in range(100):  # OLS
        n = int(rng.integers(8, 20))
        k = int(rng.integers(1, 4))
        X = np.column_stack([np.ones(n)] + [rng.normal(size=n) for _ in range(k)])
        y = rng.normal(size=n)
        res = ols(y, X)
        beta_ref, r2_ref, f_ref, _ = ols_normal_equations(y, X)
        assert np.max(np.abs(res.coefficients - beta_ref)) <= 1e-9
        assert abs(res.r_squared - r2_ref) <= 1e-9
        if 0.0 < res.f_stat < math.inf:
            assert abs(res.f_p_value - f_sf_quad(res.f_stat, k, n - k - 1)) <= 1e-6

    for _ in range(100):  # Mann-Whitney, exact enumeration and normal tail
        n1, n2 = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        a = rng.integers(0, 5, size=n1).astype(float).tolist()
        b = rng.integers(0, 5, size=n2).astype(float).tolist()
        got = mann_whitney_u(a, b)
        assert abs(got.u - min(u_statistic(a, b), u_statistic(b, a))) <= 1e-9
        assert abs(got.p_value - mann_whitney_normal_p(a, b)) <= 1e-9
        exact = mann_whitney_u_exact(a, b, alternative="two-sided")
        assert abs(exact.p_value - mann_whitney_exact_p(a, b, "two-sided")) <= 1e-9
    ten = mann_whitney_u_exact(list(range(10)), [v + 0.5 for v in range(10)],
                               alternative="two-sided")
    assert 0.0 < ten.p_value <= 1.0  # full 10-per-group enumeration is available

    for _ in range(100):  # one-way ANOVA
        kg = int(rng.integers(2, 5))
        groups = [rng.normal(loc=rng.uniform(-1, 1), size=int(rng.integers(3, 8))).tolist()
                  for _ in range(kg)]
        res = one_way_anova(groups)
        f_ref = anova_f(groups)
        assert abs(res.f - f_ref) <= 1e-9 * max(1.0, f_ref)
        n_total = sum(len(g) for g in groups)
        assert abs(res.p_value - f_sf_quad(f_ref, kg - 1, n_total - kg)) <= 1e-6
    ok(5, "100-instance oracle sweeps: Spearman, OLS, Mann-Whitney (exact+normal), ANOVA")


# -------------------------------------------------------------------------
# 6. directional link between specialization and performance


def test_c6_directional_specialization_link(medium_corpus):
    (spec, coordinated, random_walk), build_time = medium_corpus
    t0 = time.monotonic()
    co_sms = [spatial_movement_specialization(s) for s in coordinated]
    rw_sms = [spatial_movement_specialization(s) for s in random_walk]
    co_pts = [team_performance(s.events).points for s in coordinated]
    rw_pts = [team_performance(s.events).points for s in random_walk]

    assert np.mean(co_sms) > np.mean(rw_sms)
    assert np.mean(co_pts) > np.mean(rw_pts)
    sms_test = mann_whitney_u(co_sms, rw_sms)
    pts_test = mann_whitney_u(co_pts, rw_pts)
    assert sms_test.p_value < 0.05
    assert pts_test.p_value < 0.05
    elapsed = build_time + (time.monotonic() - t0)
    assert elapsed < 120.0, f"directional suite took {elapsed:.1f}s"
    ok(6, f"sms {np.mean(co_sms):.3f}>{np.mean(rw_sms):.3f} (p={sms_test.p_value:.2e}), "
          f"points {np.mean(co_pts):.0f}>{np.mean(rw_pts):.0f} (p={pts_test.p_value:.2e}), "
          f"{elapsed:.1f}s")


# -------------------------------------------------------------------------
# 7. temporal phase behavior of the coordinated corpus


def test_c7_temporal_phase_behavior(medium_corpus):
    (spec, coordinated, _), _ = medium_corpus
    cut_tick = int(round(spec.clock.red_cutoff_s / 3.0))
    pre, post = [], []
    for s in coordinated:
        d = cross_role_distances(s)
        pre.append(float(d[:cut_tick].mean()))
        post.append(float(d[cut_tick:].mean()))
        for e in s.events:
            if e.victim_type is VictimType.RED:
                assert e.time_s < 180.0
    assert np.mean(post) > np.mean(pre)
    ok(7, f"inter-role distance rises after the 60% mark "
          f"({np.mean(pre):.2f} -> {np.mean(post):.2f}); no red rescue at or past 180s")


# -------------------------------------------------------------------------
# 8. simulator rule conformance


def test_c8_simulator_rules(tmp_path, medium_corpus):
    # per-tick conservation under adversarial random stepping
    rng = np.random.default_rng(88)
    victims = [(2, 2, VictimType.GREEN), (4, 4, VictimType.RED), (1, 4, VictimType.YELLOW)]
    spec = map_from_cells("audit", GridSpec(6, 6), walls=[], doors=[], rubble=[(1, 4)],
                          victims=victims, start=(0, 0))
    agents = (AgentState("medic1", Role.MEDIC, to_cell(spec.grid, Position(1, 2))),
              AgentState("medic2", Role.MEDIC, to_cell(spec.grid, Position(3, 4))),
              AgentState("engineer1", Role.ENGINEER, to_cell(spec.grid, Position(5, 4))),
              AgentState("engineer2", Role.ENGINEER, to_cell(spec.grid, Position(0, 4))))
    w = initial_state(spec, agents)
    w = WorldState(spec=w.spec, tick=0, agents=w.agents, victim_codes=w.victim_codes,
                   rubble_mask=w.rubble_mask, door_mask=w.door_mask)
    initial = {k: sum(1 for _, _, kind in victims if kind is k) for k in VictimType}
    kinds = list(ActionTag)
    for _ in range(150):
        acts = []
        for a in w.agents:
            kind = kinds[rng.integers(len(kinds))]
            dx, dy = ((0, -1), (1, 0), (0, 1), (-1, 0))[rng.integers(4)]
            y, x = divmod(a.cell, spec.grid.width)  # a target off the grid is None
            acts.append(AgentAction(kind, None if kind is ActionTag.WAIT
                                    else to_cell(spec.grid, Position(x + dx, y + dy))))
        w = step_resolved(w, acts)[0]
        for k in VictimType:
            remaining = w.victim_codes.count(VICTIM_CODES[k])
            rescued = sum(1 for e in w.events if e.victim_type is k)
            assert remaining + rescued == initial[k]

    # event-level audits over real missions
    (_, coordinated, _), _ = medium_corpus
    audited = list(coordinated[:6])
    audited.append(run_mission(builtin_map("small"), policy_team(PolicyKind.GREEDY), seed=9))
    for s in audited:
        assert validate_session(s) == []
        mission_rule_audit(s)

    # byte-identical replay
    spec_small = builtin_map("small")
    s1 = run_mission(spec_small, policy_team(PolicyKind.COORDINATED), seed=4)
    s2 = run_mission(spec_small, policy_team(PolicyKind.COORDINATED), seed=4)
    p1, m1 = write_session(s1, tmp_path / "a.jsonl")
    p2, m2 = write_session(s2, tmp_path / "b.jsonl")
    assert p1.read_bytes() == p2.read_bytes()
    assert m1.read_bytes() == m2.read_bytes()
    ok(8, "conservation per tick, clear-before-yellow, red adjacency, byte-identical replay")


# -------------------------------------------------------------------------
# 9. lossless file formats


def random_map(rng) -> MapSpec:
    w, h = int(rng.integers(5, 11)), int(rng.integers(5, 11))
    grid = GridSpec(w, h)
    cells = [Position(x, y) for y in range(h) for x in range(w)]
    order = list(rng.permutation(len(cells)))
    free = [cells[i] for i in order]
    start = free.pop()
    walls = frozenset(free.pop() for _ in range(int(rng.integers(0, 1 + len(free) // 5))))
    free = [c for c in free if c not in walls]
    doors = frozenset(free.pop() for _ in range(int(rng.integers(0, 3))) if free)
    free = [c for c in free if c not in doors]
    victims = []
    rubble = set()
    for _ in range(int(rng.integers(1, 6))):
        if not free:
            break
        cell = free.pop()
        kind = (VictimType.GREEN, VictimType.YELLOW, VictimType.RED)[rng.integers(3)]
        victims.append((cell.x, cell.y, kind))
        if kind is VictimType.YELLOW:
            rubble.add(cell)
    return map_from_cells(f"random-{rng.integers(10**6)}", grid,
                          *([(c.x, c.y) for c in cells] for cells in (walls, doors, rubble)),
                          victims=victims, start=(start.x, start.y))


def test_c9_roundtrip_property(tmp_path):
    rng = np.random.default_rng(909)
    n_sessions, n_maps, n_tables = 400, 300, 300

    for i in range(n_sessions):
        s = random_session(rng, width=int(rng.integers(4, 9)), height=int(rng.integers(4, 9)),
                           n_ticks=int(rng.integers(2, 9)), session_id=f"case-{i}")
        log = tmp_path / "s.jsonl"
        write_session(s, log)
        assert read_session(log) == s

    for _ in range(n_maps):
        m = random_map(rng)
        path = tmp_path / "m.json"
        write_map(m, path)
        assert write_map(read_map(path), tmp_path / "m2.json").read_bytes() == path.read_bytes()

    for _ in range(n_tables):
        rows = [MetricsTableRow(f"t{j}", *(float(v) for v in rng.random(4)),
                                performance=int(rng.integers(0, 800)))
                for j in range(int(rng.integers(0, 12)))]
        path = tmp_path / "t.csv"
        path.write_text(format_metrics_table(rows))
        if not rows:
            with pytest.raises(MetricTableError, match="no data rows"):
                read_metrics_table(path)
            continue
        cols = read_metrics_table(path)
        assert cols.pop("session_id") == tuple(r.session_id for r in rows)
        for name, column in cols.items():
            assert column.tolist() == [getattr(r, name) for r in rows]

    ok(9, f"{n_sessions + n_maps + n_tables} write/read identities "
          f"({n_sessions} sessions, {n_maps} maps, {n_tables} tables)")
