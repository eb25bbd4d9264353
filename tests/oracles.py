"""Independent reference implementations the tests check the library against.

Statistics are recomputed from their definitions (brute-force sums,
enumerations, quadrature) without calling into teamcoord, so agreement is
evidence rather than tautology. The windowed SED/SMS series is the plain
per-window loop over scalar JSD, entropy and entropy-similarity formulas on
one whole-grid distribution at a time (`jsd_scalar`, `entropy_scalar`,
`entropy_similarity_scalar`, each summing a distribution's support in
ascending cell order), which the library's row-wise kernels must match bit
for bit. The kernels are also checked against `jsd_base2` and
`entropy_bits`, which sum with `math.fsum`. `mission_rule_audit` reads the
event rules off a session's sample columns.
`bfs_field` is the plain FIFO flood fill the simulator's lazy field must
agree with, over the full in-grid neighbours of `grid_neighbors`, and
`step_reference` is the simulator's step rules on cell sets, which the array
step must agree with. It works on `Position`s, with agents and actions of its
own (`RefAgent`, `RefAction`), and `to_sim_agent` / `to_sim_action` translate
them into the simulator's row-major int cells at its boundary. `map_sets`
reads a map's per-cell arrays into its sets one cell at a time.
`MaskKnowledge` is a controller's knowledge in whole-map masks, written by
2-D view copies of the world's sets unpacked into per-cell arrays, which the
controllers' packed knowledge must agree with cell for cell.

Session I/O has three references. `read_session_reference` reads a log one
line at a time with `json.loads` and converts each record field by field;
`read_session` must return the same session or raise the same error.
`validate_session_reference` checks each sample in a Python loop on Python
ints, which cannot wrap around; `validate_session` must report the same
violations in the same order. `session_log_reference` writes each record
with `json.dumps` of a dict; `write_session` must write the same bytes.
"""
from __future__ import annotations

import itertools
import json
import math
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import NormalDist

import numpy as np
from scipy import integrate

from teamcoord.core import (
    ACTIONS,
    CONFIG,
    DISCONTINUITY,
    DUPLICATE_ID,
    EVENT_ACTOR,
    EVENT_TIME,
    PLAYER_COUNT,
    POSITION_BOUNDS,
    RED_ACTORS,
    RED_CUTOFF,
    ROLE_COMPOSITION,
    TICK_ALIGNMENT,
    TIME_MISMATCH,
    ActionTag,
    GridSpec,
    MissionClock,
    PlayerTrajectory,
    Position,
    RescueEvent,
    Role,
    TeamSession,
    VictimType,
    Violation,
)
from teamcoord.outcomes import MapMeta
from teamcoord.session_io import (
    _MALFORMED,
    FORMAT_VERSION,
    SessionFormatError,
    SessionValidationError,
    _load_json,
    _malformed,
    manifest_path_for,
)
from teamcoord.sim import AgentAction, AgentState, MapSpec
from teamcoord.sim.world import VICTIM_CODES


def jsd_base2(p, q) -> float:
    """Direct double-sum Jensen-Shannon divergence, log base 2."""
    m = [(a + b) / 2.0 for a, b in zip(p, q)]
    kl_pm = math.fsum(a * math.log2(a / mm) for a, mm in zip(p, m) if a > 0)
    kl_qm = math.fsum(b * math.log2(b / mm) for b, mm in zip(q, m) if b > 0)
    return 0.5 * kl_pm + 0.5 * kl_qm


def entropy_bits(p) -> float:
    return -math.fsum(v * math.log2(v) for v in p if v > 0)


def jsd_scalar(p: np.ndarray, q: np.ndarray) -> float:
    """JSD of two distributions as the mean of KL(p||m) and KL(q||m), each a
    1-D numpy sum over the argument's support, clamped to [0, 1]."""
    m = 0.5 * (p + q)
    sp, sq = p > 0, q > 0
    kl_pm = float((p[sp] * np.log2(p[sp] / m[sp])).sum())
    kl_qm = float((q[sq] * np.log2(q[sq] / m[sq])).sum())
    return min(1.0, max(0.0, 0.5 * kl_pm + 0.5 * kl_qm))


def entropy_scalar(p: np.ndarray) -> float:
    """Entropy in bits as a 1-D numpy sum over the support."""
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def entropy_similarity_scalar(h1: float, h2: float) -> float:
    """1 - |h1 - h2| / max(h1, h2); 1 for two zero entropies."""
    hi = max(h1, h2)
    return 1.0 if hi == 0.0 else 1.0 - abs(h1 - h2) / hi


def average_ranks(values) -> list[float]:
    """Rank by definition: 1 + #smaller + (#equal - 1) / 2."""
    out = []
    for v in values:
        smaller = sum(1 for w in values if w < v)
        equal = sum(1 for w in values if w == v)
        out.append(1.0 + smaller + (equal - 1) / 2.0)
    return out


def pearson(x, y) -> float:
    n = len(x)
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = math.fsum((a - mx) ** 2 for a in x)
    syy = math.fsum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


def spearman_rho(x, y) -> float:
    return pearson(average_ranks(x), average_ranks(y))


def t_sf_quad(t, df) -> float:
    """Upper t tail by numeric integration of the density."""
    log_norm = math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi)
    norm = math.exp(log_norm)

    def pdf(u):
        return norm * (1.0 + u * u / df) ** (-(df + 1) / 2.0)

    val, _ = integrate.quad(pdf, t, np.inf, epsabs=1e-14, epsrel=1e-13, limit=400)
    return val


def t_two_sided_quad(t, df) -> float:
    return 2.0 * t_sf_quad(abs(t), df)


def f_sf_quad(f, d1, d2) -> float:
    """Upper F tail by numeric integration of the density."""
    log_norm = (math.lgamma((d1 + d2) / 2) - math.lgamma(d1 / 2) - math.lgamma(d2 / 2)
                + (d1 / 2) * math.log(d1 / d2))

    def pdf(u):
        return math.exp(log_norm + (d1 / 2 - 1) * math.log(u)
                        - ((d1 + d2) / 2) * math.log1p(d1 * u / d2))

    val, _ = integrate.quad(pdf, f, np.inf, epsabs=1e-14, epsrel=1e-13, limit=400)
    return val


def normal_sf_ref(z) -> float:
    return 1.0 - NormalDist().cdf(z)


def ols_normal_equations(y, X):
    """Solve the normal equations and recompute the summary statistics."""
    X = np.asarray(X, float)
    y = np.asarray(y, float)
    beta = np.linalg.solve(X.T @ X, X.T @ y)
    resid = y - X @ beta
    ssr = math.fsum(r * r for r in resid)
    my = math.fsum(y) / len(y)
    sst = math.fsum((v - my) ** 2 for v in y)
    r2 = 1.0 - ssr / sst if sst > 0 else 0.0
    n, k = X.shape
    p = k - 1
    f = (r2 / p) / ((1 - r2) / (n - k)) if 0 < r2 < 1 and p > 0 else 0.0
    return beta, r2, f, resid


def anova_f(groups) -> float:
    allv = [v for g in groups for v in g]
    grand = math.fsum(allv) / len(allv)
    means = [math.fsum(g) / len(g) for g in groups]
    ssb = math.fsum(len(g) * (m - grand) ** 2 for g, m in zip(groups, means))
    ssw = math.fsum(math.fsum((v - m) ** 2 for v in g) for g, m in zip(groups, means))
    dfb = len(groups) - 1
    dfw = len(allv) - len(groups)
    return (ssb / dfb) / (ssw / dfw)


def u_statistic(a, b) -> float:
    """U of sample a against b by direct pair counting."""
    u = 0.0
    for x in a:
        for y in b:
            if x > y:
                u += 1.0
            elif x == y:
                u += 0.5
    return u


def mann_whitney_exact_p(a, b, alternative="less"):
    """Exact p by enumerating every split of the pooled values."""
    pooled = list(a) + list(b)
    n1 = len(a)
    obs = u_statistic(a, b)
    n_le = n_ge = total = 0
    for combo in itertools.combinations(range(len(pooled)), n1):
        chosen = [pooled[i] for i in combo]
        rest = [pooled[i] for i in range(len(pooled)) if i not in combo]
        u = u_statistic(chosen, rest)
        total += 1
        if u <= obs + 1e-9:
            n_le += 1
        if u >= obs - 1e-9:
            n_ge += 1
    if alternative == "less":
        return n_le / total
    if alternative == "greater":
        return n_ge / total
    return min(1.0, 2.0 * min(n_le / total, n_ge / total))


def u_null_counts_distinct(n1: int, n2: int) -> list[int]:
    """counts[u] = number of splits of n1 + n2 distinct values with U = u.

    Mann & Whitney's (1947) recursion on the largest pooled value: it lies in
    the first group, beating all n2 of the second, or in the second, beating
    none. Python ints, so exact at any size.
    """
    prev = [[1] for _ in range(n2 + 1)]  # prev[j]: counts for (i - 1, j); i = 0 has U = 0 only
    for i in range(1, n1 + 1):
        cur = [[1]]
        for j in range(1, n2 + 1):
            counts = [0] * (i * j + 1)
            for u, c in enumerate(prev[j]):  # largest in group 1: U grows by j
                counts[u + j] += c
            for u, c in enumerate(cur[j - 1]):
                counts[u] += c
            cur.append(counts)
        prev = cur
    return prev[n2]


def mann_whitney_normal_p(a, b) -> float:
    """Tie- and continuity-corrected normal approximation, from scratch."""
    pooled = list(a) + list(b)
    ranks = average_ranks(pooled)
    n1, n2 = len(a), len(b)
    total = n1 + n2
    r1 = math.fsum(ranks[:n1])
    u1 = r1 - n1 * (n1 + 1) / 2.0
    u = min(u1, n1 * n2 - u1)
    counts = [pooled.count(v) for v in set(pooled)]
    tie = math.fsum(c ** 3 - c for c in counts)
    corr = 1.0 - tie / (total ** 3 - total)
    sd = math.sqrt(corr * n1 * n2 * (total + 1) / 12.0)
    if sd == 0:
        return 1.0
    z = max(0.0, abs(u - n1 * n2 / 2.0) - 0.5) / sd
    return min(1.0, 2.0 * normal_sf_ref(z))


def _mediation_paths_1d(x, m, y):
    """Closed-form a, b, c', c for one resample; None when x or m is constant
    (all its drawn values equal) or x, m collinear."""
    if (x == x[0]).all() or (m == m[0]).all():
        return None
    xc, mc, yc = x - x.mean(), m - m.mean(), y - y.mean()
    sxx = float(xc @ xc)
    sxm, smm = float(xc @ mc), float(mc @ mc)
    sxy, smy = float(xc @ yc), float(mc @ yc)
    det = sxx * smm - sxm * sxm
    if det <= 1e-12 * sxx * smm:  # 1 - r^2 at rounding level: x and m collinear
        return None
    return sxm / sxx, (sxx * smy - sxm * sxy) / det, (smm * sxy - sxm * smy) / det, sxy / sxx


def bootstrap_indirect_loop(x, m, y, resamples, seed):
    """Bootstrap indirect effects one resample at a time.

    Resample k draws its row indices from a Philox stream seeded by the k-th
    SeedSequence child of `seed`, drawing again (at most 100 draws) while the
    resample is degenerate. Returns (mean, 2.5th percentile, 97.5th
    percentile) of the a*b values; raises ValueError when a resample stays
    degenerate.
    """
    x, m, y = (np.asarray(v, dtype=float) for v in (x, m, y))
    n = x.size
    boot = np.empty(resamples)
    for k, child in enumerate(np.random.SeedSequence(seed).spawn(resamples)):
        rng = np.random.Generator(np.random.Philox(child))
        for _ in range(100):
            idx = rng.integers(0, n, size=n)
            paths = _mediation_paths_1d(x[idx], m[idx], y[idx])
            if paths is not None:
                boot[k] = paths[0] * paths[1]
                break
        else:
            raise ValueError(f"resample {k} stayed degenerate after 100 draws")
    low, high = np.percentile(boot, [2.5, 97.5])
    return float(boot.mean()), float(low), float(high)


def moving_average_loop(values, k):
    """Centered mean over i - k // 2 .. i + k // 2, clipped at the ends, one point at a time."""
    values = np.asarray(values, dtype=float)
    if k <= 1:
        return values
    half = k // 2
    out = np.empty_like(values)
    for i in range(values.size):
        out[i] = values[max(0, i - half):min(values.size, i + half + 1)].mean()
    return out


def window_series_loop(session, metric, window_ticks, smooth_ticks, coarsen=1):
    """(progress, value) pairs of the "sed" or "sms" series, one window at a time.

    Each window builds a whole-grid visit-frequency distribution per player
    (sed: mean JSD over player pairs) or per role, pooling its two players
    (sms: entropy similarity times one minus the Jaccard overlap of the
    visited cell sets).
    """
    grid = GridSpec(-(-session.grid.width // coarsen), -(-session.grid.height // coarsen))

    def cells(player):
        return (player.samples["y"] // coarsen) * grid.width + player.samples["x"] // coarsen

    def dist(idx):
        return np.bincount(idx, minlength=grid.n_cells) / idx.size

    per_player = [cells(p) for p in session.players]
    by_role = [[cells(p) for p in session.players if p.role is r]
               for r in (Role.MEDIC, Role.ENGINEER)]
    ends = np.arange(window_ticks - 1, session.n_ticks)
    vals = np.empty(ends.size)
    for k, e in enumerate(ends):
        s = e - window_ticks + 1
        if metric == "sed":
            dists = [dist(idx[s:e + 1]) for idx in per_player]
            vals[k] = np.mean([jsd_scalar(a, b) for a, b in itertools.combinations(dists, 2)])
        else:
            med, eng = (np.concatenate([idx[s:e + 1] for idx in group]) for group in by_role)
            e_s = entropy_similarity_scalar(entropy_scalar(dist(med)), entropy_scalar(dist(eng)))
            med_cells, eng_cells = set(med.tolist()), set(eng.tolist())
            vals[k] = e_s * (1.0 - len(med_cells & eng_cells) / len(med_cells | eng_cells))
    vals = moving_average_loop(vals, smooth_ticks)
    return tuple(zip((ends / session.nominal_ticks).tolist(), vals.tolist()))


def mission_rule_audit(session):
    """Assert the simulator's event rules against the trajectory log.

    A red rescue comes before the cutoff, from a medic and an engineer that
    are both 4-adjacent to the victim at the event's tick. A yellow rescue
    comes after an engineer's clear that targeted the victim's cell.
    """
    by_id = {p.player_id: p for p in session.players}
    clear = ACTIONS.index(ActionTag.CLEAR)
    for e in session.events:
        tick = int(round(e.time_s / session.sample_interval_s))
        vx, vy = e.victim_cell.x, e.victim_cell.y
        if e.victim_type is VictimType.RED:
            assert e.time_s < session.clock.red_cutoff_s
            assert {by_id[a].role for a in e.actor_ids} == {Role.MEDIC, Role.ENGINEER}
            for a in e.actor_ids:
                x, y = by_id[a].samples[["x", "y"]][tick].tolist()
                assert abs(x - vx) + abs(y - vy) == 1
        if e.victim_type is VictimType.YELLOW:
            cleared = [
                s for s in (p.samples for p in session.players if p.role is Role.ENGINEER)
                if np.any((s["action"] == clear) & s["has_target"] & (s["target_x"] == vx)
                          & (s["target_y"] == vy) & (s["tick"] < tick))
            ]
            assert cleared, f"yellow rescue at {e.time_s}s without a prior clear"


def grid_neighbors(width: int, height: int) -> list[list[int]]:
    """In-grid 4-neighbours of each row-major cell, walls included, in
    N, E, S, W order."""
    return [[(y + dy) * width + x + dx for dx, dy in ((0, -1), (1, 0), (0, 1), (-1, 0))
             if 0 <= x + dx < width and 0 <= y + dy < height]
            for y in range(height) for x in range(width)]


def bfs_field(neighbors, blocked, start: int):
    """Full flood fill from `start` over unblocked cells: distances (-1 where
    unreachable) and the first step of a shortest path (-1 at the start)."""
    dist = [-1] * len(blocked)
    first = [-1] * len(blocked)
    dist[start] = 0
    queue = deque([start])
    while queue:
        c = queue.popleft()
        for nb in neighbors[c]:
            if blocked[nb] or dist[nb] >= 0:
                continue
            dist[nb] = dist[c] + 1
            first[nb] = nb if first[c] < 0 else first[c]
            queue.append(nb)
    return dist, first


@dataclass(frozen=True)
class RefAgent:
    """An agent in the reference's form, standing on a `Position`."""

    player_id: str
    role: Role
    pos: Position


@dataclass(frozen=True)
class RefAction:
    """An action in the reference's form: its target is a `Position`, which
    may lie off the grid."""

    kind: ActionTag
    target: Position | None = None


def to_cell(grid: GridSpec, pos: Position | None) -> int | None:
    """The row-major cell of `pos`; None for no position or one off the grid."""
    if pos is None or not grid.contains(pos.x, pos.y):
        return None
    return pos.y * grid.width + pos.x


def to_position(grid: GridSpec, cell: int) -> Position:
    y, x = divmod(cell, grid.width)
    return Position(x, y)


def to_sim_agent(grid: GridSpec, agent: RefAgent) -> AgentState:
    return AgentState(agent.player_id, agent.role, to_cell(grid, agent.pos))


def to_sim_action(grid: GridSpec, act: RefAction) -> AgentAction:
    """The simulator's form of `act`: a target off the grid becomes None."""
    return AgentAction(act.kind, to_cell(grid, act.target))


@dataclass(frozen=True)
class ReferenceWorld:
    """The world state in set form: walls, rubble and closed doors as sets of
    cells, victims as (cell, kind) pairs."""

    spec: MapSpec
    tick: int
    agents: tuple[RefAgent, ...]
    walls: frozenset[Position]
    victims: tuple[tuple[Position, VictimType], ...]
    rubble: frozenset[Position]
    closed_doors: frozenset[Position]
    events: tuple[RescueEvent, ...] = ()
    sample_interval_s: float = 3.0

    @property
    def time_s(self) -> float:
        return self.tick * self.sample_interval_s

    def traversable(self, pos: Position) -> bool:
        return (self.spec.grid.contains(pos.x, pos.y)
                and pos not in self.walls
                and pos not in self.closed_doors
                and pos not in self.rubble)


def map_sets(spec: MapSpec) -> dict:
    """The `ReferenceWorld` fields of `spec`'s initial world, read from its
    arrays one cell at a time."""
    g = spec.grid
    kinds = {code: kind for kind, code in VICTIM_CODES.items()}

    def cells(values):
        return frozenset(to_position(g, c) for c in range(g.n_cells) if values[c])
    return {"walls": cells(spec.wall_mask),
            "victims": tuple((to_position(g, c), kinds[code])
                             for c, code in enumerate(spec.victim_codes.tolist()) if code),
            "rubble": cells(spec.rubble_mask), "closed_doors": cells(spec.door_mask)}


def step_reference(state: ReferenceWorld, actions):
    """One tick of the simulator's rules on sets and dicts of cells: acts in
    agent order against start-of-tick terrain, then moves against
    start-of-tick terrain. Returns the new state and the resolved actions."""
    wait = RefAction(ActionTag.WAIT)
    victims = dict(state.victims)
    rubble = set(state.rubble)
    doors = set(state.closed_doors)
    events = list(state.events)
    resolved = [wait] * len(actions)
    t = state.time_s

    for i, (agent, act) in enumerate(zip(state.agents, actions)):
        if act.kind in (ActionTag.MOVE, ActionTag.WAIT):
            continue
        tgt = act.target
        if tgt is None or agent.pos.manhattan(tgt) != 1:
            continue
        if act.kind is ActionTag.RESCUE:
            kind = victims.get(tgt)
            if (kind is None or agent.role is Role.ENGINEER and kind is not VictimType.GREEN
                    or kind is VictimType.YELLOW and tgt in state.rubble):
                continue
            if kind is VictimType.RED:
                if t >= state.spec.clock.red_cutoff_s:
                    continue
                helper = next((a for a in state.agents
                               if a.role is Role.ENGINEER and a.pos.manhattan(tgt) == 1), None)
                if helper is None:
                    continue
                actors = (agent.player_id, helper.player_id)
            else:
                actors = (agent.player_id,)
            del victims[tgt]
            events.append(RescueEvent(time_s=t, victim_type=kind, victim_cell=tgt,
                                      actor_ids=actors))
            resolved[i] = act
        else:  # clear rubble or open a door
            terrain = rubble if act.kind is ActionTag.CLEAR else doors
            if agent.role is Role.ENGINEER and tgt in terrain:
                terrain.discard(tgt)
                resolved[i] = act

    new_agents = []
    for i, (agent, act) in enumerate(zip(state.agents, actions)):
        pos = agent.pos
        tgt = act.target
        if (act.kind is ActionTag.MOVE and tgt is not None and pos.manhattan(tgt) == 1
                and state.traversable(tgt)):
            pos = tgt
            resolved[i] = act
        new_agents.append(replace(agent, pos=pos))

    new_state = ReferenceWorld(
        spec=state.spec, tick=state.tick + 1, agents=tuple(new_agents), walls=state.walls,
        victims=tuple((c, kind) for c, kind in state.victims if c in victims),
        rubble=frozenset(rubble), closed_doors=frozenset(doors),
        events=tuple(events), sample_interval_s=state.sample_interval_s)
    return new_state, tuple(resolved)


def unpack_cells(cells: int, n: int) -> np.ndarray:
    """A packed cell set of an n-cell grid, bit c for cell c, as a per-cell bool mask."""
    return np.unpackbits(np.frombuffer(cells.to_bytes(-(-n // 8), "little"), np.uint8),
                         count=n, bitorder="little").astype(bool)


class MaskKnowledge:
    """What a controller knows, as per-cell masks over the whole map: `unseen`,
    `victims` (`VICTIM_CODES`, 0 = none), `rubble` and `doors`. `observe` unpacks
    the world's victim, rubble and door sets into per-cell arrays and copies them
    into these over the Chebyshev field of view, through 2-D views."""

    def __init__(self, spec: MapSpec):
        n = spec.grid.n_cells
        self.spec = spec
        self.unseen = ~spec.wall_mask
        self.victims = np.zeros(n, dtype=np.int8)
        self.rubble = np.zeros(n, dtype=bool)
        self.doors = np.zeros(n, dtype=bool)

    def observe(self, state, cell: int):
        shape = (self.spec.grid.height, self.spec.grid.width)
        y, x = divmod(cell, shape[1])
        r = self.spec.fov_radius
        view = np.s_[max(y - r, 0):y + r + 1, max(x - r, 0):x + r + 1]
        self.unseen.reshape(shape)[view] = False
        n = self.spec.grid.n_cells
        codes = np.zeros(n, dtype=np.int8)
        for kind, cells in zip(VictimType, (state.greens, state.yellows, state.reds)):
            codes[unpack_cells(cells, n)] = VICTIM_CODES[kind]
        for known, truth in ((self.victims, codes), (self.rubble, unpack_cells(state.rubble, n)),
                             (self.doors, unpack_cells(state.doors, n))):
            known.reshape(shape)[view] = truth.reshape(shape)[view]

    def serviceable(self, role: Role) -> np.ndarray:
        """Known greens, and uncovered yellows for medics or rubble and doors for engineers."""
        green, yellow = VICTIM_CODES[VictimType.GREEN], VICTIM_CODES[VictimType.YELLOW]
        if role is Role.MEDIC:
            return (self.victims == green) | ((self.victims == yellow) & ~self.rubble)
        return (self.victims == green) | self.rubble | self.doors

    def blocked(self) -> np.ndarray:
        """A new per-cell mask, True where rubble or a closed door is known."""
        return self.rubble | self.doors


# ---------------------------------------------------------------------------
# Session I/O, one record at a time


def _json_int_reference(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be a JSON integer, got {json.dumps(value)}")
    return value


def _json_number_reference(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a JSON number, got {json.dumps(value)}")
    return float(value)


def read_session_reference(log_path, validate: bool = True) -> TeamSession:
    """A session log read line by line: each record is parsed with json and
    checked and converted field by field, in the order `read_session`
    documents, and stored per player by tick. Ticks, cells and targets, and
    the manifest's grid size, event cells and map_meta counts, must be JSON
    integers; times, event times and the mission clock must be JSON numbers.
    A line nested too deep for json is a `bad record` like any line json
    refuses. With `validate`, the session must pass
    `validate_session_reference`. Lines are split at LF, CRLF and CR, and
    each is decoded as UTF-8 on its own."""
    log_path = Path(log_path)
    manifest_path = manifest_path_for(log_path)
    manifest = _load_json(manifest_path, "manifest")
    try:
        if manifest["format_version"] != FORMAT_VERSION:
            raise SessionFormatError(
                f"unsupported format_version {manifest['format_version']!r}", manifest_path)
        session_id = manifest["session_id"]
        grid = GridSpec(_json_int_reference(manifest["grid"]["width"], "width"),
                        _json_int_reference(manifest["grid"]["height"], "height"))
        roster: dict[str, Role] = {}
        for entry in manifest["players"]:
            pid = entry["player_id"]
            if pid in roster:
                raise SessionFormatError(f"player {pid!r} listed twice", manifest_path)
            roster[pid] = Role(entry["role"])
        events = []
        for entry in manifest["events"]:
            actors = tuple(entry["actor_ids"])
            if not all(isinstance(a, str) for a in actors):
                raise SessionFormatError("actor ids must be strings", manifest_path)
            events.append(RescueEvent(
                time_s=_json_number_reference(entry["time_s"], "time_s"),
                victim_type=VictimType(entry["victim_type"]),
                victim_cell=Position(_json_int_reference(entry["x"], "x"),
                                     _json_int_reference(entry["y"], "y")),
                actor_ids=actors))
        clock = MissionClock(_json_number_reference(manifest["mission_duration_s"],
                                                    "mission_duration_s"),
                             _json_number_reference(manifest["red_cutoff_s"], "red_cutoff_s"))
        sample_interval_s = _json_number_reference(manifest["sample_interval_s"],
                                                   "sample_interval_s")
    except _MALFORMED as exc:
        raise _malformed("manifest", exc, manifest_path) from None

    samples: dict[str, dict[int, tuple]] = {pid: {} for pid in roster}
    if not log_path.exists():
        raise SessionFormatError("missing log file", log_path)
    for lineno, raw in enumerate(log_path.read_bytes().splitlines(), start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            raise SessionFormatError("line is not UTF-8", log_path, lineno) from None
        if not line:
            continue
        try:
            rec = json.loads(line)
            if rec["session_id"] != session_id:
                raise SessionFormatError("session_id differs from manifest", log_path, lineno)
            pid = rec["player_id"]
            if pid not in roster:
                raise SessionFormatError(f"player {pid!r} not in manifest roster",
                                         log_path, lineno)
            if Role(rec["role"]) is not roster[pid]:
                raise SessionFormatError(f"role mismatch for {pid!r}", log_path, lineno)
            action = -1 if rec["action"] is None else ACTIONS.index(ActionTag(rec["action"]))
            target_x = target_y = 0
            has_target = "target_x" in rec or "target_y" in rec
            if has_target:
                if "target_x" not in rec or "target_y" not in rec:
                    raise SessionFormatError("target needs both coordinates", log_path, lineno)
                target_x = _json_int_reference(rec["target_x"], "target_x")
                target_y = _json_int_reference(rec["target_y"], "target_y")
            tick = _json_int_reference(rec["tick"], "tick")
            if tick in samples[pid]:
                raise SessionFormatError(f"duplicate tick {tick} for {pid!r}", log_path, lineno)
            time_s = _json_number_reference(rec["time_s"], "time_s")
            x, y = _json_int_reference(rec["x"], "x"), _json_int_reference(rec["y"], "y")
            if any(not -2 ** 63 <= v < 2 ** 63 for v in (tick, x, y, target_x, target_y)):
                raise OverflowError("int outside the signed 64-bit range")
            samples[pid][tick] = (tick, time_s, x, y, action, target_x, target_y, has_target)
        except (*_MALFORMED, RecursionError) as exc:
            raise _malformed("record", exc, log_path, lineno) from None

    players = tuple(PlayerTrajectory(player_id=pid, role=roster[pid],
                                     samples=sorted(samples[pid].values()))
                    for pid in roster)
    session = TeamSession(
        session_id=session_id, grid=grid, players=players, events=tuple(events),
        clock=clock, sample_interval_s=sample_interval_s)
    if validate:
        report = validate_session_reference(session)
        if report:
            raise SessionValidationError(log_path, report)
    raw = manifest.get("map_meta")
    if raw is None:
        return session
    try:
        cells = _json_int_reference(raw["traversable_cells"], "traversable_cells")
        tasks = {}
        for role, count in raw["max_tasks"].items():
            tasks[Role(role)] = _json_int_reference(count, "max_tasks")
        meta = MapMeta(traversable_cells=cells, max_tasks=tasks)
    except _MALFORMED as exc:
        raise _malformed("map_meta", exc, manifest_path) from None
    return replace(session, map_meta=meta)


def validate_session_reference(session: TeamSession) -> list[Violation]:
    """Every session invariant, checked one sample at a time on Python ints.

    Same checks, codes, messages and order as `validate_session`: the
    configuration, the roster, tick alignment, then each player's samples
    in tick order (first tick or tick jump, time, bounds, one-tick move),
    then the events.
    """
    out: list[Violation] = []
    grid = session.grid

    if not (session.sample_interval_s > 0 and session.clock.mission_duration_s > 0):
        out.append(Violation(CONFIG, "sample interval and mission duration must be positive"))
    elif (math.isinf(ticks := session.clock.mission_duration_s / session.sample_interval_s)
          or round(ticks) > 10 ** 6):
        out.append(Violation(CONFIG, "mission duration must span at most 1000000 sample intervals"))
    if not 0 < session.clock.red_cutoff_s <= session.clock.mission_duration_s:
        out.append(Violation(CONFIG, "red cutoff must lie inside the mission duration"))

    players = session.players
    if len(players) != 4:
        out.append(Violation(PLAYER_COUNT, f"expected 4 players, found {len(players)}"))

    ids = [p.player_id for p in players]
    for pid in sorted({i for i in ids if ids.count(i) > 1}):
        out.append(Violation(DUPLICATE_ID, f"player_id {pid!r} appears more than once"))

    n_medics = sum(p.role is Role.MEDIC for p in players)
    n_engineers = sum(p.role is Role.ENGINEER for p in players)
    if len(players) == 4 and (n_medics, n_engineers) != (2, 2):
        out.append(Violation(
            ROLE_COMPOSITION,
            f"expected 2 medics + 2 engineers, found {n_medics} + {n_engineers}"))

    tick_counts = {p.n_ticks for p in players}
    if len(tick_counts) > 1:
        out.append(Violation(TICK_ALIGNMENT,
                             f"trajectories disagree on tick count: {sorted(tick_counts)}"))

    for p in players:
        pid, prev = p.player_id, None
        for i, (tick, time_s, x, y, *_) in enumerate(p.samples.tolist()):
            if i == 0 and tick != 0:
                out.append(Violation(DISCONTINUITY, f"player {pid}: first tick is {tick}, not 0"))
            elif prev is not None and tick != prev[0] + 1:
                out.append(Violation(DISCONTINUITY,
                                     f"player {pid}: tick jumps from {prev[0]} to {tick}"))
            if abs(time_s - tick * session.sample_interval_s) > 1e-9:
                out.append(Violation(
                    TIME_MISMATCH, f"player {pid} tick {tick}: time_s {time_s} != tick * interval"))
            if not grid.contains(x, y):
                out.append(Violation(
                    POSITION_BOUNDS, f"player {pid} tick {tick}: position ({x}, {y}) off grid"))
            if prev is not None and abs(x - prev[1]) + abs(y - prev[2]) > 1:
                moved = f"{Position(*prev[1:])} -> {Position(x, y)}"
                out.append(Violation(DISCONTINUITY,
                                     f"player {pid} tick {tick}: moved {moved} in one tick"))
            prev = (tick, x, y)

    by_id = {p.player_id: p for p in players}
    for k, e in enumerate(session.events):
        if not 0 <= e.time_s < session.clock.mission_duration_s:
            out.append(Violation(EVENT_TIME, f"event {k}: time {e.time_s}s outside mission"))
            continue
        if not grid.contains(e.victim_cell.x, e.victim_cell.y):
            out.append(Violation(POSITION_BOUNDS, f"event {k}: victim cell off grid"))
        unknown = [a for a in e.actor_ids if a not in by_id]
        if not e.actor_ids or unknown:
            out.append(Violation(EVENT_ACTOR, f"event {k}: unknown or missing actors {unknown}"))
            continue
        if e.victim_type is VictimType.RED:
            if e.time_s >= session.clock.red_cutoff_s:
                out.append(Violation(RED_CUTOFF, f"event {k}: red rescue at {e.time_s}s, "
                                                 f"cutoff {session.clock.red_cutoff_s}s"))
            interval = session.sample_interval_s
            tick = None  # without a positive interval, or past what it counts, no tick to check
            if interval > 0 and math.isfinite(e.time_s / interval):
                tick = int(round(e.time_s / interval))
            adjacent = []
            for a in (by_id[a] for a in e.actor_ids):
                if tick is None or tick >= a.n_ticks:
                    break
                if Position(*a.samples[["x", "y"]][tick].tolist()).manhattan(e.victim_cell) == 1:
                    adjacent.append(a)
            if {a.role for a in adjacent} != {Role.MEDIC, Role.ENGINEER}:
                out.append(Violation(
                    RED_ACTORS,
                    f"event {k}: red rescue needs a medic and an engineer adjacent at tick {tick}"))
    return out


def session_log_reference(session: TeamSession) -> bytes:
    """The bytes of a session's log file: one `json.dumps` of a dict with
    sorted keys per tick and player, players in player-id order."""
    lines = []
    order = sorted(session.players, key=lambda p: p.player_id)
    for tick in range(session.n_ticks):
        for p in order:
            t, time_s, x, y, action, target_x, target_y, has_target = p.samples[tick].tolist()
            record = {
                "session_id": session.session_id,
                "tick": t,
                "time_s": time_s,
                "player_id": p.player_id,
                "role": p.role.value,
                "x": x,
                "y": y,
                "action": ACTIONS[action].value if action >= 0 else None,
            }
            if has_target:
                record["target_x"] = target_x
                record["target_y"] = target_y
            lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    return ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")
