"""Scripted agent policies: random walk, greedy rescuer, coordinated specialist.

Policies observe the world through a Chebyshev field-of-view disc: victims,
rubble and door states are learned (and unlearned) only when their cell is in
view; static walls and teammate positions are always known, mirroring a map
whose layout is shown but whose entities are fogged. Everything is seeded and
deterministic. The action rules live in `world.py`: the controllers act
through its `_rescuers` and `_terrain_action`, as the step does, and
`run_mission` drives the controllers and the step through a whole mission.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..core import (ACTIONS, MAX_TICKS, SAMPLE, SAMPLE_INTERVAL_S, ActionTag, CompositionError,
                    PlayerTrajectory, Role, TeamCoordError, TeamSession, ValueEnum,
                    validate_session)
from .world import (_GREEN, _RED, _YELLOW, AgentAction, AgentState, MapSpec, WAIT_ACTION,
                    WorldState, _rescuers, _terrain_action, initial_state, map_meta,
                    raise_map_problems, step_resolved)


class PolicyKind(ValueEnum):
    RANDOM_WALK = "random_walk"
    GREEDY = "greedy"
    COORDINATED = "coordinated"


class PolicyParamError(TeamCoordError):
    """A policy parameter is unknown, not finite or out of its range."""


# the numeric knobs the controllers read, with their defaults; all are >= 0,
# and the probabilities are also <= 1
POLICY_PARAMS = {"dither": 0.05, "p_wait": 0.4, "patience": 8, "park_signal_ticks": 3}
_PROBABILITY_PARAMS = ("dither", "p_wait")


@dataclass(frozen=True)
class AgentPolicy:
    """Policy blueprint: a controller kind and its parameters."""

    kind: PolicyKind
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for key, value in self.params.items():
            if key not in POLICY_PARAMS:
                raise PolicyParamError(
                    f"unknown policy parameter {key!r} (known: {', '.join(POLICY_PARAMS)})")
            if not math.isfinite(value):
                raise PolicyParamError(f"policy parameter '{key}={value}' is not finite")
            if value < 0 or key in _PROBABILITY_PARAMS and value > 1:
                bound = "in [0, 1]" if key in _PROBABILITY_PARAMS else ">= 0"
                raise PolicyParamError(f"policy parameter '{key}={value}' must be {bound}")


class BfsField:
    """Lazy breadth-first search from one cell, one distance level at a time.

    It steps along `neighbors` (non-wall, as in `MapSpec.neighbor_lists`)
    and never enters a cell set in the bytes-like `blocked` mask. Cells are
    reached in FIFO flood-fill order, so `first` (first step of a shortest
    path, -1 at the start and where not reached) agrees with the full fill
    wherever it is set. `levels[d]` lists the cells at distance d in that
    order; level 0 is the start and an empty last level means the search is
    exhausted. Queries expand only as many levels as they need.

    An exhausted field has reached whole components of the graph of the
    non-wall cells not blocked: the start's, or those of its neighbours if
    the start is blocked. A field from any cell of them reaches only cells
    of them, which lets `Controller` answer "no reachable goal" unflooded.
    """

    def __init__(self, neighbors, blocked, start: int):
        self.neighbors, self.seen = neighbors, bytearray(blocked)
        self.seen[start] = 1  # reached or blocked: never enqueued again
        self.first = [-1] * len(blocked)
        self.levels = [[start]]

    def _grow(self) -> list[int]:
        """Expand the level after the last one, append it to `levels` and
        return it; call only while the last level is not empty."""
        neighbors, seen, first = self.neighbors, self.seen, self.first
        level = []
        for c in self.levels[-1]:
            step = first[c]
            for nb in neighbors[c]:
                if not seen[nb]:
                    seen[nb] = 1
                    first[nb] = step
                    level.append(nb)
        if len(self.levels) == 1:  # the start's neighbours are their own first steps
            for nb in level:
                first[nb] = nb
        self.levels.append(level)
        return level

    def nearest(self, goals) -> int | None:
        """The reachable goal cell of least (distance, cell index), or None;
        `goals` is a bytes-like per-cell mask, 1 at the goal cells."""
        if 1 in goals:
            levels = self.levels
            for level in levels:  # the loop runs on into the levels `_grow` appends
                hits = [c for c in level if goals[c]]
                if hits:
                    return min(hits)
                if level is levels[-1] and level:
                    self._grow()
        return None

    def first_step(self, cell: int) -> int | None:
        """First cell of a shortest path to `cell`; None if `cell` is the
        start or unreachable. Expands levels up to the one holding `cell`."""
        first, levels = self.first, self.levels
        if cell != levels[0][0]:  # the start's `first` stays -1
            while first[cell] < 0 and levels[-1]:
                self._grow()
        return None if first[cell] < 0 else first[cell]


class Controller:
    """Per-agent runtime state: FOV memory plus the decision rule.

    Cells are row-major int indices. `unseen` is the one whole-map knowledge
    array, a bool mask of the cells never in view. What the agent knows of
    the entities is held for their few cells only: `known_victims` maps a
    cell to its last seen `VICTIM_CODES` value (no key: no victim seen), and
    `known_rubble` and `known_doors` are the sets of cells last seen holding
    rubble or a closed door. `observe` updates them at the map's entity cells
    in view (`MapSpec.entity_bands`) from the tick's `WorldState` bytes.

    A decision walks those few cells for its targets, and reads the
    `WorldState` bytes for the cells next to the agent. It plans on one lazy
    `BfsField` from the agent's cell, which expands only the distance levels
    its queries need and never enters walls or known rubble and doors; the
    blocked bytes it starts from are rebuilt only after `observe` changed
    the known rubble or doors. Goals are per-cell byte masks (a bool mask's
    `tobytes()`, or a `bytearray` filled from a few target cells); the one
    with the smallest (BFS distance, cell index) among the reachable goals
    wins, which is the (distance, y, x) order and keeps runs reproducible.

    `_component` memoises the cells reached by the last `_field` that
    `_move_toward` or a patrol waypoint searched to exhaustion, as an int
    with bit 8 * c set for cell c (`int.from_bytes` of a byte mask,
    little-endian); 0 is none. They are whole components (see `BfsField`),
    so from a start among them a goal mask that shares no bit with them has
    no reachable goal, and `_move_toward` answers None without a flood; a
    patrol waypoint outside them is skipped the same way. That holds while
    the blocked bytes stay the same, so the memo is cleared whenever they
    are rebuilt.

    A subclass defines `_decide`, or overrides `act` itself.
    """

    def __init__(self, spec: MapSpec, role: Role, index: int, rng: np.random.Generator,
                 params: Mapping[str, float]):
        self.spec = spec
        self.grid = spec.grid
        self.role = role
        self.index = index
        self.rng = rng
        self.params = {**POLICY_PARAMS, **params}
        self.unseen = ~spec.wall_mask
        # a 2-D view of `unseen`, which `observe` clears the field of view through
        self._unseen_2d = self.unseen.reshape(self.grid.height, self.grid.width)
        self.known_victims: dict[int, int] = {}
        self.known_rubble: set[int] = set()
        self.known_doors: set[int] = set()
        self._blocked: bytes | None = None  # known rubble and doors per cell; None: stale
        self._component = 0  # the reached cells of the last exhausted field, as above

    # -- perception --------------------------------------------------------

    def observe(self, state: WorldState):
        w, r = self.grid.width, self.spec.fov_radius
        y, x = divmod(state.agents[self.index].cell, w)
        self._unseen_2d[max(y - r, 0):y + r + 1, max(x - r, 0):x + r + 1] = False
        victims, rubble, doors = state.victim_codes, state.rubble_mask, state.door_mask
        known_victims, known_rubble, known_doors = (
            self.known_victims, self.known_rubble, self.known_doors)
        for c in self.spec.entity_bands[y]:
            if not x - r <= c % w <= x + r:
                continue
            if victims[c]:
                known_victims[c] = victims[c]
            else:
                known_victims.pop(c, None)
            if rubble[c] != (c in known_rubble) or doors[c] != (c in known_doors):
                (known_rubble.add if rubble[c] else known_rubble.discard)(c)
                (known_doors.add if doors[c] else known_doors.discard)(c)
                self._blocked = None

    # -- planning helpers ----------------------------------------------------

    def _field(self, me: int) -> BfsField:
        """A lazy BFS from `me` over the cells not known to be blocked; one
        per decision, shared by every query that decision makes."""
        if self._blocked is None:
            blocked = bytearray(self.grid.n_cells)
            for c in (*self.known_rubble, *self.known_doors):
                blocked[c] = 1
            self._blocked = bytes(blocked)
            self._component = 0
        return BfsField(self.spec.neighbor_lists, self._blocked, me)

    def _step_toward(self, cell: int, field: BfsField) -> AgentAction | None:
        """First move of a shortest path to `cell`; None if unreachable or already there."""
        step = field.first_step(cell)
        return None if step is None else AgentAction(ActionTag.MOVE, step)

    def _remember_component(self, field: BfsField) -> None:
        """Memoise the cells `field` reached if it is exhausted, as they are
        whole components; called after a query on it found nothing."""
        if not field.levels[-1]:
            self._component = (int.from_bytes(field.seen, "little")
                               ^ int.from_bytes(self._blocked, "little"))

    def _move_toward(self, goals, field: BfsField) -> AgentAction | None:
        """Step toward the nearest reachable goal cell, ties to the lowest index."""
        start, component = field.levels[0][0], self._component
        if component >> 8 * start & 1 and not int.from_bytes(goals, "little") & component:
            return None  # no goal in the start's component
        cell = field.nearest(goals)
        if cell is not None:
            return self._step_toward(cell, field)
        self._remember_component(field)
        return None

    def _approach(self, targets, field: BfsField) -> AgentAction | None:
        """Move toward a standable 4-neighbor of the nearest of the `targets` cells.

        Blocked cells are never reached, so only standable ones can win.
        """
        if not targets:
            return None
        goals = bytearray(self.grid.n_cells)
        for t in targets:
            for nb in self.spec.neighbor_lists[t]:
                goals[nb] = 1
        return self._move_toward(goals, field)

    def _serviceable(self) -> list[int]:
        """Cells of the known targets this role can service alone: greens,
        uncovered yellows for medics, and rubble and doors for engineers."""
        if self.role is Role.MEDIC:
            return [c for c, code in self.known_victims.items()
                    if code == _GREEN or code == _YELLOW and c not in self.known_rubble]
        return [c for c, code in self.known_victims.items() if code == _GREEN] + [
            *self.known_rubble, *self.known_doors]

    def _random_move(self, me: int) -> AgentAction:
        """A move to a uniformly drawn side, walls included; off the grid, no target."""
        w, side = self.grid.width, int(self.rng.integers(4))
        y, x = divmod(me, w)
        inside = (y > 0, x < w - 1, y < self.grid.height - 1, x > 0)[side]
        return AgentAction(ActionTag.MOVE, me + (-w, 1, w, -1)[side] if inside else None)

    # -- adjacency opportunities ----------------------------------------------

    def _adjacent_rescue(self, state: WorldState, me: int) -> AgentAction | None:
        agent, victims = state.agents[self.index], state.victim_codes
        for nb in self.spec.neighbor_lists[me]:
            if victims[nb] and _rescuers(state, victims, agent, nb):
                return AgentAction(ActionTag.RESCUE, nb)
        return None

    def _adjacent_engineering(self, state: WorldState, me: int) -> AgentAction | None:
        rubble, doors = state.rubble_mask, state.door_mask
        for nb in self.spec.neighbor_lists[me]:
            kind = _terrain_action(self.role, rubble, doors, nb)
            if kind is not None:
                return AgentAction(kind, nb)
        return None

    def act(self, state: WorldState) -> AgentAction:
        """Planned decision plus a small seeded dither on plain moves, so
        different seeds produce genuinely different trajectories."""
        act = self._decide(state)
        dither = self.params["dither"]
        if act.kind is ActionTag.MOVE and dither > 0 and self.rng.random() < dither:
            return self._random_move(state.agents[self.index].cell)
        return act


class RandomWalkController(Controller):
    """Uniform 4-neighbor wander with a wait probability; never acts."""

    def observe(self, state):
        pass  # a random walker ignores the world

    def act(self, state) -> AgentAction:
        if self.rng.random() < self.params["p_wait"]:
            return WAIT_ACTION
        return self._random_move(state.agents[self.index].cell)


class GreedyRescuerController(Controller):
    """Chase the nearest known serviceable target; explore the fog otherwise.

    Medics waiting at a red victim give up after `patience` ticks without an
    engineer and shelve that victim for a while.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.red_wait = [0] * self.grid.n_cells
        self.red_shelved = [-1] * self.grid.n_cells

    def _decide(self, state) -> AgentAction:
        me = state.agents[self.index].cell
        act = self._adjacent_rescue(state, me) or self._adjacent_engineering(state, me)
        if act is not None:
            return act

        reds = []
        if self.role is Role.MEDIC and not state.spec.clock.red_closed(state.time_s):
            # camped at a red, hoping an engineer wanders by
            victims = state.victim_codes
            for nb in self.spec.neighbor_lists[me]:
                if victims[nb] == _RED and self.red_shelved[nb] < state.tick:
                    self.red_wait[nb] += 1
                    if self.red_wait[nb] <= self.params["patience"]:
                        return WAIT_ACTION
                    self.red_shelved[nb] = state.tick + 25
                    self.red_wait[nb] = 0
            reds = [c for c, code in self.known_victims.items()
                    if code == _RED and self.red_shelved[c] < state.tick]

        field = self._field(me)
        return (self._approach(self._serviceable() + reds, field)
                or self._move_toward(self.unseen.tobytes(), field)
                or self._random_move(me))


class CoordinatedSpecialistController(Controller):
    """Two-phase division of labor.

    Before the red cutoff, roles sweep largely disjoint territory (medics
    lean left, engineers right, pairs split top/bottom) while hunting reds;
    whoever finds one parks beside it, and teammates read the stationary
    icon as a rescue request and converge. After the cutoff the roles split
    the map vertically for good and sweep disjoint quadrants, patrolling
    their corners once explored.
    """

    def __init__(self, spec, role, index, rng, params, pair: int = 0):
        super().__init__(spec, role, index, rng, params)
        self.waypoint = 0
        # pair sectors stack vertically in phase 1; roles split left/right in phase 2
        g = self.grid
        ys, xs = np.divmod(np.arange(g.n_cells), g.width)
        pair_sector = ys < g.height // 2 if pair == 0 else ys >= g.height // 2
        role_half = xs < g.width // 2 if role is Role.MEDIC else xs >= g.width // 2
        self.quadrant = pair_sector & role_half
        # one byte per cell, read at a few cells or passed whole as BFS goals
        self.pair_sector, self.role_half = pair_sector.tobytes(), role_half.tobytes()
        # corners of the own quadrant, patrolled clockwise once it is explored
        cx = (1, g.width // 2 - 2) if role is Role.MEDIC else (g.width // 2 + 1, g.width - 2)
        cy = (1, g.height // 2 - 2) if pair == 0 else (g.height // 2 + 1, g.height - 2)
        self.waypoints = [y * g.width + x for x, y in
                          ((cx[0], cy[0]), (cx[1], cy[0]), (cx[1], cy[1]), (cx[0], cy[1]))
                          if g.contains(x, y) and not spec.wall_mask[y * g.width + x]]
        self.still_for, self._last_cells = [], []  # ticks each agent has stood still, and where

    def observe(self, state: WorldState):
        # teammate icons are always visible: count the ticks each has stood still
        cells = [a.cell for a in state.agents]
        self.still_for = [s + 1 if c == last else 0 for s, c, last in zip(
            self.still_for or [-1] * len(cells), cells, self._last_cells or cells)]
        self._last_cells = cells
        super().observe(state)

    def _decide(self, state) -> AgentAction:
        if not state.spec.clock.red_closed(state.time_s):
            return self._act_converge(state)
        return self._act_disperse(state)

    # -- phase 1: hunt reds, park beside them, converge on parked teammates ----

    def _parked_teammates(self, state: WorldState, role: Role, me: int) -> list[int]:
        """Cells of cross-role teammates standing still away from the start and
        over two cells (Chebyshev) from `me`: parked by a victim, asking for help."""
        hold, w = int(self.params["park_signal_ticks"]), self.grid.width
        return [a.cell for a, still in zip(state.agents, self.still_for)
                if a.role is role and still >= hold and a.cell != self.spec.start
                and max(abs(a.cell // w - me // w), abs(a.cell % w - me % w)) > 2]

    def _act_converge(self, state) -> AgentAction:
        me = state.agents[self.index].cell
        around = self.spec.neighbor_lists[me]
        reds = [c for c, code in self.known_victims.items() if code == _RED]

        if self.role is Role.MEDIC:
            act = self._adjacent_rescue(state, me)
            if act is not None:
                return act
            victims = state.victim_codes
            if any(victims[nb] == _RED for nb in around):
                return WAIT_ACTION  # parked beside a red: hold until an engineer lands
            field = self._field(me)
            return (self._approach(reds + self._parked_teammates(state, Role.ENGINEER, me), field)
                    or self._sweep_own_quadrant(me, field))

        # engineer
        confirmed = [c for c in reds if any(
            a.role is Role.MEDIC and a.cell in self.spec.neighbor_lists[c] for a in state.agents)]
        if any(nb in confirmed for nb in around):
            act = self._adjacent_engineering(state, me) or self._adjacent_rescue(state, me)
            return act or WAIT_ACTION  # presence is the contribution
        field = self._field(me)
        act = (self._approach(confirmed, field)
               or self._adjacent_engineering(state, me)
               or self._adjacent_rescue(state, me)
               or self._approach(self._parked_teammates(state, Role.MEDIC, me), field))
        if act is not None:
            return act
        if any(nb in reds for nb in around):
            return WAIT_ACTION  # park beside an unclaimed red and flag it for the medics
        service = [c for c in (*self.known_rubble, *self.known_doors) if self.pair_sector[c]]
        return (self._approach(reds, field)
                or self._approach(service, field)
                or self._sweep_own_quadrant(me, field))

    # -- phase 2: disperse into role territories ------------------------------

    def _sweep_own_quadrant(self, me: int, field: BfsField) -> AgentAction:
        """Explore the unseen parts of the own role/pair quadrant, then
        cycle its corners; never wander into teammate territory."""
        act = self._move_toward((self.unseen & self.quadrant).tobytes(), field)
        if act is not None:
            return act
        start, component = field.levels[0][0], self._component
        for _ in self.waypoints:
            cell = self.waypoints[self.waypoint % len(self.waypoints)]
            # a waypoint outside the start's memoised component is unreachable
            if not component >> 8 * start & 1 or component >> 8 * cell & 1:
                act = self._step_toward(cell, field)
                if act is not None:
                    return act
                self._remember_component(field)
            self.waypoint += 1
        return self._random_move(me)

    def _act_disperse(self, state) -> AgentAction:
        me = state.agents[self.index].cell
        field = self._field(me)
        # outside the own half, head for it; inside, the nearest half cell is `me`
        return (self._adjacent_rescue(state, me)
                or self._adjacent_engineering(state, me)
                or self._move_toward(self.role_half, field)
                or self._approach([c for c in self._serviceable() if self.role_half[c]], field)
                or self._sweep_own_quadrant(me, field))


_CONTROLLERS = {
    PolicyKind.RANDOM_WALK: RandomWalkController,
    PolicyKind.GREEDY: GreedyRescuerController,
    PolicyKind.COORDINATED: CoordinatedSpecialistController,
}


def build_controllers(policies: Sequence[tuple[Role, AgentPolicy]], spec: MapSpec,
                      seed: int) -> list[Controller]:
    """Instantiate runtime controllers for a 2+2 mission.

    Slot i draws from `SeedSequence([seed, i])`, so a mission is reproducible
    from (map, policies, mission seed) while two agents sharing a blueprint
    still behave independently.
    """
    controllers: list[Controller] = []
    for i, (role, policy) in enumerate(policies):
        pair = [r for r, _ in policies[:i]].count(role)  # earlier slots with this role
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, i])))
        extra = {"pair": pair} if policy.kind is PolicyKind.COORDINATED else {}
        controllers.append(_CONTROLLERS[policy.kind](spec, role, i, rng, policy.params, **extra))
    return controllers


def run_mission(spec: MapSpec, policies, seed: int, session_id: str | None = None) -> TeamSession:
    """Run one full mission and return its validated session record, carrying `map_meta(spec)`.

    `policies` is a sequence of four (role, AgentPolicy) pairs, two medics
    and two engineers. Fixed (map, policies, seed) reproduces the mission
    bit for bit. Player ids are derived from roles in input order. It runs on
    row-major int cells, split into x and y by one `divmod` at the end.
    """
    raise_map_problems(spec.name, spec.problems())
    roles = [role for role, _ in policies]
    if len(policies) != 4 or roles.count(Role.MEDIC) != 2 or roles.count(Role.ENGINEER) != 2:
        raise CompositionError("run_mission needs exactly 2 medic and 2 engineer policies")
    n_ticks = spec.clock.ticks(SAMPLE_INTERVAL_S)
    if not 1 <= n_ticks <= MAX_TICKS:
        ticks = "no tick" if n_ticks < 1 else f"more than the {MAX_TICKS} ticks allowed"
        raise_map_problems(spec.name, [f"a {spec.clock.mission_duration_s} s mission has {ticks} "
                                       f"at a sample interval of {SAMPLE_INTERVAL_S} s"])

    agents = tuple(AgentState(player_id=f"{role.value}{roles[:i + 1].count(role)}", role=role,
                              cell=spec.start) for i, role in enumerate(roles))
    controllers = build_controllers(policies, spec, seed)
    state = initial_state(spec, agents)
    # per tick and agent: the cell stood on, the resolved action and its target (-1 for none)
    cells, kinds, targets = [], [], []
    kind_index = {kind: i for i, kind in enumerate(ACTIONS)}
    for _ in range(n_ticks):
        for c in controllers:
            c.observe(state)
        new_state, resolved = step_resolved(state, [c.act(state) for c in controllers])
        cells.append([agent.cell for agent in state.agents])
        kinds.append([kind_index[act.kind] for act in resolved])
        targets.append([-1 if act.target is None else act.target for act in resolved])
        state = new_state
    cells, kinds, targets = (np.array(a, dtype=dtype).T for a, dtype in (
        (cells, np.int64), (kinds, np.int8), (targets, np.int64)))

    ticks = np.broadcast_to(np.arange(n_ticks), cells.shape)
    ys, xs = np.divmod(np.stack([cells, np.maximum(targets, 0)]), spec.grid.width)
    samples = np.rec.fromarrays([ticks, ticks * SAMPLE_INTERVAL_S, xs[0], ys[0], kinds,
                                 xs[1], ys[1], targets >= 0], dtype=SAMPLE)
    players = tuple(PlayerTrajectory(player_id=a.player_id, role=a.role, samples=samples[i])
                    for i, a in enumerate(agents))
    session = TeamSession(
        session_id=session_id or f"{spec.name}-{seed}",
        grid=spec.grid, players=players, events=state.events, clock=spec.clock,
        map_meta=map_meta(spec))
    report = validate_session(session)
    if report:  # a violation here is a simulator bug, not user error
        raise AssertionError(f"simulator produced an invalid session: {report[:3]}")
    return session
