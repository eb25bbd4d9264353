"""Scripted agent policies: random walk, greedy rescuer, coordinated specialist.

Policies observe the world through a Chebyshev field-of-view disc: victims,
rubble and door states are learned (and unlearned) only when their cell is in
view; static walls and teammate positions are always known, mirroring a map
whose layout is shown but whose entities are fogged. Everything is seeded and
deterministic.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from ..core import ActionTag, Position, Role, VictimType
from .world import AgentAction, MapSpec, WAIT_ACTION, WorldState


class PolicyKind(Enum):
    RANDOM_WALK = "random_walk"
    GREEDY = "greedy"
    COORDINATED = "coordinated"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class AgentPolicy:
    """Policy blueprint; the seed is combined with the agent slot, so a run
    is reproducible from (kind, params, seed, map) while two agents sharing
    a blueprint still behave independently."""

    kind: PolicyKind
    params: Mapping[str, float] = field(default_factory=dict)
    seed: int | None = None


_DIRS = ((0, -1), (1, 0), (0, 1), (-1, 0))


def _bfs_field(neighbors, blocked: list, start: int):
    """Distances and first-step cells from `start` over unblocked cells."""
    n = len(blocked)
    dist = [-1] * n
    first = [-1] * n
    dist[start] = 0
    queue = deque([start])
    while queue:
        c = queue.popleft()
        base = dist[c] + 1
        step = first[c]
        for nb in neighbors[c]:
            if blocked[nb] or dist[nb] >= 0:
                continue
            dist[nb] = base
            first[nb] = nb if step < 0 else step
            queue.append(nb)
    return dist, first


class Controller:
    """Per-agent runtime state: FOV memory plus the decision rule."""

    def __init__(self, spec: MapSpec, role: Role, index: int, rng: np.random.Generator,
                 params: Mapping[str, float]):
        self.spec = spec
        self.grid = spec.grid
        self.role = role
        self.index = index
        self.rng = rng
        self.params = dict(params)
        self.known_victims: dict[Position, VictimType] = {}
        self.known_rubble: set[Position] = set()
        self.known_doors: set[Position] = set()
        self.still_for: dict[int, int] = {}
        self._last_pos: dict[int, Position] = {}
        self._base_blocked: list[bool] = spec.wall_mask.tolist()
        self.unseen: set[Position] = {
            Position(*spec.grid.cell_xy(int(i)))
            for i in np.flatnonzero(~spec.wall_mask)
        }

    # -- perception --------------------------------------------------------

    def observe(self, state: WorldState, victims_by_cell: dict[Position, VictimType]):
        # teammate icons are always visible: track who is standing still
        for j, a in enumerate(state.agents):
            if self._last_pos.get(j) == a.pos:
                self.still_for[j] = self.still_for.get(j, 0) + 1
            else:
                self.still_for[j] = 0
                self._last_pos[j] = a.pos
        me = state.agents[self.index].pos
        r = self.spec.fov_radius
        g = self.grid
        for dy in range(-r, r + 1):
            y = me.y + dy
            if not 0 <= y < g.height:
                continue
            for dx in range(-r, r + 1):
                x = me.x + dx
                if not 0 <= x < g.width:
                    continue
                cell = Position(x, y)
                self.unseen.discard(cell)
                kind = victims_by_cell.get(cell)
                if kind is not None:
                    self.known_victims[cell] = kind
                else:
                    self.known_victims.pop(cell, None)
                if cell in state.rubble:
                    self.known_rubble.add(cell)
                else:
                    self.known_rubble.discard(cell)
                if cell in state.closed_doors:
                    self.known_doors.add(cell)
                else:
                    self.known_doors.discard(cell)

    # -- planning helpers ----------------------------------------------------

    def _blocked(self) -> list[bool]:
        blocked = self._base_blocked.copy()
        g = self.grid
        for p in self.known_rubble:
            blocked[g.cell_index(p.x, p.y)] = True
        for p in self.known_doors:
            blocked[g.cell_index(p.x, p.y)] = True
        return blocked

    def _field(self, me: Position):
        return _bfs_field(self.spec.neighbor_lists, self._blocked(),
                          self.grid.cell_index(me.x, me.y))

    def _standable_neighbors(self, cell: Position) -> list[Position]:
        out = []
        for dx, dy in _DIRS:
            nb = Position(cell.x + dx, cell.y + dy)
            if (self.grid.contains(nb.x, nb.y) and nb not in self.spec.walls
                    and nb not in self.known_doors and nb not in self.known_rubble):
                out.append(nb)
        return out

    def _move_toward_cells(self, goals, dist, first) -> AgentAction | None:
        """Step along a shortest path to the nearest goal cell; None if unreachable."""
        g = self.grid
        best = None
        for goal in goals:
            gi = g.cell_index(goal.x, goal.y)
            d = dist[gi]
            if d < 0:
                continue
            key = (int(d), goal.y, goal.x)
            if best is None or key < best[0]:
                best = (key, gi)
        if best is None:
            return None
        gi = best[1]
        if dist[gi] == 0:
            return WAIT_ACTION  # already there
        step = first[gi]
        x, y = g.cell_xy(int(step))
        return AgentAction(ActionTag.MOVE, Position(x, y))

    def _approach_target(self, me: Position, targets, dist, first) -> AgentAction | None:
        """Move toward a standable neighbor of the nearest target cell."""
        goals = []
        for t in targets:
            goals.extend(self._standable_neighbors(t))
        if not goals:
            return None
        return self._move_toward_cells(goals, dist, first)

    def _explore(self, me: Position, dist, first, region=None) -> AgentAction | None:
        if region is None:
            unseen = list(self.unseen)
        else:
            unseen = [cell for cell in self.unseen if region(cell)]
        if not unseen:
            return None
        return self._move_toward_cells(unseen, dist, first)

    def _random_move(self, state: WorldState, me: Position) -> AgentAction:
        dx, dy = _DIRS[int(self.rng.integers(4))]
        return AgentAction(ActionTag.MOVE, Position(me.x + dx, me.y + dy))

    # -- adjacency opportunities ----------------------------------------------

    def _adjacent_rescue(self, state: WorldState, victims, me: Position,
                         include_red: bool = True) -> AgentAction | None:
        t = state.time_s
        for dx, dy in _DIRS:
            nb = Position(me.x + dx, me.y + dy)
            kind = victims.get(nb)
            if kind is None:
                continue
            if self.role is Role.ENGINEER:
                if kind is VictimType.GREEN:
                    return AgentAction(ActionTag.RESCUE, nb)
                continue
            if kind is VictimType.GREEN:
                return AgentAction(ActionTag.RESCUE, nb)
            if kind is VictimType.YELLOW and nb not in state.rubble:
                return AgentAction(ActionTag.RESCUE, nb)
            if (kind is VictimType.RED and include_red and t < state.spec.red_cutoff_s
                    and self._engineer_adjacent(state, nb)):
                return AgentAction(ActionTag.RESCUE, nb)
        return None

    def _adjacent_engineering(self, state: WorldState, me: Position) -> AgentAction | None:
        if self.role is not Role.ENGINEER:
            return None
        for dx, dy in _DIRS:
            nb = Position(me.x + dx, me.y + dy)
            if nb in state.rubble:
                return AgentAction(ActionTag.CLEAR, nb)
            if nb in state.closed_doors:
                return AgentAction(ActionTag.OPEN, nb)
        return None

    @staticmethod
    def _engineer_adjacent(state: WorldState, cell: Position) -> bool:
        return any(a.role is Role.ENGINEER and a.pos.manhattan(cell) == 1
                   for a in state.agents)

    def act(self, state: WorldState, victims_by_cell) -> AgentAction:
        """Planned decision plus a small seeded dither on plain moves, so
        different seeds produce genuinely different trajectories."""
        act = self._decide(state, victims_by_cell)
        dither = self.params.get("dither", 0.05)
        if act.kind is ActionTag.MOVE and dither > 0 and self.rng.random() < dither:
            return self._random_move(state, state.agents[self.index].pos)
        return act

    def _decide(self, state: WorldState, victims_by_cell) -> AgentAction:
        raise NotImplementedError


class RandomWalkController(Controller):
    """Uniform 4-neighbor wander with a wait probability; never acts."""

    def observe(self, state, victims_by_cell):
        pass  # a random walker ignores the world

    def act(self, state, victims_by_cell) -> AgentAction:
        me = state.agents[self.index].pos
        if self.rng.random() < self.params.get("p_wait", 0.4):
            return WAIT_ACTION
        return self._random_move(state, me)


class GreedyRescuerController(Controller):
    """Chase the nearest known serviceable target; explore the fog otherwise.

    Medics waiting at a red victim give up after `patience` ticks without an
    engineer and shelve that victim for a while.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.red_wait: dict[Position, int] = {}
        self.red_shelved: dict[Position, int] = {}

    def _candidates(self, state: WorldState) -> list[Position]:
        t = state.time_s
        out = []
        for cell, kind in self.known_victims.items():
            if self.role is Role.MEDIC:
                if kind is VictimType.GREEN:
                    out.append(cell)
                elif kind is VictimType.YELLOW and cell not in self.known_rubble:
                    out.append(cell)
                elif (kind is VictimType.RED and t < state.spec.red_cutoff_s
                      and self.red_shelved.get(cell, -1) < state.tick):
                    out.append(cell)
            elif kind is VictimType.GREEN:
                out.append(cell)
        if self.role is Role.ENGINEER:
            out.extend(self.known_rubble)
            out.extend(self.known_doors)
        return out

    def _decide(self, state, victims_by_cell) -> AgentAction:
        me = state.agents[self.index].pos
        act = self._adjacent_rescue(state, victims_by_cell, me)
        if act is not None:
            return act
        act = self._adjacent_engineering(state, me)
        if act is not None:
            return act

        # medic camped at a red, hoping an engineer wanders by
        if self.role is Role.MEDIC and state.time_s < state.spec.red_cutoff_s:
            for dx, dy in _DIRS:
                nb = Position(me.x + dx, me.y + dy)
                if victims_by_cell.get(nb) is VictimType.RED \
                        and self.red_shelved.get(nb, -1) < state.tick:
                    waited = self.red_wait.get(nb, 0) + 1
                    self.red_wait[nb] = waited
                    if waited <= self.params.get("patience", 8):
                        return WAIT_ACTION
                    self.red_shelved[nb] = state.tick + 25
                    self.red_wait[nb] = 0

        dist, first = self._field(me)
        targets = self._candidates(state)
        if targets:
            act = self._approach_target(me, targets, dist, first)
            if act is not None and act is not WAIT_ACTION:
                return act
        act = self._explore(me, dist, first)
        if act is not None and act is not WAIT_ACTION:
            return act
        return self._random_move(state, me)


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
        self.pair = pair
        self.waypoint = 0

    # pair sectors stack vertically in phase 1; roles split left/right in phase 2
    def _in_pair_sector(self, cell: Position) -> bool:
        mid = self.grid.height // 2
        return cell.y < mid if self.pair == 0 else cell.y >= mid

    def _in_role_half(self, cell: Position) -> bool:
        mid = self.grid.width // 2
        return cell.x < mid if self.role is Role.MEDIC else cell.x >= mid

    def _in_quadrant(self, cell: Position) -> bool:
        return self._in_role_half(cell) and self._in_pair_sector(cell)

    def _decide(self, state, victims_by_cell) -> AgentAction:
        if state.time_s < state.spec.red_cutoff_s:
            return self._act_converge(state, victims_by_cell)
        return self._act_disperse(state, victims_by_cell)

    # -- phase 1: hunt reds, park beside them, converge on parked teammates ----

    def _parked_teammates(self, state: WorldState, role: Role, me: Position) -> list[Position]:
        """Cross-role teammates standing still away from the start: someone
        is parked beside a victim and asking for help."""
        hold = int(self.params.get("park_signal_ticks", 3))
        return [a.pos for j, a in enumerate(state.agents)
                if a.role is role and self.still_for.get(j, 0) >= hold
                and a.pos != self.spec.start and me.chebyshev(a.pos) > 2]

    def _act_converge(self, state, victims_by_cell) -> AgentAction:
        me = state.agents[self.index].pos
        reds = [c for c, k in self.known_victims.items() if k is VictimType.RED]

        if self.role is Role.MEDIC:
            act = self._adjacent_rescue(state, victims_by_cell, me)
            if act is not None:
                return act
            for dx, dy in _DIRS:  # parked beside a red: hold until an engineer lands
                nb = Position(me.x + dx, me.y + dy)
                if victims_by_cell.get(nb) is VictimType.RED:
                    return WAIT_ACTION
            dist, first = self._field(me)
            targets = reds + self._parked_teammates(state, Role.ENGINEER, me)
            if targets:
                act = self._approach_target(me, targets, dist, first)
                if act is not None and act is not WAIT_ACTION:
                    return act
            return self._sweep_own_quadrant(state, me, dist, first)

        # engineer
        dist, first = self._field(me)
        confirmed = [c for c in reds
                     if any(a.role is Role.MEDIC and a.pos.manhattan(c) == 1
                            for a in state.agents)]
        if confirmed:
            if any(me.manhattan(c) == 1 for c in confirmed):
                act = self._adjacent_engineering(state, me) \
                    or self._adjacent_rescue(state, victims_by_cell, me)
                return act or WAIT_ACTION  # presence is the contribution
            act = self._approach_target(me, confirmed, dist, first)
            if act is not None and act is not WAIT_ACTION:
                return act
        act = self._adjacent_engineering(state, me) \
            or self._adjacent_rescue(state, victims_by_cell, me)
        if act is not None:
            return act
        parked = self._parked_teammates(state, Role.MEDIC, me)
        if parked:
            act = self._approach_target(me, parked, dist, first)
            if act is not None and act is not WAIT_ACTION:
                return act
        if reds:  # park beside an unclaimed red and flag it for the medics
            if any(me.manhattan(c) == 1 for c in reds):
                return WAIT_ACTION
            act = self._approach_target(me, reds, dist, first)
            if act is not None and act is not WAIT_ACTION:
                return act
        service = [c for c in (*self.known_rubble, *self.known_doors)
                   if self._in_pair_sector(c)]
        if service:
            act = self._approach_target(me, service, dist, first)
            if act is not None and act is not WAIT_ACTION:
                return act
        return self._sweep_own_quadrant(state, me, dist, first)

    # -- phase 2: disperse into role territories ------------------------------

    def _phase2_candidates(self) -> list[Position]:
        out = []
        for cell, kind in self.known_victims.items():
            if not self._in_role_half(cell):
                continue
            if self.role is Role.MEDIC:
                if kind is VictimType.GREEN or (kind is VictimType.YELLOW
                                                and cell not in self.known_rubble):
                    out.append(cell)
            elif kind is VictimType.GREEN:
                out.append(cell)
        if self.role is Role.ENGINEER:
            out.extend(c for c in self.known_rubble if self._in_role_half(c))
            out.extend(c for c in self.known_doors if self._in_role_half(c))
        return out

    def _quadrant_waypoints(self) -> list[Position]:
        g = self.grid
        xs = (1, g.width // 2 - 2) if self.role is Role.MEDIC else (g.width // 2 + 1, g.width - 2)
        ys = (1, g.height // 2 - 2) if self.pair == 0 else (g.height // 2 + 1, g.height - 2)
        corners = [Position(xs[0], ys[0]), Position(xs[1], ys[0]),
                   Position(xs[1], ys[1]), Position(xs[0], ys[1])]
        return [c for c in corners if g.contains(c.x, c.y) and c not in self.spec.walls]

    def _sweep_own_quadrant(self, state, me: Position, dist, first) -> AgentAction:
        """Explore the unseen parts of the own role/pair quadrant, then
        cycle its corners; never wander into teammate territory."""
        act = self._explore(me, dist, first, region=self._in_quadrant)
        if act is not None and act is not WAIT_ACTION:
            return act
        waypoints = self._quadrant_waypoints()
        if waypoints:
            for _ in range(len(waypoints)):
                wp = waypoints[self.waypoint % len(waypoints)]
                if wp == me:
                    self.waypoint += 1
                    continue
                act = self._move_toward_cells([wp], dist, first)
                if act is not None and act is not WAIT_ACTION:
                    return act
                self.waypoint += 1
        return self._random_move(state, me)

    def _act_disperse(self, state, victims_by_cell) -> AgentAction:
        me = state.agents[self.index].pos
        act = self._adjacent_rescue(state, victims_by_cell, me, include_red=False) \
            or self._adjacent_engineering(state, me)
        if act is not None:
            return act

        dist, first = self._field(me)
        if not self._in_role_half(me):
            g = self.grid
            half = [Position(x, y) for y in range(g.height) for x in range(g.width)
                    if self._in_role_half(Position(x, y)) and Position(x, y) not in self.spec.walls]
            act = self._move_toward_cells(half, dist, first)
            if act is not None and act is not WAIT_ACTION:
                return act

        targets = self._phase2_candidates()
        if targets:
            act = self._approach_target(me, targets, dist, first)
            if act is not None and act is not WAIT_ACTION:
                return act

        return self._sweep_own_quadrant(state, me, dist, first)


_CONTROLLERS = {
    PolicyKind.RANDOM_WALK: RandomWalkController,
    PolicyKind.GREEDY: GreedyRescuerController,
    PolicyKind.COORDINATED: CoordinatedSpecialistController,
}


def build_controllers(policies: Sequence[tuple[Role, AgentPolicy]], spec: MapSpec,
                      seed: int) -> list[Controller]:
    """Instantiate runtime controllers for a 2+2 mission."""
    controllers: list[Controller] = []
    pair_count = {Role.MEDIC: 0, Role.ENGINEER: 0}
    for i, (role, policy) in enumerate(policies):
        pair = pair_count[role]
        pair_count[role] += 1
        entropy = policy.seed if policy.seed is not None else seed
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([entropy, i])))
        cls = _CONTROLLERS.get(policy.kind)
        if cls is None:
            raise ValueError(f"unknown policy kind {policy.kind!r}")
        if cls is CoordinatedSpecialistController:
            controllers.append(cls(spec, role, i, rng, policy.params, pair=pair))
        else:
            controllers.append(cls(spec, role, i, rng, policy.params))
    return controllers
