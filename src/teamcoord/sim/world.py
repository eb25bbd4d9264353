"""Tick-based search-and-rescue world: map specification, state, step rules.

One action per agent per tick, resolved atomically against the start-of-tick
state: a rubble cell cleared this tick only unblocks its victim next tick,
and movement cannot pass a door opened this tick. Conflicting rescues of the
same victim resolve by agent index. Agents may share cells; they all start
on the common start cell.

A mission runs on row-major int cells (`y * width + x`): agents, action
targets and the `WorldState` arrays of victims, rubble and closed doors. The
map arrives as `Position` sets (`MapSpec`), read once per mission. The action
rules live here, in `_rescuers` and `_terrain_action`, and the step and the
controllers of `policies.py` both act through them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from ..core import (
    ACTIONS,
    MAX_TICKS,
    SAMPLE,
    SAMPLE_INTERVAL_S,
    ActionTag,
    CompositionError,
    GridSpec,
    MapMeta,
    Position,
    RescueEvent,
    Role,
    TeamCoordError,
    TeamSession,
    PlayerTrajectory,
    VictimType,
    _clock_ticks,
    validate_session,
)


class InvalidMapError(TeamCoordError):
    """Map specification breaks a structural invariant."""


class MalformedActionError(TeamCoordError):
    """Agent action is not one of the known kinds."""


# per-cell victim codes in `WorldState.victim_codes`; 0 means no victim
VICTIM_CODES = {VictimType.GREEN: 1, VictimType.YELLOW: 2, VictimType.RED: 3}
_VICTIM_KINDS = {code: kind for kind, code in VICTIM_CODES.items()}
_GREEN, _YELLOW, _RED = (VICTIM_CODES[k] for k in
                         (VictimType.GREEN, VictimType.YELLOW, VictimType.RED))


def _cell_array(grid: GridSpec, cells, values=True, dtype=bool) -> np.ndarray:
    """Read-only row-major per-cell array: `values` at `cells`, zero elsewhere."""
    arr = np.zeros(grid.n_cells, dtype=dtype)
    arr[[c.y * grid.width + c.x for c in cells]] = values
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Victim:
    cell: Position
    kind: VictimType


@dataclass(frozen=True)
class MapSpec:
    """Static world: walls, doors, rubble, victims and the mission clock.

    Rubble blocks both movement and the rescue of the yellow victim under
    it; closed doors block movement until an engineer opens them.
    """

    name: str
    grid: GridSpec
    walls: frozenset[Position]
    doors: frozenset[Position]
    rubble: frozenset[Position]
    victims: tuple[Victim, ...]
    start: Position
    mission_duration_s: float = 300.0
    red_cutoff_s: float = 180.0
    fov_radius: int = 5

    def problems(self) -> list[str]:
        out = []
        for label, cells in (("wall", self.walls), ("door", self.doors), ("rubble", self.rubble)):
            for c in cells:
                if not self.grid.contains(c.x, c.y):
                    out.append(f"{label} at ({c.x}, {c.y}) outside grid")
        if self.walls & self.doors:
            out.append("door cells overlap walls")
        if self.rubble & self.walls or self.rubble & self.doors:
            out.append("rubble cells overlap walls or doors")
        seen_cells = set()
        for v in self.victims:
            c = v.cell
            if not self.grid.contains(c.x, c.y):
                out.append(f"victim at ({c.x}, {c.y}) outside grid")
                continue
            if c in seen_cells:
                out.append(f"two victims share cell ({c.x}, {c.y})")
            seen_cells.add(c)
            if c in self.walls or c in self.doors:
                out.append(f"victim at ({c.x}, {c.y}) on a wall or door")
            if v.kind is VictimType.YELLOW and c not in self.rubble:
                out.append(f"yellow victim at ({c.x}, {c.y}) has no rubble")
            if v.kind is not VictimType.YELLOW and c in self.rubble:
                out.append(f"{v.kind} victim at ({c.x}, {c.y}) buried under rubble")
        s = self.start
        if not self.grid.contains(s.x, s.y):
            out.append("start cell outside grid")
        elif s in self.walls or s in self.doors or s in self.rubble or s in seen_cells:
            out.append("start cell not traversable")
        if not 0 < self.red_cutoff_s <= self.mission_duration_s < math.inf:
            out.append("red cutoff outside a finite mission duration")
        if self.fov_radius < 1:
            out.append("field of view radius must be at least 1")
        return out

    def validate(self) -> None:
        problems = self.problems()
        if problems:
            raise InvalidMapError(f"map {self.name!r}: " + "; ".join(problems))

    @cached_property
    def wall_mask(self) -> np.ndarray:
        return _cell_array(self.grid, self.walls)

    @cached_property
    def neighbor_lists(self) -> tuple[tuple[int, ...], ...]:
        """In-grid 4-neighbor cell indices of each cell that are not walls,
        in N, E, S, W order. Victims, rubble and doors never sit on walls."""
        g = self.grid
        ys, xs = np.divmod(np.arange(g.n_cells), g.width)
        nbs = np.arange(g.n_cells)[:, None] + [-g.width, 1, g.width, -1]
        ok = np.stack([ys > 0, xs < g.width - 1, ys < g.height - 1, xs > 0], axis=1)
        ok[ok] = ~self.wall_mask[nbs[ok]]
        kept = iter(nbs[ok].tolist())  # row-major, so each cell's neighbors stay in order
        return tuple(tuple(islice(kept, k)) for k in ok.sum(axis=1).tolist())


def map_meta(spec: MapSpec) -> MapMeta:
    """Task inventory for collective-intelligence normalization.

    Medics may rescue every victim; engineers may rescue greens, assist red
    rescues, clear rubble and open doors.
    """
    kinds = [v.kind for v in spec.victims]
    victim_tasks = kinds.count(VictimType.GREEN) + kinds.count(VictimType.RED)
    return MapMeta(traversable_cells=spec.grid.n_cells - len(spec.walls), max_tasks={
        Role.MEDIC: len(kinds), Role.ENGINEER: victim_tasks + len(spec.rubble) + len(spec.doors)})


@dataclass(frozen=True)
class AgentAction:
    """A requested action: `target` is a row-major cell, None for a wait or a move off the grid."""

    kind: ActionTag
    target: int | None = None


WAIT_ACTION = AgentAction(ActionTag.WAIT)


@dataclass(frozen=True)
class AgentState:
    """An agent and the row-major cell it stands on."""

    player_id: str
    role: Role
    cell: int


@dataclass(frozen=True, eq=False)
class WorldState:
    """The world at one tick.

    What changes during a mission is held in read-only per-cell arrays:
    `victim_codes` holds `VICTIM_CODES` (0 = no victim), and `rubble_mask`
    and `door_mask` mark the uncleared rubble and the closed doors.
    """

    spec: MapSpec
    tick: int
    agents: tuple[AgentState, ...]
    victim_codes: np.ndarray
    rubble_mask: np.ndarray
    door_mask: np.ndarray
    events: tuple[RescueEvent, ...] = ()

    @property
    def time_s(self) -> float:
        return self.tick * SAMPLE_INTERVAL_S


def initial_state(spec: MapSpec, agents: tuple[AgentState, ...]) -> WorldState:
    victim_codes = _cell_array(spec.grid, [v.cell for v in spec.victims],
                               [VICTIM_CODES[v.kind] for v in spec.victims], np.int8)
    return WorldState(spec=spec, tick=0, agents=agents, victim_codes=victim_codes,
                      rubble_mask=_cell_array(spec.grid, spec.rubble),
                      door_mask=_cell_array(spec.grid, spec.doors))


def _rescuers(state: WorldState, victims: np.ndarray, agent: AgentState,
              c: int) -> tuple[str, ...] | None:
    """Ids credited when `agent` rescues the victim at `c` in `victims`; None if not
    allowed. Engineers rescue greens only, a yellow needs its rubble gone at the start
    of the tick, and a red needs the cutoff ahead and an engineer beside `c`."""
    code = victims[c]
    if (not code or agent.role is Role.ENGINEER and code != _GREEN
            or code == _YELLOW and state.rubble_mask[c]):
        return None
    if code != _RED:
        return (agent.player_id,)
    around = state.spec.neighbor_lists[c]
    helper = next((a for a in state.agents if a.role is Role.ENGINEER and a.cell in around), None)
    if helper is None or state.time_s >= state.spec.red_cutoff_s:
        return None
    return (agent.player_id, helper.player_id)


def _terrain_action(role: Role, rubble: np.ndarray, doors: np.ndarray, c: int) -> ActionTag | None:
    """An engineer CLEARs rubble and OPENs a closed door at `c`; None otherwise."""
    if role is not Role.ENGINEER:
        return None
    return ActionTag.CLEAR if rubble[c] else ActionTag.OPEN if doors[c] else None


def step_resolved(state: WorldState, actions) -> tuple[WorldState, tuple[AgentAction, ...]]:
    """Advance one tick; illegal actions degrade to waits.

    A target is adjacent if it is in the agent's `MapSpec.neighbor_lists`, which
    leave out walls. Returns the new state and what each agent actually did.
    """
    if len(actions) != len(state.agents):
        raise MalformedActionError(f"{len(actions)} actions for {len(state.agents)} agents")
    victims, rubble, doors = (a.copy() for a in (
        state.victim_codes, state.rubble_mask, state.door_mask))
    events = list(state.events)
    resolved: list[AgentAction] = [WAIT_ACTION] * len(actions)
    agents = list(state.agents)
    # In agent order. A rescue removes its victim at once, which settles conflicts;
    # terrain checks and moves see the start-of-tick state. Agents may share cells.
    for i, (agent, act) in enumerate(zip(state.agents, actions)):
        if not isinstance(act, AgentAction) or not isinstance(act.kind, ActionTag):
            raise MalformedActionError(f"not an agent action: {act!r}")
        c = act.target
        if act.kind is ActionTag.WAIT or c not in state.spec.neighbor_lists[agent.cell]:
            continue  # no adjacent target: a wait
        if act.kind is ActionTag.MOVE:  # `c` is no wall: neighbor lists leave walls out
            if not (state.rubble_mask[c] or state.door_mask[c]):
                agents[i] = AgentState(agent.player_id, agent.role, c)
                resolved[i] = act
        elif act.kind is ActionTag.RESCUE:
            actors = _rescuers(state, victims, agent, c)
            if actors is not None:
                y, x = divmod(c, state.spec.grid.width)
                events.append(RescueEvent(time_s=state.time_s, victim_cell=Position(x, y),
                                          victim_type=_VICTIM_KINDS[victims[c]], actor_ids=actors))
                victims[c] = 0
                resolved[i] = act
        elif _terrain_action(agent.role, rubble, doors, c) is act.kind:  # clear or open
            (rubble if act.kind is ActionTag.CLEAR else doors)[c] = False
            resolved[i] = act

    for a in (victims, rubble, doors):
        a.flags.writeable = False
    new_state = WorldState(spec=state.spec, tick=state.tick + 1, agents=tuple(agents),
                           victim_codes=victims, rubble_mask=rubble, door_mask=doors,
                           events=tuple(events))
    return new_state, tuple(resolved)


def run_mission(spec: MapSpec, policies, seed: int, session_id: str | None = None) -> TeamSession:
    """Run one full mission and return its validated session record, carrying `map_meta(spec)`.

    `policies` is a sequence of four (role, AgentPolicy) pairs, two medics
    and two engineers. Fixed (map, policies, seed) reproduces the mission
    bit for bit. Player ids are derived from roles in input order. It runs on
    row-major int cells, split into x and y by one `divmod` at the end.
    """
    from .policies import build_controllers  # deferred: policies import world types

    spec.validate()
    roles = [role for role, _ in policies]
    if len(policies) != 4 or roles.count(Role.MEDIC) != 2 or roles.count(Role.ENGINEER) != 2:
        raise CompositionError("run_mission needs exactly 2 medic and 2 engineer policies")
    n_ticks = _clock_ticks(spec.mission_duration_s, SAMPLE_INTERVAL_S)
    if not 1 <= n_ticks <= MAX_TICKS:
        ticks = "no tick" if n_ticks < 1 else f"more than the {MAX_TICKS} ticks allowed"
        raise InvalidMapError(f"map {spec.name!r}: a {spec.mission_duration_s} s mission has "
                              f"{ticks} at a sample interval of {SAMPLE_INTERVAL_S} s")

    start = spec.start.y * spec.grid.width + spec.start.x
    agents = tuple(AgentState(player_id=f"{role.value}{roles[:i + 1].count(role)}", role=role,
                              cell=start) for i, role in enumerate(roles))
    controllers = build_controllers(policies, spec, seed)
    state = initial_state(spec, agents)
    # per agent and tick: the cell stood on, the resolved action and its target (-1 for none)
    cells, kinds, targets = (np.empty((len(agents), n_ticks), dtype=dtype)
                             for dtype in (np.int64, np.int8, np.int64))

    for t in range(n_ticks):
        for c in controllers:
            c.observe(state)
        new_state, resolved = step_resolved(state, [c.act(state) for c in controllers])
        for i, (agent, act) in enumerate(zip(state.agents, resolved)):
            cells[i, t] = agent.cell
            kinds[i, t] = ACTIONS.index(act.kind)
            targets[i, t] = -1 if act.target is None else act.target
        state = new_state

    ticks = np.broadcast_to(np.arange(n_ticks), cells.shape)
    ys, xs = np.divmod(np.stack([cells, np.maximum(targets, 0)]), spec.grid.width)
    samples = np.rec.fromarrays([ticks, ticks * SAMPLE_INTERVAL_S, xs[0], ys[0], kinds,
                                 xs[1], ys[1], targets >= 0], dtype=SAMPLE)
    players = tuple(PlayerTrajectory(player_id=a.player_id, role=a.role, samples=samples[i])
                    for i, a in enumerate(agents))
    session = TeamSession(
        session_id=session_id or f"{spec.name}-{seed}",
        grid=spec.grid, players=players, events=state.events,
        mission_duration_s=spec.mission_duration_s, red_cutoff_s=spec.red_cutoff_s,
        map_meta=map_meta(spec))
    report = validate_session(session)
    if report:  # a violation here is a simulator bug, not user error
        raise AssertionError(f"simulator produced an invalid session: {report[:3]}")
    return session
