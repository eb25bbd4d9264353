"""Tick-based search-and-rescue world: map specification, state, step rules.

One action per agent per tick, resolved atomically against the start-of-tick
state: a rubble cell cleared this tick only unblocks its victim next tick,
and movement cannot pass a door opened this tick. Conflicting rescues of the
same victim resolve by agent index. Agents may share cells; they all start
on the common start cell.

A mission runs on row-major int cells (`y * width + x`): agents, action
targets, the map (`MapSpec`) and the `WorldState` sets of victims, rubble and
closed doors, packed into ints once from the map's arrays. The action
rules live here, in `_rescuers` and `_terrain_action`, and the step and the
controllers of `policies.py` both act through them; `policies.run_mission`
drives a whole mission.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import NamedTuple

import numpy as np

from ..core import (
    SAMPLE_INTERVAL_S,
    ActionTag,
    GridSpec,
    MapMeta,
    MissionClock,
    Position,
    RescueEvent,
    Role,
    TeamCoordError,
    VictimType,
)


class InvalidMapError(TeamCoordError):
    """Map specification breaks a structural invariant."""


class MalformedActionError(TeamCoordError):
    """Agent action is not one of the known kinds."""


# per-cell victim codes in `MapSpec.victim_codes`; 0 means no victim
VICTIM_CODES = {VictimType.GREEN: 1, VictimType.YELLOW: 2, VictimType.RED: 3}
_VICTIM_KINDS = {code: kind for kind, code in VICTIM_CODES.items()}
_GREEN, _YELLOW, _RED = (VICTIM_CODES[k] for k in
                         (VictimType.GREEN, VictimType.YELLOW, VictimType.RED))


def raise_map_problems(name: str, problems: list[str]) -> None:
    """Raise `InvalidMapError` naming every problem of map `name`, if it has any."""
    if problems:
        raise InvalidMapError(f"map {name!r}: " + "; ".join(problems))


def pack_cells(mask: np.ndarray) -> int:
    """A per-cell bool mask as one int, bit c set for row-major cell c: the
    planner's form of a cell set."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


@dataclass(frozen=True, eq=False)
class MapSpec:
    """Static world: walls, doors, rubble, victims and the mission's `MissionClock`.

    Cells are row-major ints, as in `WorldState`: read-only per-cell arrays of
    bools (`wall_mask`, `door_mask`, `rubble_mask`) and of int8 `VICTIM_CODES`,
    and the common `start` cell. `maps.map_from_cells` and `map_from_ascii` build
    one. Rubble blocks both movement and the rescue of the yellow victim under
    it; closed doors block movement until an engineer opens them. The tables
    and packed masks the controllers plan with are made on first use.
    """

    name: str
    grid: GridSpec
    wall_mask: np.ndarray
    door_mask: np.ndarray
    rubble_mask: np.ndarray
    victim_codes: np.ndarray
    start: int
    clock: MissionClock = MissionClock()
    fov_radius: int = 5

    def __post_init__(self):
        for a in (self.wall_mask, self.door_mask, self.rubble_mask, self.victim_codes):
            a.flags.writeable = False

    def problems(self) -> list[str]:
        """The broken invariants, in this order: overlapping terrain, each victim's
        cell in row-major order, the start cell, the clock, the field of view."""
        walls, doors, rubble, codes = (self.wall_mask, self.door_mask, self.rubble_mask,
                                       self.victim_codes)
        out = []
        if (walls & doors).any():
            out.append("door cells overlap walls")
        if (rubble & (walls | doors)).any():
            out.append("rubble cells overlap walls or doors")
        on_terrain = (codes != 0) & (walls | doors)
        unburied = (codes == _YELLOW) & ~rubble
        buried = (codes != 0) & (codes != _YELLOW) & rubble
        for c in np.flatnonzero(on_terrain | unburied | buried).tolist():
            y, x = divmod(c, self.grid.width)
            if on_terrain[c]:
                out.append(f"victim at ({x}, {y}) on a wall or door")
            if unburied[c]:
                out.append(f"yellow victim at ({x}, {y}) has no rubble")
            if buried[c]:
                out.append(f"{_VICTIM_KINDS[codes[c]]} victim at ({x}, {y}) buried under rubble")
        s = self.start
        if not 0 <= s < self.grid.n_cells:
            out.append("start cell outside grid")
        elif walls[s] or doors[s] or rubble[s] or codes[s]:
            out.append("start cell not traversable")
        if not (self.clock.cutoff_inside() and self.clock.mission_duration_s < math.inf):
            out.append("red cutoff outside a finite mission duration")
        if self.fov_radius < 1:
            out.append("field of view radius must be at least 1")
        return out

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

    @cached_property
    def open_cells(self) -> int:
        """The non-wall cells, packed as by `pack_cells`."""
        return pack_cells(~self.wall_mask)

    @cached_property
    def inner_columns(self) -> tuple[int, int]:
        """The packed cells outside the first grid column, and those outside
        the last: a set shifted one cell east or west and masked by them does
        not wrap onto the next or the previous row."""
        xs = np.arange(self.grid.n_cells) % self.grid.width
        return pack_cells(xs != 0), pack_cells(xs != self.grid.width - 1)

    def spread(self, cells: int) -> int:
        """The in-grid 4-neighbours of the packed `cells`, walls included. A
        cell of the last row also sets the bit `width` past it, beyond the
        grid, which a mask of grid cells clears."""
        east, west = self.inner_columns
        w = self.grid.width
        return (cells << 1 & east) | (cells >> 1 & west) | cells << w | cells >> w

    @cached_property
    def view_column(self) -> int:
        """Bit k * width set for k in 0 .. 2 * min(fov_radius, height): the
        rows of a field of view, at column 0 and from its top row. A radius
        over the height sees every row, as the height itself does."""
        w, rows = self.grid.width, 2 * min(self.fov_radius, self.grid.height) + 1
        return ((1 << rows * w) - 1) // ((1 << w) - 1)


def map_meta(spec: MapSpec) -> MapMeta:
    """Task inventory for collective-intelligence normalization.

    Medics may rescue every victim; engineers may rescue greens, assist red
    rescues, clear rubble and open doors.
    """
    counts = np.bincount(spec.victim_codes, minlength=len(VICTIM_CODES) + 1).tolist()
    terrain = int(spec.rubble_mask.sum() + spec.door_mask.sum())
    return MapMeta(traversable_cells=spec.grid.n_cells - int(spec.wall_mask.sum()), max_tasks={
        Role.MEDIC: sum(counts[1:]), Role.ENGINEER: counts[_GREEN] + counts[_RED] + terrain})


class AgentAction(NamedTuple):
    """A requested action, an immutable tuple: `target` is a row-major cell,
    None for a wait or a move off the grid. `step_resolved` takes no other
    tuple for one, not even an equal plain tuple."""

    kind: ActionTag
    target: int | None = None


WAIT_ACTION = AgentAction(ActionTag.WAIT)


class AgentState(NamedTuple):
    """An agent and the row-major cell it stands on, an immutable tuple."""

    player_id: str
    role: Role
    cell: int


@dataclass(frozen=True, eq=False)
class WorldState:
    """The world at one tick.

    What changes during a mission is held as packed cell sets, bit c set for
    row-major cell c (`pack_cells`): the victims left of each kind (`greens`,
    `yellows`, `reds`), the uncleared `rubble` and the closed `doors`. A rule
    reads a cell with a bit test, and the controllers merge the sets into
    what they know and meet them with the cells beside them a set at a time.
    """

    spec: MapSpec
    tick: int
    agents: tuple[AgentState, ...]
    greens: int
    yellows: int
    reds: int
    rubble: int
    doors: int
    events: tuple[RescueEvent, ...] = ()

    @property
    def time_s(self) -> float:
        return self.tick * SAMPLE_INTERVAL_S


def initial_state(spec: MapSpec, agents: tuple[AgentState, ...]) -> WorldState:
    codes = spec.victim_codes
    return WorldState(spec=spec, tick=0, agents=agents, greens=pack_cells(codes == _GREEN),
                      yellows=pack_cells(codes == _YELLOW), reds=pack_cells(codes == _RED),
                      rubble=pack_cells(spec.rubble_mask), doors=pack_cells(spec.door_mask))


def _victim_at(greens: int, yellows: int, reds: int, c: int) -> VictimType | None:
    """The kind of the victim at cell `c` in the packed sets of each kind; None if none."""
    return (VictimType.GREEN if greens >> c & 1 else VictimType.YELLOW if yellows >> c & 1
            else VictimType.RED if reds >> c & 1 else None)


def _rescuers(state: WorldState, kind: VictimType | None, agent: AgentState,
              c: int) -> tuple[str, ...] | None:
    """Ids credited when `agent` rescues the victim of `kind` at `c` (None: no
    victim); None if not allowed. Engineers rescue greens only, a yellow needs
    its rubble gone at the start of the tick, and a red needs the cutoff ahead
    and an engineer beside `c`."""
    if (kind is None or agent.role is Role.ENGINEER and kind is not VictimType.GREEN
            or kind is VictimType.YELLOW and state.rubble >> c & 1):
        return None
    if kind is not VictimType.RED:
        return (agent.player_id,)
    around = state.spec.neighbor_lists[c]
    helper = next((a for a in state.agents if a.role is Role.ENGINEER and a.cell in around), None)
    if helper is None or state.spec.clock.red_closed(state.time_s):
        return None
    return (agent.player_id, helper.player_id)


def _terrain_action(role: Role, rubble: int, doors: int, c: int) -> ActionTag | None:
    """An engineer CLEARs rubble and OPENs a closed door at `c`; None otherwise.
    `rubble` and `doors` are packed sets as in `WorldState`."""
    if role is not Role.ENGINEER:
        return None
    return ActionTag.CLEAR if rubble >> c & 1 else ActionTag.OPEN if doors >> c & 1 else None


def step_resolved(state: WorldState, actions) -> tuple[WorldState, tuple[AgentAction, ...]]:
    """Advance one tick; illegal actions degrade to waits.

    A target is adjacent if it is in the agent's `MapSpec.neighbor_lists`, which
    leave out walls. Returns the new state and what each agent actually did;
    `state` is left as it was.
    """
    if len(actions) != len(state.agents):
        raise MalformedActionError(f"{len(actions)} actions for {len(state.agents)} agents")
    greens, yellows, reds, rubble, doors = (state.greens, state.yellows, state.reds,
                                            state.rubble, state.doors)
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
            if not (state.rubble | state.doors) >> c & 1:
                agents[i] = AgentState(agent.player_id, agent.role, c)
                resolved[i] = act
        elif act.kind is ActionTag.RESCUE:
            kind = _victim_at(greens, yellows, reds, c)
            actors = _rescuers(state, kind, agent, c)
            if actors is not None:
                y, x = divmod(c, state.spec.grid.width)
                events.append(RescueEvent(time_s=state.time_s, victim_cell=Position(x, y),
                                          victim_type=kind, actor_ids=actors))
                gone = ~(1 << c)
                greens, yellows, reds = greens & gone, yellows & gone, reds & gone
                resolved[i] = act
        elif _terrain_action(agent.role, rubble, doors, c) is act.kind:  # clear or open
            if act.kind is ActionTag.CLEAR:
                rubble &= ~(1 << c)
            else:
                doors &= ~(1 << c)
            resolved[i] = act

    new_state = WorldState(spec=state.spec, tick=state.tick + 1, agents=tuple(agents),
                           greens=greens, yellows=yellows, reds=reds, rubble=rubble,
                           doors=doors, events=tuple(events))
    return new_state, tuple(resolved)
