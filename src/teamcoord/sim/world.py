"""Tick-based search-and-rescue world: map specification, state, step rules.

One action per agent per tick, resolved atomically against the start-of-tick
state: a rubble cell cleared this tick only unblocks its victim next tick,
and movement cannot pass a door opened this tick. Conflicting rescues of the
same victim resolve by agent index. Agents may share cells; they all start
on the common start cell.

A mission runs on row-major int cells (`y * width + x`): agents, action
targets, and the cell sets of the map (`MapSpec`) and the `WorldState`, each
an int, bit c for cell c; a mission starts from the map's sets. The action
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


def raise_map_problems(name: str, problems: list[str]) -> None:
    """Raise `InvalidMapError` naming every problem of map `name`, if it has any."""
    if problems:
        raise InvalidMapError(f"map {name!r}: " + "; ".join(problems))


def pack_cells(mask: np.ndarray) -> int:
    """A per-cell bool mask as one int, bit c set for row-major cell c: the
    simulator's form of a cell set."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def unpack_cells(cells: int, n: int) -> np.ndarray:
    """A packed cell set of an n-cell grid, bit c for cell c, as a per-cell bool mask."""
    return np.unpackbits(np.frombuffer(cells.to_bytes(-(-n // 8), "little"), np.uint8),
                         count=n, bitorder="little").astype(bool)


@dataclass(frozen=True, eq=False)
class MapSpec:
    """Static world: walls, doors, rubble, victims and the mission's `MissionClock`.

    Cells are row-major ints, and each cell set is a packed int under its
    `WorldState` name (`pack_cells`): `walls`, closed `doors`, `rubble` and the
    victims `greens`, `yellows` and `reds`; a mission starts from them. `start`
    is the common start cell. `maps.map_from_cells` and `map_from_ascii` build
    one. Rubble blocks both movement and the rescue of the yellow victim under
    it; closed doors block movement until an engineer opens them. The tables
    and packed masks the controllers plan with are made on first use. Those
    that `observe` and `BfsField` read hold O(n_cells) bits in all: a few
    packed sets (`open_cells`, `inner_columns`, `view_column`) and two small
    ints per column (`view_spans`). A packed view or neighbour set per cell
    or per column would hold O(n_cells) bits each, tens of GB at
    `maps.MAX_MAP_CELLS`.
    """

    name: str
    grid: GridSpec
    walls: int
    doors: int
    rubble: int
    greens: int
    yellows: int
    reds: int
    start: int
    clock: MissionClock = MissionClock()
    fov_radius: int = 5

    def problems(self) -> list[str]:
        """The broken invariants, in this order: overlapping terrain, each victim's
        cell in row-major order, the start cell, the clock, the field of view."""
        walls, doors, rubble = self.walls, self.doors, self.rubble
        out = []
        if walls & doors:
            out.append("door cells overlap walls")
        if rubble & (walls | doors):
            out.append("rubble cells overlap walls or doors")
        victims = self.greens | self.yellows | self.reds
        on_terrain = victims & (walls | doors)
        unburied = self.yellows & ~rubble
        buried = (self.greens | self.reds) & rubble
        flagged = unpack_cells(on_terrain | unburied | buried, self.grid.n_cells)
        for c in np.flatnonzero(flagged).tolist():
            y, x = divmod(c, self.grid.width)
            if on_terrain >> c & 1:
                out.append(f"victim at ({x}, {y}) on a wall or door")
            if unburied >> c & 1:
                out.append(f"yellow victim at ({x}, {y}) has no rubble")
            if buried >> c & 1:
                kind = _victim_at(self.greens, self.yellows, self.reds, c)
                out.append(f"{kind} victim at ({x}, {y}) buried under rubble")
        s = self.start
        if not 0 <= s < self.grid.n_cells:
            out.append("start cell outside grid")
        elif (walls | doors | rubble | victims) >> s & 1:
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
        ok[ok] = ~unpack_cells(self.walls, g.n_cells)[nbs[ok]]
        kept = iter(nbs[ok].tolist())  # row-major, so each cell's neighbors stay in order
        return tuple(tuple(islice(kept, k)) for k in ok.sum(axis=1).tolist())

    @cached_property
    def open_cells(self) -> int:
        """The non-wall cells, packed as by `pack_cells`."""
        return (1 << self.grid.n_cells) - 1 & ~self.walls

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
        return pack_cells(np.arange(rows * w) % w == 0)

    @cached_property
    def view_spans(self) -> tuple[tuple[int, int], ...]:
        """For each column x, `(span, left)`: a field of view centred on x
        covers `span` columns from column `left`, clipped to the grid. Two
        small ints per column, so O(width) of them in all."""
        w, r = self.grid.width, self.fov_radius
        xs = np.arange(w)
        left = np.maximum(xs - r, 0)
        return tuple(zip((np.minimum(xs + r, w - 1) - left + 1).tolist(), left.tolist()))


def map_meta(spec: MapSpec) -> MapMeta:
    """Task inventory for collective-intelligence normalization.

    Medics may rescue every victim; engineers may rescue greens, assist red
    rescues, clear rubble and open doors.
    """
    greens, reds = spec.greens.bit_count(), spec.reds.bit_count()
    return MapMeta(traversable_cells=spec.grid.n_cells - spec.walls.bit_count(), max_tasks={
        Role.MEDIC: greens + spec.yellows.bit_count() + reds,
        Role.ENGINEER: greens + reds + spec.rubble.bit_count() + spec.doors.bit_count()})


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


class WorldState(NamedTuple):
    """The world at one tick, an immutable tuple.

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
    return WorldState(spec, 0, agents, spec.greens, spec.yellows, spec.reds, spec.rubble,
                      spec.doors)


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
    blocked = rubble | doors  # moves see the start-of-tick terrain
    events = state.events  # a new tuple only if a rescue adds to it
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
            if not blocked >> c & 1:
                agents[i] = AgentState(agent.player_id, agent.role, c)
                resolved[i] = act
        elif act.kind is ActionTag.RESCUE:
            kind = _victim_at(greens, yellows, reds, c)
            actors = _rescuers(state, kind, agent, c)
            if actors is not None:
                y, x = divmod(c, state.spec.grid.width)
                events += (RescueEvent(time_s=state.time_s, victim_cell=Position(x, y),
                                       victim_type=kind, actor_ids=actors),)
                gone = ~(1 << c)
                greens, yellows, reds = greens & gone, yellows & gone, reds & gone
                resolved[i] = act
        elif _terrain_action(agent.role, rubble, doors, c) is act.kind:  # clear or open
            if act.kind is ActionTag.CLEAR:
                rubble &= ~(1 << c)
            else:
                doors &= ~(1 << c)
            resolved[i] = act

    new_state = WorldState(state.spec, state.tick + 1, tuple(agents), greens, yellows, reds,
                           rubble, doors, events)
    return new_state, tuple(resolved)
