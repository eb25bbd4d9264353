"""Core domain model: grids, roles, trajectories, rescue events, `MissionClock`, sessions.

Everything here is immutable value data, and a player's samples are one
read-only SAMPLE array. Cross-field consistency is the job of
`validate_session`, which reports violations as data instead of raising, so
malformed logs can be loaded and inspected.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate
from typing import Mapping

import numpy as np


class TeamCoordError(Exception):
    """Base class for domain errors raised by this package."""


class CompositionError(TeamCoordError):
    """Team is not two medics plus two engineers."""


class DuplicateIdError(TeamCoordError):
    """Two players share a player_id."""


class ValueEnum(Enum):
    """An enum whose members print as their values, in str(), f-strings and format()."""

    def __str__(self) -> str:
        return self.value


class Role(ValueEnum):
    MEDIC = "medic"
    ENGINEER = "engineer"


class VictimType(ValueEnum):
    GREEN = "green"
    YELLOW = "yellow"
    RED = "red"

    @property
    def performance_weight(self) -> int:
        """Weight of one rescue in the team performance score."""
        return _PERFORMANCE_WEIGHTS[self]


_PERFORMANCE_WEIGHTS = {VictimType.GREEN: 10, VictimType.YELLOW: 30, VictimType.RED: 60}


class ActionTag(ValueEnum):
    """What a player did during one tick."""

    MOVE = "move"
    WAIT = "wait"
    RESCUE = "rescue"
    CLEAR = "clear"
    OPEN = "open"


@dataclass(frozen=True)
class GridSpec:
    """Rectangular cell grid. Cells are indexed row-major: index = y*width + x."""

    width: int
    height: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.width}x{self.height}")
        if self.width * self.height >= 2 ** 63:
            raise ValueError(f"grid of {self.width}x{self.height} cells is too large "
                             "for int64 cell indices")

    @property
    def n_cells(self) -> int:
        return self.width * self.height

    def contains(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height


@dataclass(frozen=True)
class Position:
    x: int
    y: int

    def manhattan(self, other: "Position") -> int:
        return abs(self.x - other.x) + abs(self.y - other.y)


ACTIONS = tuple(ActionTag)

# Seconds between two logged ticks: the simulator's clock and a session's default.
SAMPLE_INTERVAL_S = 3.0
MAX_TICKS = 10 ** 6  # the longest mission: about 35 days at the 3 s sample interval


@dataclass(frozen=True)
class MissionClock:
    """A mission's length and its red cutoff, in seconds from the start; the
    field names are the manifest and map-file keys. A red victim counts only
    if it is rescued before the cutoff."""

    mission_duration_s: float = 300.0
    red_cutoff_s: float = 180.0

    def cutoff_inside(self) -> bool:
        """Whether 0 < red cutoff <= mission duration (False on nan)."""
        return 0 < self.red_cutoff_s <= self.mission_duration_s

    def red_closed(self, time_s: float) -> bool:
        """Whether a red rescue at `time_s` comes too late: at or after the cutoff."""
        return time_s >= self.red_cutoff_s

    def ticks(self, interval_s: float) -> float:
        """The tick count at `interval_s`: duration / interval to the nearest whole
        tick, or inf when the quotient overflows."""
        ticks = self.mission_duration_s / interval_s
        return round(ticks) if math.isfinite(ticks) else ticks


# One logged (tick, player) observation per row. `action` indexes ACTIONS,
# -1 for none. The target is the cell acted on (move destination, victim,
# rubble or door cell); a row without one holds (0, 0, False).
SAMPLE = np.dtype([("tick", "i8"), ("time_s", "f8"), ("x", "i8"), ("y", "i8"), ("action", "i1"),
                   ("target_x", "i8"), ("target_y", "i8"), ("has_target", "?")])


@dataclass(frozen=True)
class PlayerTrajectory:
    """One player's log: `samples` is a read-only SAMPLE array in tick order.

    A read-only SAMPLE ndarray is held as it is given; any other rows are copied into one.
    Its `x` and `y` columns are the player's positions, and no other copy is kept.
    """

    player_id: str
    role: Role
    samples: np.ndarray

    def __post_init__(self):
        rows = self.samples
        if type(rows) is np.ndarray and rows.dtype == SAMPLE and not rows.flags.writeable:
            return
        rows = rows if isinstance(rows, np.ndarray) else list(rows)
        samples = np.array(rows, dtype=SAMPLE)  # via a list: numpy reads a tuple as one record
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    def __eq__(self, other):
        return (isinstance(other, PlayerTrajectory) and self.player_id == other.player_id
                and self.role is other.role and np.array_equal(self.samples, other.samples))

    @property
    def n_ticks(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class RescueEvent:
    time_s: float
    victim_type: VictimType
    victim_cell: Position
    actor_ids: tuple[str, ...]


@dataclass(frozen=True)
class MapMeta:
    """Task inventory used to normalize the collective-intelligence components."""

    traversable_cells: int
    max_tasks: Mapping[Role, int]

    def __post_init__(self):
        if self.traversable_cells < 1:
            raise ValueError("traversable cell count must be positive")


@dataclass(frozen=True)
class TeamSession:
    """One team's mission record: trajectories plus the rescue event log."""

    session_id: str
    grid: GridSpec
    players: tuple[PlayerTrajectory, ...]
    events: tuple[RescueEvent, ...] = ()
    clock: MissionClock = MissionClock()
    sample_interval_s: float = SAMPLE_INTERVAL_S
    # the map's task inventory, which manifests embed; not part of the record, so not compared
    map_meta: MapMeta | None = field(default=None, compare=False)

    @property
    def n_ticks(self) -> int:
        return self.players[0].n_ticks if self.players else 0

    @property
    def nominal_ticks(self) -> int:
        """Tick count implied by the mission clock (100 for the defaults)."""
        return max(self.n_ticks, self.clock.ticks(self.sample_interval_s))


# Violation codes emitted by validate_session.
PLAYER_COUNT = "PLAYER_COUNT"
ROLE_COMPOSITION = "ROLE_COMPOSITION"
DUPLICATE_ID = "DUPLICATE_ID"
TICK_ALIGNMENT = "TICK_ALIGNMENT"
DISCONTINUITY = "DISCONTINUITY"
POSITION_BOUNDS = "POSITION_BOUNDS"
TIME_MISMATCH = "TIME_MISMATCH"
EVENT_TIME = "EVENT_TIME"
EVENT_ACTOR = "EVENT_ACTOR"
RED_CUTOFF = "RED_CUTOFF"
RED_ACTORS = "RED_ACTORS"
CONFIG = "CONFIG"

_TIME_TOL = 1e-9


@dataclass(frozen=True)
class Violation:
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


def validate_session(session: TeamSession) -> list[Violation]:
    """Check every session invariant; an empty report means the session is valid.

    Violations are data, not exceptions: a session with three players or a
    teleporting trajectory still validates, it just validates badly.
    """
    out: list[Violation] = []
    grid, clock = session.grid, session.clock

    if not (session.sample_interval_s > 0 and clock.mission_duration_s > 0):  # nan too
        out.append(Violation(CONFIG, "sample interval and mission duration must be positive"))
    elif clock.ticks(session.sample_interval_s) > MAX_TICKS:
        out.append(Violation(CONFIG, f"mission duration must span at most {MAX_TICKS} "
                                     "sample intervals"))
    if not clock.cutoff_inside():
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
        out.append(Violation(TICK_ALIGNMENT, f"trajectories disagree on tick count: {sorted(tick_counts)}"))

    out.extend(_sample_violations(players, grid, session.sample_interval_s))

    by_id = {p.player_id: p for p in players}
    for k, e in enumerate(session.events):
        if not 0 <= e.time_s < clock.mission_duration_s:
            out.append(Violation(EVENT_TIME, f"event {k}: time {e.time_s}s outside mission"))
            continue
        if not grid.contains(e.victim_cell.x, e.victim_cell.y):
            out.append(Violation(POSITION_BOUNDS, f"event {k}: victim cell off grid"))
        unknown = [a for a in e.actor_ids if a not in by_id]
        if not e.actor_ids or unknown:
            out.append(Violation(EVENT_ACTOR, f"event {k}: unknown or missing actors {unknown}"))
            continue
        if e.victim_type is VictimType.RED:
            if clock.red_closed(e.time_s):
                out.append(Violation(RED_CUTOFF, f"event {k}: red rescue at {e.time_s}s, cutoff {clock.red_cutoff_s}s"))
            actors = [by_id[a] for a in e.actor_ids]
            # no tick to check without a positive interval, or where the quotient overflows
            interval = session.sample_interval_s
            ticks = e.time_s / interval if interval > 0 else math.nan
            tick = int(round(ticks)) if math.isfinite(ticks) else None
            adjacent = []
            for a in actors:
                if tick is None or tick >= a.n_ticks:
                    break
                if Position(*a.samples[["x", "y"]][tick].tolist()).manhattan(e.victim_cell) == 1:
                    adjacent.append(a)
            roles = {a.role for a in adjacent}
            if roles != {Role.MEDIC, Role.ENGINEER}:
                out.append(Violation(
                    RED_ACTORS,
                    f"event {k}: red rescue needs a medic and an engineer adjacent at tick {tick}"))
    return out


def _sample_violations(players, grid: GridSpec, interval: float) -> list[Violation]:
    """The tick, time, bounds and one-tick-move violations of each player's
    samples in tick order, player by player; a row's in that order.

    The checks run as masks over all players' int64 columns at once. A
    difference that wraps around is caught by its sign, so every verdict is
    the one exact integer arithmetic gives. Messages are built for the
    flagged rows only.
    """
    counts = [p.n_ticks for p in players]
    if not any(counts):
        return []
    tick, time_s, x, y = (np.concatenate([p.samples[k] for p in players])
                          for k in ("tick", "time_s", "x", "y"))
    starts = [0, *accumulate(counts[:-1])]  # a player without samples starts where the next does
    first = np.zeros(len(tick), bool)
    first[[start for start, count in zip(starts, counts) if count]] = True
    jump = first & (tick != 0)
    jump[1:] |= ~first[1:] & ((tick[1:] - tick[:-1] != 1) | (tick[:-1] > tick[1:]))
    with np.errstate(invalid="ignore", over="ignore"):  # inf or nan times compare False
        late = np.abs(time_s - tick * float(interval)) > _TIME_TOL
    off = (x < 0) | (x >= grid.width) | (y < 0) | (y >= grid.height)
    moved = np.zeros(len(tick), bool)
    moved[1:] = ~first[1:] & (_apart(x[1:], x[:-1]) | _apart(y[1:], y[:-1])
                              | (x[1:] != x[:-1]) & (y[1:] != y[:-1]))
    flagged = np.flatnonzero(jump | late | off | moved).tolist()
    if not flagged:
        return []

    owners = np.searchsorted(starts, flagged, side="right") - 1
    rows = list(zip(tick.tolist(), time_s.tolist(), x.tolist(), y.tolist()))
    out = []
    for i, k in zip(flagged, owners.tolist()):
        pid, (t, seconds, xi, yi) = players[k].player_id, rows[i]
        if jump[i]:
            out.append(Violation(DISCONTINUITY, f"player {pid}: first tick is {t}, not 0"
                                 if first[i] else
                                 f"player {pid}: tick jumps from {rows[i - 1][0]} to {t}"))
        if late[i]:
            out.append(Violation(
                TIME_MISMATCH, f"player {pid} tick {t}: time_s {seconds} != tick * interval"))
        if off[i]:
            out.append(Violation(
                POSITION_BOUNDS, f"player {pid} tick {t}: position ({xi}, {yi}) off grid"))
        if moved[i]:
            move = f"{Position(*rows[i - 1][2:])} -> {Position(xi, yi)}"
            out.append(Violation(DISCONTINUITY,
                                 f"player {pid} tick {t}: moved {move} in one tick"))
    return out


def _apart(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a - b| > 1 elementwise for int64 arrays, also where a - b wraps."""
    d = a - b
    return (d > 1) | (d < -1) | ((d > 0) != (a > b))


def team_roles_partition(session: TeamSession) -> dict[Role, list[PlayerTrajectory]]:
    """Split the four players by role; raises unless the team is 2 + 2."""
    ids = [p.player_id for p in session.players]
    if len(set(ids)) != len(ids):
        raise DuplicateIdError(f"duplicate player ids in session {session.session_id!r}")
    part: dict[Role, list[PlayerTrajectory]] = {Role.MEDIC: [], Role.ENGINEER: []}
    for p in session.players:
        part[p.role].append(p)
    if len(part[Role.MEDIC]) != 2 or len(part[Role.ENGINEER]) != 2:
        raise CompositionError(
            f"session {session.session_id!r} has {len(part[Role.MEDIC])} medics and "
            f"{len(part[Role.ENGINEER])} engineers, need 2 + 2")
    return part
