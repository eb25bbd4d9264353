"""Built-in maps, drawn as ASCII art.

Legend: '#' wall, '.' floor, 'D' closed door, '*' bare rubble, 'S' the common
start cell, and 'g'/'y'/'r' victims. Yellow victims get rubble on their cell
automatically ('y' implies '*').
"""
from __future__ import annotations

from typing import Iterable

from ..core import GridSpec, Position, VictimType
from .world import MapSpec, Victim

_VICTIM_CHARS = {"g": VictimType.GREEN, "y": VictimType.YELLOW, "r": VictimType.RED}


def map_from_ascii(name: str, art: str, mission_duration_s: float = 300.0,
                   red_cutoff_s: float = 180.0, fov_radius: int = 5) -> MapSpec:
    rows = [line for line in art.splitlines() if line.strip()]
    if not rows:
        raise ValueError("empty map art")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"map {name!r}: ragged rows")
    walls, doors, rubble = set(), set(), set()
    victims: list[Victim] = []
    start = None
    for y, row in enumerate(rows):
        for x, ch in enumerate(row):
            cell = Position(x, y)
            if ch == "#":
                walls.add(cell)
            elif ch == "D":
                doors.add(cell)
            elif ch == "*":
                rubble.add(cell)
            elif ch == "S":
                if start is not None:
                    raise ValueError(f"map {name!r}: two start cells")
                start = cell
            elif ch in _VICTIM_CHARS:
                kind = _VICTIM_CHARS[ch]
                victims.append(Victim(cell, kind))
                if kind is VictimType.YELLOW:
                    rubble.add(cell)
            elif ch != ".":
                raise ValueError(f"map {name!r}: unknown tile {ch!r} at ({x}, {y})")
    if start is None:
        raise ValueError(f"map {name!r}: no start cell")
    spec = MapSpec(name=name, grid=GridSpec(width, len(rows)), walls=frozenset(walls),
                   doors=frozenset(doors), rubble=frozenset(rubble), victims=tuple(victims),
                   start=start, mission_duration_s=mission_duration_s,
                   red_cutoff_s=red_cutoff_s, fov_radius=fov_radius)
    spec.validate()
    return spec


# 12x12: open ground plus two door-gated rooms.
_SMALL = """\
############
#S........g#
#.####.#####
#.#y.#.#.g##
#.#..#.D..##
#.#.g#.#y.##
#.#D##.#####
#.....y....#
#...r...r..#
#g....g...g#
#..........#
############
"""

# 24x24 arena: red victims ring the central start, a room in each far
# corner quadrant, and wall spurs that break sight lines.
_MEDIUM = """\
########################
#......................#
#.g.......g..........g.#
#..#####...............#
#..#y..#...............#
#..#..g#...y...........#
#..#...#...............#
#..##D##...............#
#.................y....#
#.........r..r.........#
#.g..................g.#
#..........S...........#
#..#####........#####..#
#......................#
#.........r..r.........#
#....y.................#
#...............#####..#
#...............#g..#..#
#...........y...D...#..#
#...............#..y#..#
#...............#####..#
#......................#
#.g.......g..........g.#
########################
"""

# 32x8: a central hallway with six door-gated alcoves on each side.
_CORRIDOR = """\
################################
#g...#..y.#.g..#y...#..g.#.y..g#
##D####D####D####D####D#####D###
#S.............r...............#
#..........r.........r.........#
##D####D####D####D####D#####D###
#.y..#.g..#..y.#..g.#.y..#..g..#
################################
"""


_BUILTIN_ART = {"small": _SMALL, "medium": _MEDIUM, "corridor": _CORRIDOR}


def builtin_maps(names: Iterable[str] = tuple(_BUILTIN_ART)) -> tuple[MapSpec, ...]:
    """The named fixture maps, by default all of them: small
    open-plus-rooms, medium arena, corridor."""
    return tuple(map_from_ascii(name, _BUILTIN_ART[name]) for name in names)


def builtin_map(name: str) -> MapSpec:
    """The built-in map called `name`; only that map is parsed."""
    if name not in _BUILTIN_ART:
        known = ", ".join(_BUILTIN_ART)
        raise KeyError(f"no built-in map named {name!r} (known: {known})")
    return builtin_maps([name])[0]
