"""Map builders, from cell coordinates and from ASCII art, and the built-in maps.

Legend of the art: '#' wall, '.' floor, 'D' closed door, '*' bare rubble, 'S'
the common start cell, and 'g'/'y'/'r' victims. Yellow victims get rubble on
their cell automatically ('y' implies '*').
"""
from __future__ import annotations

from typing import Iterable

import numpy as np

from ..core import GridSpec, VictimType
from .world import VICTIM_CODES, MapSpec, raise_map_problems

_VICTIM_CHARS = {"g": VictimType.GREEN, "y": VictimType.YELLOW, "r": VictimType.RED}

MAX_MAP_CELLS = 2 ** 20  # a map file's size does not bound the grid it declares


def map_from_cells(name: str, grid: GridSpec, walls, doors, rubble, victims, start,
                   **clock) -> MapSpec:
    """A validated map from (x, y) wall, door and rubble cells, (x, y, kind) victims,
    an (x, y) start cell and `MapSpec`'s clock and field of view. Raises
    `InvalidMapError` for a grid of over `MAX_MAP_CELLS` cells before any array is
    made, else naming every problem: first the cells outside the grid and the
    victims on a cell an earlier one holds, in list order, then `MapSpec.problems`."""
    if grid.n_cells > MAX_MAP_CELLS:
        raise_map_problems(name, [f"grid of {grid.width}x{grid.height} cells is larger "
                                  f"than the limit of {MAX_MAP_CELLS} cells"])
    problems = []
    def cell(label, x, y):
        if grid.contains(x, y):
            return y * grid.width + x
        problems.append(f"{label} at ({x}, {y}) outside grid")
    masks = [np.zeros(grid.n_cells, dtype=bool) for _ in range(3)]
    for mask, label, cells in zip(masks, ("wall", "door", "rubble"), (walls, doors, rubble)):
        mask[[c for x, y in cells if (c := cell(label, x, y)) is not None]] = True
    codes = np.zeros(grid.n_cells, dtype=np.int8)
    for x, y, kind in victims:
        if (c := cell("victim", x, y)) is not None and codes[c]:
            problems.append(f"two victims share cell ({x}, {y})")
        elif c is not None:
            codes[c] = VICTIM_CODES[kind]
    x, y = start  # a start outside the grid is -1, which `MapSpec.problems` reports
    spec = MapSpec(name, grid, *masks, codes, y * grid.width + x if grid.contains(x, y) else -1,
                   **clock)
    raise_map_problems(name, problems + spec.problems())
    return spec


def map_from_ascii(name: str, art: str, mission_duration_s: float = 300.0,
                   red_cutoff_s: float = 180.0, fov_radius: int = 5) -> MapSpec:
    rows = [line for line in art.splitlines() if line.strip()]
    if not rows:
        raise ValueError("empty map art")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"map {name!r}: ragged rows")
    tiles = np.array([list(r) for r in rows]).ravel()  # row-major, one tile per cell
    unknown = np.flatnonzero(~np.isin(tiles, list("#.DS*" + "".join(_VICTIM_CHARS))))
    if unknown.size:
        y, x = divmod(int(unknown[0]), width)
        raise ValueError(f"map {name!r}: unknown tile {rows[y][x]!r} at ({x}, {y})")
    starts = np.flatnonzero(tiles == "S").tolist()
    if len(starts) != 1:
        raise ValueError(f"map {name!r}: " + ("two start cells" if starts else "no start cell"))
    codes = np.zeros(tiles.size, dtype=np.int8)
    for ch, kind in _VICTIM_CHARS.items():
        codes[tiles == ch] = VICTIM_CODES[kind]
    spec = MapSpec(name=name, grid=GridSpec(width, len(rows)), wall_mask=tiles == "#",
                   door_mask=tiles == "D", rubble_mask=(tiles == "*") | (tiles == "y"),
                   victim_codes=codes, start=starts[0], mission_duration_s=mission_duration_s,
                   red_cutoff_s=red_cutoff_s, fov_radius=fov_radius)
    raise_map_problems(name, spec.problems())
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
