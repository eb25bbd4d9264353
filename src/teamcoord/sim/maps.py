"""Map builders, from cell coordinates and from ASCII art, and the built-in maps.

Legend of the art: '#' wall, '.' floor, 'D' closed door, '*' bare rubble, 'S'
the common start cell, and 'g'/'y'/'r' victims. Yellow victims get rubble on
their cell automatically ('y' implies '*'). Art is read into the cell lists
of `map_from_cells`, the one place that builds and checks a `MapSpec`.

A built-in map is built on its first use and then shared: `builtin_map` and
`builtin_maps` return one `MapSpec` per name per process, whose
`neighbor_lists` table and packed planner masks are made once. The spec is
read-only (frozen, with packed int cell sets and tuple tables) and no
mission writes to it. A map file (`read_map`) is read afresh on every call.
"""
from __future__ import annotations

import functools
import operator
from typing import Iterable

import numpy as np

from ..core import GridSpec, VictimType
from .world import MapSpec, pack_cells, raise_map_problems

_VICTIM_CHARS = {"g": VictimType.GREEN, "y": VictimType.YELLOW, "r": VictimType.RED}

MAX_MAP_CELLS = 2 ** 20  # a map file's size does not bound the grid it declares


def map_from_cells(name: str, grid: GridSpec, walls, doors, rubble, victims, start,
                   **fields) -> MapSpec:
    """A validated map from (x, y) wall, door and rubble cells, (x, y, kind) victims,
    an (x, y) start cell and `MapSpec`'s `clock` (a `MissionClock`) and `fov_radius`.
    Raises `InvalidMapError` for a grid of over `MAX_MAP_CELLS` cells before any array
    is made, else naming every problem: first the cells outside the grid and the
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
    kinds = {kind: np.zeros(grid.n_cells, dtype=bool) for kind in VictimType}  # green, yellow, red
    taken = np.zeros(grid.n_cells, dtype=bool)
    for x, y, kind in victims:
        if (c := cell("victim", x, y)) is not None and taken[c]:
            problems.append(f"two victims share cell ({x}, {y})")
        elif c is not None:
            taken[c] = kinds[kind][c] = True
    # a start outside the grid is -1, which `MapSpec.problems` reports; a numpy
    # integer start becomes an int, as the planner shifts packed cell sets by it
    x, y = map(operator.index, start)
    spec = MapSpec(name, grid, *map(pack_cells, [*masks, *kinds.values()]),
                   y * grid.width + x if grid.contains(x, y) else -1, **fields)
    raise_map_problems(name, problems + spec.problems())
    return spec


def map_from_ascii(name: str, art: str, **fields) -> MapSpec:
    """A validated map from `art` in the legend above, and `MapSpec`'s `clock` and `fov_radius`,
    built by `map_from_cells`; empty or ragged art, an unknown tile or not one start is a `ValueError`."""
    rows = [line for line in art.splitlines() if line.strip()]
    if not rows:
        raise ValueError("empty map art")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"map {name!r}: ragged rows")
    tiles = np.array([list(r) for r in rows])
    unknown = np.flatnonzero(~np.isin(tiles, list("#.DS*" + "".join(_VICTIM_CHARS))))
    if unknown.size:
        y, x = divmod(int(unknown[0]), width)
        raise ValueError(f"map {name!r}: unknown tile {rows[y][x]!r} at ({x}, {y})")
    def cells(chars):
        ys, xs = np.nonzero(np.isin(tiles, list(chars)))
        return list(zip(xs.tolist(), ys.tolist()))
    starts = cells("S")
    if len(starts) != 1:
        raise ValueError(f"map {name!r}: " + ("two start cells" if starts else "no start cell"))
    victims = [(x, y, kind) for ch, kind in _VICTIM_CHARS.items() for x, y in cells(ch)]
    return map_from_cells(name, GridSpec(width, len(rows)), cells("#"), cells("D"), cells("*y"),
                          victims, starts[0], **fields)


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
    open-plus-rooms, medium arena, corridor. Only these names are parsed,
    each on its first use; later calls return the same read-only specs."""
    return tuple(_builtin_spec(name) for name in names)


def builtin_map(name: str) -> MapSpec:
    """The built-in map called `name`, as `builtin_maps` gives it."""
    return builtin_maps([name])[0]


@functools.cache  # an unknown name raises, and so is not cached
def _builtin_spec(name: str) -> MapSpec:
    if name not in _BUILTIN_ART:
        known = ", ".join(_BUILTIN_ART)
        raise KeyError(f"no built-in map named {name!r} (known: {known})")
    return map_from_ascii(name, _BUILTIN_ART[name])
