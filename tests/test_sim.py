import heapq
import importlib
import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from teamcoord.cli import main
from teamcoord.core import (ActionTag, CompositionError, GridSpec, MissionClock, Position, Role,
                            VictimType, validate_session)
from teamcoord.outcomes import team_performance
from teamcoord.session_io import read_map, write_map
from teamcoord.sim import (
    AgentAction,
    AgentPolicy,
    AgentState,
    InvalidMapError,
    MalformedActionError,
    PolicyKind,
    WorldState,
    builtin_map,
    builtin_maps,
    initial_state,
    map_from_ascii,
    map_from_cells,
    map_meta,
    maps,
    policies,
    run_mission,
    step_resolved,
)
from teamcoord.sim.policies import BfsField, PolicyParamError, build_controllers
from teamcoord.sim.maps import MAX_MAP_CELLS
from teamcoord.sim.world import pack_cells, unpack_cells

from oracles import (
    MaskKnowledge,
    RefAction,
    RefAgent,
    ReferenceWorld,
    bfs_field,
    grid_neighbors,
    map_sets,
    mission_rule_audit,
    step_reference,
    to_cell,
    to_position,
    to_sim_action,
    to_sim_agent,
)
from test_cli import EXAMPLE_MAP
from test_golden import EDGE_ART

WAIT = AgentAction(ActionTag.WAIT)


def at(pos):
    """The cell of `pos` in the 6x6 mini world."""
    return to_cell(GridSpec(6, 6), pos)


def mini_world(tick=0, victims=(), rubble=(), doors=(), agents=None):
    """A 6x6 world without walls; `victims` are (cell, kind) pairs."""
    spec = map_from_cells("mini", GridSpec(6, 6), walls=[], doors=[(p.x, p.y) for p in doors],
                          rubble=[(p.x, p.y) for p in rubble],
                          victims=[(p.x, p.y, kind) for p, kind in victims], start=(0, 0))
    if agents is None:
        agents = (
            RefAgent("medic1", Role.MEDIC, Position(2, 1)),
            RefAgent("medic2", Role.MEDIC, Position(0, 0)),
            RefAgent("engineer1", Role.ENGINEER, Position(3, 2)),
            RefAgent("engineer2", Role.ENGINEER, Position(0, 1)),
        )
    return initial_state(spec, tuple(to_sim_agent(spec.grid, a) for a in agents))._replace(
        tick=tick)


def cells_of(state, cells):
    """The cells of one of the state's packed cell sets, as positions."""
    return {to_position(state.spec.grid, c) for c in range(state.spec.grid.n_cells)
            if cells >> c & 1}


def victim_sets(state):
    """The state's packed victim sets, by kind."""
    return dict(zip(VictimType, (state.greens, state.yellows, state.reds)))


def victims_of(state):
    """The victims left in a state, as {cell: kind}."""
    return {pos: kind for kind, cells in victim_sets(state).items()
            for pos in cells_of(state, cells)}


def packed(grid, positions):
    """A set of positions as a packed cell set, bit by bit."""
    cells = 0
    for pos in positions:
        cells |= 1 << to_cell(grid, pos)
    return cells


RED_CELL = Position(2, 2)


def rescue(cell):
    return AgentAction(ActionTag.RESCUE, at(cell))


def test_red_rescue_succeeds_inside_cutoff():
    # tick 59 = 177 s, engineer adjacent: the joint rescue lands
    w = mini_world(tick=59, victims=[(RED_CELL, VictimType.RED)])
    out = step_resolved(w, [rescue(RED_CELL), WAIT, WAIT, WAIT])[0]
    assert victims_of(out) == {}
    assert out.events[0].victim_type is VictimType.RED
    assert out.events[0].time_s == 177.0
    assert set(out.events[0].actor_ids) == {"medic1", "engineer1"}


def test_red_rescue_blocked_at_cutoff():
    w = mini_world(tick=60, victims=[(RED_CELL, VictimType.RED)])
    out, resolved = step_resolved(w, [rescue(RED_CELL), WAIT, WAIT, WAIT])
    assert victims_of(out) == {RED_CELL: VictimType.RED}
    assert resolved[0].kind is ActionTag.WAIT


def test_red_rescue_needs_engineer_adjacent():
    agents = (
        RefAgent("medic1", Role.MEDIC, Position(2, 1)),
        RefAgent("medic2", Role.MEDIC, Position(0, 0)),
        RefAgent("engineer1", Role.ENGINEER, Position(5, 5)),
        RefAgent("engineer2", Role.ENGINEER, Position(0, 1)),
    )
    w = mini_world(tick=10, victims=[(RED_CELL, VictimType.RED)], agents=agents)
    out, resolved = step_resolved(w, [rescue(RED_CELL), WAIT, WAIT, WAIT])
    assert victims_of(out) == {RED_CELL: VictimType.RED}
    assert resolved[0].kind is ActionTag.WAIT


def test_yellow_requires_clear_first_and_not_same_tick():
    yellow = Position(2, 2)
    w = mini_world(victims=[(yellow, VictimType.YELLOW)], rubble=[yellow])
    # medic tries while rubble present: degrades to wait
    out, resolved = step_resolved(w, [rescue(yellow), WAIT, WAIT, WAIT])
    assert resolved[0].kind is ActionTag.WAIT
    assert victims_of(out) == {yellow: VictimType.YELLOW}
    # clear and rescue on the same tick: the clear lands, the rescue does not
    clear = AgentAction(ActionTag.CLEAR, at(yellow))
    out, resolved = step_resolved(w, [rescue(yellow), WAIT, clear, WAIT])
    assert resolved[2].kind is ActionTag.CLEAR
    assert resolved[0].kind is ActionTag.WAIT
    assert victims_of(out) == {yellow: VictimType.YELLOW}
    assert yellow not in cells_of(out, out.rubble)
    # next tick the same rescue succeeds
    out2 = step_resolved(out, [rescue(yellow), WAIT, WAIT, WAIT])[0]
    assert victims_of(out2) == {}
    assert out2.events[0].victim_type is VictimType.YELLOW


def test_engineer_rescues_green_only():
    green, red = Position(2, 2), Position(3, 3)
    w = mini_world(victims=[(green, VictimType.GREEN), (red, VictimType.RED)])
    out, resolved = step_resolved(w, [WAIT, WAIT, rescue(green), WAIT])
    assert resolved[2].kind is ActionTag.RESCUE
    assert out.events[0].actor_ids == ("engineer1",)
    w2 = mini_world(victims=[(red, VictimType.RED)],
                    agents=(RefAgent("medic1", Role.MEDIC, Position(0, 0)),
                            RefAgent("medic2", Role.MEDIC, Position(0, 1)),
                            RefAgent("engineer1", Role.ENGINEER, Position(3, 2)),
                            RefAgent("engineer2", Role.ENGINEER, Position(1, 0))))
    out2, resolved2 = step_resolved(w2, [WAIT, WAIT, rescue(red), WAIT])
    assert resolved2[2].kind is ActionTag.WAIT
    assert victims_of(out2) == {red: VictimType.RED}


def test_conflicting_rescues_resolve_by_agent_index():
    green = Position(1, 1)
    agents = (
        RefAgent("medic1", Role.MEDIC, Position(1, 0)),
        RefAgent("medic2", Role.MEDIC, Position(0, 1)),
        RefAgent("engineer1", Role.ENGINEER, Position(2, 1)),
        RefAgent("engineer2", Role.ENGINEER, Position(1, 2)),
    )
    w = mini_world(victims=[(green, VictimType.GREEN)], agents=agents)
    out, resolved = step_resolved(w, [rescue(green)] * 4)
    assert len(out.events) == 1
    assert out.events[0].actor_ids == ("medic1",)
    assert resolved[0].kind is ActionTag.RESCUE
    assert all(r.kind is ActionTag.WAIT for r in resolved[1:])


def test_moves_blocked_by_terrain_and_opened_doors_usable_next_tick():
    door = Position(2, 0)
    agents = (
        RefAgent("medic1", Role.MEDIC, Position(1, 0)),
        RefAgent("medic2", Role.MEDIC, Position(0, 0)),
        RefAgent("engineer1", Role.ENGINEER, Position(2, 1)),
        RefAgent("engineer2", Role.ENGINEER, Position(0, 1)),
    )
    w = mini_world(doors=[door], agents=agents)
    move_onto_door = AgentAction(ActionTag.MOVE, at(door))
    open_door = AgentAction(ActionTag.OPEN, at(door))
    out, resolved = step_resolved(w, [move_onto_door, WAIT, open_door, WAIT])
    assert resolved[0].kind is ActionTag.WAIT  # same-tick open does not help the mover
    assert out.agents[0].cell == at(Position(1, 0))
    assert door not in cells_of(out, out.doors)
    out2, resolved2 = step_resolved(out, [move_onto_door, WAIT, WAIT, WAIT])
    assert resolved2[0].kind is ActionTag.MOVE
    assert out2.agents[0].cell == at(door)


def test_diagonal_or_long_moves_degrade_to_wait():
    w = mini_world()
    far = AgentAction(ActionTag.MOVE, at(Position(4, 4)))
    out, resolved = step_resolved(w, [far, WAIT, WAIT, WAIT])
    assert resolved[0].kind is ActionTag.WAIT
    assert out.agents[0].cell == at(Position(2, 1))


def test_step_rejects_malformed_actions():
    w = mini_world()
    with pytest.raises(MalformedActionError):
        step_resolved(w, [WAIT, WAIT, WAIT])[0]
    with pytest.raises(MalformedActionError):
        step_resolved(w, [WAIT, WAIT, WAIT, "north"])[0]
    # an action is a tuple, but an equal plain tuple is not an action, and
    # neither is one whose kind is the tag's string
    move = (ActionTag.MOVE, at(Position(1, 1)))  # engineer2 stands at (0, 1)
    assert step_resolved(w, [WAIT, WAIT, WAIT, AgentAction(*move)])[1][3] == move
    for act in (move, AgentAction("move", move[1])):
        with pytest.raises(MalformedActionError):
            step_resolved(w, [WAIT, WAIT, WAIT, act])


def test_step_leaves_its_input_state_unchanged():
    # one rescue, one clear and one open in a tick: each writes one of the set fields
    green, rubble, door = Position(2, 2), Position(4, 2), Position(0, 2)
    w = mini_world(victims=[(green, VictimType.GREEN)], rubble=[rubble], doors=[door])
    assert all(type(f) is int for f in (w.greens, w.yellows, w.reds, w.rubble, w.doors))
    before = WorldState(*w)  # an equal state, compared field by field below
    actions = [rescue(green), WAIT, AgentAction(ActionTag.CLEAR, at(rubble)),
               AgentAction(ActionTag.OPEN, at(door))]
    out, resolved = step_resolved(w, actions)
    assert resolved == tuple(actions)
    assert w == before and w.events == ()
    assert victims_of(out) == {} and cells_of(out, out.rubble) == set()
    assert cells_of(out, out.doors) == set()
    again, resolved_again = step_resolved(w, actions)
    assert again == out and again is not out
    assert resolved_again == resolved


def test_step_copies_events_only_on_a_rescue():
    green = Position(2, 2)
    w = mini_world(victims=[(green, VictimType.GREEN)])
    quiet, _ = step_resolved(w, [WAIT] * 4)
    assert quiet.events is w.events == ()  # no rescue: the same tuple
    rescued, _ = step_resolved(quiet, [rescue(green), WAIT, WAIT, WAIT])
    assert w.events == () and len(rescued.events) == 1
    event = rescued.events[0]
    assert (event.victim_cell, event.victim_type, event.actor_ids) == (
        green, VictimType.GREEN, ("medic1",))
    later, _ = step_resolved(rescued, [WAIT] * 4)
    assert later.events is rescued.events


def test_conservation_under_random_stepping():
    rng = np.random.default_rng(3)
    victims = [(Position(2, 2), VictimType.GREEN),
               (Position(4, 4), VictimType.GREEN),
               (Position(1, 4), VictimType.RED),
               (Position(4, 1), VictimType.YELLOW)]
    w = mini_world(victims=victims, rubble=[Position(4, 1)])
    initial = {k: sum(1 for _, kind in victims if kind is k) for k in VictimType}
    kinds = [ActionTag.MOVE, ActionTag.WAIT, ActionTag.RESCUE, ActionTag.CLEAR, ActionTag.OPEN]
    for _ in range(200):
        actions = []
        for a in w.agents:
            kind = kinds[rng.integers(len(kinds))]
            dx, dy = ((0, -1), (1, 0), (0, 1), (-1, 0))[rng.integers(4)]
            y, x = divmod(a.cell, w.spec.grid.width)  # a target off the grid is None
            target = None if kind is ActionTag.WAIT else at(Position(x + dx, y + dy))
            actions.append(AgentAction(kind, target))
        w = step_resolved(w, actions)[0]
        remaining = {k: cells.bit_count() for k, cells in victim_sets(w).items()}
        rescued = {k: sum(1 for e in w.events if e.victim_type is k) for k in VictimType}
        for k in VictimType:
            assert remaining[k] + rescued[k] == initial[k]


# every victim kind, rubble and doors, no border walls: border agents aim off the grid
_STEP_MAP = """\
y.r*g.
.D#.r.
gy.y.D
r.S.*g
.#r.y.
g*.D.r
"""


def _random_action(rng, agent, ref):
    """A random action at an adjacent (possibly off-grid), self, diagonal,
    far off-grid or missing target. Most picks aim at an adjacent victim,
    rubble or door cell, mostly with the action that cell invites."""
    kind = list(ActionTag)[rng.integers(len(ActionTag))]
    x, y = agent.pos.x, agent.pos.y
    r = rng.random()
    if r < 0.05:
        return RefAction(kind)
    if r < 0.1:
        return RefAction(kind, agent.pos)
    if r < 0.15:
        dx, dy = ((-1, -1), (-1, 1), (1, -1), (1, 1))[rng.integers(4)]
        return RefAction(kind, Position(x + dx, y + dy))
    if r < 0.2:
        return RefAction(kind, Position(-1, y) if rng.random() < 0.5
                           else Position(x, ref.spec.grid.height))
    victims = {c for c, _ in ref.victims}
    adjacent = [Position(x + dx, y + dy) for dx, dy in ((0, -1), (1, 0), (0, 1), (-1, 0))]
    near = [n for n in adjacent if n in victims | ref.rubble | ref.closed_doors]
    if not near or rng.random() < 0.3:
        return RefAction(kind, adjacent[rng.integers(4)])
    tgt = near[rng.integers(len(near))]
    invited = ([ActionTag.RESCUE] * (tgt in victims) + [ActionTag.CLEAR] * (tgt in ref.rubble)
               + [ActionTag.OPEN] * (tgt in ref.closed_doors))
    if rng.random() < 0.8:
        kind = invited[rng.integers(len(invited))]
    return RefAction(kind, tgt)


def test_step_matches_set_reference_under_random_actions():
    spec = map_from_ascii("step-oracle", _STEP_MAP)
    g = spec.grid
    cutoff_tick = int(spec.clock.red_cutoff_s / 3.0)
    sets = map_sets(spec)
    blocked = sets["walls"] | sets["closed_doors"] | sets["rubble"]
    roles = [("medic1", Role.MEDIC), ("medic2", Role.MEDIC),
             ("engineer1", Role.ENGINEER), ("engineer2", Role.ENGINEER)]
    focus = {k: [c for c, kind in sets["victims"] if kind is k] for k in VictimType}
    rng = np.random.default_rng(5)
    seen = dict.fromkeys(("off_grid", "diagonal", "self", "conflict", "clear_then_rescue",
                          "red_at_cutoff", "red_before_cutoff"), 0)
    kinds_used = set()
    for episode in range(36):
        # agents start around one victim, in shuffled order so that engineers
        # act before medics in some episodes; episodes around a red start just
        # before the red cutoff and run across it
        kind = (VictimType.YELLOW, VictimType.RED, VictimType.GREEN, VictimType.RED,
                VictimType.YELLOW, VictimType.RED)[episode % 6]
        centre = focus[kind][rng.integers(len(focus[kind]))]
        around = [n for n in (Position(centre.x + dx, centre.y + dy)
                              for dx, dy in ((0, -1), (1, 0), (0, 1), (-1, 0)))
                  if g.contains(n.x, n.y) and n not in blocked]
        agents = tuple(RefAgent(pid, role, around[rng.integers(len(around))])
                       for pid, role in (roles[k] for k in rng.permutation(4)))
        start_tick = cutoff_tick - 1 if kind is VictimType.RED else 0
        state = initial_state(spec, tuple(to_sim_agent(g, a) for a in agents))._replace(
            tick=start_tick)
        ref = ReferenceWorld(spec=spec, tick=start_tick, agents=agents, **sets)
        for _ in range(10):
            actions = [_random_action(rng, a, ref) for a in ref.agents]
            victims = dict(ref.victims)
            state, resolved = step_resolved(state, [to_sim_action(g, a) for a in actions])
            ref_next, ref_resolved = step_reference(ref, actions)
            assert resolved == tuple(to_sim_action(g, a) for a in ref_resolved)
            assert state.tick == ref_next.tick
            assert state.agents == tuple(to_sim_agent(g, a) for a in ref_next.agents)
            assert state.events == ref_next.events
            # the world's packed sets, bit for bit, against the reference's sets
            assert [state.greens, state.yellows, state.reds, state.rubble, state.doors] == [
                packed(g, cells) for cells in (
                    *([c for c, kind in ref_next.victims if kind is k] for k in VictimType),
                    ref_next.rubble, ref_next.closed_doors)]

            # what the tick exercised; `rescues` are adjacent rescue attempts on victims
            rescues = [(i, act.target) for i, (a, act) in enumerate(zip(ref.agents, actions))
                       if act.kind is ActionTag.RESCUE and act.target in victims
                       and a.pos.manhattan(act.target) == 1]
            for i, (agent, act) in enumerate(zip(ref.agents, actions)):
                kinds_used.add(act.kind)
                tgt = act.target
                if tgt is None:
                    continue
                seen["off_grid"] += not g.contains(tgt.x, tgt.y)
                seen["diagonal"] += abs(tgt.x - agent.pos.x) == abs(tgt.y - agent.pos.y) == 1
                seen["self"] += tgt == agent.pos
                if (ref_resolved[i].kind is ActionTag.CLEAR
                        and victims.get(tgt) is VictimType.YELLOW):
                    seen["clear_then_rescue"] += any(
                        j > i and c == tgt and ref.agents[j].role is Role.MEDIC for j, c in rescues)
            seen["conflict"] += len({c for _, c in rescues}) < len(rescues)
            for i, c in rescues:
                if (victims[c] is VictimType.RED and ref.agents[i].role is Role.MEDIC
                        and any(a.role is Role.ENGINEER and a.pos.manhattan(c) == 1
                                for a in ref.agents)):
                    seen["red_at_cutoff"] += ref.tick == cutoff_tick
                    seen["red_before_cutoff"] += ref.tick == cutoff_tick - 1
            ref = ref_next
    assert kinds_used == set(ActionTag)
    assert all(seen.values()), str(seen)


# --- maps ----------------------------------------------------------------------


def test_builtin_maps_are_valid_fixtures():
    maps = builtin_maps()
    assert [m.name for m in maps] == ["small", "medium", "corridor"]
    for m in maps:
        assert m.problems() == []
        for kind, cells in zip(VictimType, (m.greens, m.yellows, m.reds)):
            assert cells.bit_count() >= 2, f"{m.name} lacks {kind}"
        assert m.doors and m.rubble
    small = builtin_map("small")
    assert (small.grid.width, small.grid.height) == (12, 12)
    medium = builtin_map("medium")
    assert (medium.grid.width, medium.grid.height) == (24, 24)
    with pytest.raises(KeyError):
        builtin_map("atlantis")


PACKED_SETS = ("walls", "doors", "rubble", "greens", "yellows", "reds")
_SET_OF_KIND = dict(zip(VictimType, PACKED_SETS[3:]))


def _art_cells(art):
    """The grid of `art` and the (x, y) cells of each packed set, read tile by
    tile in the legend of `maps`: a yellow victim's tile is rubble too."""
    rows = [line for line in art.splitlines() if line.strip()]
    tiles = dict(zip(PACKED_SETS, ("#", "D", "*y", "g", "y", "r")))
    return GridSpec(len(rows[0]), len(rows)), {
        name: [(x, y) for y, row in enumerate(rows) for x, tile in enumerate(row) if tile in chars]
        for name, chars in tiles.items()}


def _random_map_input(size, seed):
    """`map_from_cells` arguments of a random valid `size` x `size` map, the
    victims in shuffled order, and the (x, y) cells of each packed set."""
    rng = np.random.default_rng(seed)
    # floor, wall, door, bare rubble, then a green, yellow (on rubble) and red victim
    tiles = rng.choice(7, size=(size, size), p=[0.45, 0.2, 0.05, 0.1, 0.1, 0.05, 0.05])
    tiles[0, 0] = 0
    def where(*codes):
        ys, xs = np.nonzero(np.isin(tiles, codes))
        return list(zip(xs.tolist(), ys.tolist()))
    cells = dict(zip(PACKED_SETS, (where(1), where(2), where(3, 5), where(4), where(5), where(6))))
    victims = [(x, y, kind) for kind in VictimType for x, y in cells[_SET_OF_KIND[kind]]]
    victims = [victims[i] for i in rng.permutation(len(victims))]
    fields = {"name": f"random{size}", "grid": GridSpec(size, size), "walls": cells["walls"],
              "doors": cells["doors"], "rubble": cells["rubble"], "victims": victims,
              "start": (0, 0)}
    return fields, cells


def _packed(grid, cells):
    """The cell set of (x, y) `cells`, bit y * width + x, set one cell at a time."""
    return sum(1 << y * grid.width + x for x, y in set(map(tuple, cells)))


def test_map_sets_are_the_cells_their_input_lists():
    # each packed set of a built-in map, the example map file and a random
    # `map_from_cells` map holds just the cells its input lists
    cases = [(builtin_map(name), *_art_cells(art)) for name, art in maps._BUILTIN_ART.items()]
    doc = json.loads(EXAMPLE_MAP.read_text())
    victims = {name: [(v["x"], v["y"]) for v in doc["victims"] if v["type"] == kind.value]
               for kind, name in _SET_OF_KIND.items()}
    cases.append((read_map(EXAMPLE_MAP), GridSpec(doc["width"], doc["height"]),
                  {"walls": doc["walls"], "doors": doc["doors"], "rubble": doc["rubble"],
                   **victims}))
    fields, cells = _random_map_input(23, seed=19)
    cases.append((map_from_cells(**fields), fields["grid"], cells))
    for spec, grid, cells in cases:
        assert spec.grid == grid and all(cells[name] for name in PACKED_SETS), spec.name
        assert [getattr(spec, name) for name in PACKED_SETS] == [
            _packed(grid, cells[name]) for name in PACKED_SETS], spec.name


@pytest.mark.parametrize("n", [1, 7, 8, 9, 577])
def test_pack_cells_and_unpack_cells_round_trip(n):
    rng = np.random.default_rng(n)
    for mask in (np.zeros(n, dtype=bool), np.ones(n, dtype=bool), rng.random(n) < 0.5):
        cells = pack_cells(mask)
        assert cells == sum(1 << c for c in np.flatnonzero(mask).tolist())
        back = unpack_cells(cells, n)
        assert back.dtype == bool and back.tolist() == mask.tolist()


@pytest.fixture
def cold_map_cache():
    """An empty built-in map cache, emptied again at teardown."""
    maps._builtin_spec.cache_clear()
    yield
    maps._builtin_spec.cache_clear()


def test_builtin_map_builds_the_named_map_only(monkeypatch, tmp_path, cold_map_cache):
    built = []
    monkeypatch.setattr(maps, "map_from_ascii",
                        lambda name, art: built.append(name) or map_from_ascii(name, art))
    for name in ("small", "medium", "corridor"):
        maps._builtin_spec.cache_clear()
        built.clear()
        spec = maps.builtin_map(name)
        assert built == [name]  # a cold call parses the named map only
        assert maps.builtin_map(name) is spec and maps.builtin_maps([name]) == (spec,)
        assert built == [name]  # a warm call parses nothing
        fresh = map_from_ascii(name, maps._BUILTIN_ART[name])
        assert (write_map(spec, tmp_path / "one.json").read_bytes()
                == write_map(fresh, tmp_path / "fresh.json").read_bytes())
    built.clear()
    cached = maps._builtin_spec.cache_info().currsize
    for call in (maps.builtin_map, lambda name: maps.builtin_maps(["corridor", name])):
        with pytest.raises(KeyError) as exc:
            call("atlantis")
        assert exc.value.args[0] == (
            "no built-in map named 'atlantis' (known: small, medium, corridor)")
    assert built == [] and maps._builtin_spec.cache_info().currsize == cached  # not cached


def test_missions_leave_the_shared_builtin_spec_unchanged(tmp_path):
    # one mission of each policy on each shared spec: its map bytes, tables
    # and packed cell sets are as a fresh parse of the same art makes them
    for name in ("small", "medium", "corridor"):
        spec = builtin_map(name)
        tables = spec.neighbor_lists, spec.open_cells, spec.inner_columns, spec.view_column
        before = write_map(spec, tmp_path / "before.json").read_bytes()
        for kind in PolicyKind:
            run_mission(spec, policy_team(kind, dither=0.2), seed=7)
        assert builtin_map(name) is spec
        assert write_map(spec, tmp_path / "after.json").read_bytes() == before
        fresh = map_from_ascii(name, maps._BUILTIN_ART[name])
        assert (spec.neighbor_lists, spec.open_cells, spec.inner_columns,
                spec.view_column) == tables == (fresh.neighbor_lists, fresh.open_cells,
                                                fresh.inner_columns, fresh.view_column)
        sets = ("walls", "doors", "rubble", "greens", "yellows", "reds")
        assert [getattr(spec, a) for a in sets] == [getattr(fresh, a) for a in sets]


def shortest_path_ticks(spec, goal_cells):
    """Dijkstra oracle: door and rubble cells cost 2 ticks (open/clear first)."""
    sets = map_sets(spec)
    start = spec.start
    costs = {}
    heap = [(0, start)]
    while heap:
        d, c = heapq.heappop(heap)
        if c in costs:
            continue
        costs[c] = d
        for nb in spec.neighbor_lists[c]:
            if spec.walls >> nb & 1 or nb in costs:
                continue
            p = to_position(spec.grid, nb)
            extra = 2 if (p in sets["closed_doors"] or p in sets["rubble"]) else 1
            heapq.heappush(heap, (d + extra, nb))
    return min((costs.get(to_cell(spec.grid, c), 10 ** 9) for c in goal_cells),
               default=10 ** 9)


def test_red_victims_reachable_before_cutoff():
    for m in builtin_maps():
        budget = int(m.clock.red_cutoff_s / 3.0) - 1  # arrive with one tick left to act
        sets = map_sets(m)
        for cell, kind in sets["victims"]:
            if kind is not VictimType.RED:
                continue
            x, y = cell.x, cell.y
            goals = [n for n in (Position(x, y - 1), Position(x + 1, y), Position(x, y + 1),
                                 Position(x - 1, y))
                     if m.grid.contains(n.x, n.y) and n not in sets["walls"]]
            ticks = shortest_path_ticks(m, goals)
            assert ticks <= budget, f"{m.name}: red at ({x},{y}) needs {ticks} ticks"


def test_map_validation_catches_bad_specs():
    with pytest.raises(InvalidMapError):
        map_from_cells("bad", GridSpec(4, 4), walls=[(0, 0)], doors=[], rubble=[],
                       victims=[(1, 1, VictimType.YELLOW)],  # no rubble on yellow
                       start=(2, 2))
    with pytest.raises(ValueError):
        map_from_ascii("ragged", "##\n###\n")


@pytest.mark.parametrize("art, message", [
    ("\n  \n", "empty map art"),
    ("S.\n.S\n", "map 'm': two start cells"),
    ("S.\n.x\n", "map 'm': unknown tile 'x' at (1, 1)"),
    ("..\n..\n", "map 'm': no start cell"),
], ids=["empty", "two-starts", "unknown-tile", "no-start"])
def test_map_art_errors(art, message):
    with pytest.raises(ValueError) as exc:
        map_from_ascii("m", art)
    assert str(exc.value) == message


# A 4 x 4 map without problems, as `map_from_cells` arguments: a wall, a door, a
# yellow victim under rubble, a green victim and a free start cell.
GOOD_MAP = {"name": "good", "grid": GridSpec(4, 4), "walls": [(0, 0)], "doors": [(3, 0)],
            "rubble": [(1, 1)], "victims": [(1, 1, VictimType.YELLOW), (2, 2, VictimType.GREEN)],
            "start": (0, 3)}


def _with(**fields):
    """GOOD_MAP with a cell or a victim added to a list, or another field replaced."""
    return {**GOOD_MAP, **{key: GOOD_MAP[key] + [value] if type(GOOD_MAP.get(key)) is list
                           else value for key, value in fields.items()}}


# One defect per case, for each problem `map_from_cells` reports.
MAP_DEFECTS = {
    "wall_outside_grid": (_with(walls=(4, 0)), "wall at (4, 0) outside grid"),
    "door_outside_grid": (_with(doors=(0, -1)), "door at (0, -1) outside grid"),
    "rubble_outside_grid": (_with(rubble=(9, 9)), "rubble at (9, 9) outside grid"),
    "door_on_wall": (_with(doors=(0, 0)), "door cells overlap walls"),
    "rubble_on_wall": (_with(rubble=(0, 0)), "rubble cells overlap walls or doors"),
    "rubble_on_door": (_with(rubble=(3, 0)), "rubble cells overlap walls or doors"),
    "victim_outside_grid": (_with(victims=(5, 1, VictimType.GREEN)),
                            "victim at (5, 1) outside grid"),
    "victims_share_a_cell": (_with(victims=(2, 2, VictimType.RED)),
                             "two victims share cell (2, 2)"),
    "victim_on_wall": (_with(victims=(0, 0, VictimType.GREEN)),
                       "victim at (0, 0) on a wall or door"),
    "victim_on_door": (_with(victims=(3, 0, VictimType.RED)),
                       "victim at (3, 0) on a wall or door"),
    "yellow_without_rubble": (_with(victims=(2, 1, VictimType.YELLOW)),
                              "yellow victim at (2, 1) has no rubble"),
    "green_under_rubble": (_with(rubble=(2, 2)), "green victim at (2, 2) buried under rubble"),
    "start_outside_grid": (_with(start=(4, 3)), "start cell outside grid"),
    "start_on_wall": (_with(start=(0, 0)), "start cell not traversable"),
    "start_on_door": (_with(start=(3, 0)), "start cell not traversable"),
    "start_on_rubble": (_with(start=(1, 1)), "start cell not traversable"),
    "start_on_victim": (_with(start=(2, 2)), "start cell not traversable"),
    "red_cutoff_zero": (_with(clock=MissionClock(red_cutoff_s=0.0)),
                        "red cutoff outside a finite mission duration"),
    "red_cutoff_after_mission": (_with(clock=MissionClock(red_cutoff_s=301.0)),
                                 "red cutoff outside a finite mission duration"),
    "field_of_view_zero": (_with(fov_radius=0), "field of view radius must be at least 1"),
}


@pytest.mark.parametrize("case", sorted(MAP_DEFECTS))
def test_map_problems_name_each_defect(case):
    fields, problem = MAP_DEFECTS[case]
    assert map_from_cells(**GOOD_MAP).problems() == []
    with pytest.raises(InvalidMapError) as exc:
        map_from_cells(**fields)
    assert str(exc.value) == f"map 'good': {problem}"


def test_map_problems_see_a_start_cell_past_either_end_of_the_grid():
    spec = map_from_cells(**GOOD_MAP)
    for start in (-1, spec.grid.n_cells):
        assert replace(spec, start=start).problems() == ["start cell outside grid"]


def test_map_red_cutoff_may_end_the_mission():
    clock = MissionClock(300.0, 300.0)
    assert map_from_cells(**_with(clock=clock)).clock == clock


def test_map_problems_come_in_the_documented_order():
    fields = _with(victims=(0, 0, VictimType.GREEN), walls=(4, 0), doors=(0, 0), start=(0, 0),
                   fov_radius=0)
    fields["victims"].insert(0, (9, 9, VictimType.RED))
    with pytest.raises(InvalidMapError) as exc:
        map_from_cells(**fields)
    assert str(exc.value) == (
        "map 'good': wall at (4, 0) outside grid; victim at (9, 9) outside grid; "
        "door cells overlap walls; victim at (0, 0) on a wall or door; "
        "start cell not traversable; field of view radius must be at least 1")


def map_document(fields) -> dict:
    """The map file of `map_from_cells` arguments, written without checking them."""
    return {"format_version": 1, "name": fields["name"], "width": fields["grid"].width,
            "height": fields["grid"].height, "walls": [list(c) for c in fields["walls"]],
            "doors": [list(c) for c in fields["doors"]],
            "rubble": [list(c) for c in fields["rubble"]],
            "victims": [{"x": x, "y": y, "type": kind.value} for x, y, kind in fields["victims"]],
            "start": list(fields["start"]), "mission_duration_s": 300.0, "red_cutoff_s": 180.0,
            "fov_radius": 5}


@pytest.mark.parametrize("case", ["rubble_outside_grid", "rubble_on_door", "victims_share_a_cell"])
def test_map_file_defects_exit_3_with_their_message(tmp_path, capsys, case):
    fields, problem = MAP_DEFECTS[case]
    path = tmp_path / "map.json"
    path.write_text(json.dumps(map_document(fields)))
    assert main(["simulate", "--map", str(path), "--runs", "1",
                 "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == f"error: map 'good': {problem}\n"


def test_map_grid_up_to_the_cell_limit_builds():
    empty = {"name": "wide", "walls": [], "doors": [], "rubble": [], "victims": [], "start": (0, 0)}
    spec = map_from_cells(grid=GridSpec(MAX_MAP_CELLS, 1), **empty)
    assert spec.walls == 0 and spec.open_cells.bit_length() == MAX_MAP_CELLS
    with pytest.raises(InvalidMapError) as exc:
        map_from_cells(grid=GridSpec(MAX_MAP_CELLS + 1, 1), **empty)
    assert str(exc.value) == (f"map 'wide': grid of {MAX_MAP_CELLS + 1}x1 cells is larger than "
                              f"the limit of {MAX_MAP_CELLS} cells")
    with pytest.raises(InvalidMapError) as art_exc:  # art is bounded by the same check
        map_from_ascii("wide", "S" + "." * MAX_MAP_CELLS)
    assert str(art_exc.value) == str(exc.value)


@pytest.mark.parametrize("width, height, fov", [(1024, 1024, 5), (2 ** 20, 1, 2 ** 19),
                                                (1, 2 ** 20, 3)])
def test_view_and_planner_tables_hold_a_few_bits_per_cell(width, height, fov):
    # the tables `observe` and `BfsField` read: four packed cell sets and two
    # small ints per column. A packed view or neighbour set per cell or per
    # column would hold up to n_cells bits each, 2**39 bits or more in all on
    # the 2**20 x 1 map; `neighbor_lists` is not one of these tables
    grid = GridSpec(width, height)
    spec = map_from_cells("tables", grid, [], [], [], [], (0, 0), fov_radius=fov)
    assert len(spec.view_spans) == width
    packed = [spec.view_column, *spec.inner_columns, spec.open_cells]
    bits = (sum(cells.bit_length() for cells in packed)
            + sum(span.bit_length() + left.bit_length() for span, left in spec.view_spans))
    assert bits <= 64 * grid.n_cells


@pytest.mark.parametrize("clock", [MissionClock(mission_duration_s=math.inf),
                                   MissionClock(mission_duration_s=math.inf, red_cutoff_s=math.inf)])
def test_map_validation_refuses_infinite_mission_clock(clock):
    with pytest.raises(InvalidMapError, match="red cutoff outside a finite mission duration"):
        map_from_ascii("endless", "S.\n..\n", clock=clock)


def test_mission_shorter_than_one_sample_is_refused_before_controllers(monkeypatch):
    spec = map_from_ascii("short", "S.\n..\n", clock=MissionClock(1.0, 1.0))
    monkeypatch.setattr(policies, "build_controllers", lambda *a: pytest.fail("built controllers"))
    with pytest.raises(InvalidMapError, match=r"^map 'short': a 1\.0 s mission has no tick at "
                                              r"a sample interval of 3\.0 s$"):
        run_mission(spec, policy_team(PolicyKind.RANDOM_WALK), seed=0)


def test_mission_over_the_tick_ceiling_is_refused_before_controllers(monkeypatch):
    class Built(Exception):
        pass

    def build_controllers(*args):
        raise Built

    monkeypatch.setattr(policies, "build_controllers", build_controllers)
    team = policy_team(PolicyKind.RANDOM_WALK)
    with pytest.raises(Built):  # 10**6 ticks are allowed
        run_mission(map_from_ascii("long", "S.\n..\n", clock=MissionClock(3e6)), team, seed=0)
    for duration, shown in ((3e6 + 3, r"3000003\.0"), (1e300, r"1e\+300")):
        spec = map_from_ascii("long", "S.\n..\n", clock=MissionClock(duration))
        with pytest.raises(InvalidMapError, match=(
                rf"^map 'long': a {shown} s mission has more than the 1000000 ticks allowed "
                r"at a sample interval of 3\.0 s$")):
            run_mission(spec, team, seed=0)


# --- missions -----------------------------------------------------------------


@pytest.mark.parametrize("params", [
    {"ditherr": 0.9}, {"p_wait": 2}, {"dither": -0.1}, {"patience": -3},
    {"park_signal_ticks": -1}, {"patience": math.inf}, {"p_wait": math.nan},
])
def test_agent_policy_rejects_unknown_and_out_of_range_params(params):
    with pytest.raises(PolicyParamError):
        AgentPolicy(PolicyKind.GREEDY, params)


def test_agent_policy_accepts_params_at_their_bounds():
    for params in ({"dither": 0, "p_wait": 0, "patience": 0, "park_signal_ticks": 0},
                   {"dither": 1, "p_wait": 1.0, "patience": 1e6, "park_signal_ticks": 50}):
        assert AgentPolicy(PolicyKind.GREEDY, params).params == params


def policy_team(kind, **params):
    p = AgentPolicy(kind, params)
    return [(Role.MEDIC, p), (Role.MEDIC, p), (Role.ENGINEER, p), (Role.ENGINEER, p)]


def test_empty_map_random_walkers_score_zero():
    spec = map_from_cells("empty", GridSpec(8, 8), walls=[], doors=[], rubble=[], victims=[],
                          start=(4, 4))
    s = run_mission(spec, policy_team(PolicyKind.RANDOM_WALK), seed=3)
    assert s.events == ()
    assert team_performance(s.events).points == 0
    assert s.n_ticks == 100


def test_greedy_engineer_rescues_adjacent_green():
    spec = map_from_cells("one-green", GridSpec(6, 6), walls=[], doors=[], rubble=[],
                          victims=[(3, 2, VictimType.GREEN)], start=(2, 2))
    s = run_mission(spec, policy_team(PolicyKind.GREEDY), seed=0)
    perf = team_performance(s.events)
    assert perf.rescues[VictimType.GREEN] == 1
    assert perf.points == 10


def test_greedy_medic_camps_only_beside_a_red():
    # medic1 stands beside a red with no engineer near it: it waits `patience`
    # ticks, then shelves the red and moves on; medic2 has no red beside it,
    # so it counts no wait and heads for the red
    agents = (RefAgent("medic1", Role.MEDIC, Position(2, 1)),
              RefAgent("medic2", Role.MEDIC, Position(5, 5)),
              RefAgent("engineer1", Role.ENGINEER, Position(0, 5)),
              RefAgent("engineer2", Role.ENGINEER, Position(5, 0)))
    w = mini_world(victims=[(RED_CELL, VictimType.RED)], agents=agents)
    team = policy_team(PolicyKind.GREEDY, dither=0, patience=2)
    beside, away = build_controllers(team, w.spec, seed=0)[:2]
    red = at(RED_CELL)
    for tick in range(3):
        state = w._replace(tick=tick)
        beside.observe(state)
        away.observe(state)
        act = beside.act(state)
        assert (act == WAIT) is (tick < 2)
        assert beside.red_wait == ({red: tick + 1} if tick < 2 else {})
        assert away.act(state).kind is ActionTag.MOVE and away.red_wait == {}
    assert beside.red_shelved == {red: 2 + 25}


def test_mission_deterministic_for_fixed_inputs():
    spec = builtin_map("small")
    a = run_mission(spec, policy_team(PolicyKind.COORDINATED), seed=11)
    b = run_mission(spec, policy_team(PolicyKind.COORDINATED), seed=11)
    assert a == b
    c = run_mission(spec, policy_team(PolicyKind.COORDINATED), seed=12)
    assert c != a


def test_agents_sharing_a_blueprint_walk_differently():
    # each slot mixes its index into the mission seed, so its stream is its own
    a = run_mission(builtin_map("small"), policy_team(PolicyKind.RANDOM_WALK), seed=1)
    assert not np.array_equal(a.players[0].samples, a.players[1].samples)


def test_mission_requires_two_and_two():
    spec = builtin_map("small")
    p = AgentPolicy(PolicyKind.RANDOM_WALK)
    with pytest.raises(CompositionError):
        run_mission(spec, [(Role.MEDIC, p)] * 3 + [(Role.ENGINEER, p)], seed=0)


def test_an_invalid_simulated_session_is_a_simulator_bug(monkeypatch):
    step = policies.step_resolved
    far = 10 * 12 + 10  # (10, 10) on the 12 x 12 small map, far from the start (1, 1)

    def teleporting_step(state, actions):
        new, resolved = step(state, actions)
        if new.tick == 5:
            new = new._replace(agents=(new.agents[0]._replace(cell=far), *new.agents[1:]))
        return new, resolved

    monkeypatch.setattr(policies, "step_resolved", teleporting_step)
    with pytest.raises(AssertionError, match=r"^simulator produced an invalid session: "
                                             r"\[Violation\(code='DISCONTINUITY', message="
                                             r"'player medic1 tick 5: moved "):
        run_mission(builtin_map("small"), policy_team(PolicyKind.RANDOM_WALK), seed=0)


def test_run_mission_survives_a_reimport_of_the_package():
    """A caller holding `run_mission` and `PolicyKind` from before the package is
    imported afresh (as a benchmark that times the import does) still runs
    missions: `run_mission` reaches the controllers of its own import."""
    def ours():
        return [n for n in sys.modules if n == "teamcoord" or n.startswith("teamcoord.")]

    saved = {name: sys.modules[name] for name in ours()}
    try:
        for name in saved:
            del sys.modules[name]
        importlib.import_module("teamcoord.cli")
        assert sys.modules["teamcoord.sim.policies"].PolicyKind is not PolicyKind
        session = run_mission(builtin_map("small"), policy_team(PolicyKind.GREEDY), seed=0)
    finally:
        for name in ours():
            del sys.modules[name]
        sys.modules.update(saved)
    assert session == run_mission(builtin_map("small"), policy_team(PolicyKind.GREEDY), seed=0)


@pytest.mark.parametrize("kind", list(PolicyKind))
@pytest.mark.parametrize("mapname", ["small", "medium", "corridor"])
def test_mission_outputs_validate_clean(mapname, kind):
    s = run_mission(builtin_map(mapname), policy_team(kind), seed=2)
    assert validate_session(s) == []


@pytest.mark.parametrize("kind", [PolicyKind.GREEDY, PolicyKind.COORDINATED])
def test_mission_rule_audit(kind):
    for seed in range(4):
        for mapname in ("small", "medium"):
            mission_rule_audit(run_mission(builtin_map(mapname), policy_team(kind), seed=seed))


def test_requested_actions_resolve_when_the_others_wait(monkeypatch):
    """The controllers and the step act through the same rules in `world.py`:
    every rescue, clear or open a planner requests goes through when the step
    runs it with the other three agents waiting."""
    step = policies.step_resolved
    checked, degraded = [], []

    def checking_step(state, actions):
        for i, act in enumerate(actions):
            if act.kind in (ActionTag.RESCUE, ActionTag.CLEAR, ActionTag.OPEN):
                alone = [WAIT] * len(actions)
                alone[i] = act
                checked.append(act)
                if step(state, alone)[1][i] is not act:
                    degraded.append((state.spec.name, state.tick, i, act))
        return step(state, actions)

    monkeypatch.setattr(policies, "step_resolved", checking_step)
    for mapname in ("small", "medium", "corridor"):
        for kind in (PolicyKind.GREEDY, PolicyKind.COORDINATED):
            for seed in (0, 1):
                run_mission(builtin_map(mapname), policy_team(kind), seed=seed)
    assert degraded == []
    assert len(checked) == 360  # the golden missions' requests, pinned with their streams


def test_policy_ordering_on_medium_map():
    spec = builtin_map("medium")
    means = {}
    for kind in PolicyKind:
        scores = [team_performance(run_mission(spec, policy_team(kind), seed=s).events).points
                  for s in range(30)]
        means[kind] = float(np.mean(scores))
    assert means[PolicyKind.COORDINATED] > means[PolicyKind.GREEDY] > means[PolicyKind.RANDOM_WALK]


def test_map_meta_counts():
    spec = builtin_map("small")
    meta = map_meta(spec)
    sets = map_sets(spec)
    kinds = [kind for _, kind in sets["victims"]]
    assert meta.max_tasks[Role.MEDIC] == len(kinds)
    assert meta.max_tasks[Role.ENGINEER] == (kinds.count(VictimType.GREEN)
                                             + kinds.count(VictimType.RED)
                                             + len(sets["rubble"]) + len(sets["closed_doors"]))
    assert meta.traversable_cells == spec.grid.n_cells - len(sets["walls"])
    # Python ints, which the manifest writes as they are
    assert {type(n) for n in (meta.traversable_cells, *meta.max_tasks.values())} == {int}


def _oracle_nearest(goals, dist):
    """Least (distance, cell index) over the reachable goal cells, or None."""
    reachable = [c for c in np.flatnonzero(goals).tolist() if dist[c] >= 0]
    return min(reachable, key=lambda c: (dist[c], c)) if reachable else None


def _sparse_goals(cells):
    goals = 0
    for c in cells:
        goals |= 1 << c
    return goals


def _oracle_approach(full, dist, first, targets):
    """The first move toward the nearest in-grid neighbour of the `targets`
    that the full fill reaches; None if there is none or it is the start."""
    near = np.zeros(len(dist), dtype=bool)
    for t in targets:
        near[full[t]] = True
    goal = _oracle_nearest(near, dist)
    return None if goal is None or dist[goal] == 0 else AgentAction(ActionTag.MOVE, first[goal])


def _cells(packed):
    """The cells of a packed cell set, in ascending order."""
    return [c for c, bit in enumerate(bin(packed)[:1:-1]) if bit == "1"]


def _level_dist(field, n):
    """Each cell's distance, the index of the level in `field.levels` that
    holds it; -1 where not reached."""
    dist = [-1] * n
    for d, level in enumerate(field.levels):
        for c in _cells(level):
            dist[c] = d
    return dist


def _first_steps(field, n):
    """`field.first_step` of every cell, -1 for None, as the oracle's `first`."""
    return [-1 if step is None else step for step in map(field.first_step, range(n))]


def _assert_reached_cells_match(field, dist, first):
    for c, d in enumerate(_level_dist(field, len(dist))):
        if d >= 0:
            assert (d, field.first_step(c)) == (dist[c], first[c] if d else None)


EDGE_MAP = map_from_ascii("edge", EDGE_ART)
PLANNING_MAPS = [*(builtin_map(name) for name in ("small", "medium", "corridor")), EDGE_MAP]


@pytest.mark.parametrize("spec", PLANNING_MAPS, ids=lambda spec: spec.name)
def test_neighbor_lists_are_the_in_grid_non_wall_neighbors(spec):
    g = spec.grid
    full = grid_neighbors(g.width, g.height)
    assert len(spec.neighbor_lists) == g.n_cells
    for c, nbs in enumerate(spec.neighbor_lists):
        assert list(nbs) == [nb for nb in full[c] if not spec.walls >> nb & 1]


NEIGHBOR_MASK_MAPS = [EDGE_MAP, map_from_ascii("row", "..D..S..*..g."),
                      map_from_ascii("column", "\n".join("..D..S..*..g."))]


@pytest.mark.parametrize("spec", NEIGHBOR_MASK_MAPS, ids=lambda spec: spec.name)
def test_spread_masks_are_the_in_grid_neighbors(spec):
    # on a map without border walls, one row and one column: a cell's spread
    # over the open cells is its neighbour list, and a set's spread is the
    # in-grid neighbours of its cells, walls included, plus the bit `width`
    # past each cell of the last row; no step wraps a row
    g = spec.grid
    n = g.n_cells
    full = grid_neighbors(g.width, g.height)
    for c, nbs in enumerate(spec.neighbor_lists):
        assert spec.spread(1 << c) & spec.open_cells == _sparse_goals(nbs)
    rng = np.random.default_rng(13)
    for density in (0.05, 0.3, 1.0):
        cells = rng.random(n) < density
        spread = spec.spread(pack_cells(cells))
        assert spread & (1 << n) - 1 == _sparse_goals(
            nb for c in np.flatnonzero(cells).tolist() for nb in full[c])
        assert spread >> n == pack_cells(cells) >> n - g.width


@pytest.mark.parametrize("mapname", ["small", "medium", "corridor"])
def test_bfs_field_matches_full_fill_oracle(mapname):
    # random blocked masks on each built-in grid; several nearest/first_step
    # queries in mixed order share one field, as they do within a decision.
    # The oracle walks every in-grid neighbour with the walls blocked.
    spec = builtin_map(mapname)
    n = spec.grid.n_cells
    full = grid_neighbors(spec.grid.width, spec.grid.height)
    walls = unpack_cells(spec.walls, n)
    rng = np.random.default_rng(31)
    for case in range(60):
        blocked = rng.random(n) < (0.1, 0.3, 0.45)[case % 3]
        start = int(rng.integers(n))
        blocked[start] = False
        walled = (blocked | walls).tolist()
        walled[start] = False
        dist, first = bfs_field(full, walled, start)
        field = BfsField(spec, pack_cells(blocked), start)
        for _ in range(6):
            if rng.random() < 0.5:
                goals = rng.random(n) < rng.choice([0.003, 0.03, 0.3])
                want = _oracle_nearest(goals, dist)
                if rng.random() < 0.5:
                    assert field.nearest(pack_cells(goals)) == want
                else:
                    assert field.nearest(_sparse_goals(np.flatnonzero(goals).tolist())) == want
            else:
                c = int(rng.integers(n))
                expanded = len(field.levels) - 1
                assert field.first_step(c) == (first[c] if dist[c] > 0 else None)
                assert _level_dist(field, n)[c] == dist[c]
                if dist[c] < 0:  # searched to exhaustion
                    assert field.levels[-1] == 0
                else:  # up to the level holding c, and no further
                    assert len(field.levels) - 1 == max(expanded, dist[c])
                    assert field.levels[dist[c]] >> c & 1
        _assert_reached_cells_match(field, dist, first)


def test_bfs_field_edge_cases():
    spec = builtin_map("small")
    n = spec.grid.n_cells
    start = spec.start
    blocked = unpack_cells(spec.walls | spec.doors | spec.rubble, n).tolist()  # doors seal rooms
    dist, first = bfs_field(grid_neighbors(spec.grid.width, spec.grid.height), blocked, start)
    sealed = np.array([dist[c] < 0 and not blocked[c] for c in range(n)])
    assert sealed.any()

    field = BfsField(spec, pack_cells(np.array(blocked)), start)
    assert field.nearest(0) is None
    on_start = np.zeros(n, dtype=bool)
    on_start[[start, n - 2]] = True
    assert field.nearest(pack_cells(on_start)) == start
    assert field.first_step(start) is None and field.levels == [1 << start]
    # only unreachable goals: searched to exhaustion
    assert field.nearest(pack_cells(sealed)) is None
    assert field.levels[-1] == 0
    assert field.nearest(pack_cells(np.array(blocked))) is None  # blocked cells are never reached
    assert field.first_step(int(np.flatnonzero(sealed)[0])) is None
    assert _level_dist(field, n) == dist and _first_steps(field, n) == first

    ctrl = build_controllers(policy_team(PolicyKind.GREEDY), spec, seed=0)[0]
    assert ctrl._move_toward(pack_cells(on_start), ctrl._field(start)) is None  # already there


def test_bfs_field_expands_only_the_levels_a_query_needs():
    # len(levels) - 1 is the number of BFS levels a decision expanded
    spec = builtin_map("medium")
    n = spec.grid.n_cells
    ctrl = build_controllers(policy_team(PolicyKind.COORDINATED), spec, seed=0)[0]
    start = spec.start
    field = ctrl._field(start)
    assert isinstance(field, BfsField)
    assert field.nearest(pack_cells(np.zeros(n, dtype=bool))) is None
    assert len(field.levels) - 1 == 0

    nb = next(c for c in spec.neighbor_lists[start] if not spec.walls >> c & 1)
    goals = np.zeros(n, dtype=bool)
    goals[[nb, n - 1]] = True
    assert field.nearest(pack_cells(goals)) == nb
    assert len(field.levels) - 1 <= 1
    assert field.first_step(nb) == nb and len(field.levels) - 1 <= 1


def _serpentine_art(size):
    """A `size` x `size` maze of open rows, joined at alternate ends."""
    rows = ["." * size if y % 2 == 0 else "#" * (size - 1) + "." if y % 4 == 1
            else "." + "#" * (size - 1) for y in range(size)]
    return "\n".join(["S" + rows[0][1:], *rows[1:]])


def _generated_map(size, seed):
    """A `size` x `size` map of random floor, walls, closed doors and rubble,
    its start cell given as numpy integers."""
    rng = np.random.default_rng(seed)
    tiles = rng.choice(4, size=(size, size), p=[0.6, 0.25, 0.05, 0.1])
    walls, doors, rubble, floor = ([(x, y) for y, x in zip(*np.nonzero(tiles == k))]
                                   for k in (1, 2, 3, 0))
    return map_from_cells(f"generated{size}", GridSpec(size, size), walls, doors, rubble,
                          [], floor[0])


# an east step from the last column must not land on the next row's first
# cell, nor a west step from the first column on the last row's last cell
NO_BORDER_ART = """\
S.....
#####.
......
.#####
......
#####.
"""
# on an odd width the cells either side of a row break can lie on adjacent
# levels, so the walk back must mask its steps too: unmasked, it would step
# from (4, 0) east onto (0, 1) and give (4, 0), reached only through E, the
# step N, and from (0, 4) west onto (4, 3) and give (0, 4) the step E, not S
ODD_WIDTH_ART = """\
.##..
...#.
..S..
...#.
.....
"""
SHIFT_MAPS = [
    map_from_ascii("no-border", NO_BORDER_ART),
    map_from_ascii("odd-width", ODD_WIDTH_ART),
    map_from_ascii("row", "..D..S..*..g."),
    map_from_ascii("column", "\n".join("..D..S..*..g.")),
    map_from_ascii("serpentine41", _serpentine_art(41)),
    _generated_map(60, seed=5),
]


@pytest.mark.parametrize("spec", SHIFT_MAPS, ids=lambda spec: spec.name)
def test_bfs_field_shifts_and_walk_back_match_full_fill_oracle(spec):
    # with the map's doors and rubble blocked and with nothing blocked, from
    # the start and another open cell: each cell as the one goal, and the
    # first step to each cell, against the full fill
    g = spec.grid
    n = g.n_cells
    full = grid_neighbors(g.width, g.height)
    walls = unpack_cells(spec.walls, n)
    rng = np.random.default_rng(11)
    for blocked in (unpack_cells(spec.doors | spec.rubble, n), np.zeros(n, dtype=bool)):
        other = int(rng.choice(np.flatnonzero(~walls & ~blocked)))
        for start in (spec.start, other):
            dist, first = bfs_field(full, (blocked | walls).tolist(), start)
            field = BfsField(spec, pack_cells(blocked), start)
            assert [field.nearest(1 << c) for c in range(n)] == [
                c if d >= 0 else None for c, d in enumerate(dist)]
            goals = rng.random(n) < 0.05
            assert field.nearest(pack_cells(goals)) == _oracle_nearest(goals, dist)
            assert _first_steps(field, n) == first
            assert _level_dist(field, n) == dist


@pytest.mark.parametrize("spec", SHIFT_MAPS, ids=lambda spec: spec.name)
def test_first_step_from_the_remembered_level_matches_a_cold_scan(spec):
    # `nearest` keeps the level of the cell it found, and `first_step` on that
    # cell walks back from it unscanned; a fresh field scans its levels for the
    # cell. Both agree with the FIFO fill, on seeded goal sets from seeded starts
    g = spec.grid
    n = g.n_cells
    full = grid_neighbors(g.width, g.height)
    walls = unpack_cells(spec.walls, n)
    blocked = unpack_cells(spec.doors | spec.rubble, n)
    open_cells = np.flatnonzero(~walls & ~blocked)
    rng = np.random.default_rng(19)
    remembered = 0
    for _ in range(12):
        start = int(rng.choice(open_cells))
        dist, first = bfs_field(full, (blocked | walls).tolist(), start)
        field = BfsField(spec, pack_cells(blocked), start)
        for _ in range(4):
            goals = rng.random(n) < rng.choice([0.002, 0.02, 0.2])
            cell = field.nearest(pack_cells(goals))
            assert cell == _oracle_nearest(goals, dist)
            if cell is None or cell == start:
                continue
            assert field._found == (cell, dist[cell])  # the remembered level
            cold = BfsField(spec, pack_cells(blocked), start)
            assert field.first_step(cell) == cold.first_step(cell) == first[cell]
            remembered += 1
    assert remembered


@pytest.mark.parametrize("spec", PLANNING_MAPS, ids=lambda spec: spec.name)
@pytest.mark.parametrize("kind", [PolicyKind.GREEDY, PolicyKind.COORDINATED])
def test_controller_planning_matches_full_fill_oracle(spec, kind):
    # random knowledge states: the controller's field, its dense and sparse
    # goals and its approach to targets against a flood fill over every
    # in-grid neighbour with the walls, known rubble and known doors blocked
    g = spec.grid
    n = g.n_cells
    full = grid_neighbors(g.width, g.height)
    walls = unpack_cells(spec.walls, n)
    open_cells = np.flatnonzero(~walls)
    rng = np.random.default_rng(57)
    for ctrl in build_controllers(policy_team(kind), spec, seed=4):
        for case in range(15):
            density = (0.05, 0.2, 0.4)[case % 3]
            rubble = (rng.random(n) < density) & ~walls
            doors = (rng.random(n) < density / 2) & ~walls
            # as `observe` does when the known rubble or doors change
            ctrl.rubble, ctrl.doors, ctrl._component = pack_cells(rubble), pack_cells(doors), 0
            start = int(rng.choice(open_cells))
            blocked = (walls | rubble | doors).tolist()
            dist, first = bfs_field(full, blocked, start)

            field = ctrl._field(start)
            dense = rng.random(n) < rng.choice([0.01, 0.1])
            assert field.nearest(pack_cells(dense)) == _oracle_nearest(dense, dist)
            cells = rng.choice(n, size=int(rng.integers(1, 6)), replace=False).tolist()
            assert field.nearest(_sparse_goals(cells)) == _oracle_nearest(
                np.isin(np.arange(n), cells), dist)
            _assert_reached_cells_match(field, dist, first)

            want = _oracle_approach(full, dist, first, cells)
            assert ctrl._approach(_sparse_goals(cells), ctrl._field(start)) == want

            exhausted = ctrl._field(start)
            while exhausted.levels[-1]:
                exhausted._grow()
            assert _level_dist(exhausted, n) == dist and _first_steps(exhausted, n) == first


@pytest.mark.parametrize("spec", PLANNING_MAPS, ids=lambda spec: spec.name)
def test_controller_component_memo_matches_full_fill_oracle(spec):
    # after an `_approach` that searched its field to exhaustion, a second one
    # from the same component answers without growing a level, and one from
    # outside that component or after the blocked bytes are rebuilt floods;
    # each agrees with the full fill
    g = spec.grid
    n = g.n_cells
    full = grid_neighbors(g.width, g.height)
    walls = unpack_cells(spec.walls, n)
    rng = np.random.default_rng(29)
    ctrl = build_controllers(policy_team(PolicyKind.GREEDY), spec, seed=4)[0]
    exhausted = outside = reopened = 0
    for case in range(30):
        density = (0.1, 0.25, 0.4)[case % 3]
        rubble = (rng.random(n) < density) & ~walls
        doors = (rng.random(n) < density / 2) & ~walls
        ctrl.rubble, ctrl.doors, ctrl._component = pack_cells(rubble), pack_cells(doors), 0
        blocked = (walls | rubble | doors).tolist()
        start = int(rng.choice([c for c in range(n) if not blocked[c]]))
        dist, first = bfs_field(full, blocked, start)
        # targets with a non-wall neighbour, none of them reached from the start
        sealed = [t for t in range(n) if spec.neighbor_lists[t]
                  and all(dist[nb] < 0 for nb in spec.neighbor_lists[t])]
        if not sealed:
            continue
        targets = rng.choice(sealed, size=min(3, len(sealed)), replace=False).tolist()
        targets = _sparse_goals(targets)
        field = ctrl._field(start)
        assert ctrl._approach(targets, field) is None and field.levels[-1] == 0
        exhausted += 1

        # the same component: no flood, and a reachable target still wins
        other = int(rng.choice([c for c in range(n) if dist[c] >= 0]))
        field = ctrl._field(other)
        assert ctrl._approach(targets, field) is None and len(field.levels) == 1
        dist_o, first_o = bfs_field(full, blocked, other)
        near = targets | 1 << start
        assert ctrl._approach(near, ctrl._field(other)) == _oracle_approach(
            full, dist_o, first_o, _cells(near))

        # another component floods, and may find the targets
        beyond = [c for c in range(n) if dist[c] < 0 and not blocked[c]]
        if beyond:
            cell = int(rng.choice(beyond))
            dist_b, first_b = bfs_field(full, blocked, cell)
            assert ctrl._approach(targets, ctrl._field(cell)) == _oracle_approach(
                full, dist_b, first_b, _cells(targets))
            outside += 1

        # with the memo on the start's component again, forgetting rubble and
        # doors changes the blocked cells and clears the memo
        assert ctrl._approach(targets, ctrl._field(start)) is None
        ctrl.rubble = pack_cells(rubble & (rng.random(n) < 0.3))
        ctrl.doors, ctrl._component = 0, 0
        blocked = [bool(walls[c]) or bool(ctrl.rubble >> c & 1) for c in range(n)]
        dist_r, first_r = bfs_field(full, blocked, start)
        want = _oracle_approach(full, dist_r, first_r, _cells(targets))
        assert ctrl._approach(targets, ctrl._field(start)) == want
        reopened += want is not None
    assert exhausted and outside and reopened


@pytest.mark.parametrize("spec", PLANNING_MAPS, ids=lambda spec: spec.name)
def test_patrol_waypoint_skip_matches_full_fill_oracle(spec):
    # with the own quadrant explored, a sweep steps toward the first waypoint
    # in patrol order that the full fill reaches; after a sweep that searched
    # its field to exhaustion, one from the same component skips the
    # unreachable waypoints without growing a level
    g = spec.grid
    n = g.n_cells
    full = grid_neighbors(g.width, g.height)
    walls = unpack_cells(spec.walls, n)
    rng = np.random.default_rng(30)
    ctrls = [c for c in build_controllers(policy_team(PolicyKind.COORDINATED), spec, seed=4)
             if c.waypoints]
    exhausted = skipped = 0
    for case in range(40):
        ctrl = ctrls[case % len(ctrls)]
        ctrl.unseen = 0  # nothing left to explore: the sweep patrols
        density = (0.1, 0.25, 0.4)[case % 3]
        rubble = (rng.random(n) < density) & ~walls
        doors = (rng.random(n) < density / 2) & ~walls
        ctrl.rubble, ctrl.doors, ctrl._component = pack_cells(rubble), pack_cells(doors), 0
        blocked = (walls | rubble | doors).tolist()
        start = int(rng.choice([c for c in range(n) if not blocked[c]]))
        for _ in range(3):  # from a start, then from cells it reaches
            dist, first = bfs_field(full, blocked, start)
            order = [ctrl.waypoints[(ctrl.waypoint + k) % len(ctrl.waypoints)]
                     for k in range(len(ctrl.waypoints))]
            hit = next((k for k, w in enumerate(order) if dist[w] > 0), None)
            waypoint = ctrl.waypoint
            field = ctrl._field(start)
            memo_had_start = ctrl._component >> start & 1
            act = ctrl._sweep_own_quadrant(start, field)
            if hit is None:
                assert ctrl.waypoint == waypoint + len(order) and act.kind is ActionTag.MOVE
                if memo_had_start:
                    assert len(field.levels) == 1  # every waypoint skipped unflooded
                    skipped += 1
                elif set(order) != {start}:
                    assert field.levels[-1] == 0 and ctrl._component >> start & 1
                    exhausted += 1
            else:
                assert ctrl.waypoint == waypoint + hit
                assert act == AgentAction(ActionTag.MOVE, first[order[hit]])
            start = int(rng.choice([c for c in range(n) if dist[c] >= 0]))
    assert exhausted and skipped


def _knowledge_maps():
    """The built-in maps at their own field of view, at radius 1, at a radius
    over the height (on the corridor, under the width) and at a radius larger
    than the grid, and the edge map at the radii of its golden pins."""
    for spec in builtin_maps():
        g = spec.grid
        for r in dict.fromkeys((spec.fov_radius, 1, g.height + 1, max(g.width, g.height) + 1)):
            yield replace(spec, name=f"{spec.name}-fov{r}", fov_radius=r)
    for r in (1, 2, 5):
        yield map_from_ascii(f"edge-fov{r}", EDGE_ART, fov_radius=r)
    # one row, its start on the first row and a radius over the height
    yield map_from_ascii("row-fov2", "..D..S..*..y.", fov_radius=2)


def _known_count(ctrl):
    """How many (cell, entity) pairs the controller knows of; a buried yellow is two."""
    return sum(cells.bit_count() for cells in (ctrl.greens, ctrl.yellows, ctrl.reds,
                                               ctrl.rubble, ctrl.doors))


@pytest.mark.parametrize("spec", list(_knowledge_maps()), ids=lambda spec: spec.name)
@pytest.mark.parametrize("kind", [PolicyKind.GREEDY, PolicyKind.COORDINATED])
def test_controller_knowledge_matches_mask_observe(spec, kind):
    # after every observe of a mission, the packed unseen cells, the packed
    # victims, rubble and doors known, the serviceable targets and the cells a
    # fresh field may still reach equal the whole-map mask form's
    team = policy_team(kind, dither=0.2)
    agents = tuple(AgentState(f"{role.value}{i}", role, spec.start)
                   for i, (role, _) in enumerate(team))
    controllers = build_controllers(team, spec, seed=3)
    refs = [MaskKnowledge(spec) for _ in controllers]
    state = initial_state(spec, agents)
    walls = unpack_cells(spec.walls, spec.grid.n_cells)
    learned = forgotten = 0
    for _ in range(round(spec.clock.mission_duration_s / 3.0)):
        for ctrl, ref in zip(controllers, refs):
            before = _known_count(ctrl)
            ctrl.observe(state)
            me = state.agents[ctrl.index].cell
            ref.observe(state, me)
            assert ctrl.unseen == pack_cells(ref.unseen)
            assert [ctrl.greens, ctrl.yellows, ctrl.reds, ctrl.rubble, ctrl.doors] == [
                *(pack_cells(ref.victims == MaskKnowledge.CODES[kind]) for kind in VictimType),
                pack_cells(ref.rubble), pack_cells(ref.doors)]
            assert ctrl._serviceable() == pack_cells(ref.serviceable(ctrl.role))
            blocked = ref.blocked()
            blocked[me] = True  # a field has reached its start
            assert ctrl._field(me).unreached == pack_cells(~walls & ~blocked)
            after = _known_count(ctrl)
            learned += after > before
            forgotten += after < before
        state, _ = step_resolved(state, [ctrl.act(state) for ctrl in controllers])
    assert learned and forgotten  # knowledge both grew and shrank during the mission
