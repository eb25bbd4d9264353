"""Deterministic, seeded search-and-rescue simulator on grid maps."""

from .maps import builtin_map, builtin_maps, map_from_ascii, map_from_cells
from .policies import AgentPolicy, PolicyKind, run_mission
from .world import (
    AgentAction,
    AgentState,
    InvalidMapError,
    MalformedActionError,
    MapSpec,
    WorldState,
    initial_state,
    map_meta,
    step_resolved,
)
