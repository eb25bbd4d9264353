"""Deterministic, seeded search-and-rescue simulator on grid maps."""

from .maps import builtin_map, builtin_maps, map_from_ascii
from .policies import AgentPolicy, PolicyKind
from .world import (
    AgentAction,
    AgentState,
    InvalidMapError,
    MalformedActionError,
    MapSpec,
    Victim,
    WorldState,
    initial_state,
    map_meta,
    run_mission,
    step_resolved,
)
