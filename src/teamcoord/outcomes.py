"""Outcome scores: weighted rescue performance and collective-intelligence components.

The collective-intelligence score aggregates, per player, area coverage
(effort), time on role-specific actions (skill), and task completions
against the role's maximum (task strategy); the team score is the mean of
the player means. The scale is internal to this toolkit: only its monotone
structure feeds the analysis pipeline.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .core import ACTIONS, ActionTag, MapMeta, Role, RescueEvent, TeamCoordError, TeamSession, VictimType
from .occupancy import cell_indices


class InconsistentMetadataError(TeamCoordError):
    """A player completed more tasks than the map metadata says exist."""


# Actions that count as role-specific work.
ROLE_ACTIONS = {
    Role.MEDIC: frozenset({ActionTag.RESCUE}),
    Role.ENGINEER: frozenset({ActionTag.RESCUE, ActionTag.CLEAR, ActionTag.OPEN}),
}


@dataclass(frozen=True)
class PerformanceScore:
    points: int
    rescues: Mapping[VictimType, int]


@dataclass(frozen=True)
class PlayerCI:
    effort: float
    skill: float
    task_strategy: float

    @property
    def mean(self) -> float:
        return (self.effort + self.skill + self.task_strategy) / 3.0


@dataclass(frozen=True)
class CIScore:
    per_player: Mapping[str, PlayerCI]
    team_ci: float


def team_performance(events: Iterable[RescueEvent]) -> PerformanceScore:
    """Weighted rescue score: red 60, yellow 30, green 10."""
    counts = {t: 0 for t in VictimType}
    for e in events:
        counts[e.victim_type] += 1
    points = sum(t.performance_weight * n for t, n in counts.items())
    return PerformanceScore(points=points, rescues=counts)


def collective_intelligence(session: TeamSession, map_meta: MapMeta) -> CIScore:
    """Per-player effort/skill/task-strategy components and their team mean.

    Rescue completions are attributed from event actor lists, so a joint red
    rescue credits both the medic and the assisting engineer; clears and
    door openings are read off the engineer's own action log.
    """
    rescue_credits: dict[str, int] = {}
    for e in session.events:
        for a in e.actor_ids:
            rescue_credits[a] = rescue_credits.get(a, 0) + 1

    per: dict[str, PlayerCI] = {}
    for p in session.players:
        distinct = int(np.unique(cell_indices(p, session.grid)).size)
        effort = min(1.0, distinct / map_meta.traversable_cells)

        actions = p.samples["action"]  # indices into ACTIONS
        role_acts = int(np.isin(actions, [ACTIONS.index(a) for a in ROLE_ACTIONS[p.role]]).sum())
        skill = min(1.0, role_acts / p.n_ticks) if p.n_ticks else 0.0

        completions = rescue_credits.get(p.player_id, 0)
        if p.role is Role.ENGINEER:
            engineering = [ACTIONS.index(ActionTag.CLEAR), ACTIONS.index(ActionTag.OPEN)]
            completions += int(np.isin(actions, engineering).sum())
        limit = map_meta.max_tasks.get(p.role, 0)
        if completions > limit:
            raise InconsistentMetadataError(
                f"player {p.player_id!r} completed {completions} tasks, map allows {limit}")
        strategy = completions / limit if limit > 0 else 0.0

        per[p.player_id] = PlayerCI(effort=effort, skill=skill, task_strategy=strategy)

    team = float(np.mean([c.mean for c in per.values()])) if per else 0.0
    return CIScore(per_player=per, team_ci=team)
