"""Spatial coordination analytics for role-based teams on grid maps.

The package quantifies implicit coordination from movement logs (exploration
diversity, movement specialization, proximity adaptation), scores outcomes
(weighted rescue performance, collective intelligence), runs the statistical
pipeline that relates them, and ships a deterministic search-and-rescue
simulator for generating trajectory corpora end to end.
"""

from .core import (
    ActionTag,
    CompositionError,
    DuplicateIdError,
    GridSpec,
    MissionClock,
    PlayerTrajectory,
    Position,
    RescueEvent,
    Role,
    TeamCoordError,
    TeamSession,
    VictimType,
    Violation,
    team_roles_partition,
    validate_session,
)
from .metrics import (
    CoordinationMetrics,
    MetricTimeSeries,
    SeriesMetric,
    coordination_metrics,
    cross_role_distances,
    metric_time_series,
    spatial_exploration_diversity,
    spatial_movement_specialization,
    spatial_proximity_adaptation,
)
from .occupancy import (
    coarsen_grid,
    entropy_similarity,
    jaccard_overlap,
    jensen_shannon_divergence,
    shannon_entropy,
)
from .outcomes import CIScore, MapMeta, PerformanceScore, collective_intelligence, team_performance

__version__ = "0.1.0"
