"""Team-level spatial coordination metrics and their windowed time series.

Three whole-mission metrics, each in [0, 1]:

- exploration diversity: mean pairwise Jensen-Shannon divergence between the
  players' occupancy distributions, regardless of role;
- movement specialization: entropy similarity of the two role-pooled
  distributions times one minus the Jaccard overlap of the role cell sets;
- proximity adaptation: normalized absolute change of the mean cross-role
  Euclidean distance between the two mission halves (split at tick
  floor(T/2)).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (CompositionError, Role, TeamCoordError, TeamSession, ValueEnum,
                   team_roles_partition)
from .occupancy import (
    EmptyInputError,
    _segment_sums,
    _window_counts,
    cell_indices,
    entropy_similarity,
    jaccard_overlap,
    jensen_shannon_divergence,
    shannon_entropy,
)


class MisalignedSessionError(TeamCoordError):
    """The players of a session disagree on their tick count."""


class TooShortSessionError(TeamCoordError):
    """Session does not span enough ticks for the requested computation."""


class UnsupportedMetricError(TeamCoordError):
    """Unknown time-series metric tag."""


class WindowTooLargeError(TeamCoordError):
    """Sliding window longer than the session."""


class SeriesMetric(ValueEnum):
    SED = "sed"
    SMS = "sms"
    SPA_ROLLING = "spa_rolling"
    INTER_ROLE_DISTANCE = "inter_role_distance"


@dataclass(frozen=True)
class CoordinationMetrics:
    """The (SED, SMS, SPA) triple for one session."""

    sed: float
    sms: float
    spa: float


@dataclass(frozen=True)
class MetricTimeSeries:
    metric: SeriesMetric
    values: tuple[tuple[float, float], ...]  # (progress fraction, value)


def _aligned_ticks(players) -> int:
    """The players' common tick count; raises when they disagree."""
    counts = [p.n_ticks for p in players]
    if len(set(counts)) > 1:
        named = ", ".join(f"{p.player_id} {n}" for p, n in zip(players, counts))
        raise MisalignedSessionError(f"players disagree on tick count: {named}")
    return counts[0] if counts else 0


def _occupancy_units(session: TeamSession, metric: SeriesMetric) -> np.ndarray:
    """The distribution each player's samples count toward, players in
    session order: one per player for SED; for SMS, one per role (medics 0,
    engineers 1). Raises for a team the metric cannot score."""
    if metric is SeriesMetric.SED:
        if len(session.players) < 2:
            raise CompositionError("exploration diversity needs at least two players")
        return np.arange(len(session.players))
    team_roles_partition(session)
    return np.array([p.role is Role.ENGINEER for p in session.players], dtype=np.intp)


def _cell_index_array(session: TeamSession, coarsen: int) -> np.ndarray:
    """(players, ticks) cell indices, players in session order."""
    if _aligned_ticks(session.players) == 0:
        raise EmptyInputError("no samples across input trajectories")
    return np.stack([cell_indices(p, session.grid, coarsen) for p in session.players])


def _whole_mission(metric: SeriesMetric, idx: np.ndarray, unit: np.ndarray) -> float:
    return float(_occupancy_window_series(metric, idx, unit, idx.shape[1])[0])


def spatial_exploration_diversity(session: TeamSession, coarsen: int = 1) -> float:
    """Mean JSD over all unordered player pairs; 0 when everyone moves alike."""
    unit = _occupancy_units(session, SeriesMetric.SED)
    return _whole_mission(SeriesMetric.SED, _cell_index_array(session, coarsen), unit)


def spatial_movement_specialization(session: TeamSession, coarsen: int = 1) -> float:
    """Entropy similarity of role-pooled occupancy times (1 - cell overlap)."""
    unit = _occupancy_units(session, SeriesMetric.SMS)
    return _whole_mission(SeriesMetric.SMS, _cell_index_array(session, coarsen), unit)


def cross_role_distances(session: TeamSession) -> np.ndarray:
    """Per-tick mean Euclidean distance over the four medic-engineer pairs."""
    part = team_roles_partition(session)
    _aligned_ticks(part[Role.MEDIC] + part[Role.ENGINEER])
    med = np.stack([p.xy for p in part[Role.MEDIC]]).astype(float)  # (2, T, 2)
    eng = np.stack([p.xy for p in part[Role.ENGINEER]]).astype(float)
    diff = med[:, None, :, :] - eng[None, :, :, :]  # (2, 2, T, 2)
    return np.sqrt((diff ** 2).sum(axis=-1)).mean(axis=(0, 1))  # (T,)


def spatial_proximity_adaptation(session: TeamSession) -> float:
    """|D2 - D1| / max(D1, D2) over the two mission halves; 0 if both are 0."""
    d = cross_role_distances(session)
    t = d.size
    if t < 2:
        raise TooShortSessionError(f"proximity adaptation needs >= 2 ticks, got {t}")
    half = t // 2
    d1 = float(d[:half].mean())
    d2 = float(d[half:].mean())
    top = abs(d2 - d1)
    bottom = max(d1, d2)
    return 0.0 if bottom == 0.0 else top / bottom


def coordination_metrics(session: TeamSession, coarsen: int = 1) -> CoordinationMetrics:
    """SED, SMS and SPA of one session; SED and SMS share one cell-index array."""
    sed_unit = _occupancy_units(session, SeriesMetric.SED)
    idx = _cell_index_array(session, coarsen)
    return CoordinationMetrics(
        sed=_whole_mission(SeriesMetric.SED, idx, sed_unit),
        sms=_whole_mission(SeriesMetric.SMS, idx, _occupancy_units(session, SeriesMetric.SMS)),
        spa=spatial_proximity_adaptation(session),
    )


# Upper bound on the cells of one block of windows in the SED/SMS series
# kernel, so memory stays bounded for long sessions on large maps.
_SERIES_BLOCK_CELLS = 1 << 18


def _moving_average(values: np.ndarray, k: int) -> np.ndarray:
    """Centered moving average of k points, shrinking near the edges."""
    if k <= 1:
        return values
    half = min(k // 2, values.size)  # a wider half-width still averages every point
    i = np.arange(values.size)
    lo = np.maximum(i - half, 0)
    n = np.minimum(i + half + 1, values.size) - lo
    return _segment_sums(values, lo, n) / n


def _occupancy_window_series(metric: SeriesMetric, idx: np.ndarray, unit: np.ndarray,
                             window: int) -> np.ndarray:
    """SED or SMS of every window of `window` ticks, all windows at once.

    `idx` is the (players, ticks) cell index array; player p's samples count
    toward distribution `unit[p]`: one per player for SED, one per role
    (medic 0, engineer 1) for SMS. The distributions live on the session's
    visited cells only, in ascending cell order, and the row-wise occupancy
    kernels give each window the value it would get on its own.
    """
    cells = np.unique(idx)
    n_units, n_cols = int(unit.max()) + 1, cells.size
    bins = unit[:, None] * n_cols + np.searchsorted(cells, idx)
    size = (np.bincount(unit, minlength=n_units) * window)[:, None]  # samples per window
    a, b = np.triu_indices(n_units, k=1)  # unit pairs in itertools.combinations order
    n_windows = idx.shape[1] - window + 1
    # a window's largest arrays: SED's (pair, side, cell) stack, the counts per (unit, cell)
    block = max(1, _SERIES_BLOCK_CELLS // (2 * max(n_units, a.size) * n_cols))
    vals = np.empty(n_windows)
    for k0 in range(0, n_windows, block):
        k1 = min(k0 + block, n_windows)
        counts = _window_counts(bins, n_units * n_cols, window, k0, k1)
        p = counts.reshape(k1 - k0, n_units, n_cols) / size
        if metric is SeriesMetric.SED:
            vals[k0:k1] = jensen_shannon_divergence(p[:, a], p[:, b]).mean(axis=1)
        else:
            h = shannon_entropy(p)
            mask = p > 0
            vals[k0:k1] = (entropy_similarity(h[:, 0], h[:, 1])
                           * (1.0 - jaccard_overlap(mask[:, 0], mask[:, 1])))
    return vals


def metric_time_series(session: TeamSession, metric: SeriesMetric | str,
                       window_ticks: int = 20, smooth_ticks: int = 5,
                       coarsen: int = 1) -> MetricTimeSeries:
    """Sliding-window series of a metric across mission progress.

    SED and SMS are recomputed over each window of samples; the cross-role
    distance is averaged per window; the rolling adaptation compares each
    window against the previous one. Values are smoothed with a centered
    moving average of `smooth_ticks` points, and the x axis is the window's
    end tick divided by the nominal mission tick count, so the red cutoff
    lands exactly at its mission-progress fraction.
    """
    try:
        metric = SeriesMetric(metric)
    except ValueError:
        raise UnsupportedMetricError(f"unknown metric {metric!r}") from None
    if window_ticks < 2:
        raise ValueError("window_ticks must be >= 2")
    if smooth_ticks < 1:
        raise ValueError("smooth_ticks must be >= 1")
    t_total = _aligned_ticks(session.players)
    if window_ticks > t_total:
        raise WindowTooLargeError(f"window of {window_ticks} ticks exceeds session of {t_total}")

    ends = np.arange(window_ticks - 1, t_total)

    if metric in (SeriesMetric.SED, SeriesMetric.SMS):
        unit = _occupancy_units(session, metric)
        vals = _occupancy_window_series(metric, _cell_index_array(session, coarsen), unit,
                                        window_ticks)
    else:
        d = cross_role_distances(session)
        csum = np.concatenate([[0.0], np.cumsum(d)])
        means = (csum[ends + 1] - csum[ends + 1 - window_ticks]) / window_ticks
        if metric is SeriesMetric.INTER_ROLE_DISTANCE:
            vals = means
        else:  # rolling adaptation between consecutive windows
            if means.size < 2:
                raise WindowTooLargeError("rolling adaptation needs at least two windows")
            prev, cur = means[:-1], means[1:]
            bottom = np.maximum(prev, cur)
            with np.errstate(invalid="ignore"):
                vals = np.where(bottom > 0, np.abs(cur - prev) / np.where(bottom > 0, bottom, 1.0), 0.0)
            ends = ends[1:]

    vals = _moving_average(np.asarray(vals, dtype=float), smooth_ticks)
    progress = ends / session.nominal_ticks
    return MetricTimeSeries(metric, tuple(zip(progress.tolist(), vals.tolist())))
