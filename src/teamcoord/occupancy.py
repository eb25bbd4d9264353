"""Grid occupancy counts and the information-theoretic kernels on them.

Occupancy is strictly sample-count based: p(cell) = visits / total samples,
which equals dwell time at a fixed sampling interval. All logarithms are
base 2, so entropies are in bits and the Jensen-Shannon divergence is
bounded by 1 exactly.

The kernels work row-wise: a distribution is the last axis of an array, and
any leading axes index a batch of them. Every sum over a row runs over the
row's support entries only, its positive cells in ascending cell order, and
rounds like the 1-D `.sum()` of those entries, so a batch gives each row's
value bit for bit as if the row were computed alone.
"""
from __future__ import annotations

import numpy as np

from .core import GridSpec, PlayerTrajectory, TeamCoordError


class EmptyInputError(TeamCoordError):
    """No trajectory samples to build a distribution from."""


class EmptyDistributionError(TeamCoordError):
    """Operation on an all-zero distribution."""


class GridMismatchError(TeamCoordError):
    """Two distributions do not live on the same grid."""


_SUM_TOL = 1e-9


def coarsen_grid(grid: GridSpec, factor: int) -> GridSpec:
    """Grid obtained by pooling factor x factor tile blocks into one cell."""
    if factor < 1:
        raise ValueError("coarsening factor must be >= 1")
    return GridSpec(-(-grid.width // factor), -(-grid.height // factor))


def cell_indices(traj: PlayerTrajectory, grid: GridSpec, coarsen: int = 1) -> np.ndarray:
    """Per-tick cell index of one trajectory, on the (possibly coarsened) grid."""
    xs, ys = traj.samples["x"], traj.samples["y"]
    if xs.size and (xs.min() < 0 or ys.min() < 0 or xs.max() >= grid.width or ys.max() >= grid.height):
        raise ValueError(f"trajectory {traj.player_id!r} leaves the {grid.width}x{grid.height} grid")
    # the grid's larger side already pools every cell into cell 0; a larger
    # factor would overflow int64 in `ys // coarsen`
    coarsen = min(coarsen, max(grid.width, grid.height))
    cg = coarsen_grid(grid, coarsen)
    return (ys // coarsen) * cg.width + (xs // coarsen)


def _window_counts(bins: np.ndarray, n_bins: int, window: int, k0: int, k1: int) -> np.ndarray:
    """(k1 - k0, n_bins) sample counts of windows k0..k1-1 of a (players, ticks) bin array.

    Window k covers ticks k..k + window - 1. The first window is counted
    directly; each later one adds the tick that enters and drops the tick
    that leaves.
    """
    n = k1 - k0
    offset = np.arange(1, n) * n_bins
    enter = (offset + bins[:, k0 + window:k1 - 1 + window]).ravel()
    leave = (offset + bins[:, k0:k1 - 1]).ravel()
    delta = np.bincount(enter, minlength=n * n_bins) - np.bincount(leave, minlength=n * n_bins)
    delta[:n_bins] = np.bincount(bins[:, k0:k0 + window].ravel(), minlength=n_bins)
    return delta.reshape(n, n_bins).cumsum(axis=0)


def _segment_sums(values: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """values[s:s + n].sum() for each (s, n), rounded exactly like that 1-D sum.

    Segments of one length are gathered into the rows of a C-contiguous
    matrix, and `.sum(axis=1)` reduces each row with the same pairwise
    summation as the 1-D `.sum()` of that row (tests pin this numpy
    property). `np.add.reduceat` would sum each segment sequentially instead.
    One stable sort of the lengths puts each length's segments side by side.
    """
    order = np.argsort(lengths, kind="stable")
    ordered = lengths[order]
    firsts = np.flatnonzero(np.diff(ordered, prepend=-1))
    out = np.empty(starts.size)
    for lo, hi in zip(firsts.tolist(), [*firsts[1:].tolist(), ordered.size]):
        rows = order[lo:hi]
        out[rows] = values[starts[rows, None] + np.arange(ordered[lo])].sum(axis=1)
    return out


def _row_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Sum of each row's entries, rounded like the 1-D `.sum()` of that row.

    `values` holds the rows end to end, in row-major order of `lengths`,
    which gives each row's number of entries.
    """
    n = lengths.ravel()
    return _segment_sums(values, np.cumsum(n) - n, n).reshape(lengths.shape)


def _distributions(p) -> np.ndarray:
    """`p` as a float array whose rows are non-empty, non-negative and sum to 1."""
    p = np.asarray(p, dtype=float)
    if p.ndim == 0:
        raise ValueError("a distribution needs a cell axis")
    if not p.min(initial=0.0) >= 0:  # also refuses nan
        raise ValueError("probabilities must be non-negative")
    total = p.sum(axis=-1)
    if not total.all():
        raise EmptyDistributionError("all-zero distribution")
    if np.any(np.abs(total - 1.0) > _SUM_TOL):
        raise ValueError("probabilities must sum to 1 in every row")
    return p


def _same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise GridMismatchError(f"shapes differ: {a.shape} vs {b.shape}")


def shannon_entropy(p) -> np.ndarray:
    """Entropy in bits of each row; 0 for a point mass."""
    p = _distributions(p)
    mask = p > 0
    pv = p[mask]
    return (-_row_sums(pv * np.log2(pv), mask.sum(axis=-1)))[()]


def jensen_shannon_divergence(p, q) -> np.ndarray:
    """JSD of each row pair of p and q in base 2, so every value lies in [0, 1].

    Computed as the mean of KL(p||m) and KL(q||m) with m the equal mixture;
    cells where an argument has zero mass contribute nothing to its sum.
    """
    p, q = _distributions(p), _distributions(q)
    _same_shape(p, q)
    m = 0.5 * (p + q)
    on_p, on_q = p > 0, q > 0
    xv = np.concatenate([p[on_p], q[on_q]])  # the rows of p, then those of q
    mv = np.concatenate([m[on_p], m[on_q]])
    kl = _row_sums(xv * np.log2(xv / mv), np.stack([on_p.sum(axis=-1), on_q.sum(axis=-1)]))
    jsd = 0.5 * kl[0] + 0.5 * kl[1]
    jsd = np.where(jsd > 0.0, jsd, 0.0)  # min(1.0, max(0.0, jsd)) with Python's tie rules
    return np.where(jsd < 1.0, jsd, 1.0)[()]


def jaccard_overlap(a, b) -> np.ndarray:
    """|a n b| / |a u b| of each row pair of two boolean cell masks; 0 when both are empty."""
    a, b = np.asarray(a, dtype=bool), np.asarray(b, dtype=bool)
    _same_shape(a, b)
    union = (a | b).sum(axis=-1)
    return np.where(union == 0, 0.0, (a & b).sum(axis=-1) / np.maximum(union, 1))[()]


def entropy_similarity(h1, h2) -> np.ndarray:
    """1 - |h1 - h2| / max(h1, h2), elementwise; two zero entropies count as fully similar.

    The ratio is 0/0 when both distributions are point masses; two point
    masses have identical complexity, hence 1.
    """
    h1, h2 = np.asarray(h1, dtype=float), np.asarray(h2, dtype=float)
    if not (np.all(h1 >= 0) and np.all(h2 >= 0)):
        raise ValueError("entropies must be non-negative")
    hi = np.where(h2 > h1, h2, h1)
    safe = np.where(hi == 0.0, 1.0, hi)
    return np.where(hi == 0.0, 1.0, 1.0 - np.abs(h1 - h2) / safe)[()]
