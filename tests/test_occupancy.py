import math

import numpy as np
import pytest

from teamcoord.core import GridSpec, Role
from teamcoord.metrics import spatial_exploration_diversity, spatial_movement_specialization
from teamcoord.occupancy import (
    EmptyDistributionError,
    EmptyInputError,
    GridMismatchError,
    _window_counts,
    cell_indices,
    coarsen_grid,
    entropy_similarity,
    jaccard_overlap,
    jensen_shannon_divergence,
    shannon_entropy,
)

from helpers import session_from_cells, traj
from oracles import entropy_bits, jsd_base2

G2 = GridSpec(2, 2)


def occupancy(trajs, grid, coarsen=1):
    """Whole-mission visit frequencies of one trajectory or a pooled group, as
    the one-window count of the SED/SMS kernel gives them."""
    trajs = [trajs] if not isinstance(trajs, list) else trajs
    idx = np.stack([cell_indices(t, grid, coarsen) for t in trajs])
    n_cells = coarsen_grid(grid, coarsen).n_cells
    return _window_counts(idx, n_cells, idx.shape[1], 0, 1)[0] / idx.size


def test_point_mass_occupancy():
    t = traj("p", Role.MEDIC, [(0, 0)] * 10)
    assert occupancy(t, G2).tolist() == [1.0, 0.0, 0.0, 0.0]


def test_two_cell_occupancy():
    t = traj("p", Role.MEDIC, [(0, 0), (1, 0), (0, 0), (1, 0)])
    assert occupancy(t, G2).tolist() == [0.5, 0.5, 0.0, 0.0]


def test_pooled_occupancy_shares_mass():
    # two trajectories of 5 samples each, in disjoint cells: 1/10 per sample
    g = GridSpec(5, 2)
    a = traj("a", Role.MEDIC, [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)])
    b = traj("b", Role.MEDIC, [(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)])
    assert np.allclose(occupancy([a, b], g), np.full(10, 0.1))


def test_occupancy_empty_input_raises():
    s = session_from_cells([[], []], [[], []], G2)
    with pytest.raises(EmptyInputError):
        spatial_exploration_diversity(s)
    with pytest.raises(EmptyInputError):
        spatial_movement_specialization(s)


def test_entropy_point_mass_is_zero():
    assert shannon_entropy([1, 0, 0, 0]) == 0.0


def test_entropy_uniform_four_cells():
    assert shannon_entropy([0.25] * 4) == pytest.approx(2.0, abs=1e-12)


def test_entropy_skewed_three_cell_case():
    p = [0.5, 0.25, 0.25, 0.0]
    expected = entropy_bits(p)
    assert expected == pytest.approx(1.5, abs=1e-12)
    assert shannon_entropy(p) == pytest.approx(expected, abs=1e-12)


def test_entropy_of_empty_distribution_raises():
    with pytest.raises(EmptyDistributionError):
        shannon_entropy([0, 0, 0, 0])
    with pytest.raises(EmptyDistributionError):  # one empty row spoils the batch
        shannon_entropy([[1, 0], [0, 0]])


def test_jsd_identical_distributions_is_zero():
    d = [0.4, 0.3, 0.2, 0.1]
    assert jensen_shannon_divergence(d, d) == 0.0


def test_jsd_disjoint_point_masses_is_one():
    assert jensen_shannon_divergence([1, 0, 0, 0], [0, 1, 0, 0]) == pytest.approx(1.0, abs=1e-12)


def test_jsd_half_case_matches_hand_value():
    expected = jsd_base2([1.0, 0.0], [0.5, 0.5])
    assert expected == pytest.approx(0.311278, abs=1e-6)
    assert jensen_shannon_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(expected, abs=1e-12)


def test_jsd_grid_mismatch_raises():
    with pytest.raises(GridMismatchError):
        jensen_shannon_divergence([1, 0, 0, 0], [1, 0, 0])
    with pytest.raises(GridMismatchError):
        jensen_shannon_divergence([[1, 0], [0, 1]], [1, 0])
    with pytest.raises(GridMismatchError):
        jaccard_overlap([True, False], [True, False, False])


def test_jsd_empty_distribution_raises():
    with pytest.raises(EmptyDistributionError):
        jensen_shannon_divergence([0, 0, 0, 0], [1, 0, 0, 0])


def _random_distribution(rng, n):
    kind = rng.integers(3)
    if kind == 0:
        p = rng.random(n)
    elif kind == 1:
        p = rng.random(n) ** 8  # spiky
    else:
        p = np.zeros(n)
        support = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
        p[support] = rng.random(support.size)
    total = p.sum()
    if total == 0:
        p[rng.integers(n)] = 1.0
        total = 1.0
    return p / total


def test_jsd_matches_double_sum_oracle():
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = int(rng.integers(2, 257))
        p = _random_distribution(rng, n)
        q = _random_distribution(rng, n)
        got = jensen_shannon_divergence(p, q)
        assert got == pytest.approx(jsd_base2(p.tolist(), q.tolist()), abs=1e-12)


def test_jsd_symmetry_and_bounds():
    rng = np.random.default_rng(3)
    for n in range(2, 42):  # 10 000 pairs
        a = np.array([_random_distribution(rng, n) for _ in range(250)])
        b = np.array([_random_distribution(rng, n) for _ in range(250)])
        ab = jensen_shannon_divergence(a, b)
        assert np.all((ab >= 0.0) & (ab <= 1.0))
        assert np.max(np.abs(ab - jensen_shannon_divergence(b, a))) <= 1e-12


def test_jsd_zero_iff_equal():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        p = _random_distribution(rng, n)
        q = _random_distribution(rng, n)
        j = jensen_shannon_divergence(p, q)
        if j == 0.0:
            assert np.allclose(p, q, atol=1e-9)
        if np.max(np.abs(p - q)) > 1e-9:
            assert j > 0.0


def test_entropy_bounded_by_support_size():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(2, 64))
        p = _random_distribution(rng, n)
        h = shannon_entropy(p)
        assert -1e-12 <= h <= math.log2(np.count_nonzero(p)) + 1e-12


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def test_batch_rows_equal_each_row_computed_alone():
    # supports run past 128 cells, where numpy's pairwise sum splits a row
    rng = np.random.default_rng(12)
    for n in (2, 7, 129, 300, 1100):
        p = np.array([_random_distribution(rng, n) for _ in range(12)]).reshape(3, 4, n)
        q = np.array([_random_distribution(rng, n) for _ in range(12)]).reshape(3, 4, n)
        assert (p > 0).sum(axis=-1).max() > 128 or n < 129
        jsd, h, h_q = jensen_shannon_divergence(p, q), shannon_entropy(p), shannon_entropy(q)
        e_s, jac = entropy_similarity(h, h_q), jaccard_overlap(p > 0, q > 0)
        assert jsd.shape == h.shape == e_s.shape == jac.shape == (3, 4)
        for i, j in np.ndindex(3, 4):
            pi, qi = p[i, j], q[i, j]
            assert same_bits(jsd[i, j], jensen_shannon_divergence(pi, qi)), (n, i, j)
            assert same_bits(h[i, j], shannon_entropy(pi)), (n, i, j)
            assert same_bits(e_s[i, j], entropy_similarity(h[i, j], h_q[i, j])), (n, i, j)
            assert same_bits(jac[i, j], jaccard_overlap(pi > 0, qi > 0)), (n, i, j)


def test_jaccard_cases():
    a = [False, True, True, False]
    assert jaccard_overlap(a, a) == 1.0
    assert jaccard_overlap(a, [True, False, False, True]) == 0.0
    assert jaccard_overlap(a, [False, False, True, True]) == pytest.approx(1 / 3)
    assert jaccard_overlap([False] * 4, [False] * 4) == 0.0
    assert jaccard_overlap([[True, False], [False, False]],
                           [[True, True], [False, False]]).tolist() == [0.5, 0.0]


def test_jaccard_bounds_random():
    rng = np.random.default_rng(9)
    for _ in range(200):
        a = rng.random(50) < rng.random()
        b = rng.random(50) < rng.random()
        j = jaccard_overlap(a, b)
        assert 0.0 <= j <= 1.0
        assert j == len(set(np.flatnonzero(a)) & set(np.flatnonzero(b))) / max(1, np.sum(a | b))
        if a.any():
            assert jaccard_overlap(a, a) == 1.0


def test_cell_indices_rejects_off_grid_samples():
    with pytest.raises(ValueError, match="leaves the 2x2 grid"):
        cell_indices(traj("p", Role.MEDIC, [(0, 0), (2, 0)]), G2)


def test_visited_cells_pools_trajectories():
    a = traj("a", Role.MEDIC, [(0, 0), (1, 0)])
    b = traj("b", Role.MEDIC, [(1, 0), (1, 1)])
    assert np.flatnonzero(occupancy([a, b], G2) > 0).tolist() == [0, 1, 3]


def test_coarsen_grid_dimensions():
    assert coarsen_grid(GridSpec(4, 4), 2) == GridSpec(2, 2)
    assert coarsen_grid(GridSpec(5, 3), 2) == GridSpec(3, 2)
    with pytest.raises(ValueError):
        coarsen_grid(G2, 0)


def test_coarsened_occupancy_pools_blocks():
    g = GridSpec(4, 4)
    t = traj("p", Role.MEDIC, [(0, 0), (1, 0), (1, 1), (0, 1)])  # all in one 2x2 block
    assert occupancy(t, g, coarsen=2).tolist() == [1.0, 0.0, 0.0, 0.0]


def test_entropy_similarity_cases():
    assert entropy_similarity(0.0, 0.0) == 1.0
    assert entropy_similarity(2.0, 1.0) == pytest.approx(0.5)
    assert entropy_similarity(1.0, 1.0) == 1.0
    assert entropy_similarity(0.0, 3.0) == 0.0
    assert entropy_similarity([0.0, 2.0], [0.0, 1.0]).tolist() == [1.0, 0.5]
    with pytest.raises(ValueError):
        entropy_similarity(-0.5, 1.0)


def test_distribution_validates_shape_and_mass():
    with pytest.raises(ValueError):  # sums to 2
        shannon_entropy([0.5, 0.5, 0.5, 0.5])
    with pytest.raises(ValueError):  # no cell axis
        shannon_entropy(1.0)
    with pytest.raises(ValueError):  # negative mass
        jensen_shannon_divergence([-0.1, 1.1, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):  # nan mass
        jensen_shannon_divergence([1.0, 0.0], [math.nan, 1.0])
    with pytest.raises(ValueError):  # the second row sums to 0.9
        jensen_shannon_divergence([[1.0, 0.0], [0.5, 0.4]], [[0.0, 1.0], [0.5, 0.5]])
