import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import mannwhitneyu

from teamcoord import stats
from teamcoord.stats import (
    DegenerateDataError,
    LengthMismatchError,
    PerformanceGroup,
    RankDeficiencyError,
    TooFewTeamsError,
    bootstrap_mediation,
    design_matrix,
    mann_whitney_u,
    mann_whitney_u_exact,
    ols,
    one_way_anova,
    pct_mediated,
    performance_groups,
    quadratic_fit,
    rankdata,
    spearman,
    vertex_of,
    _subset_sum_counts,
)

from oracles import (
    anova_f,
    average_ranks,
    bootstrap_indirect_loop,
    f_sf_quad,
    mann_whitney_exact_p,
    mann_whitney_normal_p,
    ols_normal_equations,
    spearman_rho,
    t_two_sided_quad,
    u_null_counts_distinct,
    u_statistic,
)


# --- ranks and Spearman -------------------------------------------------------

def test_rankdata_matches_definition():
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.integers(0, 6, size=rng.integers(2, 15)).astype(float)
        assert rankdata(x).tolist() == average_ranks(x.tolist())


def test_rankdata_tie_heavy_large_matches_definition():
    rng = np.random.default_rng(2)
    x = rng.integers(-20, 20, size=100_000).astype(float)
    x[x == 0] = -0.0  # compares equal to 0.0
    x[::7] = 0.0
    s = np.sort(x)
    smaller = np.searchsorted(s, x, side="left")
    equal = np.searchsorted(s, x, side="right") - smaller
    assert np.array_equal(rankdata(x), 1.0 + smaller + (equal - 1) / 2.0)


def test_spearman_monotone_is_one():
    x = np.array([0.3, 1.2, 2.0, 5.5, 9.1])
    assert spearman(x, np.exp(x)).rho == 1.0
    assert spearman(x, np.exp(x)).p_value == 0.0


def test_spearman_reversed_is_minus_one():
    x = np.array([4.0, 1.0, 3.0, 2.0])
    assert spearman(x, -x).rho == -1.0


def test_spearman_hand_case():
    r = spearman([1, 2, 3, 4], [2, 1, 4, 3])
    expected = spearman_rho([1, 2, 3, 4], [2, 1, 4, 3])
    assert expected == pytest.approx(0.6, abs=1e-12)
    assert r.rho == pytest.approx(expected, abs=1e-12)


def test_spearman_oracle_sweep():
    rng = np.random.default_rng(3)
    for _ in range(120):
        n = int(rng.integers(4, 20))
        x = rng.integers(0, 8, size=n).astype(float)
        y = rng.normal(size=n)
        if np.unique(x).size < 2:
            continue
        r = spearman(x, y)
        rho_ref = spearman_rho(x.tolist(), y.tolist())
        assert r.rho == pytest.approx(rho_ref, abs=1e-9)
        if abs(rho_ref) < 1.0:
            t = rho_ref * math.sqrt((n - 2) / (1 - rho_ref ** 2))
            assert r.p_value == pytest.approx(t_two_sided_quad(t, n - 2), abs=1e-6)


def test_spearman_rank_invariance_under_monotone_transform():
    rng = np.random.default_rng(5)
    for g in (np.exp, lambda v: v ** 3, lambda v: 10 * v + 3):
        x = rng.normal(size=15)
        y = rng.normal(size=15)
        assert spearman(x, g(y)).rho == pytest.approx(spearman(x, y).rho, abs=1e-12)


def test_spearman_degenerate_and_mismatch():
    with pytest.raises(DegenerateDataError):
        spearman([1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(LengthMismatchError):
        spearman([1, 2, 3], [1, 2])


def test_spearman_is_symmetric_to_the_bit():
    # the correlations report computes each unordered pair once and mirrors it
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(3, 60))
        x = rng.normal(size=n)
        tied = rng.integers(0, 5, size=n).astype(float)
        for a, b in ((x, rng.normal(size=n)), (x, tied), (tied, rng.integers(0, 3, size=n))):
            if np.ptp(a) == 0 or np.ptp(b) == 0:
                continue
            ab, ba = spearman(a, b), spearman(b, a)
            assert (ab.rho.hex(), ab.p_value.hex(), ab.n) == (ba.rho.hex(), ba.p_value.hex(), ba.n)
    constant = np.full(7, 2.5)
    for other in (np.arange(7.0), constant):
        messages = []
        for a, b in ((constant, other), (other, constant)):
            with pytest.raises(DegenerateDataError) as exc:
                spearman(a, b)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]


# --- OLS -----------------------------------------------------------------------

def test_ols_exact_line():
    x = np.arange(6.0)
    res = ols(2 * x, design_matrix(x))
    assert res.coefficients[1] == pytest.approx(2.0, abs=1e-12)
    assert res.coefficients[0] == pytest.approx(0.0, abs=1e-12)
    assert res.r_squared == 1.0


def test_ols_constant_response():
    x = np.arange(6.0)
    res = ols(np.full(6, 3.5), design_matrix(x))
    assert res.coefficients[1] == pytest.approx(0.0, abs=1e-12)
    assert res.r_squared == 0.0
    assert res.f_stat == 0.0


def test_ols_three_predictor_recovery():
    rng = np.random.default_rng(7)
    n = 40
    a, b, c = rng.normal(size=(3, n))
    y = 1.5 + 2.0 * a - 3.0 * b + 0.25 * c + rng.normal(scale=1e-8, size=n)
    X = design_matrix(a, b, c)
    res = ols(y, X)
    assert np.allclose(res.coefficients, [1.5, 2.0, -3.0, 0.25], atol=1e-6)
    beta_ref, r2_ref, f_ref, _ = ols_normal_equations(y, X)
    assert np.allclose(res.coefficients, beta_ref, atol=1e-9)
    assert res.r_squared == pytest.approx(r2_ref, abs=1e-9)


def test_ols_oracle_sweep_with_p_values():
    rng = np.random.default_rng(9)
    for _ in range(60):
        n = int(rng.integers(8, 25))
        k = int(rng.integers(1, 4))
        X = design_matrix(*[rng.normal(size=n) for _ in range(k)])
        y = rng.normal(size=n)
        res = ols(y, X)
        beta_ref, r2_ref, f_ref, resid_ref = ols_normal_equations(y, X)
        assert np.allclose(res.coefficients, beta_ref, atol=1e-9)
        assert res.r_squared == pytest.approx(r2_ref, abs=1e-9)
        assert res.f_stat == pytest.approx(f_ref, abs=1e-9 * max(1, abs(f_ref)))
        if 0 < res.f_stat < math.inf:
            assert res.f_p_value == pytest.approx(f_sf_quad(res.f_stat, k, n - k - 1), abs=1e-6)
        # residual orthogonality to every design column
        assert np.max(np.abs(X.T @ (y - X @ res.coefficients))) < 1e-8


def test_ols_refuses_a_design_that_is_not_a_matrix_or_not_as_long_as_y():
    with pytest.raises(ValueError, match="^design must be a 2-d matrix$"):
        ols([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(LengthMismatchError, match="^y has 3 rows, design has 4$"):
        ols([1.0, 2.0, 3.0], design_matrix([1.0, 2.0, 3.0, 4.0]))


@pytest.mark.parametrize("level, p", [(2.0, 0.0), (0.0, 1.0)])
def test_ols_exact_fit_has_zero_se_and_a_p_value_of_0_or_1(level, p):
    # an intercept-only fit of a constant leaves residuals of exactly 0, so
    # sigma2 = 0: a nonzero coefficient is certain, a zero one carries nothing
    y, X = np.full(4, level), np.ones((4, 1))
    res = ols(y, X)
    assert not (y - X @ res.coefficients).any()
    assert res.coefficients[0] == level
    assert res.coef_p_values[0] == p


def test_ols_rank_deficiency():
    x = np.arange(8.0)
    X = np.column_stack([np.ones(8), x, 2 * x])
    with pytest.raises(RankDeficiencyError):
        ols(np.arange(8.0), X)


def _near_collinear(scale):
    """A 20-row design whose second predictor is the first plus noise at `scale`,
    with a normal response, and that predictor's 1 - R^2 on the other columns."""
    rng = np.random.default_rng(1)
    sed = rng.normal(size=20)
    X = design_matrix(sed, sed + scale * rng.normal(size=20), rng.normal(size=20))
    others = X[:, [0, 1, 3]]
    resid = X[:, 2] - others @ np.linalg.lstsq(others, X[:, 2], rcond=None)[0]
    return X, rng.normal(size=20), (resid @ resid) / np.sum((X[:, 2] - X[:, 2].mean()) ** 2)


def test_ols_refuses_collinear_predictors_and_fits_just_outside_the_tolerance():
    for scale, low, high in ((1e-12, 0.0, 1e-20), (5e-7, 5e-13, 1e-12)):
        X, y, unexplained = _near_collinear(scale)
        assert low <= unexplained < high
        with pytest.raises(RankDeficiencyError) as exc:
            ols(y, X)
        assert str(exc.value) == ("design columns 1, 2 are collinear: 1 - R^2 of each on the "
                                  "other columns is at most 1e-12")
    X, y, unexplained = _near_collinear(6e-7)
    assert 1e-12 < unexplained < 2e-12
    res = ols(y, X)
    assert np.isfinite(res.coefficients).all() and (res.coef_p_values > 0).all()


# --- quadratic fits --------------------------------------------------------------

def test_vertex_arithmetic_reported_case():
    assert vertex_of(4660.33, -6693.82) == pytest.approx(0.348, abs=5e-4)


def test_quadratic_exact_parabola():
    x = np.linspace(-2, 2, 9)
    fit = quadratic_fit(x, x ** 2)
    assert fit.c2 == pytest.approx(1.0, abs=1e-10)
    assert fit.c1 == pytest.approx(0.0, abs=1e-10)
    assert fit.vertex_x == pytest.approx(0.0, abs=1e-9)
    assert not fit.inverted_u


def test_quadratic_recovers_known_vertex_under_noise():
    rng = np.random.default_rng(11)
    x = rng.uniform(0, 1, size=40)
    y = -((x - 0.5) ** 2) + rng.normal(scale=1e-6, size=40)
    fit = quadratic_fit(x, y)
    assert fit.vertex_x == pytest.approx(0.5, abs=1e-3)
    assert fit.inverted_u


def test_quadratic_vertex_invariant_under_y_scaling():
    rng = np.random.default_rng(13)
    x = rng.uniform(-1, 3, size=25)
    y = 2 + 3 * x - 1.7 * x ** 2 + rng.normal(scale=0.1, size=25)
    base = quadratic_fit(x, y).vertex_x
    for k in (0.1, 4.0, 250.0):
        assert quadratic_fit(x, k * y).vertex_x == pytest.approx(base, rel=1e-9)


def test_quadratic_flat_outcome_has_no_vertex():
    # least squares on a constant fits c2 = -5.7e-12 here, which read as an inverted U
    x = [0.41757316727768112, 0.4923438965729397, 0.50048349567271755, 0.47434543864153433]
    fit = quadratic_fit(x, [240.0] * 4)
    assert (fit.c0, fit.c1, fit.c2) == (240.0, 0.0, 0.0)
    assert math.isnan(fit.vertex_x)
    assert fit.flat and not fit.inverted_u
    assert (fit.r_squared, fit.f_stat, fit.f_p_value) == (0.0, 0.0, 1.0)


def test_quadratic_straight_line_has_no_vertex():
    # least squares fits c2 = -5.9e-16 to this line, which read as an inverted U
    # with its optimum at x = 2.5e15
    x = np.linspace(0.1, 0.9, 12)
    fit = quadratic_fit(x, 3 * x + 1)
    assert fit.c2 == 0.0
    assert fit.c1 == pytest.approx(3.0, rel=1e-12)
    assert math.isnan(fit.vertex_x)
    assert not fit.inverted_u and not fit.flat


@pytest.mark.parametrize("offset", [1e9, 1e10])
def test_quadratic_curvature_survives_a_large_offset(offset):
    # the spread of y, not its size, sets the rounding level of the curvature
    x = np.linspace(0, 1, 20)
    fit = quadratic_fit(x, offset - (x - 0.5) ** 2)
    assert fit.c2 == pytest.approx(-1.0, abs=1e-4)
    assert fit.vertex_x == pytest.approx(0.5, abs=1e-4)
    assert fit.inverted_u


def test_quadratic_requires_three_distinct_x():
    with pytest.raises(RankDeficiencyError):
        quadratic_fit([1.0, 1.0, 2.0, 2.0], [0.0, 1.0, 2.0, 3.0])


# --- mediation -----------------------------------------------------------------

def test_pct_mediated_reported_case():
    assert pct_mediated(540.64, 1135.67) == pytest.approx(47.6, abs=0.1)


def test_pct_mediated_sign_rules():
    assert pct_mediated(-5.0, 10.0) is None
    assert pct_mediated(5.0, 0.0) is None
    assert pct_mediated(-5.0, -10.0) == pytest.approx(50.0)


def test_mediation_paths_match_closed_form_oracle():
    rng = np.random.default_rng(17)
    n = 34
    x = rng.normal(size=n)
    m = x + rng.normal(scale=0.1, size=n)
    y = m + rng.normal(scale=0.1, size=n)
    res = bootstrap_mediation(x, m, y, resamples=200, seed=4)
    a_ref, *_ = ols_normal_equations(m, np.column_stack([np.ones(n), x]))
    full_ref, *_ = ols_normal_equations(y, np.column_stack([np.ones(n), x, m]))
    total_ref, *_ = ols_normal_equations(y, np.column_stack([np.ones(n), x]))
    assert res.a == pytest.approx(a_ref[1], abs=1e-10)
    assert res.c_prime == pytest.approx(full_ref[1], abs=1e-10)
    assert res.b == pytest.approx(full_ref[2], abs=1e-10)
    assert res.c_total == pytest.approx(total_ref[1], abs=1e-10)
    # a is tightly estimated; b is noisy because x and m are nearly collinear
    assert res.a == pytest.approx(1.0, abs=0.1)
    assert res.b == pytest.approx(1.0, abs=0.5)


def test_mediation_identity_total_equals_direct_plus_indirect():
    rng = np.random.default_rng(19)
    for _ in range(40):
        n = int(rng.integers(6, 40))
        x = rng.normal(scale=rng.uniform(0.5, 3), size=n)
        m = rng.normal(size=n) + rng.uniform(-2, 2) * x
        y = rng.normal(size=n) + rng.uniform(-2, 2) * m + rng.uniform(-2, 2) * x
        res = bootstrap_mediation(x, m, y, resamples=10, seed=1)
        assert res.c_total == pytest.approx(res.c_prime + res.a * res.b, abs=1e-8)


def test_mediation_bit_reproducible_for_fixed_seed():
    rng = np.random.default_rng(23)
    x, m, y = rng.normal(size=(3, 20))
    r1 = bootstrap_mediation(x, m, y, resamples=500, seed=99)
    r2 = bootstrap_mediation(x, m, y, resamples=500, seed=99)
    assert (r1.ci_low, r1.ci_high, r1.boot_indirect_mean) == (r2.ci_low, r2.ci_high, r2.boot_indirect_mean)
    r3 = bootstrap_mediation(x, m, y, resamples=500, seed=100)
    assert (r1.ci_low, r1.ci_high) != (r3.ci_low, r3.ci_high)


def test_mediation_null_effect_interval_contains_zero():
    rng = np.random.default_rng(29)
    x = rng.normal(size=40)
    m = rng.normal(size=40)
    y = rng.normal(size=40)
    res = bootstrap_mediation(x, m, y, resamples=2000, seed=0)
    assert res.ci_low <= 0.0 <= res.ci_high
    assert not res.significant


def test_mediation_strong_chain_interval_excludes_zero():
    rng = np.random.default_rng(31)
    n = 34
    x = rng.normal(size=n)
    m = x + rng.normal(scale=0.1, size=n)
    y = m + rng.normal(scale=0.1, size=n)
    res = bootstrap_mediation(x, m, y, resamples=5000, seed=7)
    assert res.ci_low > 0.0
    assert res.significant


def test_mediation_redraws_match_loop_oracle():
    # A resample misses the only x = 1 row about a third of the time and is redrawn.
    x, m, y = [0.0, 0, 0, 0, 1], [1.0, 2, 3, 4, 5], [0.5, -1.0, 2.0, 0.25, 1.5]
    res = bootstrap_mediation(x, m, y, resamples=2000, seed=3)
    assert (res.boot_indirect_mean, res.ci_low, res.ci_high) == \
        bootstrap_indirect_loop(x, m, y, 2000, 3)


def test_mediation_matches_loop_oracle_across_blocks(monkeypatch):
    monkeypatch.setattr(stats, "_BOOT_BLOCK_CELLS", 35)  # 7 resamples of 5 rows per block
    x, m, y = [0.0, 0, 0, 0, 1], [1.0, 2, 3, 4, 5], [0.5, -1.0, 2.0, 0.25, 1.5]
    res = bootstrap_mediation(x, m, y, resamples=50, seed=8)
    assert (res.boot_indirect_mean, res.ci_low, res.ci_high) == \
        bootstrap_indirect_loop(x, m, y, 50, 8)


def test_mediation_resample_stuck_degenerate_raises_like_loop_oracle():
    # m = 10118999 x + (-6, 4, 3, -6, -5) is so close to a line that 1 - r^2
    # is only 0.1% above the collinearity bound on the full sample; about 91%
    # of resamples fall below it, and resample 620 of seed 19 stays below it
    # through all 100 draws.
    x, m = [1.0, 2, 2, 2, 2], [10118994.0, 20238004, 20238003, 20237994, 20237995]
    y = [0.5, -1.0, 2.0, 0.25, 1.5]
    with pytest.raises(ValueError) as want:
        bootstrap_indirect_loop(x, m, y, 700, 19)
    with pytest.raises(DegenerateDataError) as got:
        bootstrap_mediation(x, m, y, resamples=700, seed=19)
    assert str(got.value) == str(want.value) == "resample 620 stayed degenerate after 100 draws"


def test_mediation_degenerate_input_raises():
    with pytest.raises(DegenerateDataError):
        bootstrap_mediation([1.0] * 8, list(range(8)), list(range(8)))
    x = list(range(8))
    with pytest.raises(DegenerateDataError):
        bootstrap_mediation(x, [2 * v for v in x], list(range(8)))


@pytest.mark.parametrize("value", [0.3, 0.5])
@pytest.mark.parametrize("constant", ["x", "m"])
def test_mediation_refuses_a_constant_x_or_m_whose_mean_is_inexact(constant, value):
    # the mean of twelve 0.3s is not 0.3 in binary, so centring leaves rounding
    # noise that read as a = -0.333 and c = -341.3 for x, and b = -136.7 for m;
    # twelve 0.5s centre to exact zeros
    rng = np.random.default_rng(71)
    cols = {"x": rng.random(12), "m": rng.random(12)}
    cols[constant] = np.full(12, value)
    y = 500 * rng.random(12)
    with pytest.raises(DegenerateDataError, match="^x is constant or x and m are collinear$"):
        bootstrap_mediation(cols["x"], cols["m"], y, resamples=200, seed=0)
    with pytest.raises(ValueError, match="^resample 0 stayed degenerate after 100 draws$"):
        bootstrap_indirect_loop(cols["x"], cols["m"], y, 1, 0)


def test_mediation_takes_a_one_ulp_spread_as_a_varying_x():
    # eleven 0.3s and the next float up vary, so the paths are computed; the
    # resamples that miss the odd value are constant and drawn again
    x = np.r_[np.full(11, 0.3), np.nextafter(0.3, 1.0)]
    m = np.arange(12.0)
    y = np.r_[np.zeros(11), 1.0]
    res = bootstrap_mediation(x, m, y, resamples=300, seed=2)
    assert math.isfinite(res.a) and res.a != 0.0
    assert boot_summary(res) == bootstrap_indirect_loop(x, m, y, 300, 2)


def test_mediation_redraws_resamples_whose_tied_x_is_constant(monkeypatch):
    # x is nine 0.3s and one 0.9: a resample that misses the 0.9 draws nine or
    # ten 0.3s, whose centred values are rounding noise; all such resamples,
    # and only those, are drawn again, as in the loop oracle
    n, resamples = 10, 2000
    rng = np.random.default_rng(73)
    x = np.r_[np.full(n - 1, 0.3), 0.9]
    m = x + rng.normal(0, 0.2, n)
    y = m + rng.normal(0, 0.2, n)
    redrawn = []
    redraw = stats._redrawn_indirect

    def counted(xv, mv, yv, seed, k):
        redrawn.append(k)
        return redraw(xv, mv, yv, seed, k)

    monkeypatch.setattr(stats, "_redrawn_indirect", counted)
    res = bootstrap_mediation(x, m, y, resamples=resamples, seed=5)
    idx = spawned_indices(5, 0, resamples, n)
    assert redrawn == [k for k in range(resamples) if n - 1 not in idx[k]]
    assert len(redrawn) > 600
    assert boot_summary(res) == bootstrap_indirect_loop(x, m, y, resamples, 5)


def test_mediation_exactly_collinear_input_raises_at_the_point_estimate():
    # m = 0.5 x - 0.7, but rounding leaves a determinant of -5.6e-17, not 0
    x, m, y = [1.0, 1.0, 1.0, 2.0, 2.0], [-0.2, -0.2, -0.2, 0.3, 0.3], [0.5, -1.0, 2.0, 0.25, 1.5]
    with pytest.raises(DegenerateDataError, match="x and m are collinear"):
        bootstrap_mediation(x, m, y, resamples=300, seed=0)


@pytest.mark.parametrize("resamples", [10**6 + 1, 2**63 - 1, 2**64])
def test_mediation_refuses_resamples_over_the_ceiling(resamples):
    x, m, y = [0.0, 0, 0, 0, 1], [1.0, 2, 3, 4, 5], [0.5, -1.0, 2.0, 0.25, 1.5]
    with pytest.raises(ValueError, match=f"^resamples must be at most 1000000, got {resamples}$"):
        bootstrap_mediation(x, m, y, resamples=resamples)


def test_mediation_refuses_a_y_of_another_length():
    x = [0.0, 0, 0, 0, 1]
    with pytest.raises(LengthMismatchError, match="^lengths differ: 5 vs 4$"):
        bootstrap_mediation(x, x, [1.0, 2, 3, 4], resamples=10)


def test_mediation_refuses_negative_seed():
    x, m, y = [0.0, 0, 0, 0, 1], [1.0, 2, 3, 4, 5], [0.5, -1.0, 2.0, 0.25, 1.5]
    with pytest.raises(ValueError, match="^seed must be non-negative$"):
        bootstrap_mediation(x, m, y, resamples=10, seed=-1)


def test_mediation_names_the_argument_that_is_not_one_dimensional():
    v = [1.0, 2, 3, 4, 5]
    with pytest.raises(ValueError, match="^m must be one-dimensional$"):
        bootstrap_mediation(v, [v], v)
    with pytest.raises(ValueError, match="^y must be one-dimensional$"):
        bootstrap_mediation(v, v, [v])
    with pytest.raises(ValueError, match="^y must be one-dimensional$"):
        spearman(v, [v])
    with pytest.raises(ValueError, match="^y must be one-dimensional$"):
        quadratic_fit(v, [v])


# --- bulk resample indices ---------------------------------------------------------

def spawned_indices(seed, start, count, n, rows=None):
    """Rows start .. start + count - 1, or those at the offsets `rows` among
    them, drawn from the spawned Philox streams one at a time."""
    children = np.random.SeedSequence(seed).spawn(start + count)[start:]
    return np.stack([np.random.Generator(np.random.Philox(children[r])).integers(0, n, size=n)
                     for r in (range(count) if rows is None else rows)])


# n = 1 draws nothing, odd n leaves half a uint64 over, 8 and 16 fill whole
# 4-word Philox blocks and 9 and 17 start a new one; 2**32 - 1 is the largest
# seed of one uint32 word, and start = 6553 begins a second draw chunk at n = 40.
# 6553 rows are a whole draw chunk at n = 40 (2**18 cells // 40), the size of the
# Philox arrays the bootstrap runs on; of that draw the first, the last and every
# 97th row are checked, which keeps the test short.
@pytest.mark.parametrize("seed,start,count,n", [
    (0, 0, 5000, 40), (19, 0, 3000, 5), (7, 0, 2000, 123), (12345, 0, 1000, 2),
    (41, 0, 500, 7), (3, 0, 200, 9), (5, 0, 300, 1), (6, 0, 300, 8), (8, 0, 300, 16),
    (9, 0, 300, 17), (2**32 - 1, 0, 300, 40), (1, 6553, 300, 40), (77, 123456, 50, 33),
    (23, 1000, 6553, 40),
])
def test_resample_indices_match_spawned_streams(seed, start, count, n):
    idx, fallback = stats._resample_indices(seed, start, count, n)
    assert idx.dtype == np.int64 and idx.shape == (count, n)
    rows = sorted({*range(0, count, 97), count - 1}) if count > 5000 else None
    assert np.array_equal(idx if rows is None else idx[rows],
                          spawned_indices(seed, start, count, n, rows))
    assert not fallback.any()


@pytest.mark.parametrize("key", [(0, 0), (2**64 - 1, 2**64 - 1),
                                 (0x8F3A61C2D4B7E905, 0x1C6E2A9F7B3D4058)])
# round 1 runs on a (blocks, 1) array, round 2's M0 product on a (1, keys) one
@pytest.mark.parametrize("blocks", [1, 2, 3, 5, 16])
def test_philox_words_match_numpy_philox(key, blocks):
    # rows keyed (k0, k1) and (k1, k0); numpy takes the key as a uint64 array,
    # since a list of Python ints above 2**53 loses bits on the way in
    k0s = np.array(key, dtype=np.uint64)
    words = stats._philox_words(k0s, k0s[::-1], blocks)
    assert words.dtype == np.uint64 and words.shape == (2, 4 * blocks)
    for row, pair in zip(words, np.stack([k0s, k0s[::-1]], axis=1)):
        assert np.array_equal(row, np.random.Philox(key=pair).random_raw(4 * blocks))


def test_resample_indices_seeds_of_two_to_four_words_match_spawned_streams():
    # the seed's little-endian uint32 words fill the four entropy pool words
    for seed in (2**32, 2**64 + 7, 2**128 - 1):
        idx, fallback = stats._resample_indices(seed, 0, 40, 40)
        assert np.array_equal(idx, spawned_indices(seed, 0, 40, 40))
        assert not fallback.any()


def test_resample_indices_seed_of_five_words_takes_every_row_from_its_stream():
    idx, fallback = stats._resample_indices(2**128, 0, 40, 40)
    assert fallback.all()
    assert np.array_equal(idx, spawned_indices(2**128, 0, 40, 40))


def test_resample_indices_redraw_rows_where_lemire_rejects(monkeypatch):
    # At n = 30000 a draw is rejected with probability about 4e-6, so some of
    # these rows hold a rejection: the bulk draws alone get them wrong.
    want = spawned_indices(11, 0, 12, 30000)
    idx, fallback = stats._resample_indices(11, 0, 12, 30000)
    assert np.array_equal(idx, want)
    assert 0 < fallback.sum() < 12
    monkeypatch.setattr(stats, "_may_reject", lambda low, n: np.zeros(len(low), dtype=bool))
    bulk, _ = stats._resample_indices(11, 0, 12, 30000)
    wrong = (bulk != want).any(axis=1)
    assert wrong.any() and not (wrong & ~fallback).any()


def test_mediation_matches_loop_oracle_with_every_row_from_its_stream(monkeypatch):
    monkeypatch.setattr(stats, "_may_reject", lambda low, n: np.ones(len(low), dtype=bool))
    monkeypatch.setattr(stats, "_BOOT_BLOCK_CELLS", 35)
    x, m, y = [0.0, 0, 0, 0, 1], [1.0, 2, 3, 4, 5], [0.5, -1.0, 2.0, 0.25, 1.5]
    res = bootstrap_mediation(x, m, y, resamples=300, seed=5)
    assert (res.boot_indirect_mean, res.ci_low, res.ci_high) == \
        bootstrap_indirect_loop(x, m, y, 300, 5)


def test_mediation_with_a_seed_of_two_words_matches_loop_oracle():
    x, m, y = [0.0, 0, 0, 0, 1], [1.0, 2, 3, 4, 5], [0.5, -1.0, 2.0, 0.25, 1.5]
    res = bootstrap_mediation(x, m, y, resamples=300, seed=2**32 + 5)
    assert (res.boot_indirect_mean, res.ci_low, res.ci_high) == \
        bootstrap_indirect_loop(x, m, y, 300, 2**32 + 5)


# --- one bootstrap for several predictors -------------------------------------------

def boot_summary(res):
    return res.boot_indirect_mean, res.ci_low, res.ci_high


@pytest.mark.parametrize("seed", [0, 2**32, 2**128])
def test_mediations_match_loop_oracle_when_one_predictor_is_redrawn(monkeypatch, seed):
    # x0 is 1 in one row of twelve, so about 35% of its resamples miss that row
    # and are redrawn; x1 and x2 vary in every row and are never degenerate.
    rng = np.random.default_rng(53)
    n = 12
    xs = [np.r_[np.zeros(n - 1), 1.0], rng.normal(size=n), rng.normal(size=n)]
    m = xs[1] + rng.normal(size=n)
    y = m + rng.normal(size=n)
    redrawn = []
    redraw = stats._redrawn_indirect

    def counted(xv, *args):
        redrawn.append(xv)
        return redraw(xv, *args)

    monkeypatch.setattr(stats, "_redrawn_indirect", counted)
    results = bootstrap_mediation(xs, m, y, resamples=300, seed=seed)
    assert len(redrawn) > 50 and all(np.array_equal(xv, xs[0]) for xv in redrawn)
    for x, res in zip(xs, results):
        assert boot_summary(res) == bootstrap_indirect_loop(x, m, y, 300, seed)
        assert res == bootstrap_mediation(x, m, y, resamples=300, seed=seed)


def test_mediations_match_loop_oracle_across_blocks(monkeypatch):
    # At n = 40 a draw chunk holds 6553 resamples (2**18 cells), so 6600 take two
    # draws, each shared by the three predictors and mediated in slices of at most
    # 1638 resamples (2**16 cells). One draw per chunk pays the fixed cost of
    # hashing keys and running the Philox rounds once.
    rng = np.random.default_rng(59)
    n = 40
    xs = list(rng.uniform(0.2, 0.9, size=(3, n)))
    m = 0.5 * xs[1] + rng.normal(0, 0.08, n)
    y = 200 * m + rng.normal(0, 25, n)
    blocks = []
    draw = stats._resample_indices

    def counted(seed, start, count, n):
        blocks.append((start, count))
        return draw(seed, start, count, n)

    monkeypatch.setattr(stats, "_resample_indices", counted)
    results = bootstrap_mediation(xs, m, y, resamples=6600, seed=0)
    assert blocks == [(0, 6553), (6553, 47)]
    for x, res in zip(xs, results):
        assert boot_summary(res) == bootstrap_indirect_loop(x, m, y, 6600, 0)


@pytest.mark.parametrize("n, resamples, draws", [
    (400, 1400, [(0, 655), (655, 655), (1310, 90)]),
    (2000, 300, [(0, 131), (131, 131), (262, 38)]),
])
def test_mediations_draw_within_the_chunk_and_mediate_within_the_slice(monkeypatch, n,
                                                                          resamples, draws):
    # Every draw holds at most _BOOT_DRAW_CELLS cells and every mediated slice at
    # most _BOOT_BLOCK_CELLS (the three point estimates are slices of one row);
    # the results are those of the one-resample-at-a-time loop.
    rng = np.random.default_rng(n)
    xs = list(rng.normal(size=(3, n)))
    m = xs[0] + rng.normal(size=n)
    y = m + rng.normal(size=n)
    drawn, mediated = [], []
    draw, mediate = stats._resample_indices, stats._mediation_paths

    def counted_draw(seed, start, count, n):
        drawn.append((start, count))
        return draw(seed, start, count, n)

    def counted_mediation(xc, *args):
        mediated.append(xc.shape)
        return mediate(xc, *args)

    monkeypatch.setattr(stats, "_resample_indices", counted_draw)
    monkeypatch.setattr(stats, "_mediation_paths", counted_mediation)
    results = bootstrap_mediation(xs, m, y, resamples=resamples, seed=7)
    assert drawn == draws
    assert all(count * n <= stats._BOOT_DRAW_CELLS for _, count in drawn)
    assert all(rows * cols <= stats._BOOT_BLOCK_CELLS and cols == n for rows, cols in mediated)
    assert sum(rows for rows, _ in mediated) == 3 * (resamples + 1)
    for x, res in zip(xs, results):
        assert boot_summary(res) == bootstrap_indirect_loop(x, m, y, resamples, 7)


def test_mediations_fail_in_a_later_slice_of_one_chunk_as_in_blocks_drawn_one_by_one(monkeypatch):
    # Slices of 100 resamples at n = 12; all 300 resamples are one draw chunk. x0
    # and x1 are 1 in one row each, so a resample that misses that row is
    # degenerate and redrawn. x1's redraws fail from resample 20 on, in the first
    # slice; x0's from 150 on, in the second. Slice by slice, as when each block
    # of 100 was drawn on its own, x0 and then x1 redraw in the first slice, and
    # x0 alone in the second until it fails: its error is raised, as the first
    # predictor's in row order.
    monkeypatch.setattr(stats, "_BOOT_BLOCK_CELLS", 1200)
    n, rng = 12, np.random.default_rng(67)
    xs = [np.r_[np.zeros(n - 1), 1.0], np.r_[1.0, np.zeros(n - 1)], rng.normal(size=n)]
    m = xs[2] + rng.normal(size=n)
    y = m + rng.normal(size=n)
    fails_from = {0: 150, 1: 20}
    drawn, redrawn = [], []
    draw, redraw = stats._resample_indices, stats._redrawn_indirect

    def counted_draw(seed, start, count, n):
        drawn.append((start, count))
        return draw(seed, start, count, n)

    def failing_redraw(xv, mv, yv, seed, k):
        i = next(i for i, x in enumerate(xs) if np.array_equal(x, xv))
        redrawn.append((i, k))
        if k >= fails_from[i]:
            raise DegenerateDataError(f"x{i} fails at {k}")
        return redraw(xv, mv, yv, seed, k)

    monkeypatch.setattr(stats, "_resample_indices", counted_draw)
    monkeypatch.setattr(stats, "_redrawn_indirect", failing_redraw)
    idx = spawned_indices(0, 0, 300, n)
    missed = [[k for k in range(300) if one not in idx[k]] for one in (n - 1, 0)]
    k0 = next(k for k in missed[0] if k >= 150)
    k1 = next(k for k in missed[1] if k >= 20)
    assert k0 < 200 and k1 < 100
    with pytest.raises(DegenerateDataError, match=f"^x0 fails at {k0}$"):
        bootstrap_mediation(xs, m, y, resamples=300, seed=0)
    assert drawn == [(0, 300)]
    assert redrawn == ([(0, k) for k in missed[0] if k < 100]
                       + [(1, k) for k in missed[1] if k <= k1]
                       + [(0, k) for k in missed[0] if 100 <= k <= k0])


def test_mediation_of_a_two_dimensional_x_gives_one_result_per_row():
    rng = np.random.default_rng(61)
    xs = rng.normal(size=(2, 20))
    m = xs[0] + rng.normal(size=20)
    y = m + rng.normal(size=20)
    single = [bootstrap_mediation(x, m, y, resamples=200, seed=3) for x in xs]
    assert all(isinstance(res, stats.MediationResult) for res in single)
    assert bootstrap_mediation(xs, m, y, resamples=200, seed=3) == single
    assert bootstrap_mediation(xs.tolist(), m, y, resamples=200, seed=3) == single
    with pytest.raises(ValueError, match="^x must be one-dimensional$"):
        bootstrap_mediation(xs[None], m, y)


def test_mediations_raise_the_error_of_the_first_failing_predictor():
    # x_stuck's resample 620 stays degenerate for seed 19 (see the test above)
    x_stuck, m = [1.0, 2, 2, 2, 2], [10118994.0, 20238004, 20238003, 20237994, 20237995]
    y = [0.5, -1.0, 2.0, 0.25, 1.5]
    x_good, x_const = [0.5, 3.0, -1.0, 2.0, 0.0], [1.0] * 5
    assert len(bootstrap_mediation([x_good], m, y, resamples=700, seed=19)) == 1
    with pytest.raises(DegenerateDataError, match="^resample 620 stayed degenerate after 100 draws$"):
        bootstrap_mediation([x_good, x_stuck, x_const], m, y, resamples=700, seed=19)
    with pytest.raises(DegenerateDataError, match="^x is constant or x and m are collinear$"):
        bootstrap_mediation([x_good, x_const, x_stuck], m, y, resamples=700, seed=19)


# --- Mann-Whitney -----------------------------------------------------------------

def test_u_complete_separation():
    r = mann_whitney_u([1.0, 2.0], [3.0, 4.0, 5.0])
    assert r.u == 0.0


def test_u_identical_multisets():
    a = [1.0, 2.0, 2.0, 5.0]
    r = mann_whitney_u(a, a)
    assert r.u == len(a) * len(a) / 2.0
    assert r.p_value == pytest.approx(1.0, abs=1e-9)


def test_u_exact_enumeration_small_case():
    r = mann_whitney_u_exact([1.0, 2.0], [3.0, 4.0, 5.0], alternative="less")
    assert r.u == 0.0
    assert r.p_value == pytest.approx(1 / 10, abs=1e-12)
    assert mann_whitney_exact_p([1.0, 2.0], [3.0, 4.0, 5.0], "less") == pytest.approx(1 / 10)


def test_u_exact_matches_bruteforce_oracle():
    rng = np.random.default_rng(37)
    sizes = [(int(rng.integers(1, 9)), int(rng.integers(1, 9))) for _ in range(20)] + [(8, 8)]
    for n1, n2 in sizes:
        a = rng.integers(0, 4, size=n1).astype(float).tolist()
        b = rng.integers(0, 4, size=n2).astype(float).tolist()
        for alt in ("less", "greater", "two-sided"):
            got = mann_whitney_u_exact(a, b, alternative=alt)
            assert got.p_value == mann_whitney_exact_p(a, b, alt)
            assert got.u == min(u_statistic(a, b), u_statistic(b, a))


@pytest.mark.parametrize("n1, n2", [(12, 15), (25, 30), (30, 25)])
def test_u_exact_above_ten_per_side_matches_scipy(n1, n2):
    rng = np.random.default_rng(n1 * n2)
    pooled = rng.permutation(n1 + n2) + rng.normal(scale=0.1, size=n1 + n2)
    a, b = pooled[:n1] + 3.0, pooled[n1:]
    for alt in ("less", "greater", "two-sided"):
        got = mann_whitney_u_exact(a, b, alternative=alt)
        want = mannwhitneyu(a, b, alternative=alt, method="exact")
        assert got.p_value == pytest.approx(want.pvalue, rel=1e-9)
        assert got.u == min(want.statistic, n1 * n2 - want.statistic)


def _digits(counts: int, slot: int) -> list[int]:
    """The base-2**slot digits of packed subset counts, lowest sum first."""
    mask = (1 << slot) - 1
    return [(counts >> t * slot) & mask for t in range(counts.bit_length() // slot + 1)]


def test_u_exact_null_counts_sum_to_binomial():
    rng = np.random.default_rng(47)
    for _ in range(20):
        scores = rng.integers(0, 12, size=int(rng.integers(1, 11))).tolist()
        k = int(rng.integers(0, len(scores) + 1))
        counts, slot = _subset_sum_counts(scores, k)
        brute = [0] * (sum(scores) + 1)
        for combo in itertools.combinations(scores, k):
            brute[sum(combo)] += 1
        digits = _digits(counts, slot)
        assert digits + [0] * (len(brute) - len(digits)) == brute
    # Equal scores put all C(12, j) j-subsets on one digit, up to 924 at j = 6 on the way to 66.
    assert _digits(*_subset_sum_counts([3] * 12, 10)) == [0] * 30 + [66]
    # Doubled mid-rank scores of 90 distinct values; C(90, 30) > 2**63.
    counts, slot = _subset_sum_counts(list(range(0, 180, 2)), 30)
    assert sum(_digits(counts, slot)) == counts % ((1 << slot) - 1) == math.comb(90, 30)


@pytest.mark.parametrize("n1, n2", [(33, 33), (33, 34), (34, 33), (45, 45), (60, 60)])
def test_u_exact_distinct_counts_match_the_recursion(n1, n2):
    # C(66, 33) < 2**63 < C(67, 33), so 33 vs 33 to 34 vs 33 cross what int64 holds; 60 vs 60 is
    # near the size limit
    pooled = np.random.default_rng(n1 * n2).permutation(n1 + n2).astype(float)
    a, b = pooled[:n1], pooled[n1:]
    k, n_total = min(n1, n2), math.comb(n1 + n2, n1)
    scores = list(range(0, 2 * (n1 + n2), 2))  # doubled mid-ranks of distinct values
    counts, slot = _subset_sum_counts(scores, k)
    digits = _digits(counts, slot)
    assert sum(digits) == n_total
    want = u_null_counts_distinct(k, n1 + n2 - k)  # by U, at every other subset sum
    assert digits[k * (k - 1)::2] == want
    if k < n1:
        want = want[::-1]  # the null of the larger first group
    u_obs = int(u_statistic(a, b))
    p_less, p_greater = sum(want[:u_obs + 1]) / n_total, sum(want[u_obs:]) / n_total
    for alt, p in (("less", p_less), ("greater", p_greater),
                   ("two-sided", min(1.0, 2.0 * min(p_less, p_greater)))):
        assert mann_whitney_u_exact(a, b, alternative=alt).p_value == p


# (n1, n2, n_le, n_ge) of seeded tied samples: the subsets whose first-group sum of doubled
# mid-ranks is at most and at least the observed one. Computed once at commit 9d01452, from
# the numpy object table of Python ints that the exact test built beyond 66 pooled values.
_TIED_TAILS = [
    (45, 45, 64582552937139807879768, 103763792747785801507650926),
    (60, 60, 646066896941974187996108914476531, 95973677410166246456091150337976043),
    (61, 59, 502428437140258450350834002188322, 94532496559405649500571035934484660),
]


@pytest.mark.parametrize("n1, n2, n_le, n_ge", _TIED_TAILS,
                         ids=[f"{n1}-{n2}" for n1, n2, _, _ in _TIED_TAILS])
def test_u_exact_tied_tails_match_the_pinned_counts(n1, n2, n_le, n_ge):
    rng = np.random.default_rng(n1 * 1000 + n2)
    a = rng.integers(0, 15, size=n1).astype(float)
    b = rng.integers(2, 17, size=n2).astype(float)
    w = (2 * rankdata(np.concatenate([a, b])) - 2).astype(int).tolist()
    k = min(n1, n2)
    counts, slot = _subset_sum_counts(w, k)
    null = _digits(counts, slot)
    null += [0] * (sum(w) + 1 - len(null))
    if k < n1:
        null = null[::-1]  # a second-group subset leaves the first group the rest of the sum
    w_obs = sum(w[:n1])
    assert (sum(null[:w_obs + 1]), sum(null[w_obs:])) == (n_le, n_ge)
    n_total = math.comb(n1 + n2, n1)
    p_less, p_greater = n_le / n_total, n_ge / n_total
    for alt, p in (("less", p_less), ("greater", p_greater),
                   ("two-sided", min(1.0, 2.0 * min(p_less, p_greater)))):
        assert mann_whitney_u_exact(a, b, alternative=alt).p_value == p


def test_u_exact_rejects_nan_and_oversized_tables():
    with pytest.raises(ValueError, match="nan"):
        mann_whitney_u_exact([1.0, math.nan], [2.0, 3.0])
    with pytest.raises(ValueError, match="use mann_whitney_u"):
        mann_whitney_u_exact(np.arange(100.0), np.arange(100.0) + 0.5)


def test_u_exact_refuses_an_oversized_table_before_allocating_much():
    # the scores once came from two n x n comparison matrices, 68.8 MB at 3000 vs 3000
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="use mann_whitney_u"):
            mann_whitney_u_exact(np.arange(3000.0), np.arange(3000.0) + 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("call, name", [
    (lambda: spearman([1.0, math.nan, 3.0, 4.0], [2.0, 4.0, 1.0, 5.0]), "spearman"),
    (lambda: spearman([1.0, 2.0, 3.0, 4.0], [2.0, 4.0, math.nan, 5.0]), "spearman"),
    (lambda: mann_whitney_u([1.0, math.nan, 3.0], [2.0, 4.0, math.nan]), "mann_whitney_u"),
    (lambda: mann_whitney_u([1.0, 2.0, 3.0], [2.0, 4.0, math.nan]), "mann_whitney_u"),
    (lambda: mann_whitney_u_exact([1.0, math.nan], [2.0, 3.0]), "mann_whitney_u_exact"),
])
def test_rank_statistics_reject_nan_naming_the_function(call, name):
    # before, rankdata ranked each nan on top: rho = 0.6, and U = 3 with p = 0.658
    with pytest.raises(ValueError, match=f"^{name}: samples must not contain nan$"):
        call()


def test_u_normal_approximation_matches_oracle():
    rng = np.random.default_rng(41)
    for _ in range(60):
        n1, n2 = int(rng.integers(3, 25)), int(rng.integers(3, 25))
        a = rng.integers(0, 10, size=n1).astype(float).tolist()
        b = rng.integers(0, 10, size=n2).astype(float).tolist()
        got = mann_whitney_u(a, b)
        assert got.u == pytest.approx(min(u_statistic(a, b), u_statistic(b, a)), abs=1e-9)
        assert got.p_value == pytest.approx(mann_whitney_normal_p(a, b), abs=1e-9)


def test_u_empty_sample_rejected():
    with pytest.raises(ValueError):
        mann_whitney_u([], [1.0])


def test_u_of_all_tied_values_has_p_1():
    # the tie correction leaves no variance: no evidence either way
    assert mann_whitney_u([2.0, 2.0], [2.0, 2.0, 2.0]) == stats.MannWhitneyResult(u=3.0, p_value=1.0)


def test_u_exact_refuses_an_empty_sample_and_an_unknown_alternative():
    for a, b in (([], [1.0]), ([1.0], [])):
        with pytest.raises(ValueError, match="^both samples must be non-empty$"):
            mann_whitney_u_exact(a, b)
    with pytest.raises(ValueError, match="^unknown alternative 'two_sided'$"):
        mann_whitney_u_exact([1.0], [2.0], alternative="two_sided")


# --- ANOVA -----------------------------------------------------------------------

@pytest.mark.parametrize("groups", [[], [[1.0, 2.0, 3.0]]])
def test_anova_needs_two_groups(groups):
    with pytest.raises(ValueError, match="^need at least 2 groups$"):
        one_way_anova(groups)


def test_anova_equal_means_gives_zero_f():
    r = one_way_anova([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    assert r.f == 0.0
    assert r.p_value == 1.0


def test_anova_two_groups_equals_squared_t():
    rng = np.random.default_rng(43)
    a = rng.normal(size=12)
    b = rng.normal(loc=0.8, size=9)
    r = one_way_anova([a, b])
    # pooled two-sample t computed from definitions
    na, nb = len(a), len(b)
    sp2 = (((a - a.mean()) ** 2).sum() + ((b - b.mean()) ** 2).sum()) / (na + nb - 2)
    t = (a.mean() - b.mean()) / math.sqrt(sp2 * (1 / na + 1 / nb))
    assert r.f == pytest.approx(t * t, rel=1e-10)


def test_anova_staircase_groups():
    groups = [[1.0, 2.0, 3.0], [2.0, 3.0, 4.0], [3.0, 4.0, 5.0]]
    expected = anova_f(groups)
    assert expected == pytest.approx(3.0, abs=1e-12)  # SS_b = 6 (df 2), SS_w = 6 (df 6)
    r = one_way_anova(groups)
    assert r.f == pytest.approx(expected, abs=1e-12)
    assert r.p_value == pytest.approx(f_sf_quad(expected, 2, 6), abs=1e-10)


def test_anova_oracle_sweep():
    rng = np.random.default_rng(47)
    for _ in range(60):
        k = int(rng.integers(2, 5))
        groups = [rng.normal(loc=rng.uniform(-1, 1), size=rng.integers(3, 9)).tolist()
                  for _ in range(k)]
        r = one_way_anova(groups)
        f_ref = anova_f(groups)
        assert r.f == pytest.approx(f_ref, abs=1e-9 * max(1, f_ref))
        n_total = sum(len(g) for g in groups)
        assert r.p_value == pytest.approx(f_sf_quad(f_ref, k - 1, n_total - k), abs=1e-6)


def test_anova_degenerate_within_variance_flagged():
    r = one_way_anova([[1.0, 1.0], [2.0, 2.0]])
    assert r.f == math.inf
    assert r.p_value == 0.0
    same = one_way_anova([[1.0, 1.0], [1.0, 1.0]])
    assert (same.f, same.p_value) == (0.0, 1.0)


@pytest.mark.parametrize("groups, f, p", [
    ([[0.3] * 6, [0.3] * 6], 0.0, 1.0),
    ([[0.3] * 6, [0.3] * 5, [0.3] * 3], 0.0, 1.0),
    ([[0.1] * 7, [0.1] * 5], 0.0, 1.0),
    ([[0.1] * 7, [0.2] * 5], math.inf, 0.0),
], ids=["two-equal", "three-equal", "unequal-sizes", "two-values"])
def test_anova_constant_groups_are_told_exactly(groups, f, p):
    # the groups' means round apart, so their sums of squares are rounding
    # noise, not 0: only a value-by-value test tells constant groups
    r = one_way_anova(groups)
    assert (r.f, r.p_value) == (f, p)


# --- grouping -----------------------------------------------------------------------

def members(groups, group):
    return sorted(k for k, g in groups.items() if g is group)


def test_groups_eight_teams_split_2_4_2():
    scores = {f"t{i}": float(i * 10) for i in range(8)}
    g = performance_groups(scores)
    assert members(g, PerformanceGroup.BOTTOM25) == ["t0", "t1"]
    assert members(g, PerformanceGroup.TOP25) == ["t6", "t7"]
    assert len(members(g, PerformanceGroup.MIDDLE50)) == 4


def test_groups_tie_break_by_session_id():
    scores = {sid: 100.0 for sid in ["a", "b", "c", "d"]}
    g = performance_groups(scores)
    assert g["a"] is PerformanceGroup.BOTTOM25
    assert g["d"] is PerformanceGroup.TOP25
    assert performance_groups(dict(reversed(list(scores.items())))) == g
    assert list(g) == ["a", "b", "c", "d"]  # keys in (score, id) order


def test_groups_34_teams_split_9_16_9():
    scores = {f"team{i:02d}": float(i) for i in range(34)}
    g = performance_groups(scores)
    assert len(members(g, PerformanceGroup.BOTTOM25)) == 9
    assert len(members(g, PerformanceGroup.MIDDLE50)) == 16
    assert len(members(g, PerformanceGroup.TOP25)) == 9


def test_groups_invariant_under_positive_affine_transform():
    rng = np.random.default_rng(53)
    scores = {f"s{i}": float(rng.integers(0, 500)) for i in range(15)}
    base = performance_groups(scores)
    for k, c in ((2.0, 5.0), (0.3, -10.0)):
        scaled = {i: k * v + c for i, v in scores.items()}
        assert performance_groups(scaled) == base


def test_groups_too_few_teams():
    with pytest.raises(TooFewTeamsError):
        performance_groups({"a": 1.0, "b": 2.0, "c": 3.0})
