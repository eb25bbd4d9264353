import math

import numpy as np
import pytest
from scipy import special as sp

from teamcoord import special
from teamcoord.special import (
    f_sf,
    log_beta,
    normal_sf,
    regularized_incomplete_beta,
    student_t_two_sided,
)

from oracles import f_sf_quad, normal_sf_ref, t_sf_quad


def test_log_beta_matches_scipy():
    for a, b in [(0.5, 0.5), (1, 1), (2.5, 7), (30, 0.5), (100, 100)]:
        assert log_beta(a, b) == pytest.approx(sp.betaln(a, b), abs=1e-12)


def test_incomplete_beta_matches_scipy_grid():
    rng = np.random.default_rng(2)
    for _ in range(500):
        a = float(rng.uniform(0.1, 60))
        b = float(rng.uniform(0.1, 60))
        x = float(rng.uniform(0, 1))
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(
            float(sp.betainc(a, b, x)), abs=1e-13)


def test_incomplete_beta_edges_and_symmetry():
    assert regularized_incomplete_beta(2, 3, 0.0) == 0.0
    assert regularized_incomplete_beta(2, 3, 1.0) == 1.0
    for a, b, x in [(2, 5, 0.3), (0.5, 0.5, 0.7), (10, 1, 0.9)]:
        left = regularized_incomplete_beta(a, b, x)
        right = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
        assert left == pytest.approx(right, abs=1e-14)
    with pytest.raises(ValueError):
        regularized_incomplete_beta(0, 1, 0.5)


@pytest.mark.parametrize("df", [1, 2, 5, 17, 32, 200])
@pytest.mark.parametrize("t", [0.0, 0.31, 1.0, 2.04, 4.7, 9.3])
def test_t_tail_against_quadrature(t, df):
    assert student_t_two_sided(t, df) == pytest.approx(2 * t_sf_quad(abs(t), df), abs=1e-10)


def test_t_tail_negative_and_infinite_arguments():
    assert student_t_two_sided(math.inf, 7) == 0.0
    assert student_t_two_sided(0.0, 7) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("d1,d2", [(1, 5), (2, 31), (3, 30), (10, 3), (6, 60)])
@pytest.mark.parametrize("f", [0.05, 0.7, 1.0, 2.45, 5.01, 11.0])
def test_f_tail_against_quadrature(f, d1, d2):
    assert f_sf(f, d1, d2) == pytest.approx(f_sf_quad(f, d1, d2), abs=1e-10)


def test_f_tail_edges():
    assert f_sf(0.0, 3, 10) == 1.0
    assert f_sf(math.inf, 3, 10) == 0.0


def test_normal_sf_reference():
    for z in (-4.2, -1.0, 0.0, 0.5, 1.96, 6.0):
        assert normal_sf(z) == pytest.approx(normal_sf_ref(z), abs=1e-14)


def test_continued_fraction_steps_over_a_zero_denominator():
    assert special._nonzero(0.0) == special._nonzero(-1e-301) == special._FPMIN
    assert special._nonzero(-0.5) == -0.5
    # a = b = x = 1: the first denominator 1 - (a + b) x / (a + 1) is exactly 0
    assert special._betacf(1.0, 1.0, 1.0) == 1.0 / special._FPMIN


def test_continued_fraction_that_does_not_converge_raises(monkeypatch):
    monkeypatch.setattr(special, "_MAX_ITER", 1)
    with pytest.raises(ArithmeticError, match=r"^incomplete beta continued fraction did not "
                                              r"converge for a=2\.5, b=7\.0, x=0\.2$"):
        regularized_incomplete_beta(2.5, 7.0, 0.2)


@pytest.mark.parametrize("call", [lambda: student_t_two_sided(1.0, 0.0),
                                  lambda: f_sf(1.0, 0.0, 3.0), lambda: f_sf(1.0, 3.0, -1.0)],
                         ids=["t-df", "f-d1", "f-d2"])
def test_tails_refuse_degrees_of_freedom_that_are_not_positive(call):
    with pytest.raises(ValueError, match="^degrees of freedom must be positive$"):
        call()
