"""Statistical engine: rank correlation, OLS and quadratic regression,
bootstrapped mediation, two-sample and k-sample tests, quartile grouping.

Everything is implemented directly on numpy; tail probabilities come from
the incomplete-beta routines in `special`. Ties always receive average
ranks. The bootstrap uses numpy's splittable SeedSequence/Philox streams:
resample k draws from the k-th child stream of the seed, so results are
identical no matter how the loop is scheduled. Those streams are computed
in bulk, for all resamples of a draw chunk at once: numpy's SeedSequence
mixing, Philox4x64-10 (Salmon et al. 2011) and Lemire's bounded draws
(Lemire 2019) are redone on uint64 arrays, and a row where Lemire's method
may reject a draw is drawn from numpy's own generator instead.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import TeamCoordError, ValueEnum
from .special import f_sf, normal_sf, student_t_two_sided


class LengthMismatchError(TeamCoordError):
    """Paired vectors differ in length."""


class DegenerateDataError(TeamCoordError):
    """Statistic undefined because the data carries no variation."""


class RankDeficiencyError(TeamCoordError):
    """Design matrix is rank deficient."""


class TooFewTeamsError(TeamCoordError):
    """Quartile grouping needs at least four teams."""


def _vector(x, name: str = "x") -> np.ndarray:
    out = np.asarray(x, dtype=float)
    if out.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return out


def _reject_nan(function: str, *samples: np.ndarray) -> None:
    # rankdata gives each nan its own top rank, which would pass for data
    if any(np.isnan(v).any() for v in samples):
        raise ValueError(f"{function}: samples must not contain nan")


def _paired(x, y, name: str = "y") -> tuple[np.ndarray, np.ndarray]:
    xv, yv = _vector(x), _vector(y, name)
    if xv.size != yv.size:
        raise LengthMismatchError(f"lengths differ: {xv.size} vs {yv.size}")
    return xv, yv


def rankdata(x) -> np.ndarray:
    """Ranks starting at 1; ties share the mean of their ordinal ranks."""
    xv = _vector(x)
    order = np.argsort(xv, kind="mergesort")
    sx = xv[order]
    # Runs of equal values in sorted order; a nan equals nothing, so each is its own run.
    first = np.flatnonzero(np.concatenate(([True], sx[1:] != sx[:-1])))
    counts = np.diff(np.append(first, xv.size))
    ranks = np.empty(xv.size, dtype=float)
    ranks[order] = np.repeat(0.5 * (2 * first + counts - 1) + 1.0, counts)
    return ranks


# ---------------------------------------------------------------------------
# Spearman correlation


@dataclass(frozen=True)
class SpearmanResult:
    rho: float
    p_value: float
    n: int


def spearman(x, y) -> SpearmanResult:
    """Spearman rho with the two-sided t-approximation p-value."""
    xv, yv = _paired(x, y)
    n = xv.size
    if n < 3:
        raise ValueError(f"need at least 3 observations, got {n}")
    _reject_nan("spearman", xv, yv)
    rx, ry = rankdata(xv), rankdata(yv)
    dx, dy = rx - rx.mean(), ry - ry.mean()
    vx, vy = float(dx @ dx), float(dy @ dy)
    if vx == 0.0 or vy == 0.0:
        raise DegenerateDataError("rho undefined: a variable has zero rank variance")
    rho = float(dx @ dy) / math.sqrt(vx * vy)
    rho = max(-1.0, min(1.0, rho))
    if abs(rho) == 1.0:
        p = 0.0
    else:
        t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
        p = student_t_two_sided(t, n - 2)
    return SpearmanResult(rho=rho, p_value=p, n=n)


# ---------------------------------------------------------------------------
# Ordinary least squares


@dataclass(frozen=True, eq=False)
class OlsResult:
    coefficients: np.ndarray
    r_squared: float
    f_stat: float
    f_p_value: float
    coef_p_values: np.ndarray


# A predictor is collinear with the others when 1 - R^2 of it on them is at most
# this: rounding alone leaves about 1e-16 on exactly collinear data, and can leave
# it of either sign. `ols` and `_mediation_paths` refuse such predictors.
_COLLINEAR_TOL = 1e-12
_EPS = float(np.finfo(float).eps)


def ols(y, design) -> OlsResult:
    """Least squares of y on a design matrix whose first column is the intercept.

    The F statistic tests the slope terms jointly; coefficient p-values are
    two-sided t tests on n - k residual degrees of freedom. A design whose
    predictors are collinear (`_COLLINEAR_TOL`) raises `RankDeficiencyError`.
    """
    yv = _vector(y, "y")
    X = np.asarray(design, dtype=float)
    if X.ndim != 2:
        raise ValueError("design must be a 2-d matrix")
    n, k = X.shape
    if yv.size != n:
        raise LengthMismatchError(f"y has {yv.size} rows, design has {n}")
    if n <= k:
        raise ValueError(f"need more observations ({n}) than columns ({k})")
    if np.linalg.matrix_rank(X) < k:
        raise RankDeficiencyError("design matrix is rank deficient")
    collinear = []
    for j in range(1, k):  # 1 - R^2 is the residual over the centred sum of squares
        others = np.delete(X, j, axis=1)
        resid = X[:, j] - others @ np.linalg.lstsq(others, X[:, j], rcond=None)[0]
        centred = X[:, j] - X[:, j].mean()
        if resid @ resid <= _COLLINEAR_TOL * (centred @ centred):
            collinear.append(j)
    if collinear:
        raise RankDeficiencyError(f"design columns {', '.join(map(str, collinear))} are "
                                  f"collinear: 1 - R^2 of each on the other columns is at most "
                                  f"{_COLLINEAR_TOL:g}")

    beta, _, _, _ = np.linalg.lstsq(X, yv, rcond=None)
    resid = yv - X @ beta
    ssr = float(resid @ resid)
    centered = yv - yv.mean()
    sst = float(centered @ centered)
    r2 = 0.0 if sst == 0.0 else max(0.0, min(1.0, 1.0 - ssr / sst))

    df_resid = n - k
    p_slopes = k - 1
    if p_slopes == 0 or sst == 0.0:
        f_stat, f_p = 0.0, 1.0
    elif r2 >= 1.0:
        f_stat, f_p = math.inf, 0.0
    else:
        f_stat = (r2 / p_slopes) / ((1.0 - r2) / df_resid)
        f_p = f_sf(f_stat, p_slopes, df_resid)

    sigma2 = ssr / df_resid
    xtx_inv = np.linalg.inv(X.T @ X)
    se = np.sqrt(np.clip(np.diag(xtx_inv), 0.0, None) * sigma2)
    p_values = np.empty(k)
    for i in range(k):
        if se[i] == 0.0:
            p_values[i] = 0.0 if beta[i] != 0.0 else 1.0
        else:
            p_values[i] = student_t_two_sided(beta[i] / se[i], df_resid)
    return OlsResult(coefficients=beta, r_squared=r2, f_stat=f_stat, f_p_value=f_p,
                     coef_p_values=p_values)


def design_matrix(*columns) -> np.ndarray:
    """Stack predictor columns behind an intercept column."""
    cols = [_vector(c, f"column {i}") for i, c in enumerate(columns)]
    n = cols[0].size
    return np.column_stack([np.ones(n)] + cols)


# ---------------------------------------------------------------------------
# Quadratic regression


@dataclass(frozen=True, eq=False)
class QuadraticFit:
    c0: float
    c1: float
    c2: float
    vertex_x: float  # nan when c2 == 0
    r_squared: float
    f_stat: float
    f_p_value: float
    p_values: np.ndarray  # for (c0, c1, c2)

    @property
    def inverted_u(self) -> bool:
        return self.c2 < 0

    @property
    def flat(self) -> bool:
        """A constant outcome: no slope, no curvature, no vertex."""
        return self.c1 == 0.0 and self.c2 == 0.0


def vertex_of(c1: float, c2: float) -> float:
    """Extremum location -c1 / (2 c2) of c0 + c1 x + c2 x^2."""
    if c2 == 0.0:
        return math.nan
    return -c1 / (2.0 * c2)


def quadratic_fit(x, y) -> QuadraticFit:
    """OLS of y on (1, x, x^2); the vertex is the fitted optimum.

    A curvature whose effect over the range of x is at rounding level
    relative to the range of y is reported as 0, so a straight line has no
    vertex rather than one placed by noise, while a large offset in y hides
    no real curvature.
    """
    xv, yv = _paired(x, y)
    if xv.size < 4:
        raise ValueError(f"need at least 4 observations, got {xv.size}")
    if np.unique(xv).size < 3:
        raise RankDeficiencyError("x needs at least 3 distinct values for a quadratic fit")
    if np.all(yv == yv[0]):
        # Least squares would fit rounding noise: a constant outcome has no slope,
        # curvature or optimum. p-values follow `ols` on an exact fit (0 for a
        # nonzero term, 1 for a zero one).
        c0 = float(yv[0])
        return QuadraticFit(c0=c0, c1=0.0, c2=0.0, vertex_x=math.nan, r_squared=0.0,
                            f_stat=0.0, f_p_value=1.0,
                            p_values=np.array([0.0 if c0 else 1.0, 1.0, 1.0]))
    res = ols(yv, design_matrix(xv, xv * xv))
    c0, c1, c2 = (float(b) for b in res.coefficients)
    if abs(c2) * float(np.ptp(xv)) ** 2 <= 1e-9 * float(np.ptp(yv)):
        c2 = 0.0
    return QuadraticFit(c0=c0, c1=c1, c2=c2, vertex_x=vertex_of(c1, c2),
                        r_squared=res.r_squared, f_stat=res.f_stat,
                        f_p_value=res.f_p_value, p_values=res.coef_p_values)


# ---------------------------------------------------------------------------
# Bootstrapped mediation


@dataclass(frozen=True)
class MediationResult:
    a: float
    b: float
    c_total: float
    c_prime: float
    indirect_point: float
    boot_indirect_mean: float
    ci_low: float
    ci_high: float
    pct_mediated: float | None
    resamples: int
    seed: int

    @property
    def significant(self) -> bool:
        """Mediation is claimed when the bootstrap interval excludes zero."""
        return self.ci_low > 0.0 or self.ci_high < 0.0


def pct_mediated(indirect: float, total: float) -> float | None:
    """Share of the total effect carried by the indirect path, in percent.

    Reported only when the two effects share a sign; a ratio of opposing
    effects is not a proportion.
    """
    if total == 0.0 or indirect * total < 0.0:
        return None
    return 100.0 * indirect / total


# Cells of the (resamples, n) index matrix that one `_resample_indices` call
# draws. Each call pays a fixed cost of about 0.7 ms to hash its keys and run
# the Philox rounds, so a 5000-resample bootstrap at n = 40 takes one call. At
# 2**18 cells the int64 indices take 2 MB and the Philox state, ten
# (blocks, keys) uint64 arrays, about 2.6 MB.
_BOOT_DRAW_CELLS = 1 << 18
# Cells of a drawn chunk that the mediation arithmetic handles at once. At 2**16
# a slice's gathered and centred arrays are 512 KB each. Slices as large as a
# chunk would make each 2 MB, and memory that the C allocator hands back to the
# system after a report is faulted in again by the next one (some 1500 page
# faults per 5000-resample report at n = 40 with 2**18-cell blocks).
_BOOT_BLOCK_CELLS = 1 << 16
# The most resamples one bootstrap draws: its results take 8 bytes each.
_MAX_RESAMPLES = 10 ** 6

# numpy's SeedSequence hash constants (uint32 arithmetic) and Philox4x64-10's
# round multipliers and key bumps.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
# The Philox arithmetic takes np.uint64 scalars only: under numpy 1.x, a uint64
# scalar with a Python int gives float64.
_U32, _U32_MASK = np.uint64(32), np.uint64(_M32)


def _hashmix(value, h: int, mult: int):
    """SeedSequence's hashmix of uint32 value(s) under hash constant h.

    Returns the mixed value and the advanced hash constant. Values are Python
    ints or uint64 arrays holding uint32s; a product of two stays below 2**64.
    """
    h_next = h * mult & _M32
    value = (value ^ h) * h_next & _M32
    return value ^ value >> 16, h_next


def _mix(x, y):
    """SeedSequence's mix of two uint32 values (ints or uint64 arrays)."""
    r = ((_MIX_MULT_L * x & _M32) - (_MIX_MULT_R * y & _M32)) & _M32
    return r ^ r >> 16


def _philox_keys(seed: int, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Philox key words of `SeedSequence(seed, spawn_key=(k,))` per k.

    For a seed below 2**128 and k below 2**32 the entropy is the seed's four
    little-endian uint32 words, then k: the pool of four words mixes the
    seed part alone, then k into each word in turn.
    """
    h = _INIT_A
    pool = []
    for word in (seed >> shift & _M32 for shift in (0, 32, 64, 96)):
        word, h = _hashmix(word, h, _MULT_A)
        pool.append(word)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                word, h = _hashmix(pool[src], h, _MULT_A)
                pool[dst] = _mix(pool[dst], word)
    for dst in range(4):  # hashmix(k) once per pool word, each under the next constant
        word, h = _hashmix(ks, h, _MULT_A)
        pool[dst] = _mix(pool[dst], word)
    h = _INIT_B
    state = []
    for word in pool:  # generate_state(2, uint64): four uint32 words, low word first
        word, h = _hashmix(word, h, _MULT_B)
        state.append(word)
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def _mulhilo(a: np.uint64, b: np.ndarray, hi: np.ndarray, lo: np.ndarray,
             t: np.ndarray, u: np.ndarray) -> None:
    """Write the high and low words of the 128-bit products a * b, from 32-bit
    halves, into hi and lo; t and u are scratch of b's shape."""
    a_lo, a_hi = a & _U32_MASK, a >> _U32
    np.right_shift(b, _U32, out=u)  # b_hi
    np.bitwise_and(b, _U32_MASK, out=lo)
    np.multiply(lo, a_hi, out=hi)
    lo *= a_lo
    lo >>= _U32
    hi += lo  # mid = a_hi * b_lo + (a_lo * b_lo >> 32)
    np.bitwise_and(hi, _U32_MASK, out=lo)
    hi >>= _U32
    np.multiply(u, a_lo, out=t)
    t += lo
    t >>= _U32  # carry = (a_lo * b_hi + (mid & M32)) >> 32
    hi += t
    u *= a_hi
    hi += u  # a_hi * b_hi + (mid >> 32) + carry
    np.multiply(b, a, out=lo)


def _products(a: np.uint64, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low words of a * b in new arrays of b's shape."""
    hi, lo, t, u = np.empty((4, *b.shape), dtype=np.uint64)
    _mulhilo(a, b, hi, lo, t, u)
    return hi, lo


def _philox_words(k0: np.ndarray, k1: np.ndarray, blocks: int) -> np.ndarray:
    """The first 4 * blocks uint64 outputs of Philox4x64-10 per (k0, k1) key.

    numpy's Philox starts at counter 0 and increments it before each block,
    so block j runs on counter (j + 1, 0, 0, 0). A round maps counter
    (c0, c1, c2, c3) under key (k0, k1) to (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2),
    hi(M0 c0) ^ c3 ^ k1, lo(M0 c0)), and the key is bumped between rounds.

    The first two rounds are folded. In round 1 the M1 product is that of 0
    and the M0 product depends on the block alone: a (blocks, 1) product
    and XORs with the key leave (k0, 0, hi(M0 j) ^ k1, lo(M0 j)). So round
    2's M0 product depends on the key alone, a (1, keys) product; only its
    M1 product and the later rounds' products run on whole (blocks, keys)
    arrays. Those are allocated once, with keys on the inner axis so that a
    key word broadcasts along the outer one; each round writes its
    products in place and renames the arrays.
    """
    k0 = np.asarray(k0, dtype=np.uint64)[None]
    k1 = np.asarray(k1, dtype=np.uint64)[None]
    c0, c1, c2, c3, hi0, lo0, hi1, lo1, t, u = np.empty((10, blocks, k0.size),
                                                        dtype=np.uint64)
    block_c0 = np.arange(1, blocks + 1, dtype=np.uint64)[:, None]
    hi_block, lo_block = _products(_PHILOX_M[0], block_c0)
    np.bitwise_xor(hi_block, k1, out=c2)  # round 1's c2; its c0 is k0 and its c1 is 0
    hi_key, lo_key = _products(_PHILOX_M[0], k0)
    k0 = k0 + _PHILOX_W[0]  # own copies from here on, bumped in place
    k1 = k1 + _PHILOX_W[1]
    # round 2; its c1 (0) drops out of c0, and c3 is the key's own in every block
    _mulhilo(_PHILOX_M[1], c2, hi1, lo1, t, u)
    np.bitwise_xor(hi1, k0, out=c0)
    c1, lo1 = lo1, c1
    hi_key ^= k1
    np.bitwise_xor(hi_key, lo_block, out=c2)
    c3[:] = lo_key
    for _ in range(8):  # rounds 3 to 10
        k0 += _PHILOX_W[0]
        k1 += _PHILOX_W[1]
        _mulhilo(_PHILOX_M[0], c0, hi0, lo0, t, u)
        _mulhilo(_PHILOX_M[1], c2, hi1, lo1, t, u)
        hi1 ^= c1
        hi1 ^= k0
        hi0 ^= c3
        hi0 ^= k1
        # the products are the next counter; the spent counter holds the next products
        (c0, c1, c2, c3), (hi0, lo0, hi1, lo1) = (hi1, lo1, hi0, lo0), (c0, c1, c2, c3)
    words = np.empty((k0.size, blocks, 4), dtype=np.uint64)
    for w, c in enumerate((c0, c1, c2, c3)):
        words[:, :, w] = c.T
    return words.reshape(k0.size, 4 * blocks)


def _resample_rng(seed: int, k: int) -> np.random.Generator:
    """Resample k's own stream: the k-th child that SeedSequence(seed).spawn makes."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(k,))))


def _may_reject(low: np.ndarray, n: int) -> np.ndarray:
    """Rows where some draw's low product word is below n, so Lemire may reject it."""
    return (low < n).any(axis=1)


def _resample_indices(seed: int, start: int, count: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row indices of resamples start .. start + count - 1, with the fallback rows.

    Row k equals `_resample_rng(seed, k).integers(0, n, size=n)`. numpy draws
    it with Lemire's method from uint32s, two per Philox output, low half
    first: index (u * n) >> 32, rejected only when (u * n) mod 2**32 is
    below (2**32 - n) mod n, which is below n. All rows are computed at once
    that way; a row where a rejection may happen, and every row when the
    seed reaches 2**128 or n or k reaches 2**32, is drawn from its own
    generator instead and marked in the returned mask.
    """
    seed = operator.index(seed)
    if seed >= 1 << 128 or n >= 1 << 32 or start + count > 1 << 32:
        idx = np.empty((count, n), dtype=np.int64)
        fallback = np.ones(count, dtype=bool)
    else:
        k0, k1 = _philox_keys(seed, np.arange(start, start + count, dtype=np.uint64))
        words = _philox_words(k0, k1, -(-n // 8))  # 8 draws per block
        # uint32 halves of each word, low half first on any byte order
        draws = words.astype("<u8", copy=False).view("<u4")[:, :n]
        # the uint32 product wraps to the low word of u * n
        fallback = _may_reject(draws * np.uint32(n), n)
        # an explicit uint64 product: numpy 1.x keeps uint32 * np.uint64 in uint32
        product = np.multiply(draws, np.uint64(n), dtype=np.uint64)
        product >>= 32
        idx = product.view(np.int64)  # the indices are below n < 2**32: same bits
    for r in np.flatnonzero(fallback).tolist():
        idx[r] = _resample_rng(seed, start + r).integers(0, n, size=n)
    return idx, fallback


def _index_slices(seed: int, resamples: int, n: int):
    """Yield (start, idx), the row indices of resamples start .. start +
    len(idx) - 1, in order and in slices of at most `_BOOT_BLOCK_CELLS`
    cells. Each chunk of at most `_BOOT_DRAW_CELLS` cells is drawn by one
    `_resample_indices` call, when its first slice is asked for."""
    step = max(1, _BOOT_BLOCK_CELLS // n)
    chunk = max(1, _BOOT_DRAW_CELLS // n)
    for first in range(0, resamples, chunk):
        idx, _ = _resample_indices(seed, first, min(chunk, resamples - first), n)
        for lo in range(0, len(idx), step):
            yield first + lo, idx[lo:lo + step]


def _row_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-row dot products of two (R, n) arrays.

    Stacked matmul runs the same dot kernel as 1-D `u[k] @ v[k]`, so each row
    rounds as it would on its own; `(u * v).sum(axis=1)` sums in another order.
    """
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def _centred(v: np.ndarray) -> np.ndarray:
    return v - v.mean(axis=1, keepdims=True)


def _centre(v: np.ndarray) -> np.ndarray:
    """`_centred(v)` written over v: for a fresh gather that nothing else holds."""
    v -= v.mean(axis=1, keepdims=True)
    return v


def _rounding_floor(v: np.ndarray) -> float:
    """The largest centred sum of squares that rounding can leave in a row of
    n equal values drawn from `v`, whose last axis has length n: their mean
    is within about n * eps / 2 of each, relative to the largest |v|."""
    n = v.shape[-1]
    return n * ((n + 2) * _EPS * float(np.abs(v).max())) ** 2


def _constant_rows(c: np.ndarray, ss: np.ndarray, floor: float) -> np.ndarray:
    """Whether each row of a centred (R, n) array holds one drawn value, given
    the rows' sums of squares `ss` and `_rounding_floor` of the values drawn.

    Only a row with `ss` at most `floor` is compared value by value, on its
    centred values: centring subtracts one mean from the whole row, so they
    are all equal just when the drawn values are, whether or not the mean is
    exact (rounding could merge two values only if they differed by far less
    than an ulp).
    """
    constant = ss <= floor
    if constant.any():
        rows = np.flatnonzero(constant)
        constant[rows] = (c[rows] == c[rows, :1]).all(axis=1)
    return constant


def _mediator_terms(mc: np.ndarray, yc: np.ndarray, m_floor: float):
    """The terms of the paths that do not involve x, per row of centred (R, n)
    arrays m and y, with `_rounding_floor` of the m values drawn: mc, yc, smm,
    smy and whether the row's m is constant."""
    smm = _row_dot(mc, mc)
    return mc, yc, smm, _row_dot(mc, yc), _constant_rows(mc, smm, m_floor)


def _mediation_paths(xc: np.ndarray, mediator, x_floor: float):
    """Closed-form OLS paths per row of a centred (R, n) array x, with
    `_rounding_floor` of the x values drawn, and the `_mediator_terms` of
    the same rows: a (m~x), b and c' (y~x+m), c (y~x).

    Returns (a, b, c_prime, c_total, ok); rows where ok is False are
    degenerate (constant x or m, or collinear x, m) and carry no paths.
    """
    mc, yc, smm, smy, m_constant = mediator
    sxx = _row_dot(xc, xc)
    sxm = _row_dot(xc, mc)
    sxy = _row_dot(xc, yc)
    det = sxx * smm - sxm * sxm  # sxx * smm * (1 - r^2), r the x-m correlation
    # a constant row's sums of squares are rounding noise, not 0, when its mean
    # is inexact; a varying x whose sxx underflows to 0 fails the det test
    ok = (~(_constant_rows(xc, sxx, x_floor) | m_constant)
          & (det > _COLLINEAR_TOL * sxx * smm))
    sxx = np.where(ok, sxx, 1.0)  # degenerate rows divide by 1 and are discarded
    det = np.where(ok, det, 1.0)
    a = sxm / sxx
    c_total = sxy / sxx
    c_prime = (smm * sxy - sxm * smy) / det
    b = (sxx * smy - sxm * sxy) / det
    return a, b, c_prime, c_total, ok


def _paths(x: np.ndarray, m: np.ndarray, y: np.ndarray):
    """`_mediation_paths` of (R, n) arrays x, m and y, which stay as they are."""
    mediator = _mediator_terms(_centred(m), _centred(y), _rounding_floor(m))
    return _mediation_paths(_centred(x), mediator, _rounding_floor(x))


def _redrawn_indirect(xv: np.ndarray, mv: np.ndarray, yv: np.ndarray, seed: int, k: int) -> float:
    """Resample k's indirect effect from the draws after its degenerate first one."""
    n = xv.size
    rng = _resample_rng(seed, k)
    rng.integers(0, n, size=n)  # replays the first draw
    for _ in range(99):
        row = rng.integers(0, n, size=n)[None]
        a, b, _, _, ok = _paths(xv[row], mv[row], yv[row])
        if ok[0]:
            return a[0] * b[0]
    raise DegenerateDataError(f"resample {k} stayed degenerate after 100 draws")


def bootstrap_mediation(x, m, y, resamples: int = 5000,
                        seed: int = 0) -> MediationResult | list[MediationResult]:
    """Indirect effect a*b with a percentile bootstrap confidence interval.

    Rows are resampled with replacement as (x, m, y) triples. The 95%
    interval uses the 2.5 and 97.5 percentiles of the resampled indirect
    effects; results are bit-reproducible for a fixed seed and resample
    count. Resample k draws its indices from its own Philox stream, the k-th
    child of the seed, and draws again from that stream (up to 100 draws in
    all) while its rows are degenerate. The first draws of all resamples are
    computed in bulk, bit for bit as the streams would give them; a resample
    whose first draw may hit a Lemire rejection (or every resample, when the
    seed reaches 2**128) and a degenerate resample's redraws go through the
    stream's own `Generator`.

    A two-dimensional x is a stack of predictors, one per row, and gives one
    result per row. The resamples are drawn once and shared: each row's
    result is bit for bit that of its own call, since the draws depend only
    on the seed, the resample and n; a degenerate resample is redrawn for
    each row on its own. Errors are those of the calls in row order, with
    one exception: a row's input errors (length, count, resamples, seed)
    come before the bootstrap of the rows ahead of it.
    """
    xa = np.asarray(x, dtype=float)
    if xa.ndim == 2:
        return _bootstrap_mediations(list(xa), m, y, resamples, seed)
    return _bootstrap_mediations([xa], m, y, resamples, seed)[0]


def _bootstrap_mediations(xs: list, m, y, resamples: int, seed: int) -> list[MediationResult]:
    xvs, paths, failure = [], [], None
    for x in xs:
        xv, mv = _paired(x, m, "m")
        yv = _vector(y, "y")
        if yv.size != xv.size:
            raise LengthMismatchError(f"lengths differ: {xv.size} vs {yv.size}")
        n = xv.size
        if n < 5:
            raise ValueError(f"need at least 5 observations, got {n}")
        if resamples < 1:
            raise ValueError("resamples must be positive")
        if resamples > _MAX_RESAMPLES:
            raise ValueError(f"resamples must be at most {_MAX_RESAMPLES}, got {resamples}")
        if seed < 0:
            raise ValueError("seed must be non-negative")
        *point, ok = _paths(xv[None], mv[None], yv[None])
        if not ok[0]:  # raised after the bootstraps of the predictors ahead of x
            failure = DegenerateDataError("x is constant or x and m are collinear")
            break
        xvs.append(xv)
        paths.append([float(v[0]) for v in point])

    boot = [np.empty(resamples) for _ in xvs]
    active = len(xvs)  # predictors ahead of the first that stays degenerate
    for start, idx in _index_slices(seed, resamples, n) if active else ():
        stop = start + len(idx)
        mediator = _mediator_terms(_centre(mv[idx]), _centre(yv[idx]), _rounding_floor(mv))
        for i, xv in enumerate(xvs[:active]):
            sub_a, sub_b, _, _, sub_ok = _mediation_paths(_centre(xv[idx]), mediator,
                                                          _rounding_floor(xv))
            boot[i][start:stop] = sub_a * sub_b
            try:
                for k in (start + np.flatnonzero(~sub_ok)).tolist():
                    boot[i][k] = _redrawn_indirect(xv, mv, yv, seed, k)
            except DegenerateDataError as exc:
                failure, active = exc, i
                break
        if not active:
            break
    if failure is not None:
        raise failure

    results = []
    for (a, b, c_prime, c_total), row in zip(paths, boot):
        ci_low, ci_high = np.percentile(row, [2.5, 97.5])
        results.append(MediationResult(
            a=a, b=b, c_total=c_total, c_prime=c_prime,
            indirect_point=a * b, boot_indirect_mean=float(row.mean()),
            ci_low=float(ci_low), ci_high=float(ci_high),
            pct_mediated=pct_mediated(a * b, c_total),
            resamples=resamples, seed=seed))
    return results


# ---------------------------------------------------------------------------
# Mann-Whitney U


@dataclass(frozen=True)
class MannWhitneyResult:
    u: float
    p_value: float


def mann_whitney_u(a, b) -> MannWhitneyResult:
    """U = min(U1, U2) with a tie- and continuity-corrected normal p-value."""
    av, bv = _vector(a, "a"), _vector(b, "b")
    n1, n2 = av.size, bv.size
    if n1 == 0 or n2 == 0:
        raise ValueError("both samples must be non-empty")
    _reject_nan("mann_whitney_u", av, bv)
    ranks = rankdata(np.concatenate([av, bv]))
    r1 = float(ranks[:n1].sum())
    u1 = r1 - n1 * (n1 + 1) / 2.0
    u2 = n1 * n2 - u1
    u = min(u1, u2)

    total = n1 + n2
    _, counts = np.unique(np.concatenate([av, bv]), return_counts=True)
    tie_term = float((counts.astype(float) ** 3 - counts).sum())
    correction = 1.0 - tie_term / (total ** 3 - total) if total > 1 else 0.0
    sd = math.sqrt(correction * n1 * n2 * (total + 1) / 12.0)
    if sd == 0.0:
        p = 1.0  # every pooled value tied; no evidence either way
    else:
        z = max(0.0, abs(u - n1 * n2 / 2.0) - 0.5) / sd
        p = min(1.0, 2.0 * normal_sf(z))
    return MannWhitneyResult(u=u, p_value=p)


# Largest subset-count table the exact Mann-Whitney test builds: about 60 vs 60.
_EXACT_MAX_CELLS = 1_000_000


def _subset_sum_counts(scores: list[int], k: int) -> tuple[int, int]:
    """The k-element subsets of `scores` (non-negative ints) counted by sum, as (counts, slot).

    Digit t of `counts` in base 2**slot is the number of subsets summing to t.
    sizes[j] holds the j-subsets the same way, and score i adds the
    (j - 1)-subsets shifted by it, j running down. Only the sizes j that are
    both reachable (j <= i + 1) and still able to grow into a k-subset with
    the n - i - 1 scores after it are updated; the others are never read
    again. Python ints are exact, so a digit of sizes[j] may carry into the
    next without changing the sum they stand for. Only the k-subset counts
    are read digit by digit: each, and their sum, is at most
    C(len(scores), k) < 2**(slot - 1), so no digit of sizes[k] carries and a
    sum of digits is the int modulo 2**slot - 1.
    """
    n = len(scores)
    slot = math.comb(n, k).bit_length() + 1
    sizes = [1] + [0] * k
    for i, w in enumerate(scores):
        shift = w * slot
        for j in range(min(k, i + 1), max(0, k - (n - i)), -1):
            sizes[j] += sizes[j - 1] << shift
    return sizes[k], slot


def mann_whitney_u_exact(a, b, alternative: str = "two-sided") -> MannWhitneyResult:
    """Exact Mann-Whitney p from the permutation distribution of U.

    Every way of drawing the first group from the pooled values is equally
    likely under the null. The number of draws at each U comes from the
    Mann & Whitney (1947) counting recursion, extended to ties: mid-rank
    scores are doubled to exact integers and the subsets are counted by sum
    one pooled value at a time. The counts are exact Python integers at every
    size; the table has about min(n1, n2) (n1 + n2)^2 counts and is refused
    (ValueError) beyond a million, about 60 vs 60, which takes about 0.2 s.
    `alternative` is "less" (a shifted low), "greater", or "two-sided".
    """
    av, bv = _vector(a, "a"), _vector(b, "b")
    n1, n2 = av.size, bv.size
    if n1 == 0 or n2 == 0:
        raise ValueError("both samples must be non-empty")
    if alternative not in ("less", "greater", "two-sided"):
        raise ValueError(f"unknown alternative {alternative!r}")

    _reject_nan("mann_whitney_u_exact", av, bv)
    pooled = np.concatenate([av, bv])
    # w[i] = twice the number of pooled values beaten by value i, ties counting
    # 1/2 each, which is 2 * (mid-rank - 1); the U of a subset A is then
    # sum(w[A]) / 2 - C(|A|, 2).
    w = (2 * rankdata(pooled) - 2).astype(np.int64)
    w_obs = int(w[:n1].sum())

    # Count subsets of the smaller group's size; a second-group subset summing
    # to t leaves a first group summing to sum(w) - t, so its tails swap.
    k, w_total = min(n1, n2), int(w.sum())
    cells = (k + 1) * (w_total + 1)
    if cells > _EXACT_MAX_CELLS:
        raise ValueError(f"exact test needs a table of {cells} counts (limit {_EXACT_MAX_CELLS}); "
                         "use mann_whitney_u for groups this large")
    counts, slot = _subset_sum_counts(w.tolist(), k)
    cut = w_obs if k == n1 else w_total - w_obs
    digit_sum = (1 << slot) - 1  # a sum of digits is `counts` modulo this
    n_le = (counts & (1 << (cut + 1) * slot) - 1) % digit_sum
    n_ge = (counts >> cut * slot) % digit_sum
    if k < n1:
        n_le, n_ge = n_ge, n_le
    n_total = math.comb(n1 + n2, n1)
    p_less, p_greater = n_le / n_total, n_ge / n_total
    if alternative == "less":
        p = p_less
    elif alternative == "greater":
        p = p_greater
    else:
        p = min(1.0, 2.0 * min(p_less, p_greater))
    u_obs = w_obs / 2.0 - n1 * (n1 - 1) / 2.0
    u2 = n1 * n2 - u_obs
    return MannWhitneyResult(u=min(u_obs, u2), p_value=p)


# ---------------------------------------------------------------------------
# One-way ANOVA


@dataclass(frozen=True)
class AnovaResult:
    f: float
    p_value: float
    df_between: int
    df_within: int


def one_way_anova(groups: Sequence) -> AnovaResult:
    """F = MS_between / MS_within across two or more groups."""
    vecs = [_vector(g, f"group {i}") for i, g in enumerate(groups)]
    k = len(vecs)
    if k < 2:
        raise ValueError("need at least 2 groups")
    if any(v.size < 2 for v in vecs):
        raise ValueError("every group needs at least 2 values")
    n_total = sum(v.size for v in vecs)
    grand = float(np.concatenate(vecs).mean())
    ss_between = sum(v.size * (float(v.mean()) - grand) ** 2 for v in vecs)
    ss_within = sum(float(((v - v.mean()) ** 2).sum()) for v in vecs)
    df_b, df_w = k - 1, n_total - k
    if all((v == v[0]).all() for v in vecs):  # constant, told exactly: SS may be noise
        f = 0.0 if all(v[0] == vecs[0][0] for v in vecs) else math.inf
        return AnovaResult(f=f, p_value=float(f == 0.0), df_between=df_b, df_within=df_w)
    f = (ss_between / df_b) / (ss_within / df_w)
    return AnovaResult(f=f, p_value=f_sf(f, df_b, df_w), df_between=df_b, df_within=df_w)


# ---------------------------------------------------------------------------
# Performance grouping


class PerformanceGroup(ValueEnum):
    BOTTOM25 = "bottom25"
    MIDDLE50 = "middle50"
    TOP25 = "top25"


def performance_groups(scores: Mapping[str, float]) -> dict[str, PerformanceGroup]:
    """Bottom 25% / middle 50% / top 25% split by score: each id's group.

    Teams are ordered by (score, id) so ties resolve deterministically, and
    the dict's keys follow that order; both tails take ceil(n/4) teams.
    """
    n = len(scores)
    if n < 4:
        raise TooFewTeamsError(f"grouping needs at least 4 teams, got {n}")
    order = sorted(scores.items(), key=lambda kv: (kv[1], kv[0]))
    q = math.ceil(n / 4)
    out = {}
    for i, (sid, _) in enumerate(order):
        if i < q:
            out[sid] = PerformanceGroup.BOTTOM25
        elif i >= n - q:
            out[sid] = PerformanceGroup.TOP25
        else:
            out[sid] = PerformanceGroup.MIDDLE50
    return out
