"""Numerical core: local-linear LOESS, weighted antitonic regression via
pool-adjacent-violators, the Shapiro-Wilk normality test (Royston's AS R94
approximation) and Pearson correlation with a t-based p-value, with the
normal and Student-t distribution functions those tests need.

All fits are pure functions of their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from statistics import NormalDist
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class TestResult:
    """Test statistic plus its p-value."""

    statistic: float
    p_value: float

    def __post_init__(self):
        if not (0.0 <= self.p_value <= 1.0):
            raise ValueError(f"p-value {self.p_value} outside [0, 1]")


@dataclass(frozen=True)
class SmoothCurve:
    """Fitted values on a grid, evaluable at arbitrary x: linear between
    grid points and constant beyond them. A stacked fit holds one row of
    values per response; ``split`` gives the curve of each.

    On a grid of consecutive integers, integer x read the node values (the
    first or last beyond the grid), which is exactly what ``np.interp``
    returns there, without its search."""

    grid: np.ndarray
    values: np.ndarray

    @cached_property
    def _first_node(self) -> Optional[int]:
        """The grid's first point when the grid is consecutive integers."""
        start = float(self.grid[0]) if len(self.grid) else math.nan
        if start.is_integer() and np.array_equal(self.grid, start + np.arange(len(self.grid))):
            return int(start)
        return None

    def __call__(self, x):
        x = np.asarray(x)
        first = self._first_node
        if first is not None and x.dtype.kind == "i":
            out = np.empty(self.values.shape[:-1] + x.shape, self.values.dtype)
            flat, into = x.reshape(-1), out.reshape(*self.values.shape[:-1], -1)
            for at in range(0, flat.size, 4096):  # an intp copy of 4,096 x at a time, never of all x
                node = flat[at : at + 4096].astype(np.intp)  # clipped and shifted in place
                np.minimum(np.maximum(node, first, out=node), first + len(self.grid) - 1, out=node)
                node -= first
                np.take(self.values, node, axis=-1, out=into[..., at : at + 4096], mode="clip")
        else:
            out = np.interp(x.astype(float, copy=False), self.grid, self.values)
        return float(out) if out.ndim == 0 else out

    def split(self) -> list[SmoothCurve]:
        """One curve per row of stacked values, sharing the grid."""
        return [SmoothCurve(self.grid, row) for row in self.values]


def _as_weighted(x, y, w):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.ones_like(x) if w is None else np.asarray(w, dtype=float)
    if not (x.shape == y.shape == w.shape):
        raise ValueError("x, y, w must have equal shapes")
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    return x, y, w


def _tricube(u: np.ndarray) -> np.ndarray:
    """Tricube kernel (1 - u^3)^3 on [0, 1], zero beyond, of a non-negative
    array u, written over u, with one more array the size of u."""
    np.minimum(u, 1.0, out=u)
    c = u * u
    c *= u
    np.subtract(1.0, c, out=c)
    np.multiply(c, c, out=u)
    u *= c
    return u


CHUNK_ELEMENTS = 4800  # (grid point x distinct x) entries fitted per numpy call


def loess_fit(x, y, grid, span: float = 0.5) -> SmoothCurve:
    """Local-linear smoother with tricube neighborhood weights.

    ``y`` is one response of shape (n,) for the n values of ``x``, or k
    responses that share ``x``: a (k, n) array or any iterable of k (n,)
    rows, read one at a time. The curve's values then have shape
    (k, len(grid)), each row the fit of one response.

    Tied x collapse first to one point with its row count and mean y, so
    only one row of the responses is held at a time. At
    each grid point, dmax is the distance to the q-th nearest row,
    q = ceil(span*n); each distinct x gets weight tricube(d/dmax) times its
    count, and a weighted degree-1 polynomial is fit and evaluated there.
    The weight is zero at dmax, so the fit does not depend on row order.
    When the q nearest rows all lie at distance dmax, they get equal weights
    instead; if every weighted point shares one x (degenerate design) the
    local mean is used. No robustness iterations.

    The radii of all grid points are found first (``_radii``). Then grid
    points are fitted a chunk at a time, each one a row of a (grid point x
    distinct x) matrix of about ``CHUNK_ELEMENTS`` entries; the rows do not
    interact. The weights depend on x alone, so each chunk builds them once
    for all responses, and each response's row is bit-identical to its
    one-response fit.
    """
    if not (0.0 < span <= 1.0):
        raise ValueError("span must be in (0, 1]")
    x = np.asarray(x)  # integer x (ranks) collapse their ties before any float copy
    if x.ndim != 1:
        raise ValueError(f"x of shape {x.shape} does not hold one value per row")
    # a scalar y is one response too, which then fails the row check
    one = not np.iterable(y) or np.ndim(y) == 1
    x, y, count = _aggregate_ties(x, [y] if one else y)
    n, count = int(count.sum()), count.astype(float, copy=False)  # cast once, not per chunk
    if len(x) < 3:
        raise ValueError("need at least 3 distinct x values")
    q = int(math.ceil(span * n))
    if q < 2:
        raise ValueError(f"span*n = {span * n:.2f} gives fewer than 2 local points")
    grid = np.asarray(grid, dtype=float)
    dmax, dmin, dfar = _radii(x, count, q, grid)
    equal = dmax <= dmin
    tol = 1e-12 * np.maximum(1.0, dfar**2)
    fitted = np.empty((len(y), len(grid)))
    per_chunk = max(1, CHUNK_ELEMENTS // len(x))
    # a division by zero is replaced: at a zero radius by the equal weights,
    # in a flat design by the local mean. numpy gives a broadcasting operand
    # a buffer of up to bufsize elements: 8192 would outweigh a chunk matrix
    with np.errstate(divide="ignore", invalid="ignore"):  # restores the buffer size too
        np.setbufsize(256)
        for start in range(0, len(grid), per_chunk):
            rows = slice(start, start + per_chunk)
            fitted[:, rows] = _fit_rows(x, y, count, grid[rows], dmax[rows], equal[rows], tol[rows])
    if not np.all(np.isfinite(fitted)):
        raise ValueError("non-finite fitted value")
    return SmoothCurve(grid=grid, values=fitted[0] if one else fitted)


def _radii(x, count, q, x0):
    """For each point of ``x0``: the distance to its q-th nearest row, to its
    nearest distinct x and to its farthest one.

    ``x`` is sorted and distinct, with ``count`` rows at each value. The rows
    within any radius form a window of ``x``, so the q-th nearest distance is
    the least, over window starts a, of the larger end distance of the
    shortest window from a that holds q rows. As a grows, the distance to
    the window's left end falls and the one to its right end rises: a
    bisection finds where they cross, and the answer sits on one side of it.
    Every distance is the same float |x - x0| the fit computes.
    """
    total = np.concatenate(([0.0], np.cumsum(count)))
    last = int(np.searchsorted(total, total[-1] - q, side="right")) - 1
    left = x[: last + 1]
    right = x[np.searchsorted(total, total[: last + 1] + q) - 1]
    # cross: the first window start whose right end is at least as far as its
    # left end (past ``last`` if none is; ``window`` clips it back)
    cross = np.zeros(len(x0), dtype=np.intp)
    for k in reversed(range((last + 1).bit_length())):
        at = np.minimum(cross + (1 << k) - 1, last)
        cross += (right[at] - x0 < x0 - left[at]) << k

    def window(a):
        a = np.clip(a, 0, last)
        return np.maximum(np.abs(left[a] - x0), np.abs(right[a] - x0))

    dmax = np.minimum(window(cross - 1), window(cross))
    near = np.searchsorted(x, x0)
    dmin = np.minimum(np.abs(x[np.maximum(near - 1, 0)] - x0), np.abs(x[np.minimum(near, len(x) - 1)] - x0))
    dfar = np.maximum(np.abs(x[0] - x0), np.abs(x[-1] - x0))
    return dmax, dmin, dfar


def _fit_rows(x, ys, count, x0, dmax, equal, tol):
    """The local-linear fit of each response in ``ys`` at each point of
    ``x0``, one matrix row per point; returns (responses, points).

    The weighted least-squares line is centred on the evaluation point, so
    its intercept is the fitted value and the solve stays well conditioned
    at the grid boundaries. Per point, ``dmax`` is the radius, ``equal``
    says that the q nearest rows all lie at it, and a weighted spread of x
    at most ``tol`` takes the local mean.
    """
    dmax, x0 = dmax[:, None], x0[:, None]
    lw = np.subtract(x, x0)  # distances, then weights, then weights times x - x0
    np.abs(lw, out=lw)
    at_radius = lw == dmax if equal.any() else None  # only a chunk with an equal-weights point reads it
    lw /= dmax
    _tricube(lw)
    if at_radius is not None:
        np.copyto(lw, at_radius, where=equal[:, None])
    del at_radius  # so the fit's peak stays in the tricube, the same for any number of responses
    lw *= count
    sw = lw.sum(axis=1)
    # einsum, not BLAS gemm: its rounding would depend on the rows in the chunk. Each
    # response's row of "ij,kj->ki" is the same sum, in the same order, as "ij,j->i"
    t0 = np.einsum("ij,kj->ki", lw, ys)
    xc = x - x0  # built again here, so the tricube's scratch matrix is never a third
    lw *= xc
    s1 = lw.sum(axis=1)
    s2 = np.einsum("ij,ij->i", lw, xc)
    t1 = np.einsum("ij,kj->ki", lw, ys)
    del lw, xc
    spread = s2 / sw - (s1 / sw) ** 2
    return np.where(spread <= tol, t0 / sw, (s2 * t0 - s1 * t1) / (sw * s2 - s1 * s1))


def _aggregate_ties(x, ys, w=None):
    """Collapse duplicate x to a single point with summed weight (its row
    count when ``w`` is None) and, for each (n,) row of the iterable ``ys``,
    the weighted-mean y; returns arrays sorted by x, the distinct x as
    floats. Each row is dropped before the next is read.

    Unweighted integer x whose range is at most twice their number (ranks,
    rank differentials) are binned at ``x - min``, with no sort; other x go
    through ``np.unique``. Either way each bin adds its rows in row order,
    so both give the same bits."""
    lo = int(x.min()) if x.dtype.kind == "i" and x.size and w is None else None
    if lo is not None and int(x.max()) - lo < 2 * x.size:
        inverse = np.subtract(x, lo, dtype=np.intp)
        present = np.flatnonzero(np.bincount(inverse))
        ux = present + lo
    else:
        ux, inverse = np.unique(x, return_inverse=True)
        present = slice(None)
    sw = np.bincount(inverse, weights=w)[present]

    def mean(row):
        row = np.asarray(row, dtype=float)
        if row.shape != x.shape:
            raise ValueError(f"y row of shape {row.shape} is not ({x.size},) for the {x.size} values of x")
        return np.bincount(inverse, weights=row if w is None else row * w)[present] / sw

    # map keeps no row alive while the next is built, as a comprehension's loop variable does
    return ux.astype(float), np.array(list(map(mean, ys))), sw


def pava_nondecreasing(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted least-squares non-decreasing fit by pool-adjacent-violators."""
    levels: list[float] = []
    weights: list[float] = []
    counts: list[int] = []
    for yi, wi in zip(y, w):
        levels.append(float(yi))
        weights.append(float(wi))
        counts.append(1)
        while len(levels) > 1 and levels[-2] >= levels[-1]:
            wtot = weights[-2] + weights[-1]
            merged = (weights[-2] * levels[-2] + weights[-1] * levels[-1]) / wtot
            levels[-2:] = [merged]
            weights[-2:] = [wtot]
            counts[-2:] = [counts[-2] + counts[-1]]
    return np.repeat(levels, counts)


def antitonic_fit(x, y, w=None) -> SmoothCurve:
    """Weighted least-squares non-increasing fit.

    Duplicate x are pre-aggregated; the fit is PAVA on the negated values.
    """
    x, y, w = _as_weighted(x, y, w)
    x, (y,), w = _aggregate_ties(x, [y], w)
    if len(x) < 2:
        raise ValueError("need at least 2 distinct x values")
    fitted = -pava_nondecreasing(-y, w)
    return SmoothCurve(grid=x, values=fitted)


_SQRT_HALF = math.sqrt(0.5)


def normal_tail(z: float) -> float:
    """P(Z > z) for a standard normal Z, to full relative precision up to
    z = 37, where it underflows."""
    return 0.5 * math.erfc(z * _SQRT_HALF)


normal_quantile = NormalDist().inv_cdf  # Wichura's AS241


_CF_EPS = 4e-16  # relative step (two ulps) at which the continued fraction has converged
_CF_TINY = 1e-300  # keeps Lentz's denominators off zero


def _off_zero(v: float) -> float:
    return v if abs(v) >= _CF_TINY else _CF_TINY


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function, by Lentz's
    method; converges fast for x < (a + 1) / (a + b + 2)."""
    c = 1.0
    d = 1.0 / _off_zero(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 10_000):
        for coeff in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 / _off_zero(1.0 + coeff * d)
            c = _off_zero(1.0 + coeff / c)
            h *= c * d
        if abs(c * d - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge at a={a}, b={b}, x={x}")


def _incomplete_beta(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b), given x and y = 1 - x as
    separately computed numbers so that neither loses digits to 1 - x."""
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    log_front = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log(y)
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - math.exp(log_front) * _beta_fraction(b, a, y) / b
    return math.exp(log_front) * _beta_fraction(a, b, x) / a


def t_two_sided(t: float, df: int) -> float:
    """P(|T| > |t|) for Student's t on df degrees of freedom, as
    I_x(df/2, 1/2) with x = df / (df + t^2)."""
    t2 = t * t
    return _incomplete_beta(df / 2.0, 0.5, df / (df + t2), t2 / (df + t2))


# Royston (1995) polynomial coefficients for the Shapiro-Wilk approximation.
_C1 = [-2.706056, 4.434685, -2.071190, -0.147981, 0.221157, 0.0]
_C2 = [-3.582633, 5.682633, -1.752461, -0.293762, 0.042981, 0.0]
_SMALL_N_MU = [-0.0006714, 0.025054, -0.39978, 0.544]
_SMALL_N_LOGSIG = [-0.0020322, 0.062767, -0.77857, 1.3822]
_LARGE_N_MU = [0.0038915, -0.083751, -0.31082, -1.5861]
_LARGE_N_LOGSIG = [0.0030302, -0.082676, -0.4803]
_GAMMA = [0.459, -2.273]
_PI6 = 1.90985931710274  # 6/pi
_STQR = 1.04719755119660  # asin(sqrt(3/4))


def _sw_coefficients(n: int) -> np.ndarray:
    """Weights for the lower half of the ordered sample."""
    half = n // 2
    if n == 3:
        return np.array([math.sqrt(0.5)])
    i = np.arange(1, half + 1)
    # magnitudes of the expected normal order statistics' Blom scores;
    # m[0] belongs to the extreme pair.
    m = -np.array([normal_quantile(p) for p in (i - 0.375) / (n + 0.25)])
    summ2 = 2.0 * np.sum(m**2)
    ssumm2 = math.sqrt(summ2)
    rsn = 1.0 / math.sqrt(n)
    a = np.array(m)
    a1 = np.polyval(_C1, rsn) + m[0] / ssumm2
    if n > 5:
        a2 = np.polyval(_C2, rsn) + m[1] / ssumm2
        phi = (summ2 - 2 * m[0] ** 2 - 2 * m[1] ** 2) / (1 - 2 * a1**2 - 2 * a2**2)
        a[1] = a2
        first_free = 2
    else:
        phi = (summ2 - 2 * m[0] ** 2) / (1 - 2 * a1**2)
        first_free = 1
    a[0] = a1
    a[first_free:] = m[first_free:] / math.sqrt(phi)
    return a


def shapiro_wilk(sample) -> TestResult:
    """Shapiro-Wilk W and p-value via Royston's AS R94 approximation.

    Valid for 3 <= n <= 5000; rejects constant samples.
    """
    x = np.sort(np.asarray(sample, dtype=float))
    n = len(x)
    if n < 3 or n > 5000:
        raise ValueError(f"sample size {n} outside [3, 5000]")
    ss = np.sum((x - x.mean()) ** 2)
    if ss <= 0.0:
        raise ValueError("degenerate sample: zero variance")
    a = _sw_coefficients(n)
    half = len(a)
    # coefficients are antisymmetric: lowest order statistics get -a.
    num = np.dot(a, x[n - half :][::-1]) - np.dot(a, x[:half])
    w_stat = num**2 / ss
    w_stat = min(w_stat, 1.0)

    if n == 3:
        p = _PI6 * (math.asin(math.sqrt(w_stat)) - _STQR)
        p = min(max(p, 0.0), 1.0)
    elif n <= 11:
        gamma = np.polyval(_GAMMA, n)
        if gamma - math.log(1.0 - w_stat) <= 0.0:
            p = 1e-99
        else:
            z = (-math.log(gamma - math.log(1.0 - w_stat)) - np.polyval(_SMALL_N_MU, n)) / math.exp(
                np.polyval(_SMALL_N_LOGSIG, n)
            )
            p = normal_tail(z)
    else:
        u = math.log(n)
        z = (math.log(1.0 - w_stat) - np.polyval(_LARGE_N_MU, u)) / math.exp(np.polyval(_LARGE_N_LOGSIG, u))
        p = normal_tail(z)
    return TestResult(statistic=float(w_stat), p_value=p)


def pearson(x, y) -> TestResult:
    """Sample correlation with a two-sided p-value from the t transform
    t = r sqrt((n-2)/(1-r^2)) on n-2 degrees of freedom."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be equal-length vectors")
    n = len(x)
    if n < 3:
        raise ValueError("need at least 3 observations")
    xd = x - x.mean()
    yd = y - y.mean()
    sx = np.dot(xd, xd)
    sy = np.dot(yd, yd)
    if sx <= 0.0 or sy <= 0.0:
        raise ValueError("degenerate sample: zero variance")
    r = float(np.dot(xd, yd) / math.sqrt(sx * sy))
    r = min(1.0, max(-1.0, r))
    if 1.0 - r * r <= 0.0:
        p = 0.0
    else:
        t = r * math.sqrt((n - 2) / (1.0 - r * r))
        p = t_two_sided(t, n - 2)
    return TestResult(statistic=r, p_value=p)
