"""Divergence family between densities, with exact piecewise evaluation.

The order-t divergence between densities p and q is

    d_t^2(p, q) = (1/t) * (integral of p * (p/q)^t  -  1),    t > -1,

whose notable members are the chi-squared divergence (t = 1), the
squared Hellinger distance (t = -1/2) and, in the t -> 0 limit, the
Kullback-Leibler divergence.  Two density representations are
supported: probability masses on a finite outcome set
(``DiscreteDensity``), and the joint density of a binary response with a
uniform covariate on [0, 1], which its mean function fixes, so the mean
stands for the density: ``PiecewiseConstantMean`` on equal bins, or
``SmoothMean`` with a certified derivative bound.  Regression divergences
compare any mean (the truth) with a piecewise-constant working mean on m
equal bins; the first mean enters only through two integrals per bin,
tabulated once per (mean, m, t): the posterior draws of one size m,
stacked as rows of levels, then take one pass over that table together.

+infinity is a legitimate value here (support mismatch with t > 0),
not an error.  All functions are pure and the value types immutable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

__all__ = [
    "QuadratureError",
    "DiscreteDensity",
    "PiecewiseConstantMean",
    "SmoothMean",
    "d_t_squared",
    "kl_divergence",
    "l1_distance",
    "d_t_squared_product",
]

MEAN_CLAMP = 1e-12
_SMALL_T = 1e-8
_VALIDATION_GRID = 10_001
_QUAD_TOL, _MAX_REFINE = 1e-10, 12


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to stabilize below its tolerance."""


def _safe_exp(x: float) -> float:
    """exp(x), saturating to +infinity instead of raising OverflowError."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# density representations
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DiscreteDensity:
    """Probability masses on a finite, ordered outcome set."""

    mass: np.ndarray

    def __post_init__(self):
        mass = np.asarray(self.mass, dtype=float)
        if mass.ndim != 1 or mass.size == 0:
            raise ValueError("mass must be a nonempty 1-d array")
        if np.any(mass < 0) or not np.all(np.isfinite(mass)):
            raise ValueError("masses must be finite and nonnegative")
        if abs(float(mass.sum()) - 1.0) > 1e-12:
            raise ValueError(f"masses must sum to 1, got {float(mass.sum())!r}")
        mass = mass.copy()
        mass.setflags(write=False)
        object.__setattr__(self, "mass", mass)

    @property
    def size(self) -> int:
        return self.mass.size


@dataclass(frozen=True, eq=False)
class PiecewiseConstantMean:
    """Mean function equal to level j on [(j-1)/m, j/m); x = 1 joins the last bin.

    ``levels`` is one mean's m levels, or a (k, m) stack of k means on the
    same m bins, one per row (d_t_squared then gives one value per row).
    """

    levels: np.ndarray

    def __post_init__(self):
        levels = np.asarray(self.levels, dtype=float)
        if levels.ndim not in (1, 2) or levels.size == 0:
            raise ValueError("levels must be a nonempty 1-d array or (k, m) stack")
        if np.any(levels < 0) or np.any(levels > 1):
            raise ValueError("levels must lie in [0, 1]")
        levels = levels.copy()
        levels.setflags(write=False)
        object.__setattr__(self, "levels", levels)

    @property
    def m(self) -> int:
        return self.levels.shape[-1]

    def edges(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.m + 1)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.minimum((x * self.m).astype(np.int64), self.m - 1)
        idx = np.maximum(idx, 0)
        return self.levels[..., idx]


@dataclass(frozen=True, eq=False)
class SmoothMean:
    """Smooth mean with values in [0, 1] and a certified derivative bound.

    Both are checked on a dense grid at construction time; the margin
    from {0, 1} is the truth's (``TrueModel``), checked against
    ``extremes``, the lowest and highest value on that grid.
    ``breakpoints`` declares the sorted points inside (0, 1) where the
    mean is continuous but not smooth (a kink); quadrature starts a
    panel at each of them.
    """

    fn: Callable
    d_bound: float
    breakpoints: tuple = ()
    extremes: tuple = field(init=False, repr=False)

    def __post_init__(self):
        points = tuple(float(b) for b in self.breakpoints)
        if any(not 0.0 < b < 1.0 for b in points):
            raise ValueError(f"breakpoints must lie in (0, 1), got {points}")
        if any(a >= b for a, b in zip(points, points[1:])):
            raise ValueError(
                f"breakpoints must be sorted without duplicates, got {points}")
        object.__setattr__(self, "breakpoints", points)
        xs = np.linspace(0.0, 1.0, _VALIDATION_GRID)
        vals = np.asarray(self.fn(xs), dtype=float)
        if vals.shape != xs.shape:
            raise ValueError("mean function must map arrays to arrays elementwise")
        if not np.all((vals >= 0.0) & (vals <= 1.0)):  # NaN too
            raise ValueError("mean leaves [0, 1] on the check grid")
        object.__setattr__(self, "extremes", (float(vals.min()), float(vals.max())))
        if not 0.0 <= self.d_bound < math.inf:
            raise ValueError(
                f"derivative bound must be nonnegative and finite, got {self.d_bound}")
        slopes = np.abs(np.diff(vals)) * (_VALIDATION_GRID - 1)
        worst = float(slopes.max())
        if worst > self.d_bound + 1e-9:
            raise ValueError(
                f"observed slope {worst:.6g} exceeds declared bound {self.d_bound:.6g}"
            )

    def __call__(self, x):
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)


MeanFunction = Union[PiecewiseConstantMean, SmoothMean]


# ---------------------------------------------------------------------------
# elementwise terms with zero-support conventions
# ---------------------------------------------------------------------------

def _power_term(a, b, t):
    """a^(1+t) * b^(-t) elementwise; 0 where a == 0, +inf where b == 0 < a, t > 0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        val = a ** (1.0 + t) * b ** (-t)
        # for t > 0, a^(1+t) may underflow to 0 against b^(-t) = inf (b tiny or 0)
        val = np.where(np.isnan(val), np.exp((1.0 + t) * np.log(a) - t * np.log(b)), val)
        return np.where(a > 0, val, 0.0)


def _log_ratio_term(a, b, power):
    """a * ln(a/b)^power elementwise; 0 ln 0 = 0, +inf where b == 0 < a."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        val = np.where(b == 0, math.inf, a * np.log(a / b) ** power)
    return np.where(a > 0, val, 0.0)


def _binary_power_minus1(mu1, mu2, t):
    return _power_term(mu1, mu2, t) + _power_term(1.0 - mu1, 1.0 - mu2, t) - 1.0


def _binary_kl(mu1, mu2, power=1):
    # the KL integrand, or with power 2 that of _kl_limit's second-order term
    return (_log_ratio_term(mu1, mu2, power)
            + _log_ratio_term(1.0 - mu1, 1.0 - mu2, power))


# ---------------------------------------------------------------------------
# integrals over the covariate
# ---------------------------------------------------------------------------

# the positive nodes and weights of numpy.polynomial.legendre.leggauss(32),
# which symmetrizes its output to the bit, mirrored; written out so that
# importing this module does not load numpy.polynomial
_GL_X = np.array([
    0.048307665687738324, 0.1444719615827965, 0.23928736225213706, 0.33186860228212767,
    0.42135127613063533, 0.5068999089322294, 0.5877157572407623, 0.6630442669302152,
    0.7321821187402897, 0.7944837959679424, 0.84936761373257, 0.8963211557660521,
    0.9349060759377397, 0.9647622555875064, 0.9856115115452684, 0.9972638618494816,
])
_GL_W = np.array([
    0.09654008851472766, 0.09563872007927471, 0.09384439908080451, 0.09117387869576378,
    0.08765209300440378, 0.08331192422694671, 0.07819389578707023, 0.07234579410884834,
    0.06582222277636168, 0.058684093478535565, 0.05099805926237609, 0.042835898022226836,
    0.034273862913021765, 0.025392065309262024, 0.016274394730905743, 0.007018610009470506,
])
_GL_X = np.concatenate([-_GL_X[::-1], _GL_X])
_GL_W = np.concatenate([_GL_W[::-1], _GL_W])


def _composite_gl(fn, edges: np.ndarray) -> np.ndarray:
    """32-node Gauss-Legendre integral of fn over each panel between
    consecutive edges, keeping the leading axes of fn's values; every
    entry is +inf once the integrand reaches +inf."""
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    xs = mid[:, None] + half[:, None] * _GL_X[None, :]
    vals = np.asarray(fn(xs.ravel()), dtype=float)
    vals = vals.reshape(vals.shape[:-1] + xs.shape)
    if not np.isfinite(vals).all():
        if np.isposinf(vals).any():
            return np.full(vals.shape[:-1], math.inf)
        raise QuadratureError("integrand produced nan or -inf")
    return (vals * _GL_W).sum(axis=-1) * half


def _integrate_adaptive(fn, edges, starts):
    """Composite 32-node Gauss-Legendre over the given sorted, distinct
    panel edges, bisecting every panel, at most _MAX_REFINE times, until
    successive estimates agree to within _QUAD_TOL: the integral over each
    group of panels, ``starts`` the indices of the panels that begin one,
    every group held to _QUAD_TOL."""
    edges = np.asarray(edges, dtype=float)
    if edges.size < 2:
        raise ValueError("need at least one panel")
    est = np.add.reduceat(_composite_gl(fn, edges), starts, axis=-1)
    if np.isinf(est).any():
        return est
    for _ in range(_MAX_REFINE):
        edges = np.sort(np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])]))
        starts = 2 * starts  # panel i is now panels 2i and 2i + 1
        new = np.add.reduceat(_composite_gl(fn, edges), starts, axis=-1)
        if np.isinf(new).any():
            return new
        if np.all(np.abs(new - est) < _QUAD_TOL):
            return new
        est = new
    raise QuadratureError(f"integral did not stabilize below {_QUAD_TOL}")


def _union_edges(*means: MeanFunction, min_panels: int = 8) -> np.ndarray:
    """[0, 1] cut at every bin edge and declared breakpoint of the means,
    then bisected until there are min_panels panels."""
    cuts = {0.0, 1.0}
    for mean in means:
        points = (mean.edges() if isinstance(mean, PiecewiseConstantMean)
                  else mean.breakpoints)
        cuts.update(points)
    edges = np.array(sorted(cuts))
    while edges.size - 1 < min_panels:
        edges = np.sort(np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])]))
    return edges


def _clamped_eval(mean: MeanFunction, x):
    # only smooth means are clamped before exponentiation; piecewise
    # levels of exactly 0 or 1 keep their exact zero-support behavior
    vals = mean(x)
    if isinstance(mean, SmoothMean):
        vals = np.clip(vals, MEAN_CLAMP, 1.0 - MEAN_CLAMP)
    return vals


def _covariate_integral(term, *means: MeanFunction, bins: int = 1):
    """Integrate term(mu_1(x), ..., mu_k(x)) over each of ``bins`` equal
    bins of [0, 1], as an array (term may return rows, one integral per
    row and bin); the integral over [0, 1] is element 0 at one bin.

    Exact midpoint sum over the union partition when every mean is
    piecewise constant; composite Gauss-Legendre with adaptive bisection
    on the clamped means, from at least 8 panels, otherwise, holding
    every bin to the tolerance on its own.
    """
    grid = PiecewiseConstantMean(np.zeros(bins))
    exact = all(isinstance(mean, PiecewiseConstantMean) for mean in means)
    edges = _union_edges(*means, grid, min_panels=1 if exact else 8)
    starts = np.searchsorted(edges, grid.edges()[:-1])
    if exact:
        mids = 0.5 * (edges[:-1] + edges[1:])
        vals = term(*(mean(mids) for mean in means))
        # panel lengths are positive and every term is bounded below, so
        # a +inf term (support mismatch) makes the sum +inf
        return np.add.reduceat(np.diff(edges) * vals, starts, axis=-1)
    fn = lambda x: term(*(_clamped_eval(mean, x) for mean in means))
    return _integrate_adaptive(fn, edges, starts)


@functools.lru_cache(maxsize=256)
def _bin_moments(mean: MeanFunction, m: int, t: float) -> np.ndarray:
    """Integrals of mu^(1+t) (row 0) and (1 - mu)^(1+t) (row 1) over each
    of m equal bins, smooth means clamped; read-only and shared per
    (mean, m, t).

    Against levels q_j on those bins, the power integral of the order-t
    divergence is sum_j row0_j q_j^(-t) + row1_j (1 - q_j)^(-t).
    """
    moments = _covariate_integral(
        lambda mu: np.stack([mu, 1.0 - mu]) ** (1.0 + t), mean, bins=m)
    moments.setflags(write=False)
    return moments


def _moment_terms(moments: np.ndarray, levels, t: float) -> np.ndarray:
    """Per bin, row0 q^(-t) + row1 (1 - q)^(-t) for levels q, with the
    zero-support convention of _power_term: 0 where a moment is 0, +inf
    where a level of 0 or 1 meets a positive moment at t > 0."""
    levels = np.asarray(levels, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        terms = np.where(moments > 0,
                         moments * np.stack([levels, 1.0 - levels]) ** (-t), 0.0)
    return terms.sum(axis=0)


# ---------------------------------------------------------------------------
# divergence operations
# ---------------------------------------------------------------------------

def _pair_kind(p, q) -> str:
    if isinstance(p, DiscreteDensity) and isinstance(q, DiscreteDensity):
        if p.size != q.size:
            raise ValueError("discrete densities must have the same size")
        return "discrete"
    if isinstance(p, MeanFunction) and isinstance(q, PiecewiseConstantMean):
        return "mean"
    raise ValueError("need two DiscreteDensity, or a mean function "
                     "(PiecewiseConstantMean or SmoothMean) against a PiecewiseConstantMean")


def d_t_squared(p, q, t) -> float:
    """Order-t divergence between two discrete densities, or between a
    mean and a piecewise-constant mean.

    Orders with |t| below 1e-8 are evaluated through the t -> 0 limit
    plus its first-order correction, which is exact at t = 0 (the KL
    divergence) and avoids catastrophic cancellation nearby.  A piecewise
    q whose levels are a (k, m) stack gives an array of k values, one
    per row, each equal to the value for that row alone.
    """
    tv = float(t)
    if not -1.0 < tv < math.inf:
        raise ValueError(f"order must be finite and satisfy t > -1, got {tv}")
    stack = isinstance(q, PiecewiseConstantMean) and q.levels.ndim == 2
    if abs(tv) < _SMALL_T:
        if stack:
            return np.array([_kl_limit(p, PiecewiseConstantMean(row), tv)
                             for row in q.levels])
        return _kl_limit(p, q, tv)
    if _pair_kind(p, q) == "discrete":
        total = _power_term(p.mass, q.mass, tv).sum()
        if math.isinf(total):
            return math.inf
        return (float(total) - 1.0) / tv
    # posterior draws: the integrand factors bin by bin, and a row per
    # draw takes the moments as (2, 1, m) against (2, k, m) terms
    moments = _bin_moments(p, q.m, tv)[:, None]
    val = _moment_terms(moments, np.atleast_2d(q.levels), tv).sum(axis=-1) - 1.0
    val = np.where(np.isinf(val), math.inf, val / tv)
    return val if stack else float(val[0])


def kl_divergence(p, q) -> float:
    """Kullback-Leibler divergence, the t -> 0 member of the family."""
    if _pair_kind(p, q) == "discrete":
        val = _log_ratio_term(p.mass, q.mass, 1).sum()
        return float(val)
    return float(_covariate_integral(_binary_kl, p, q)[0])


def _kl_limit(p, q, tv: float) -> float:
    base = kl_divergence(p, q)
    if math.isinf(base) or tv == 0.0:
        return base
    if _pair_kind(p, q) == "discrete":
        second = float(_log_ratio_term(p.mass, q.mass, 2).sum())
    else:
        second = _covariate_integral(lambda a, b: _binary_kl(a, b, 2), p, q)[0]
    if math.isinf(second):
        return math.inf
    return base + 0.5 * tv * second


def l1_distance(p, q) -> float:
    """L1 distance between two discrete densities; always in [0, 2]."""
    if _pair_kind(p, q) != "discrete":
        raise ValueError("need two DiscreteDensity")
    return float(np.abs(p.mass - q.mass).sum())


def d_t_squared_product(p, q, t, n: int) -> float:
    """Divergence between the n-fold product densities, from the
    single-observation value in closed form.

    For finite order t the product value is ((1 + t*d^2)^n - 1) / t,
    evaluated in log space, and +inf wherever the base value is; the KL
    limit is additive (n times KL).
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"product size must be >= 1, got {n}")
    tv = float(t)
    base = d_t_squared(p, q, tv)
    if abs(tv) < _SMALL_T:
        return n * base
    x = tv * base
    if x <= -1.0:
        # the power integral hit zero: (0^n - 1) / t
        return -1.0 / tv
    return math.expm1(n * math.log1p(x)) / tv
