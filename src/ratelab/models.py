"""True response means, working-model priors, and data simulation.

The observation model is a binary response Z given a uniform covariate
X on [0, 1], with P(Z = 1 | X = x) = mu0(x).  Working models are
piecewise-constant means on m equal bins; the model index m carries a
geometric-in-log-n prior and each model carries a within-model prior
on its bin levels, either uniform on [0, 1]^m or a product density on
the log-odds scale, one class per prior owning its formulas and bin
posteriors.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .divergence import (_GL_W, _GL_X, MEAN_CLAMP, PiecewiseConstantMean, QuadratureError,
                         SmoothMean, _composite_gl, _union_edges)
from .rng import stream
from .special import bisect, expit, log_beta_counts, logit, logsumexp, ndtr

__all__ = [
    "TrueModel",
    "WithinModelPrior",
    "UniformPrior",
    "LogOddsPrior",
    "NormalPrior",
    "LaplacePrior",
    "PriorSpec",
    "Dataset",
    "BestApproximation",
    "best_approximation",
    "log_covering_number_uniform",
    "model_log_prior",
    "simulate_data",
    "log_odds_to_mean",
    "mean_to_log_odds",
]


@dataclass(frozen=True, eq=False)
class TrueModel:
    """True response mean, either smooth or piecewise constant ("sparse").

    The mean stays strictly inside (margin, 1 - margin), checked on a
    sparse truth's levels and on a smooth one's check-grid extremes.  The slope
    bound of a smooth truth is its mean's ``d_bound``; ``m0`` is a sparse
    one's m.
    """

    mean: Union[SmoothMean, PiecewiseConstantMean]
    margin: float

    def __post_init__(self):
        if not 0.0 < self.margin < 0.5:
            raise ValueError(f"margin must lie in (0, 0.5), got {self.margin}")
        values = self.mean.levels if self.m0 else np.array(self.mean.extremes)
        if not np.all((values > self.margin) & (values < 1.0 - self.margin)):  # NaN too
            raise ValueError("the mean must stay strictly inside (margin, 1 - margin)")

    @property
    def m0(self) -> Optional[int]:
        return self.mean.m if isinstance(self.mean, PiecewiseConstantMean) else None

    @classmethod
    def smooth(cls, fn: Callable, d_bound: float, margin: float,
               breakpoints: tuple = ()) -> "TrueModel":
        return cls(SmoothMean(fn, float(d_bound), breakpoints=breakpoints), float(margin))

    @classmethod
    def sine(cls, center: float = 0.5, amplitude: float = 0.15,
             margin: float = 0.25) -> "TrueModel":
        center, amplitude = float(center), float(amplitude)
        fn = lambda x: center + amplitude * np.sin(2.0 * np.pi * x)
        d_bound = 2.0 * math.pi * abs(amplitude)
        return cls.smooth(fn, d_bound, margin)

    @classmethod
    def triangle(cls, center: float = 0.5, amplitude: float = 0.24,
                 peak: float = 0.5, margin: float = 0.25) -> "TrueModel":
        """Piecewise-linear wave from center - amplitude at x = 0 up to
        center + amplitude at x = peak and back down at x = 1.  The kink
        at ``peak`` is declared as a quadrature breakpoint."""
        center, amplitude, peak = float(center), float(amplitude), float(peak)
        if not 0.0 < peak < 1.0:
            raise ValueError(f"peak must lie in (0, 1), got {peak}")

        def fn(x):  # in place, with the bits of c - a + 2a (x / peak) and, as
            x = np.asarray(x, dtype=float)  # -y is exact, c + a - 2a (x - peak) / (1 - peak)
            up = np.asarray(x / peak); up *= 2.0 * amplitude; up += center - amplitude
            down = np.asarray(x - peak); down *= -2.0 * amplitude; down /= 1.0 - peak
            down += center + amplitude
            np.copyto(down, up, where=x < peak)
            return down

        d_bound = 2.0 * abs(amplitude) / min(peak, 1.0 - peak)
        return cls.smooth(fn, d_bound, margin, breakpoints=(peak,))

    @classmethod
    def linear(cls, intercept: float, slope: float, margin: float = 0.25) -> "TrueModel":
        intercept, slope = float(intercept), float(slope)
        fn = lambda x: intercept + slope * x
        return cls.smooth(fn, abs(slope), margin)

    @classmethod
    def constant(cls, level: float, margin: float = 0.25) -> "TrueModel":
        level = float(level)
        fn = lambda x: np.full_like(np.asarray(x, dtype=float), level)
        return cls.smooth(fn, 0.0, margin)

    @classmethod
    def sparse(cls, levels: Sequence[float], margin: float = 0.25) -> "TrueModel":
        return cls(PiecewiseConstantMean(levels), float(margin))


@dataclass(frozen=True)
class BestApproximation:
    """Working-model levels closest to the truth, with a sup-error bound,
    and the levels' log odds."""

    levels: np.ndarray
    sup_error: float
    log_odds: np.ndarray


def best_approximation(truth: TrueModel, m: int) -> BestApproximation:
    """Levels sampled at the left bin endpoints, with a certified bound
    on sup |mu0 - approximation|.

    Smooth truth: bound d_bound / m.  Sparse truth: the gap is computed
    exactly on the union partition (0 whenever the working bins refine
    the true bins, in particular at m = m0).  Memoized per (truth, m), so
    the log odds of the levels are computed once.
    """
    m = int(m)
    if m < 1:
        raise ValueError(f"model size must be >= 1, got {m}")
    return _best_approximation(truth, m)


@functools.lru_cache(maxsize=256)
def _best_approximation(truth: TrueModel, m: int) -> BestApproximation:
    left = np.arange(m) / m
    levels = np.asarray(truth.mean(left), dtype=float)
    if truth.m0 is None:
        bound = truth.mean.d_bound / m
    else:
        approx = PiecewiseConstantMean(levels)
        edges = _union_edges(truth.mean, approx, min_panels=1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        bound = float(np.abs(truth.mean(mids) - approx(mids)).max())
    levels = levels.copy()
    log_odds = mean_to_log_odds(levels)
    for array in (levels, log_odds):
        array.setflags(write=False)
    return BestApproximation(levels, float(bound), log_odds)


def _grid_spacing(n: int, u: float) -> float:
    """h = 4 n^(-1/u), the cell width of the norm-complexity grid at n."""
    return 4.0 * n ** (-1.0 / u)


def _log_grid_spacing(n: int, u: float) -> float:
    """ln h = ln 4 - ln(n) / u, also where h leaves the normal floats."""
    return math.log(4.0) - math.log(n) / u


def log_covering_number_uniform(n: int, u: float) -> float:
    """ln ceil(n^(1/u)), the count of grid cells of spacing n^(-1/u) that cover
    [0, 1]; model m's cover log is m times it.  For u = 1/k and integer n it
    comes from the integer n^k, or as k ln n where n^k would pass 2^21 bits
    (at u = 1e-8 the integer takes hours to build)."""
    if not 0.0 < u < 1.0:
        raise ValueError(f"u must lie in (0, 1), got {u}")
    if n < 1:
        raise ValueError("n must be >= 1")
    k = _nearest_unit_k(u)
    if k is not None and float(n).is_integer():
        n = int(n)
        return k * math.log(n) if k * n.bit_length() > 1 << 21 else math.log(n ** k)
    return math.log(math.ceil(n ** (1.0 / u) - 1e-9))


def _nearest_unit_k(u: float) -> Optional[int]:
    """k = round(1/u) where |k u - 1| <= 1e-9, the one rule that reads u as 1/k;
    else None.  Relative, as past k = 4.5e6 one ulp of 1/u passes 1e-9."""
    k = round(1.0 / u)
    return k if k >= 1 and abs(k * u - 1.0) <= 1e-9 else None


def _unit_fraction(u: float) -> int:
    """The integer k with u = 1/k by _nearest_unit_k; any other u is refused."""
    k = _nearest_unit_k(u)
    if k is None:
        raise ValueError(f"u must be the reciprocal of a positive integer, got {u}")
    return k


# the smallest normal float: below it a float keeps fewer than 53 bits
_TINY = sys.float_info.min
# the normal-prior scales whose square is a normal float
_MIN_NORMAL_SCALE, _MAX_NORMAL_SCALE = math.sqrt(_TINY), math.sqrt(sys.float_info.max)


class WithinModelPrior:
    """Prior on the m bin levels of a working model, alike and independent
    per bin: ``UniformPrior()`` on [0, 1], or ``NormalPrior(scale)`` or
    ``LaplacePrior(scale)``, a symmetric log-odds density decreasing away
    from 0.  Each class owns its box masses, cell sums and bin posteriors:
    bin_log_evidence(s, f) and bin_draws(s, f, rng)."""


@dataclass(frozen=True)
class UniformPrior(WithinModelPrior):
    """Independent uniforms on [0, 1] per bin, on the mean scale."""

    name = "uniform"

    def mean_half_width(self, delta):
        return delta

    def log_box_masses(self, deltas: np.ndarray, approx: BestApproximation):
        """ln prior mass of the box of each half-width around approx.levels."""
        lo, hi = approx.levels - deltas[:, None], approx.levels + deltas[:, None]
        if np.any(lo < -1e-12) or np.any(hi > 1.0 + 1e-12):
            raise ValueError("box escapes the within-model prior support [0, 1]")
        return np.log(np.minimum(hi, 1.0) - np.maximum(lo, 0.0)).sum(axis=-1)

    def log_cell_sum(self, n: int, u: float) -> float:
        """ln of the exact cell-mass^u sum S over [0, 1] in cells of width
        h = 4 n^(-1/u): for u = 1/k, 1/h = n^k / 4 counts the whole cells in
        integers, and the last cell holds the remainder (n^k mod 4) / n^k.
        Where h is below the normal floats, n^k is not built: S is
        (n^k / 4)^(1 - u) within 4 n^(-k) relative, so ln S = (1 - u)(k ln n - ln 4).
        A u that is not 1/k is refused."""
        h, k = _grid_spacing(n, u), _unit_fraction(u)
        if h < _TINY:
            return (1.0 - u) * (k * math.log(n) - math.log(4.0))
        side = n ** k
        cells, rem = divmod(side, 4)
        return math.log(cells * h ** u + (rem / side) ** u)

    log_analytic_sum = log_cell_sum  # the closed form is exact

    def bin_log_evidence(self, s, f):
        """Per-bin log evidence under Beta(1, 1): ln B(1 + s, 1 + f)."""
        return log_beta_counts(s, f)

    def bin_draws(self, s, f, rng):
        """Conjugate Beta(1 + s, 1 + f) levels, one scalar call per bin in bin
        order: numpy's array call runs the same sampler per bin in order, so the
        bits are the same, but spends 11-17 us checking its arrays against about
        1 us a call."""
        params, beta = list(zip((1.0 + s).tolist(), (1.0 + f).tolist())), rng.beta
        return (lambda: [beta(a, b) for a, b in params]), np.array


# a cap of 2^23 cells per side keeps normal(1.5), u = 1/2 exact to n = 1000; an
# interval across which ln f falls by at most _NARROW_DROP nats is narrow
_TAIL_TOL, _MAX_CELLS, _CELL_CHUNK, _NARROW_DROP = 1e-15, 1 << 23, 1 << 16, 1.0
# narrow ones take leggauss(10): its positive nodes and weights, mirrored as divergence._GL_X is
_GL10_X = np.array([0.14887433898163122, 0.4333953941292472, 0.6794095682990244,
                    0.8650633666889845, 0.9739065285171717])
_GL10_W = np.array([0.2955242247147528, 0.2692667193099965, 0.219086362515982,
                    0.1494513491505804, 0.06667134430868814])
_GL10_X, _GL10_W = np.r_[-_GL10_X[::-1], _GL10_X], np.r_[_GL10_W[::-1], _GL10_W]


@dataclass(frozen=True)
class LogOddsPrior(WithinModelPrior):
    """A symmetric density f per bin on the log-odds scale, decreasing away
    from 0, with a positive finite scale."""

    scale: float = 1.0

    def __post_init__(self):
        if not sys.float_info.min <= self.scale < math.inf:  # a subnormal one
            # overflows 1/b, by which the Laplace slope and log ratio divide
            raise ValueError(f"scale must be positive, finite, not subnormal: {self.scale}")

    def bin_log_evidence(self, s, f):
        """Per-bin log evidence by the framed quadrature below: a nonempty bin's
        is the log of the sum of its 32-panel masses, certified when its 16-panel
        sum and its tail bound stay within _EVIDENCE_TOL of it.  QuadratureError
        names the first uncertified bin and carries its index in s as .bin."""
        log_ev = np.zeros(s.shape)  # an empty bin's evidence is 1, its log 0
        live = np.flatnonzero(s + f)
        (mode, scale, peak), start, width, density = _bin_panels(s[live], f[live], self)
        coarse, fine = ((width * _panel_masses(start, width, density, p).sum(axis=-1)).sum(axis=0)
                        for p in _PANELS)
        # beyond each end the concave target falls at least as fast as over the
        # last unit of z inside, so the mass out there is below e^end / drop
        end, inside = (_log_target(mode + scale * np.array([[-z], [z]]), s[live], f[live],
                                   self) - peak for z in (_SPAN, _SPAN - 1.0))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            tails = np.where(inside > end, np.exp(end) / (inside - end), np.inf).sum(axis=0)
            certified = (fine > 0.0) & (np.abs(fine - coarse) <= _EVIDENCE_TOL * fine) & (
                tails <= _EVIDENCE_TOL * fine)
            log_ev[live] = np.where(certified, peak + np.log(scale) + np.log(fine), np.nan)
        missed = np.flatnonzero(np.isnan(log_ev))  # the uncertified bins
        if missed.size:
            j = int(missed[0])
            error = QuadratureError(f"log-odds evidence of the bin with {s[j]:g} successes"
                                    f" and {f[j]:g} failures missed tolerance {_EVIDENCE_TOL}")
            error.bin = j
            raise error
        return log_ev

    def bin_draws(self, s, f, rng):
        """m uniforms per draw, turned into the quantiles of the bin posteriors,
        for all draws of the size at once, by inverting the evidence's panels."""
        return (lambda: rng.random(s.size)), (
            lambda rows: log_odds_to_mean(_log_odds_quantiles(s, f, self, np.array(rows))))

    def mean_half_width(self, delta):
        # the logistic map is 1/4-Lipschitz, so a log-odds box of half-width
        # delta maps into a mean box of half-width delta / 4
        return delta / 4.0

    def log_box_masses(self, deltas: np.ndarray, approx: BestApproximation):
        """ln prior mass of the box of each half-width around approx.log_odds."""
        lo, hi = approx.log_odds - deltas[:, None], approx.log_odds + deltas[:, None]
        log_masses = self.log_interval_mass(lo, hi)
        if np.isneginf(log_masses).any():
            # the first underflowing box in (delta, bin) order
            i, j = np.argwhere(np.isneginf(log_masses))[0]
            raise FloatingPointError(
                f"prior mass of bin {j + 1}'s log-odds box [{lo[i, j]:.6g}, {hi[i, j]:.6g}] "
                f"underflows float64 at m={approx.log_odds.size}, delta={deltas[i]:.6g} "
                f"({self.name} prior, scale={self.scale:g})")
        return log_masses.sum(axis=-1)

    def log_interval_mass(self, lo, hi):
        """ln P(lo < W < hi), lo <= hi, from the ends' distances a, b from 0, so mirrored
        intervals match bit for bit.  Narrow: Gauss-Legendre on f / f(nearest 0) per side
        of 0.  Wide: log tails, which cancel by at most 2e/(e - 1) as tail(far)/tail(near)
        <= f(far)/f(near); one side of 0 is -inf where its near log tail is -inf."""
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        across, left = (lo < 0) & (hi > 0), hi <= 0
        a, b = np.abs(np.where(left, hi, lo)), np.abs(np.where(left, lo, hi))
        near, far = np.where(across, 0.0, a), np.maximum(a, b)
        narrow = self.log_ratio(near, far - near) >= -_NARROW_DROP
        out, one, two, wide = np.empty(a.shape), narrow & ~across, narrow & across, ~narrow
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out[one] = self._narrow(a[one], b[one])
            out[two] = np.logaddexp(self._narrow(0.0, a[two]), self._narrow(0.0, b[two]))
            if wide.any():  # a is the near end of a one-sided interval
                tail_a, tail_b = self.log_tail(a[wide]), self.log_tail(b[wide])
                out[wide] = np.where(across[wide], np.log1p(-np.exp(tail_a) - np.exp(tail_b)),
                                     tail_a + np.log(-np.expm1(tail_b - tail_a)))
                out[wide] = np.where(~across[wide] & np.isneginf(tail_a), -np.inf, out[wide])
        return out[()]

    def _narrow(self, near, far):
        half = 0.5 * (far - near)  # node x lies half (1 + x) from near; nodes lead
        rel = np.exp(self.log_ratio(near, np.multiply.outer(1.0 + _GL10_X, half)))
        return self.log_pdf(near) + np.log(half * np.einsum("k,k...", _GL10_W, rel))

    def _log_enclosure(self, n: int, u: float) -> tuple:
        """ln of the ends h^(u-1) (I -+ 2 h f(0)^u), I the integral of f^u, around
        the cell sum S at n: a cell's mass is between h f at its outer and inner
        edge.  They come as ln I + ln(1 -+ 2 h f(0)^u / I) + (u - 1) ln h, the
        lower one -inf where 2 h f(0)^u >= I."""
        log_integral, log_h = self.log_u_norm_integral(u), _log_grid_spacing(n, u)
        log_rel = math.log(2.0) + log_h + u * float(self.log_pdf(0.0)) - log_integral
        lower = math.log1p(-math.exp(log_rel)) if log_rel < 0.0 else -math.inf
        upper = float(np.logaddexp(0.0, log_rel))  # ln(1 + rel), rel past the floats too
        return tuple(log_integral + end + (u - 1.0) * log_h for end in (lower, upper))

    def log_analytic_sum(self, n: int, u: float) -> float:
        """ln of the enclosure's upper end, the analytic bound on the cell sum."""
        return self._log_enclosure(n, u)[1]

    def log_u_norm_integral(self, u: float) -> float:
        """ln of the integral of f^u over the real line, in closed form."""
        if not 0.0 < u < 1.0:
            raise ValueError(f"u must lie in (0, 1), got {u}")
        return self._log_u_norm_integral(u)


@dataclass(frozen=True)
class NormalPrior(LogOddsPrior):
    """Normal log-odds density with standard deviation s = ``scale``."""

    name, kinked = "normal", False

    def __post_init__(self):
        super().__post_init__()
        if self.scale > _MAX_NORMAL_SCALE:  # the slope and log_ratio square it
            raise ValueError(f"scale must be at most {_MAX_NORMAL_SCALE:.6g} under a normal "
                             f"prior, where its square overflows float64: {self.scale:g}")
        if self.scale < _MIN_NORMAL_SCALE:  # and the curvature inverts the square
            raise ValueError(f"scale must be at least {_MIN_NORMAL_SCALE:.6g} under a normal "
                             f"prior, where its square is not a normal float: {self.scale:g}")

    @property
    def curvature(self) -> float:
        return self.scale ** -2

    def log_pdf(self, w):
        w = np.asarray(w, dtype=float)
        return -0.5 * (w / self.scale) ** 2 - math.log(self.scale) - 0.5 * math.log(2.0 * math.pi)

    def slope(self, theta):
        return -theta / self.scale ** 2

    def log_tail(self, w):
        """ln P(W > w) = ln ndtr(-x), x = w / scale; where that float tail is
        below the normal floats (x > 37.5), ln phi(x) + ln R(x), R the Mills
        ratio from six terms of its asymptotic series, within 1.4e-15 of R there."""
        x = np.asarray(w, dtype=float) / self.scale
        tail = ndtr(-x)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            inv = x ** -2.0
            series = inv * (1 - 3 * inv * (1 - 5 * inv * (1 - 7 * inv * (1 - 9 * inv))))
            far = -0.5 * x * x - np.log(x) - 0.5 * math.log(2.0 * math.pi) + np.log1p(-series)
            return np.where(tail < _TINY, far, np.log(tail))[()]

    def log_ratio(self, near, x):  # ln f(near + x) - ln f(near)
        return x * (x + 2.0 * near) * (-0.5 / self.scale ** 2)

    def _log_u_norm_integral(self, u: float) -> float:
        log_width = math.log(self.scale) + 0.5 * math.log(2.0 * math.pi)  # ln(s sqrt(2 pi))
        return (1.0 - u) * log_width - 0.5 * math.log(u)

    def log_cell_sum(self, n: int, u: float) -> float:
        """ln of the cell-mass^u sum S over the cells [j*h, (j+1)*h) of the grid
        at n: the first J cells per side, J the least that puts the rest, at most
        the upper end times e^(-u (J h)^2 / (2 s^2)), below _TAIL_TOL of
        max(1, lower end) <= S; past _MAX_CELLS, the lower end.  Where h leaves
        the normal floats, J passes the cap at any scale above 1e-301."""
        log_lower, log_upper = self._log_enclosure(n, u)
        decay = (log_upper - math.log(_TAIL_TOL) - max(0.0, log_lower)) / u
        reach = self.scale * math.sqrt(2.0 * decay)  # J h
        if math.log(reach) - _log_grid_spacing(n, u) > math.log(_MAX_CELLS):
            return log_lower
        h = _grid_spacing(n, u)
        cells = math.ceil(reach / h)
        chunks = (np.arange(start, min(start + _CELL_CHUNK, cells) + 1, dtype=float) * h
                  for start in range(0, cells, _CELL_CHUNK))
        total = sum(float(np.exp(u * self.log_interval_mass(edges[:-1], edges[1:])).sum())
                    for edges in chunks)
        return math.log(2.0 * total)


@dataclass(frozen=True)
class LaplacePrior(LogOddsPrior):
    """Laplace log-odds density with scale b, kinked at 0."""

    name, kinked, curvature = "laplace", True, 0.0

    def log_pdf(self, w):
        return -np.abs(np.asarray(w, dtype=float)) / self.scale - math.log(2.0 * self.scale)

    def slope(self, theta):
        return -np.sign(theta) / self.scale  # 0 at the kink

    def log_tail(self, w):  # ln P(W > w) for w >= 0
        return math.log(0.5) - w / self.scale

    def log_ratio(self, near, x):  # ln f(near + x) - ln f(near), x >= 0
        return -x / self.scale

    def _log_u_norm_integral(self, u: float) -> float:
        return (1.0 - u) * (math.log(2.0) + math.log(self.scale)) - math.log(u)

    def log_cell_sum(self, n: int, u: float) -> float:
        """ln of the exact cell-mass^u sum S over the cells [j*h, (j+1)*h) of the
        grid at n, a geometric series: cell j >= 0 holds e^(-j h / b) (1 - e^(-h / b)) / 2.
        Where u h / b is below the normal floats, 1 - e^(-y) rounds to y at
        y = h / b and u h / b, and ln S = (1 - u) ln 2 + (u - 1) ln(h / b) - ln u."""
        h, b = _grid_spacing(n, u), self.scale
        if u * h / b >= _TINY:
            return math.log(2.0 * (-0.5 * math.expm1(-h / b)) ** u / -math.expm1(-u * h / b))
        return ((1.0 - u) * math.log(2.0) + (u - 1.0) * (_log_grid_spacing(n, u) - math.log(b))
                - math.log(u))


# The framed quadrature of a log-odds prior's bin posteriors.  A bin's frame
# is its log-odds posterior's mode, from the prior's slope, and the scale
# 1/sqrt(curvature) there; z = (theta - mode) / scale.  The evidence is
# Gauss-Legendre quadrature on the framed bin, split at the prior's kink if
# it has one, certified per bin; a draw's quantiles invert the same panel
# masses, by Newton steps inside the panel that holds each unit.  The
# panels cover z in [-_SPAN, _SPAN] as z = _SPAN sinh(_GRADE v) / sinh(_GRADE),
# v in [-1, 1]: uniform steps in v are 0.93 dv wide in z at the mode and
# widen outward, where wide Laplace tails reach.
_SPAN, _GRADE, _PANELS = 1024.0, 10.0, (16, 32)
# a chunk of bins integrates as (2 pieces, _CHUNK bins, 32 x 32 nodes)
# float64 temporaries, 16 KiB per bin: at 6 bins they stay below glibc
# malloc's 128 KiB mmap and trim thresholds, so chunks reuse heap pages;
# a block of quantiles takes (_BLOCK, 33) temporaries
_MODE_BRACKET, _CHUNK, _BLOCK = 64.0, 6, 4096
_EVIDENCE_TOL, _QUANTILE_TOL, _NEWTON_STEPS = 1e-10, 1e-12, 50


def _log_odds_bin_loglik(theta, s, f):
    # ln sigma(+-theta) = -max(-+theta, 0) - ln(1 + e^(-|theta|)), stable
    return (-(s + f) * np.log1p(np.exp(-np.abs(theta)))
            - np.maximum(-s * theta, f * theta))


def _log_target(theta, s, f, within: LogOddsPrior):
    # log of a bin's unnormalized posterior on the log-odds scale; concave
    return _log_odds_bin_loglik(theta, s, f) + within.log_pdf(theta)


def _z_of_v(v):  # z and dz/dv
    unit = _SPAN / math.sinh(_GRADE)
    return unit * np.sinh(_GRADE * v), unit * _GRADE * np.cosh(_GRADE * v)


def _bin_panels(s, f, within: LogOddsPrior):
    """Per bin with s successes and f failures: its frame (mode, scale and
    peak, the log target at the mode, as rows), the mode by bisection on the
    concave target's slope over [-64, 64], an empty bin's the prior's; its
    two pieces in v, split at the mode or at a Laplace kink in the span
    (start, width rows); and its framed density per unit width, as
    density(v, at) of the bins at, at v."""
    def rising(mid):
        return s * expit(-mid) - f * expit(mid) + within.slope(mid) > 0

    bracket = np.full(s.shape, _MODE_BRACKET)
    lo, hi = bisect(rising, -bracket, bracket)
    mode = 0.5 * (lo + hi)
    curvature = (s + f) * expit(mode) * expit(-mode) + within.curvature
    empty = s + f == 0
    scale = np.where(empty, within.scale ** -2.0, curvature) ** -0.5
    mode = np.where(empty, 0.0, mode)
    peak = _log_target(mode, s, f, within)
    kink = np.arcsinh(-mode / scale * math.sinh(_GRADE) / _SPAN) / _GRADE
    cut = np.where(within.kinked & (np.abs(kink) < 1.0), kink, 0.0)
    start = np.stack([np.full_like(cut, -1.0), cut])
    width = np.stack([cut + 1.0, 1.0 - cut])

    def density(v, at):  # exp(target - peak) dz/dv of the bins at
        z, dz_dv = _z_of_v(v)
        theta = mode[at, None] + scale[at, None] * z
        with np.errstate(over="ignore"):  # an +inf mass fails certification
            return dz_dv * np.exp(_log_target(theta, s[at, None], f[at, None], within)
                                  - peak[at, None])

    return np.stack([mode, scale, peak]), start, width, density


def _panel_masses(start, width, density, panels: int) -> np.ndarray:
    """The masses of `panels` equal panels in v per piece of the framed
    density per unit width of _bin_panels, as (piece, bin, panel),
    integrated _CHUNK bins at a time."""
    chunks = np.split(np.arange(start.shape[1]), np.arange(_CHUNK, start.shape[1], _CHUNK))
    return np.concatenate([_composite_gl(  # u runs over [0, 1] along each piece
        lambda u: density(start[:, at, None] + width[:, at, None] * u, at),
        np.linspace(0.0, 1.0, panels + 1)) for at in chunks], axis=1)


def _log_odds_quantiles(s, f, within: LogOddsPrior, units) -> np.ndarray:
    """Log-odds quantiles at units (units[..., j] for bin j) of the m bins of
    one model.  In the panel that holds a unit's share of the running sum of
    32-panel masses, safeguarded Newton steps on v (partial masses by 32-node
    Gauss-Legendre, the framed density as slope, bisection where a step
    leaves the bracket) solve to _QUANTILE_TOL of the bin's mass."""
    s, f = np.atleast_1d(s), np.atleast_1d(f)
    frame, start, width, density = _bin_panels(s, f, within)
    fine = _panel_masses(start, width, density, _PANELS[-1])
    mass = (width[..., None] * fine).transpose(1, 0, 2).reshape(s.size, -1)
    cdf = np.cumsum(mass, axis=1)  # panels of the first piece, then the second
    units = np.broadcast_to(units, np.broadcast_shapes(np.shape(units), s.shape))
    bins = np.broadcast_to(np.arange(s.size), units.shape).ravel()
    theta = np.empty(bins.size)
    for block in np.split(np.arange(bins.size), np.arange(_BLOCK, bins.size, _BLOCK)):
        j = bins[block]
        want = units.flat[block] * cdf[j, -1]
        panel = np.minimum((cdf[j] <= want[:, None]).sum(axis=-1), cdf.shape[1] - 1)
        rest = want - np.where(panel > 0, cdf[j, panel - 1], 0.0)
        piece, k = np.divmod(panel, fine.shape[-1])
        lo = start[piece, j] + width[piece, j] * (k / fine.shape[-1])  # panel start
        bracket = np.stack([lo, lo + width[piece, j] / fine.shape[-1]])
        v = lo + (bracket[1] - lo) * rest / mass[j, panel]
        at = np.arange(block.size)  # the unsolved
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(_NEWTON_STEPS):
                half = 0.5 * (v[at] - lo[at])
                nodes = np.concatenate([lo[at, None] + half[:, None] * (1.0 + _GL_X),
                                        v[at, None]], axis=1)
                g = density(nodes, j[at])
                miss = half * (g[:, :-1] * _GL_W).sum(axis=-1) - rest[at]
                bracket[np.where(miss < 0, 0, 1), at] = v[at]
                step = v[at] - miss / g[:, -1]
                inside = (bracket[0, at] < step) & (step < bracket[1, at])
                go = np.abs(miss) > _QUANTILE_TOL * cdf[j[at], -1]
                v[at[go]] = np.where(inside, step, bracket[:, at].mean(axis=0))[go]
                at = at[go]
                if not at.size:
                    break
        if at.size:
            raise QuadratureError(f"model size m={s.size}, bin {j[at[0]] + 1}: log-odds"
                                  f" quantile missed tolerance {_QUANTILE_TOL:g} in"
                                  f" {_NEWTON_STEPS} Newton steps")
        theta[block] = frame[0, j] + frame[1, j] * _z_of_v(v)[0]
    return theta.reshape(units.shape)


@dataclass(frozen=True)
class PriorSpec:
    """Joint prior: model index m in {1..m_max} with mass proportional to
    n^(-k_model * (m - 1)), then the within-model prior on levels.

    m_max = 0 requests the default ceil(sqrt(n)).
    """

    n: int
    k_model: float = 3.0
    m_max: int = 0
    within: WithinModelPrior = UniformPrior()

    def __post_init__(self):
        if int(self.n) < 1:
            raise ValueError(f"sample size must be >= 1, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        if not 0 < self.k_model < math.inf:
            raise ValueError(f"k_model must be positive and finite, got {self.k_model}")
        m_max = int(self.m_max)
        if m_max == 0:
            m_max = int(math.ceil(math.sqrt(self.n)))
        if m_max < 1:
            raise ValueError(f"m_max must be >= 1, got {m_max}")
        object.__setattr__(self, "m_max", m_max)


def model_log_prior(spec: PriorSpec) -> np.ndarray:
    """Normalized log prior masses over m = 1..m_max, as a read-only
    array shared by every spec with the same (n, k_model, m_max)."""
    return _model_log_prior(spec.n, spec.k_model, spec.m_max)


@functools.lru_cache(maxsize=256)
def _model_log_prior(n: int, k_model: float, m_max: int) -> np.ndarray:
    m = np.arange(1, m_max + 1)
    logw = -k_model * (m - 1) * math.log(n) if n > 1 else np.zeros(m_max)
    logw = np.asarray(logw, dtype=float)
    out = logw - logsumexp(logw)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Dataset:
    """Simulated covariate/response pairs."""

    x: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        z = np.asarray(self.z, dtype=np.int8)
        if x.shape != z.shape or x.ndim != 1:
            raise ValueError("x and z must be 1-d arrays of equal length")
        if x.size and (x.min() < 0.0 or x.max() > 1.0):
            raise ValueError("covariates must lie in [0, 1]")
        if z.size and not np.all((z == 0) | (z == 1)):
            raise ValueError("responses must be 0/1")
        x = x.copy(); x.setflags(write=False)
        z = z.copy(); z.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)

    @property
    def n(self) -> int:
        return self.x.size


def simulate_data(truth: TrueModel, n: int, seed) -> Dataset:
    """Draw n iid pairs: X uniform on [0, 1], Z Bernoulli(mu0(X)).

    ``seed`` is an integer or tuple of integers addressing a dedicated
    counter-based stream, so results are reproducible bit for bit and
    independent of any surrounding execution schedule.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    key = tuple(seed) if isinstance(seed, (tuple, list)) else (int(seed),)
    rng = stream(*key)
    x = rng.random(n)
    mu = np.asarray(truth.mean(x), dtype=float)
    z = (rng.random(n) < mu).astype(np.int8)
    return Dataset(x=x, z=z)


def log_odds_to_mean(theta):
    """Logistic map, saturating inside [1e-12, 1 - 1e-12]."""
    return np.clip(expit(np.asarray(theta, dtype=float)), MEAN_CLAMP, 1.0 - MEAN_CLAMP)


def mean_to_log_odds(mu):
    mu = np.clip(np.asarray(mu, dtype=float), MEAN_CLAMP, 1.0 - MEAN_CLAMP)
    return logit(mu)
