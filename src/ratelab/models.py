"""True response means, working-model priors, and data simulation.

The observation model is a binary response Z given a uniform covariate
X on [0, 1], with P(Z = 1 | X = x) = mu0(x).  Working models are
piecewise-constant means on m equal bins; the model index m carries a
geometric-in-log-n prior and each model carries a within-model prior
on its bin levels, either uniform on [0, 1]^m or a product density on
the log-odds scale.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .divergence import (MEAN_CLAMP, PiecewiseConstantMean, RegressionDensity,
                         SmoothMean, _union_edges)
from .rng import stream
from .special import expit, logit, logsumexp, ndtr

__all__ = [
    "TrueModel",
    "WithinModelPrior",
    "PriorSpec",
    "Dataset",
    "BestApproximation",
    "best_approximation",
    "model_log_prior",
    "simulate_data",
    "log_odds_to_mean",
    "mean_to_log_odds",
]


@dataclass(frozen=True, eq=False)
class TrueModel:
    """True response mean, either smooth or piecewise constant ("sparse").

    ``margin`` keeps the mean inside (margin, 1 - margin); smooth means
    additionally declare a derivative bound ``d_bound``.
    """

    kind: str
    margin: float
    mean: Union[SmoothMean, PiecewiseConstantMean]
    d_bound: float
    m0: Optional[int] = None

    @property
    def density(self) -> RegressionDensity:
        return RegressionDensity(self.mean)

    @classmethod
    def smooth(cls, fn: Callable, d_bound: float, margin: float,
               breakpoints: tuple = ()) -> "TrueModel":
        mean = SmoothMean(fn, float(d_bound), float(margin),
                          breakpoints=breakpoints)
        return cls("smooth", float(margin), mean, float(d_bound))

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

        def fn(x):
            x = np.asarray(x, dtype=float)
            up = center - amplitude + 2.0 * amplitude * (x / peak)
            down = center + amplitude - 2.0 * amplitude * (x - peak) / (1.0 - peak)
            return np.where(x < peak, up, down)

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
        levels = np.asarray(levels, dtype=float)
        margin = float(margin)
        if not 0.0 < margin < 0.5:
            raise ValueError(f"margin must lie in (0, 0.5), got {margin}")
        if np.any(levels <= margin) or np.any(levels >= 1.0 - margin):
            raise ValueError("sparse levels must lie strictly inside (margin, 1 - margin)")
        mean = PiecewiseConstantMean(levels)
        return cls("sparse", margin, mean, 0.0, int(levels.size))


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
    if truth.kind == "smooth":
        bound = truth.d_bound / m
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


@dataclass(frozen=True)
class WithinModelPrior:
    """Prior on the m bin levels of a working model.

    kind "uniform": independent uniforms on [0, 1] per bin (mean scale).
    kind "log_odds": independent draws of a symmetric decreasing density
    per bin on the log-odds scale ("normal" or "laplace", with a scale).
    """

    kind: str
    density: str = ""
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("uniform", "log_odds"):
            raise ValueError(f"unknown within-model prior kind {self.kind!r}")
        if self.kind == "log_odds":
            if self.density not in ("normal", "laplace"):
                raise ValueError(f"unknown log-odds density {self.density!r}")
            if not self.scale > 0:
                raise ValueError("scale must be positive")

    @classmethod
    def uniform_box(cls) -> "WithinModelPrior":
        return cls("uniform")

    @classmethod
    def log_odds(cls, density: str = "normal", scale: float = 1.0) -> "WithinModelPrior":
        return cls("log_odds", density, float(scale))

    def _require_log_odds(self):
        if self.kind != "log_odds":
            raise ValueError("operation needs a log-odds within-model prior")

    def pdf(self, w):
        self._require_log_odds()
        w = np.asarray(w, dtype=float)
        if self.density == "normal":
            return np.exp(-0.5 * (w / self.scale) ** 2) / (self.scale * math.sqrt(2.0 * math.pi))
        return np.exp(-np.abs(w) / self.scale) / (2.0 * self.scale)

    def log_pdf(self, w):
        self._require_log_odds()
        w = np.asarray(w, dtype=float)
        if self.density == "normal":
            return -0.5 * (w / self.scale) ** 2 - math.log(self.scale) - 0.5 * math.log(2.0 * math.pi)
        return -np.abs(w) / self.scale - math.log(2.0 * self.scale)

    def tail(self, w):
        """P(W > w) for w >= 0, computed without cancellation."""
        self._require_log_odds()
        w = np.asarray(w, dtype=float)
        if np.any(w < 0):
            raise ValueError("tail is defined for nonnegative arguments")
        if self.density == "normal":
            return ndtr(-w / self.scale)
        return 0.5 * np.exp(-w / self.scale)

    def log_interval_mass(self, lo, hi):
        """ln P(lo < W < hi) for lo <= hi, from the tails alone.

        A box on one side of 0 takes the difference of the tails at its
        ends' distances from 0, so a mirrored box gives the same bits; a
        box across 0 takes ln(1 - both outer tails).  -inf for a one-sided
        box whose near tail is subnormal, with too few digits to trust (a
        normal box beyond about 37.5 scales).
        """
        self._require_log_odds()
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        left = hi <= 0
        near = self.tail(np.abs(np.where(left, hi, lo)))
        far = self.tail(np.abs(np.where(left, lo, hi)))
        one_sided = np.where(near < np.finfo(float).tiny, 0.0, near - far)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where((lo < 0) & (hi > 0), np.log1p(-near - far),
                            np.log(one_sided))

    def u_norm_integral(self, u: float) -> float:
        """Closed form of the integral of pdf^u over the real line."""
        self._require_log_odds()
        if not 0.0 < u < 1.0:
            raise ValueError(f"u must lie in (0, 1), got {u}")
        s = self.scale
        if self.density == "normal":
            return (2.0 * math.pi * s * s) ** (0.5 * (1.0 - u)) / math.sqrt(u)
        return 2.0 ** (1.0 - u) * s ** (1.0 - u) / u


@dataclass(frozen=True)
class PriorSpec:
    """Joint prior: model index m in {1..m_max} with mass proportional to
    n^(-k_model * (m - 1)), then the within-model prior on levels.

    m_max = 0 requests the default ceil(sqrt(n)).
    """

    n: int
    k_model: float = 3.0
    m_max: int = 0
    within: WithinModelPrior = WithinModelPrior.uniform_box()

    def __post_init__(self):
        if int(self.n) < 1:
            raise ValueError(f"sample size must be >= 1, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        if not self.k_model > 0:
            raise ValueError("k_model must be positive")
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
