"""Rate studies: simulate, fit posteriors, measure divergences, bound them.

A study walks the configured n grid.  For each n it computes the
theoretical epsilon_n once per bound variant, then for each replicate
simulates a dataset, builds the exact posterior, and takes divergence
draws.  Every random quantity comes from a counter stream keyed by
(seed, purpose tag, n, replicate), so a cell's numbers do not depend on
which cells ran before it.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import ExperimentConfig
from .divergence import QuadratureError
from .models import (PriorSpec, WithinModelPrior, log_covering_number_uniform,
                     model_log_prior, simulate_data)
from .penalized import penalized_divergence_upper
from .posterior import (DivergenceSummary, empirical_divergence_quantiles,
                        model_posterior)
from .rate_bounds import rate_bound
from .rng import stream
from .special import logsumexp, median

__all__ = [
    "TAG_DATA",
    "TAG_DRAW",
    "StudyRow",
    "SlopeFit",
    "StudySummary",
    "StudyResult",
    "CSV_SCHEMA_HEADER",
    "CSV_COLUMNS",
    "log_cover_mixture",
    "log_norm_complexity_mixture",
    "log_mixture_norm_complexity",
    "variant_bounds_for_n",
    "cell_divergences",
    "fit_slope",
    "run_rate_study",
    "format_study_csv",
    "write_study_csv",
]

# purpose tags keep data and posterior-draw streams disjoint per (n, replicate)
TAG_DATA = 1
TAG_DRAW = 2

CSV_SCHEMA_HEADER = "# ratelab rate-study schema v1"
CSV_COLUMNS = ("n", "replicate", "variant", "d2_min", "d2_median", "d2_q95",
               "d2_max", "penalized_div", "complexity_term", "epsilon_n",
               "exceedance")


@dataclass(frozen=True, slots=True)
class StudyRow:
    """One (n, replicate, variant) record of empirical and bound values."""

    n: int
    replicate: int
    variant: str
    d2_min: float
    d2_median: float
    d2_q95: float
    d2_max: float
    penalized_div: float
    complexity_term: float
    epsilon_n: float
    exceedance: float

    def __post_init__(self):
        gap = abs(self.epsilon_n - (self.penalized_div + self.complexity_term))
        if gap > 1e-12 * max(1.0, abs(self.epsilon_n)):
            raise ValueError("epsilon_n must equal penalized_div + complexity_term")
        if not 0.0 <= self.exceedance <= 1.0:
            raise ValueError("exceedance must lie in [0, 1]")


@dataclass(frozen=True, slots=True)
class SlopeFit:
    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True, slots=True)
class StudySummary:
    """Pooled per-n medians, the fitted log-log rate, and worst-case
    exceedance per variant over the post-burn-in grid."""

    n_grid: tuple
    pooled_medians: tuple
    fit: SlopeFit
    max_exceedance: tuple
    burn_in_n: int


@dataclass(frozen=True, slots=True)
class StudyResult:
    rows: tuple
    summary: StudySummary
    config: ExperimentConfig


@contextlib.contextmanager
def naming(**cell):
    """Prefix a numerical failure inside the block with the cell it hit."""
    try:
        yield
    except (QuadratureError, ArithmeticError) as error:
        where = ", ".join(f"{key}={value}" for key, value in cell.items())
        raise type(error)(f"{where}, {error}") from error


def log_cover_mixture(log_masses: Sequence[float],
                      log_covers: Sequence[float], u: float) -> float:
    """Log of the cover-count mixture sum_m pi_m^u * N_m."""
    log_masses = np.asarray(log_masses, dtype=float)
    log_covers = np.asarray(log_covers, dtype=float)
    if log_masses.shape != log_covers.shape or log_masses.ndim != 1 or log_masses.size == 0:
        raise ValueError("need matching nonempty 1-d mass and cover arrays")
    if np.any(log_covers < -1e-12):
        raise ValueError("cover counts must be >= 1")
    return logsumexp(u * log_masses + log_covers)


def log_norm_complexity_mixture(log_masses: Sequence[float],
                                log_norms: Sequence[float], u: float) -> float:
    """Log of the mixture norm complexity [sum_m (pi_m * N_m)^u]^(1/u)."""
    log_masses = np.asarray(log_masses, dtype=float)
    log_norms = np.asarray(log_norms, dtype=float)
    if log_masses.shape != log_norms.shape or log_masses.ndim != 1 or log_masses.size == 0:
        raise ValueError("need matching nonempty 1-d mass and norm arrays")
    if not 0.0 < u < 1.0:
        raise ValueError(f"u must lie in (0, 1), got {u}")
    return logsumexp(u * (log_masses + log_norms)) / u


def norm_complexity_grid(within: WithinModelPrior, m: int, u: float, n: int) -> float:
    """ln of model m's grid complexity S^(m/u).  Nothing calls it: it stays
    because bench/layers.py wraps it here, until ROADMAP item 1."""
    return m * within.log_cell_sum(n, u) / u


def log_norm_complexity_analytic(within: WithinModelPrior, m: int, u: float,
                                 n: int) -> float:
    """ln of model m's analytic complexity bound.  Nothing calls it: it stays
    because bench/layers.py wraps it here, until ROADMAP item 1."""
    return m * within.log_analytic_sum(n, u) / u


def log_mixture_norm_complexity(spec: PriorSpec, u: float, n: int) -> float:
    """ln of the mixture norm complexity at one n, from each model's analytic
    one, m ln A / u for the per-coordinate analytic sum A: the exact sum
    under the uniform prior, an upper bound under log-odds."""
    log_norms = np.arange(1, spec.m_max + 1) * spec.within.log_analytic_sum(n, u) / u
    return log_norm_complexity_mixture(model_log_prior(spec), log_norms, u)


def variant_bounds_for_n(config: ExperimentConfig, n: int) -> tuple:
    """epsilon_n breakdowns for every configured variant at one n.

    The penalized bound is computed once and shared by all variants,
    which differ only in the richness ln N they pass to ``rate_bound``:
    prop7 mixes the per-model uniform-grid cover counts, m ln side for
    model m, with the model prior, prop3 is the same mixture with every
    ln pi_m = 0, and the norm variants take the mixture norm complexity.
    """
    spec = config.prior_for(n)
    u = config.u
    variants = set(config.variants)
    log_richness = {}
    with naming(n=n):  # inside it, the penalized bound names its m and delta
        pen = penalized_divergence_upper(config.truth, spec, config.t, n)
        if variants & {"prop3", "prop7"}:
            log_covers = (np.arange(1, spec.m_max + 1)
                          * log_covering_number_uniform(n, u))
            if "prop3" in variants:
                log_richness["prop3"] = log_cover_mixture(
                    np.zeros_like(log_covers), log_covers, u)
            if "prop7" in variants:
                log_richness["prop7"] = log_cover_mixture(
                    model_log_prior(spec), log_covers, u)
        if variants & {"remark8", "remark10"}:
            log_norm = log_mixture_norm_complexity(spec, u, n)
            log_richness.update(remark8=log_norm, remark10=log_norm)
        return tuple(rate_bound(variant, u, config.t, n, pen, log_richness[variant])
                     for variant in config.variants)


def fit_slope(points: Sequence) -> SlopeFit:
    """Ordinary least squares fit of y on x for (x, y) pairs."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise ValueError("need at least 3 (x, y) points")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    x, y = pts[:, 0], pts[:, 1]
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    if sxx <= 1e-30:
        raise ValueError("degenerate abscissae: x values carry no spread")
    sxy = float(np.sum((x - xm) * (y - ym)))
    slope = sxy / sxx
    intercept = float(ym - slope * xm)
    residual = y - (slope * x + intercept)
    ss_res = float(np.sum(residual ** 2))
    ss_tot = float(np.sum((y - ym) ** 2))
    if ss_tot <= 1e-30:
        r2 = 1.0 if ss_res <= 1e-30 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return SlopeFit(slope=slope, intercept=intercept, r_squared=r2)


def cell_divergences(config: ExperimentConfig, n: int,
                     replicate: int) -> DivergenceSummary:
    """Posterior divergence draws of one (n, replicate) cell: simulate the
    data, build the exact posterior, draw from it; failures name the cell."""
    with naming(n=n, replicate=replicate):
        data = simulate_data(config.truth, n,
                             seed=(config.seed, TAG_DATA, n, replicate))
        state = model_posterior(data, config.prior_for(n))
        rng = stream(config.seed, TAG_DRAW, n, replicate)
        return empirical_divergence_quantiles(
            config.truth, state, config.u, config.draws, rng)


def run_rate_study(config: ExperimentConfig) -> StudyResult:
    # every n's bounds before any cell, so a bound's failure is reported first
    bounds_by_n = {n: variant_bounds_for_n(config, n) for n in config.n_grid}
    rows = []
    pooled = []
    for n in config.n_grid:
        values = []
        for replicate in range(config.replicates):
            summary = cell_divergences(config, n, replicate)
            values.append(summary.values)
            rows.extend(StudyRow(
                n=n, replicate=replicate, variant=vb.variant,
                d2_min=summary.min, d2_median=summary.median,
                d2_q95=summary.q95, d2_max=summary.max,
                penalized_div=vb.penalized_div,
                complexity_term=vb.complexity_term,
                epsilon_n=vb.epsilon_n,
                exceedance=float(np.mean(summary.values > vb.epsilon_n)))
                for vb in bounds_by_n[n])
        pooled.append(median(np.concatenate(values)))

    fit = fit_slope([(math.log(n), math.log(max(med, 1e-300)))
                     for n, med in zip(config.n_grid, pooled)]
                    ) if len(config.n_grid) >= 3 else SlopeFit(
                        slope=math.nan, intercept=math.nan, r_squared=math.nan)

    burn_n = config.n_grid[config.burn_in]
    max_exceed = []
    for variant in config.variants:
        worst = max((row.exceedance for row in rows
                     if row.variant == variant and row.n >= burn_n),
                    default=0.0)
        max_exceed.append((variant, worst))

    summary = StudySummary(
        n_grid=config.n_grid,
        pooled_medians=tuple(pooled),
        fit=fit,
        max_exceedance=tuple(max_exceed),
        burn_in_n=burn_n)
    return StudyResult(rows=tuple(rows), summary=summary, config=config)


def _format_value(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def format_study_csv(result: StudyResult) -> str:
    lines = [CSV_SCHEMA_HEADER, ",".join(CSV_COLUMNS)]
    for row in result.rows:
        lines.append(",".join(_format_value(getattr(row, col))
                              for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def write_study_csv(result: StudyResult, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(format_study_csv(result))
