"""Prior-penalized divergence between the truth and the model family.

For a candidate set K of working densities, the penalized divergence
combines the worst divergence over K with the log prior mass of K
scaled by 1/n.  Minimizing over boxes around the best approximating
levels (one box per model size m, half-width Delta) yields a certified
upper bound on the penalized divergence of the full mixture prior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .divergence import _bin_moments, _moment_terms
from .models import (BestApproximation, PriorSpec, TrueModel, best_approximation,
                     mean_to_log_odds, model_log_prior)

__all__ = [
    "PenalizedDivergenceResult",
    "sup_divergence_over_box",
    "box_prior_log_mass",
    "penalized_value_at",
    "penalized_divergence_upper",
    "default_m_grid",
    "default_delta_grid",
]


@dataclass(frozen=True, eq=False)
class PenalizedDivergenceResult:
    """Certified upper bound on the penalized divergence, with its
    additive decomposition.  value = approx_term + box_term + model_term."""

    value: float
    m: int
    delta: float
    approx_term: float
    box_term: float
    model_term: float


def sup_divergence_over_box(truth: TrueModel, m: int, delta: float,
                            t: float = 1.0) -> float:
    """Upper bound on sup of d_t^2(p0, q) over levels within delta of the
    best approximation.

    t = 1 uses the closed form (err + delta)^2 / ((margin - delta) *
    (1 - margin + delta)); other positive orders take a per-bin
    supremum (the box objective separates over bins, and each bin's
    integral is convex in its level for t > 0, so the supremum sits at
    one of the two box endpoints), read off the truth's bin moments.
    """
    half_widths = np.array([float(delta)])
    return float(_box_sups(truth, best_approximation(truth, m), half_widths, t)[0])


def _box_sups(truth: TrueModel, approx: BestApproximation,
              half_widths: np.ndarray, t: float) -> np.ndarray:
    # the box supremum at each mean half-width around one approximation
    outside = ~((0.0 < half_widths) & (half_widths < truth.margin))
    if outside.any():
        raise ValueError(f"delta must lie in (0, margin={truth.margin}), "
                         f"got {float(half_widths[outside][0])}")
    if not t > 0:
        raise ValueError(f"box supremum needs a positive order, got t={t}")
    if abs(t - 1.0) <= 1e-12:
        num = (approx.sup_error + half_widths) ** 2
        den = (truth.margin - half_widths) * (1.0 - truth.margin + half_widths)
        return num / den
    moments = _bin_moments(truth.mean, approx.levels.size, t)[:, None]
    ends = half_widths[:, None]  # box ends: a row per half-width, a column per bin
    worst = np.maximum(_moment_terms(moments, approx.levels - ends, t),
                       _moment_terms(moments, approx.levels + ends, t))
    return (worst.sum(axis=-1) - 1.0) / t


def _within_box_log_mass(spec: PriorSpec, deltas: np.ndarray, centers: np.ndarray,
                         log_odds: np.ndarray) -> np.ndarray:
    """Log within-model prior mass of the product box of each half-width
    around ``centers`` (on the mean scale), or under a log-odds prior
    around their log odds ``log_odds``."""
    within = spec.within
    mids = centers if within.kind == "uniform" else log_odds
    lo, hi = mids - deltas[:, None], mids + deltas[:, None]
    if within.kind == "uniform":
        if np.any(lo < -1e-12) or np.any(hi > 1.0 + 1e-12):
            raise ValueError("box escapes the within-model prior support [0, 1]")
        return np.log(np.minimum(hi, 1.0) - np.maximum(lo, 0.0)).sum(axis=-1)
    log_masses = within.log_interval_mass(lo, hi)
    if np.isneginf(log_masses).any():
        # the first underflowing box in (delta, bin) order
        i, j = np.argwhere(np.isneginf(log_masses))[0]
        raise FloatingPointError(
            f"prior mass of bin {j}'s log-odds box [{lo[i, j]:.6g}, {hi[i, j]:.6g}] "
            f"underflows float64 at m={log_odds.size}, delta={deltas[i]:.6g} "
            f"({within.density} prior, scale={within.scale:g})")
    return log_masses.sum(axis=-1)


def box_prior_log_mass(spec: PriorSpec, m: int, delta: float,
                       centers: Optional[Sequence[float]] = None) -> float:
    """Log joint prior mass ln(pi_m * pi(box | m)) of the level box.

    For the uniform within-model prior the within part is m * ln(2*delta)
    whenever the box stays inside [0, 1]^m; for log-odds priors ``delta``
    is a log-odds half-width around the centers' log odds.
    """
    m = int(m)
    delta = float(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    if centers is None:
        if spec.within.kind != "uniform":
            raise ValueError("log-odds box mass needs explicit centers")
        centers = np.full(m, 0.5)
    centers = np.asarray(centers, dtype=float)
    if centers.size != m:
        raise ValueError(f"need {m} centers, got {centers.size}")
    model_part = float(model_log_prior(spec)[m - 1])
    return model_part + float(_within_box_log_mass(
        spec, np.array([delta]), centers, mean_to_log_odds(centers))[0])


def penalized_value_at(truth: TrueModel, spec: PriorSpec, t: float, n: int,
                       m: int, delta: float) -> PenalizedDivergenceResult:
    """Penalized-divergence upper bound of the single box candidate
    (m, delta), decomposed into approximation, box and model terms."""
    return _best_box(truth, spec, t, n, m, np.array([float(delta)]))


def _best_box(truth: TrueModel, spec: PriorSpec, t: float, n: int, m: int,
              deltas: np.ndarray) -> PenalizedDivergenceResult:
    # every candidate (m, delta) of one m in one pass; the first minimum wins
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    m = int(m)
    if not 1 <= m <= spec.m_max:
        raise ValueError(f"model index must lie in [1, {spec.m_max}], got {m}")
    inside = _fits_margin(truth, spec, deltas)
    if not inside.all():
        # name the caller's delta, not the mean half-width it maps to
        top = truth.margin / _mean_half_width(spec, 1.0)
        raise ValueError(f"delta must lie in (0, {top:g}) (margin={truth.margin}, "
                         f"{spec.within.kind} within prior), "
                         f"got {float(deltas[~inside][0])}")
    approx = best_approximation(truth, m)
    approx_terms = _box_sups(truth, approx, _mean_half_width(spec, deltas), t)
    box_terms = -_within_box_log_mass(spec, deltas, approx.levels,
                                      approx.log_odds) / n
    model_term = -float(model_log_prior(spec)[m - 1]) / n
    values = approx_terms + box_terms + model_term
    j = int(np.argmin(values))
    return PenalizedDivergenceResult(
        value=float(values[j]), m=m, delta=float(deltas[j]),
        approx_term=float(approx_terms[j]), box_term=float(box_terms[j]),
        model_term=model_term)


def _mean_half_width(spec: PriorSpec, delta):
    # the logistic map is 1/4-Lipschitz, so a log-odds box of half-width
    # delta maps into a mean box of half-width delta / 4
    return delta if spec.within.kind == "uniform" else delta / 4.0


def _fits_margin(truth: TrueModel, spec: PriorSpec, deltas: np.ndarray) -> np.ndarray:
    # whether each half-width's mean box stays inside the truth's margin
    half_widths = _mean_half_width(spec, deltas)
    return (0.0 < half_widths) & (half_widths < truth.margin)


def default_m_grid(truth: TrueModel, spec: PriorSpec, n: int) -> tuple:
    top = min(spec.m_max, int(math.ceil(2.0 * n ** (1.0 / 3.0))))
    grid = set(range(1, top + 1))
    if truth.m0 is not None and truth.m0 <= spec.m_max:
        grid.add(truth.m0)
    return tuple(sorted(grid))


def default_delta_grid(truth: TrueModel, n: int, points: int = 20) -> tuple:
    lo = 1.0 / n
    hi = truth.margin / 2.0
    if lo >= hi:
        return (hi / 2.0,)
    return tuple(np.geomspace(lo, hi, points))


def penalized_divergence_upper(truth: TrueModel, spec: PriorSpec, t: float,
                               n: int, m_grid: Optional[Sequence[int]] = None,
                               delta_grid: Optional[Sequence[float]] = None,
                               ) -> PenalizedDivergenceResult:
    """Minimize the boxed penalized-divergence bound over a grid of
    (m, delta) candidates.

    The result is an upper bound on the penalized divergence of the
    mixture prior: any single candidate set is admissible in the
    defining infimum.  Each m scores its whole delta grid as arrays;
    ties prefer the smallest m, then the smallest delta (the first
    minimum of each m, replaced across m only on strict improvement).
    """
    if m_grid is None:
        m_grid = default_m_grid(truth, spec, n)
    if delta_grid is None:
        delta_grid = default_delta_grid(truth, n)
    deltas = np.array(sorted(set(float(d) for d in delta_grid)))
    deltas = deltas[_fits_margin(truth, spec, deltas)]
    best = None
    for m in sorted(set(int(m) for m in m_grid)) if deltas.size else ():
        cand = _best_box(truth, spec, t, n, m, deltas)
        if best is None or cand.value < best.value:
            best = cand
    if best is None:
        raise ValueError("no feasible (m, delta) candidate in the supplied grids")
    return best
