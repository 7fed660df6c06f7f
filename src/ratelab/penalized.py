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
    delta = float(delta)
    if not 0.0 < delta < truth.margin:
        raise ValueError(f"delta must lie in (0, margin={truth.margin}), got {delta}")
    if not t > 0:
        raise ValueError(f"box supremum needs a positive order, got t={t}")
    approx = best_approximation(truth, m)
    if abs(t - 1.0) <= 1e-12:
        num = (approx.sup_error + delta) ** 2
        den = (truth.margin - delta) * (1.0 - truth.margin + delta)
        return num / den
    return _numeric_box_sup(truth, approx, delta, t)


def _numeric_box_sup(truth: TrueModel, approx: BestApproximation,
                     delta: float, t: float) -> float:
    moments = _bin_moments(truth.mean, approx.levels.size, t)
    worst = np.maximum(_moment_terms(moments, approx.levels - delta, t),
                       _moment_terms(moments, approx.levels + delta, t))
    return (float(worst.sum()) - 1.0) / t


def _within_box_log_mass(spec: PriorSpec, delta: float, centers: np.ndarray,
                         log_odds: np.ndarray) -> float:
    """Log within-model prior mass of the product box around ``centers``
    (on the mean scale), or under a log-odds prior around their log odds
    ``log_odds``."""
    within = spec.within
    if within.kind == "uniform":
        lo = centers - delta
        hi = centers + delta
        if np.any(lo < -1e-12) or np.any(hi > 1.0 + 1e-12):
            raise ValueError("box escapes the within-model prior support [0, 1]")
        widths = np.minimum(hi, 1.0) - np.maximum(lo, 0.0)
        return float(np.log(widths).sum())
    lo, hi = log_odds - delta, log_odds + delta
    log_masses = within.log_interval_mass(lo, hi)
    j = int(np.argmin(log_masses))
    if log_masses[j] == -np.inf:
        raise FloatingPointError(
            f"prior mass of bin {j}'s log-odds box [{lo[j]:.6g}, {hi[j]:.6g}] "
            f"underflows float64 at m={log_odds.size}, delta={delta:.6g} "
            f"({within.density} prior, scale={within.scale:g})")
    return float(log_masses.sum())


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
    return model_part + _within_box_log_mass(spec, delta, centers,
                                             mean_to_log_odds(centers))


def penalized_value_at(truth: TrueModel, spec: PriorSpec, t: float, n: int,
                       m: int, delta: float) -> PenalizedDivergenceResult:
    """Penalized-divergence upper bound of the single box candidate
    (m, delta), decomposed into approximation, box and model terms."""
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    m = int(m)
    if not 1 <= m <= spec.m_max:
        raise ValueError(f"model index must lie in [1, {spec.m_max}], got {m}")
    delta = float(delta)
    approx = best_approximation(truth, m)
    approx_term = sup_divergence_over_box(truth, m, _mean_half_width(spec, delta), t)
    box_term = -_within_box_log_mass(spec, delta, approx.levels,
                                     approx.log_odds) / n
    model_term = -float(model_log_prior(spec)[m - 1]) / n
    return PenalizedDivergenceResult(
        value=approx_term + box_term + model_term,
        m=m, delta=delta,
        approx_term=approx_term, box_term=box_term, model_term=model_term)


def _mean_half_width(spec: PriorSpec, delta: float) -> float:
    # the logistic map is 1/4-Lipschitz, so a log-odds box of half-width
    # delta maps into a mean box of half-width delta / 4
    return delta if spec.within.kind == "uniform" else delta / 4.0


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
    defining infimum.  Ties prefer the smallest m, then the smallest
    delta (grids are scanned in sorted order and only strict
    improvements replace the incumbent).
    """
    if m_grid is None:
        m_grid = default_m_grid(truth, spec, n)
    if delta_grid is None:
        delta_grid = default_delta_grid(truth, n)
    best = None
    for m in sorted(set(int(m) for m in m_grid)):
        for delta in sorted(set(float(d) for d in delta_grid)):
            if not 0.0 < _mean_half_width(spec, delta) < truth.margin:
                continue
            cand = penalized_value_at(truth, spec, t, n, m, delta)
            if best is None or cand.value < best.value:
                best = cand
    if best is None:
        raise ValueError("no feasible (m, delta) candidate in the supplied grids")
    return best
