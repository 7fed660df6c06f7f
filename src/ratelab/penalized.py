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
                     model_log_prior)

__all__ = [
    "PenalizedDivergenceResult",
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


def _box_sups(truth: TrueModel, approx: BestApproximation,
              half_widths: np.ndarray, t: float) -> np.ndarray:
    # sup of d_t^2(p0, q) over each mean half-width's box: a closed form at
    # t = 1, else per bin the worse box end (its integral is convex in level)
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
        top = truth.margin / spec.within.mean_half_width(1.0)
        raise ValueError(f"delta must lie in (0, {top:g}) (margin={truth.margin}, "
                         f"{spec.within.name} within prior), "
                         f"got {float(deltas[~inside][0])}")
    approx = best_approximation(truth, m)
    approx_terms = _box_sups(truth, approx, spec.within.mean_half_width(deltas), t)
    box_terms = -spec.within.log_box_masses(deltas, approx) / n
    model_term = -float(model_log_prior(spec)[m - 1]) / n
    values = approx_terms + box_terms + model_term
    j = int(np.argmin(values))
    return PenalizedDivergenceResult(
        value=float(values[j]), m=m, delta=float(deltas[j]),
        approx_term=float(approx_terms[j]), box_term=float(box_terms[j]),
        model_term=model_term)


def _fits_margin(truth: TrueModel, spec: PriorSpec, deltas: np.ndarray) -> np.ndarray:
    # whether each half-width's mean box stays inside the truth's margin
    half_widths = spec.within.mean_half_width(deltas)
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
