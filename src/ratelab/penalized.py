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
    # sup of d_t^2(p0, q) over each mean half-width's box, each in (0, margin):
    # a closed form at t = 1, else per bin the worse box end (its integral is
    # convex in level)
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
    sups = (worst.sum(axis=-1) - 1.0) / t
    # a truth's bin moments and a box's supremum are positive: a moment that
    # underflowed to 0, or a supremum lost to rounding, certifies only +inf
    return np.where((moments > 0).all() & (sups > 0), sups, math.inf)


def penalized_value_at(truth: TrueModel, spec: PriorSpec, t: float,
                       m: int, delta: float) -> PenalizedDivergenceResult:
    """The bound of the single box candidate (m, delta): the grid scorer on
    a one-point grid."""
    return penalized_divergence_upper(truth, spec, t, (m,), (delta,))


def default_m_grid(truth: TrueModel, spec: PriorSpec) -> tuple:
    top = min(spec.m_max, int(math.ceil(2.0 * spec.n ** (1.0 / 3.0))))
    grid = set(range(1, top + 1))
    if truth.m0 is not None and truth.m0 <= spec.m_max:
        grid.add(truth.m0)
    return tuple(sorted(grid))


def default_delta_grid(truth: TrueModel, n: int) -> tuple:
    lo = 1.0 / n
    hi = truth.margin / 2.0
    if lo >= hi:
        return (hi / 2.0,)
    return tuple(np.geomspace(lo, hi, 20))


def penalized_divergence_upper(truth: TrueModel, spec: PriorSpec, t: float,
                               m_grid: Optional[Sequence[int]] = None,
                               delta_grid: Optional[Sequence[float]] = None,
                               ) -> PenalizedDivergenceResult:
    """Minimize the boxed penalized-divergence bound over a grid of
    (m, delta) candidates, with the 1/n penalty at the spec's n.

    The result is an upper bound on the penalized divergence of the
    mixture prior: any single candidate set is admissible in the
    defining infimum.  The candidates' terms are (m, delta) tables;
    deltas whose mean box leaves the truth's margin are skipped, and a
    grid with none left raises.  Ties prefer the smallest m, then the
    smallest delta: the first minimum of the table in row-major order.
    """
    if m_grid is None:
        m_grid = default_m_grid(truth, spec)
    if delta_grid is None:
        delta_grid = default_delta_grid(truth, spec.n)
    ms = sorted(set(int(m) for m in m_grid))
    deltas = np.array(sorted(set(float(d) for d in delta_grid)))
    if not ms or not deltas.size:
        raise ValueError("no (m, delta) candidate in the supplied grids")
    bad = [m for m in ms if not 1 <= m <= spec.m_max]
    if bad:
        raise ValueError(f"model index must lie in [1, {spec.m_max}], got {bad[0]}")
    half_widths = spec.within.mean_half_width(deltas)
    fits = (0.0 < half_widths) & (half_widths < truth.margin)
    if not fits.any():
        # name the caller's delta, not the mean half-width it maps to
        top = truth.margin / spec.within.mean_half_width(1.0)
        raise ValueError(f"delta must lie in (0, {top:g}) (margin={truth.margin}, "
                         f"{spec.within.name} within prior), got {float(deltas[0])}")
    deltas, half_widths = deltas[fits], half_widths[fits]
    approxes = [best_approximation(truth, m) for m in ms]
    approx_terms = np.array([_box_sups(truth, a, half_widths, t) for a in approxes])
    box_terms = -np.array([spec.within.log_box_masses(deltas, a) for a in approxes]) / spec.n
    model_terms = -model_log_prior(spec)[np.array(ms)[:, None] - 1] / spec.n
    values = approx_terms + box_terms + model_terms
    i, j = np.unravel_index(np.argmin(values), values.shape)
    return PenalizedDivergenceResult(
        float(values[i, j]), ms[i], float(deltas[j]), float(approx_terms[i, j]),
        float(box_terms[i, j]), float(model_terms[i, 0]))
