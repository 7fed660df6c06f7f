"""Covering numbers and prior norm complexities of the model family.

Two complexity notions feed the rate bounds: plain covering numbers of
the level space by L1 balls of radius n^(-1/u), and a prior-weighted
complexity obtained by summing prior-cell masses raised to the power u
over an equispaced grid of cells.  The grid spacing on the level scale
is h = 4 * n^(-1/u); each within-model prior gives its own sum S and
its analytic value, per coordinate and as natural logs.  Every prior is
alike and independent across bins, so model m's cover count is side^m
and its complexity S^(m/u): m times one per-coordinate log, over u.
Covers and complexities are returned as natural logs, since both pass
the float range at moderate n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .models import WithinModelPrior
from .rate_bounds import _unit_fraction
from .special import logsumexp

__all__ = [
    "CoverSummary",
    "log_covering_number_uniform",
    "norm_complexity_grid",
    "log_norm_complexity_analytic",
    "log_cover_mixture",
    "log_norm_complexity_mixture",
]

@dataclass(frozen=True, eq=False)
class CoverSummary:
    """Cell-sum complexity of one m-level working model: the complexity
    S^(m/u), S the per-coordinate sum of cell-mass^u (normal prior past the
    cell cap: the lower end of its enclosure), and its analytic bound, as
    natural logs, since both overflow a float for large m.
    """

    log_lu_norm: float
    log_analytic_bound: float


def _log_grid_side(n: int, u: float) -> float:
    """ln ceil(n^(1/u)): for u = 1/k and integer n from the integer n^k, or
    as k ln n where n^k would pass 2^21 bits (at u = 1e-8 the integer takes
    hours to build)."""
    if not 0.0 < u < 1.0:
        raise ValueError(f"u must lie in (0, 1), got {u}")
    if n < 1:
        raise ValueError("n must be >= 1")
    inv = 1.0 / u
    k = round(inv)
    if abs(inv - k) < 1e-9 and float(n).is_integer():
        n = int(n)
        return k * math.log(n) if k * n.bit_length() > 1 << 21 else math.log(n ** k)
    return math.log(math.ceil(n ** inv - 1e-9))


def log_covering_number_uniform(m: int, n: int, u: float) -> float:
    """ln of ceil(n^(1/u))^m, the count of l-infinity grid cells of
    spacing n^(-1/u) that cover [0, 1]^m; m = 0 covers a single point."""
    m = int(m)
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0:
        return 0.0
    return m * _log_grid_side(n, u)


def _validated(m: int, u: float, n: int):
    """(m, u, n) checked, with u snapped to 1/k."""
    m = int(m)
    if m < 1:
        raise ValueError("m must be >= 1")
    u = 1.0 / _unit_fraction(u)
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    return m, u, n


def norm_complexity_grid(within: WithinModelPrior, m: int, u: float,
                         n: int) -> CoverSummary:
    """Prior-weighted complexity of one m-level model from grid cell sums,
    next to its closed-form analytic bound.

    The per-coordinate sum S adds cell-mass^u over cells of width
    h = 4 * n^(-1/u); products over coordinates give S^m and the
    complexity S^(m/u), whose log is m ln S / u.  S is exact, except under
    a normal prior past a cap of 2^23 cells per side: there it is the lower
    end of its enclosure, whose upper end is ``log_norm_complexity_analytic``.
    """
    m, u, n = _validated(m, u, n)
    return CoverSummary(
        log_lu_norm=m * within.log_cell_sum(n, u) / u,
        log_analytic_bound=log_norm_complexity_analytic(within, m, u, n))


def log_norm_complexity_analytic(within: WithinModelPrior, m: int, u: float,
                                 n: int) -> float:
    """Log of the closed-form analytic complexity bound, which replaces
    the per-coordinate sum S by (2*h*f(0)^u + integral of f^u) * h^(u-1),
    valid for any symmetric density f decreasing away from the origin;
    under the uniform prior it is S itself.  O(1) regardless of n."""
    m, u, n = _validated(m, u, n)
    return m * within.log_analytic_sum(n, u) / u


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

