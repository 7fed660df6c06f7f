"""Covering numbers and prior norm complexities of the model family.

Two complexity notions feed the rate bounds: plain covering numbers of
the level space by L1 balls of radius n^(-1/u), and a prior-weighted
complexity obtained by summing prior-cell masses raised to the power u
over an equispaced grid of cells.  The grid spacing on the level scale
is h = 4 * n^(-1/u).  Covers and complexities are returned as natural
logs, since both pass the float range at moderate n.
"""

from __future__ import annotations

import functools
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
    """Cell-sum complexity of one m-level working model.

    ``per_coordinate_sum`` is the sum S of cell-mass^u over one
    coordinate's cells of width ``grid_spacing`` (past the cell cap, the
    lower end of its enclosure); the complexity S^(m/u) and its analytic
    bound are carried as natural logs, as both overflow a float for large m.
    """

    per_coordinate_sum: float
    grid_spacing: float
    log_lu_norm: float
    log_analytic_bound: float


def _grid_side(n: int, u: float) -> int:
    if not 0.0 < u < 1.0:
        raise ValueError(f"u must lie in (0, 1), got {u}")
    if n < 1:
        raise ValueError("n must be >= 1")
    inv = 1.0 / u
    k = round(inv)
    if abs(inv - k) < 1e-9 and float(n).is_integer():
        return int(n) ** int(k)
    return math.ceil(n ** inv - 1e-9)


def log_covering_number_uniform(m: int, n: int, u: float) -> float:
    """ln of ceil(n^(1/u))^m, the count of l-infinity grid cells of
    spacing n^(-1/u) that cover [0, 1]^m; m = 0 covers a single point."""
    m = int(m)
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0:
        return 0.0
    return m * math.log(_grid_side(n, u))


def _uniform_cell_sum(h: float, u: float) -> float:
    """Exact cell-mass^u sum of the uniform density on [0, 1] over cells
    of width h, in closed form."""
    if h >= 1.0:
        return 1.0
    q0 = int(math.floor(1.0 / h))
    q = q0 + 1 if (q0 + 1) * h <= 1.0 + 1e-12 else q0
    r = 1.0 - q * h
    if r < 1e-13 * h:
        r = 0.0
    return q * h ** u + (r ** u if r > 0 else 0.0)


def _enclosure(within: WithinModelPrior, h: float, u: float):
    """Ends of h^(u-1) (I -+ 2 h f(0)^u), I the integral of f^u, between
    which the cell sum S of a density f decreasing away from 0 lies: a
    cell's mass is between h f at its outer and at its inner edge."""
    f0, u_integral = ((1.0, 1.0) if within.kind == "uniform" else
                      (float(within.pdf(0.0)), within.u_norm_integral(u)))
    spread = 2.0 * h * f0 ** u
    return ((u_integral - spread) * h ** (u - 1.0),
            (spread + u_integral) * h ** (u - 1.0))


# a cap of 2^23 cells per side keeps normal(1.5), u = 1/2 exact to n = 1000
_TAIL_TOL, _MAX_CELLS, _CELL_CHUNK = 1e-15, 1 << 23, 1 << 16


@functools.lru_cache(maxsize=64)
def _symmetric_cell_sum(within: WithinModelPrior, h: float, u: float) -> float:
    """Cell-mass^u sum S of a symmetric log-odds density over the grid
    {[j*h, (j+1)*h): j integer}, memoized for the callers' loop over m.
    Beyond J h on both sides the cells add at most the enclosure's upper
    end times e^(-u g(J h)), g(x) = x^2 / (2 s^2) (normal) or x / b
    (laplace).  The first J cells per side are summed, J the least that
    puts this below _TAIL_TOL of max(1, lower end) <= S (S is at least the
    sum of the masses, 1), _CELL_CHUNK at a time; past _MAX_CELLS, S is
    reported as the lower end."""
    lower, upper = _enclosure(within, h, u)
    decay = math.log(upper / (_TAIL_TOL * max(1.0, lower))) / u
    reach = within.scale * (math.sqrt(2.0 * decay)
                            if within.density == "normal" else decay)
    cells = math.ceil(reach / h)
    if cells > _MAX_CELLS:
        return lower
    total = 0.0
    for start in range(0, cells, _CELL_CHUNK):
        edges = np.arange(start, min(start + _CELL_CHUNK, cells) + 1, dtype=float)
        tails = within.tail(edges * h)  # each cell edge's tail computed once
        total += float(np.sum(np.maximum(tails[:-1] - tails[1:], 0.0) ** u))
    return 2.0 * total


def _validated_spacing(m: int, u: float, n: int):
    """(m, u, n) checked and snapped to u = 1/k, with the level-scale
    grid spacing h = 4 * n^(-1/u)."""
    m = int(m)
    if m < 1:
        raise ValueError("m must be >= 1")
    u = 1.0 / _unit_fraction(u)
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    return m, u, n, 4.0 * n ** (-1.0 / u)


def norm_complexity_grid(within: WithinModelPrior, m: int, u: float,
                         n: int) -> CoverSummary:
    """Prior-weighted complexity of one m-level model from grid cell sums,
    next to its closed-form analytic bound.

    The per-coordinate sum S adds cell-mass^u over cells of width
    h = 4 * n^(-1/u); products over coordinates give S^m and the
    complexity S^(m/u).  Past a cap of 2^23 cells per side, a log-odds S
    is the lower end of its enclosure, whose upper end gives the analytic
    bound ``log_norm_complexity_analytic``.
    """
    m, u, n, h = _validated_spacing(m, u, n)
    per_coord = (_uniform_cell_sum(h, u) if within.kind == "uniform"
                 else _symmetric_cell_sum(within, h, u))
    return CoverSummary(
        per_coordinate_sum=per_coord, grid_spacing=h,
        log_lu_norm=m * math.log(per_coord) / u,
        log_analytic_bound=log_norm_complexity_analytic(within, m, u, n))


def log_norm_complexity_analytic(within: WithinModelPrior, m: int, u: float,
                                 n: int) -> float:
    """Log of the closed-form analytic complexity bound, which replaces
    the per-coordinate sum S by (2*h*f(0)^u + integral of f^u) * h^(u-1),
    valid for any symmetric density f decreasing away from the origin.
    O(1) regardless of n."""
    m, u, n, h = _validated_spacing(m, u, n)
    return m * math.log(_enclosure(within, h, u)[1]) / u


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

