"""Assembled convergence-rate bounds for the posterior sequence.

epsilon_n adds the penalized divergence of the prior to a complexity
term n^(-1) * ln(N^(1/u) * n^(2*(1/u + 1/t))), where N measures the
richness of the prior support.  The variant tags (prop3, prop7,
remark8, remark10) are the stable interface names of the richness
measures; each variant supplies one ln N to the same formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .divergence import _safe_exp
from .models import _unit_fraction
from .penalized import PenalizedDivergenceResult
from .special import logsumexp

__all__ = [
    "VARIANTS",
    "RateBoundBreakdown",
    "floor_to_unit_fraction",
    "bound_prefactor",
    "posterior_mass_bound_rhs",
    "rate_bound",
]

# prop3: the total cover count sum_m count_m of the prior support
# prop7: per-model cover counts mixed as sum_m pi_m^u * count_m
# remark8 / remark10: the mixture norm complexity
#   [sum_m (pi_m * norm_m)^u]^(1/u); both take the same value
VARIANTS = ("prop3", "prop7", "remark8", "remark10")

# a norm complexity already carries the 1/u power of the formula
_NORM_VARIANTS = ("remark8", "remark10")


@dataclass(frozen=True)
class RateBoundBreakdown:
    """epsilon_n = penalized_div + complexity_term.

    ``penalized`` is the penalized-divergence bound whose value is added
    and ``log_richness`` is ln N for the variant's richness measure N.
    """

    variant: str
    u: float
    t: float
    n: int
    penalized: PenalizedDivergenceResult
    complexity_term: float
    epsilon_n: float
    log_richness: float

    @property
    def penalized_div(self) -> float:
        return float(self.penalized.value)


def floor_to_unit_fraction(u_raw: float) -> float:
    """Largest u = 1/k (k a positive integer) with u <= u_raw.

    Robust to float noise: reciprocals within 1e-9 of an integer snap
    to that integer instead of tipping to the next one.
    """
    u_raw = float(u_raw)
    if not 0.0 < u_raw < 1.0:
        raise ValueError(f"u must lie in (0, 1), got {u_raw}")
    k = math.ceil(1.0 / u_raw - 1e-9)
    return 1.0 / k


def _checked_orders(u: float, t: float) -> tuple:
    u, t = float(u), float(t)
    if not 0.0 < u < 1.0:
        raise ValueError(f"u must lie in (0, 1), got {u}")
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    return u, t


def bound_prefactor(u: float, t: float) -> float:
    """Constant c(u, t) multiplying the posterior-mass bound; at most 4
    throughout 0 < u < 1, t > 0."""
    u, t = _checked_orders(u, t)
    a = t / (t + u)
    b = u / (t + u)

    def _x_pow_neg_x(x):
        return 1.0 if x == 0.0 else x ** (-x)

    third = (u ** u * (1.0 - u) ** (1.0 - u)) ** (-t / (u + t))
    return _x_pow_neg_x(a) * _x_pow_neg_x(b) * third


def posterior_mass_bound_rhs(cover: Sequence, anchor, u: float, t: float,
                             n: int) -> float:
    """Right-hand side of the posterior-mass bound for a covered event.

    ``cover`` lists (worst-case d_{-u}^2 over the ball, ln prior mass of
    the ball); ``anchor`` is (best-case d_t^2 over the anchor set, ln
    prior mass of the anchor set).  Each ball contributes
    exp(-u * n * ([inf d_{-u}^2 - ln pi(B)/n] - [sup d_t^2 - ln pi(K)/n]))
    and the terms are accumulated in log space.
    """
    u, t = _checked_orders(u, t)
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    sup_d, log_anchor_mass = float(anchor[0]), float(anchor[1])
    if math.isinf(sup_d):
        return math.inf
    exponents = []
    for inf_d, log_mass in cover:
        inf_d, log_mass = float(inf_d), float(log_mass)
        if math.isinf(inf_d):
            continue  # an unreachable ball contributes exp(-inf) = 0
        exponents.append(-u * (n * inf_d - log_mass - n * sup_d + log_anchor_mass))
    if not exponents:
        return 0.0
    return _safe_exp(logsumexp(exponents))


def rate_bound(variant: str, u: float, t: float, n: int,
               penalized: PenalizedDivergenceResult,
               log_richness: float) -> RateBoundBreakdown:
    """Assemble epsilon_n for one variant from its richness ln N.

    The complexity term is (ln N / u + 2 (1/u + 1/t) ln n) / n; in the
    norm variants ln N enters without the 1/u because the norm already
    carries it.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    u, t = _checked_orders(u, t)
    _unit_fraction(u)
    n = int(n)
    if n < 2:
        raise ValueError("n must be >= 2")
    penalized_div = float(penalized.value)
    if not penalized_div >= 0.0:
        raise ValueError("penalized divergence must be nonnegative")
    log_richness = float(log_richness)
    if log_richness < -1e-12:
        raise ValueError("richness N must be >= 1")

    richness = log_richness if variant in _NORM_VARIANTS else log_richness / u
    complexity = (richness + 2.0 * (1.0 / u + 1.0 / t) * math.log(n)) / n
    return RateBoundBreakdown(
        variant=variant, u=u, t=t, n=n, penalized=penalized,
        complexity_term=complexity,
        epsilon_n=penalized_div + complexity,
        log_richness=log_richness)
