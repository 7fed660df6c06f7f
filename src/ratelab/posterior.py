"""Exact model-averaged posterior for binned binary regression.

Binning the covariate into m equal cells reduces each working model to
m independent Bernoulli problems (the bins of every model size are
tallied together).  The within-model prior gives each bin's evidence
and posterior draws from its counts.  A certified screen leaves out the
models that cannot carry weight; only the others' bins get their
evidence.  The draws of one size are scored against the truth together,
as one stack of levels.  A small exact enumeration oracle checks the
posterior-mass bound on finite spaces by brute force.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .divergence import DiscreteDensity, PiecewiseConstantMean, QuadratureError, d_t_squared
from .models import Dataset, PriorSpec, TrueModel, WithinModelPrior, model_log_prior
from .rate_bounds import posterior_mass_bound_rhs
from .special import logsumexp, median, quantile

__all__ = [
    "PosteriorState",
    "DivergenceSummary",
    "OracleResult",
    "log_evidence",
    "model_posterior",
    "sample_posterior_density",
    "empirical_divergence_quantiles",
    "exact_enumeration_oracle",
    "random_oracle_config",
]

_SCREEN = 750.0


@functools.lru_cache(maxsize=64)
def _bin_cuts(m_max: int) -> tuple:
    """The upper cuts of the bins of model sizes 1..m_max, sorted without
    repeats, each flat bin's int32 index into them, and each size's first
    flat bin; read-only, as the cache hands them to every caller.  Bin j
    of m holds the x with j - 1 <= x * m < j, the floor(x * m) rule, and
    x = 1 joins bin m."""
    sizes = np.arange(1, m_max + 1)
    first = np.cumsum(sizes) - sizes
    m = np.repeat(sizes, sizes)
    j = np.arange(m.size) - np.repeat(first, sizes) + 1
    # bins 1..j hold the x with x * m < j, and x * m is monotone in x, so
    # they are the x below the least double c with c * m >= j, which lies
    # within one ulp of j / m; bin m holds every x up to 1
    cut = j / m
    cut = np.where(cut * m < j, np.nextafter(cut, 2.0), cut)
    below = np.nextafter(cut, -1.0)
    cut = np.where(below * m >= j, below, cut)
    cut[j == m] = np.inf
    cuts, at = np.unique(cut, return_inverse=True)
    at = at.astype(np.int32)
    for array in (cuts, at, first):
        array.setflags(write=False)
    return cuts, at, first


def _flat_counts(data: Dataset, m_max: int):
    """Trials and successes of every bin of model sizes 1..m_max, one size after
    another, by sorted searches, and the flat index of each size's first bin."""
    cuts, at, first = _bin_cuts(m_max)

    def tally(xs):  # points of sorted xs in each flat bin
        upper = np.searchsorted(xs, cuts)[at]
        lower = np.concatenate(([0], upper[:-1]))
        lower[first] = 0
        return upper - lower

    trials = tally(np.sort(data.x))  # before x with z = 1 is taken: less memory
    return trials, tally(np.sort(data.x[data.z != 0])), first


def log_evidence(trials: np.ndarray, successes: np.ndarray,
                 within: WithinModelPrior) -> float:
    """Log marginal likelihood of one model's bins, from their trial and
    success counts: the sum of the prior's per-bin log evidence."""
    return float(np.sum(within.bin_log_evidence(successes, trials - successes)))


@dataclass(frozen=True, eq=False)
class PosteriorState:
    """Exact posterior over model sizes plus the bin counts of every model,
    flat: the m bins of model m sit at [m(m-1)/2, m(m+1)/2).

    ``cdf`` is the cumulative sum of the weights, scaled to end at 1,
    from which every draw picks its model size.
    """

    spec: PriorSpec
    weights: np.ndarray
    cdf: np.ndarray
    trials: np.ndarray
    successes: np.ndarray


def _model_bins(m: int) -> slice:
    """Where model m's bins sit in the flat counts of model sizes 1, 2, ..."""
    start = m * (m - 1) // 2
    return slice(start, start + m)


def model_posterior(data: Dataset, spec: PriorSpec) -> PosteriorState:
    """Posterior model weights w_m proportional to pi_m * evidence_m,
    accumulated in log space, with the weights' bits of every model's
    exact log evidence.  The bins of every model are tallied in one flat
    pass.  A screen skips the models whose mass np.exp takes to 0; each
    other model's log evidence is the sum over its own bins, as
    log_evidence takes it.  An empty dataset reproduces the prior."""
    sizes = np.arange(1, spec.m_max + 1)
    trials, successes, first = _flat_counts(data, spec.m_max)
    failures = trials - successes
    log_prior = model_log_prior(spec)
    # The screen: a bin's evidence under a proper prior is at most its best
    # likelihood, s ln(s/N) + f ln(f/N), so bound >= each model's log mass.
    # A model whose bound is 750 below an exact mass has a normalized log
    # weight below -749.99, and np.exp takes anything below -745.14 to 0:
    # skipping it (log mass -inf) leaves logsumexp, the weights and the CDF
    # bit for bit.  The gap to 750 covers the bound sums' rounding, < 1e-9.
    bound = log_prior.copy()
    for k, sign in ((successes, 1.0), (failures, 1.0), (trials, -1.0)):
        bound += sign * np.add.reduceat(k * np.log(np.maximum(k, 1)), first)
    log_post = np.full(spec.m_max, -np.inf)
    per_bin = np.zeros(trials.size)

    def evaluate(models):  # the exact log masses of the models flagged
        bins = np.repeat(models, sizes)
        try:
            per_bin[bins] = spec.within.bin_log_evidence(successes[bins], failures[bins])
        except QuadratureError as error:  # name the bin's model size and index
            at = int(np.flatnonzero(bins)[error.bin])
            m = int(np.searchsorted(first, at, side="right"))
            error.args = (f"model size m={m}, bin {at - first[m - 1] + 1}: {error}",)
            raise
        for m in np.flatnonzero(models).tolist():
            log_post[m] = log_prior[m] + np.sum(per_bin[_model_bins(m + 1)])

    best = sizes == np.argmax(bound) + 1
    evaluate(best)
    evaluate((bound >= log_post.max() - _SCREEN) & ~best)

    log_post = log_post - logsumexp(log_post)
    weights = np.exp(log_post)
    weights = weights / weights.sum()
    if not abs(float(weights.sum()) - 1.0) <= 1e-12:  # NaN fails too
        raise FloatingPointError("posterior weights failed to normalize")
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    for array in (weights, cdf, trials, successes):
        array.setflags(write=False)
    return PosteriorState(spec=spec, weights=weights, cdf=cdf, trials=trials,
                          successes=successes)


def _posterior_draws(state: PosteriorState, rng, draws: int) -> list:
    """Draw working densities and group them by model size: (m, the
    indices of its draws, their levels as a (k, m) stack) per size drawn,
    in increasing m.  Per draw the stream gives the size, as
    Generator.choice draws it from p = weights, off the stored CDF, then
    the row the prior's bin draws of that size read from it; each size's
    rows become levels together."""
    cdf = state.cdf.tolist()
    sizes = np.empty(draws, dtype=np.int64)
    rows, samplers = {}, {}  # per size: the draws' rows, the prior's (row, levels) pair
    for i in range(draws):
        m = sizes[i] = bisect_right(cdf, rng.random()) + 1  # searchsorted(side="right")
        if m not in rows:
            s, trials = state.successes[_model_bins(m)], state.trials[_model_bins(m)]
            rows[m], samplers[m] = [], state.spec.within.bin_draws(s, trials - s, rng)
        rows[m].append(samplers[m][0]())
    return [(m, np.flatnonzero(sizes == m), samplers[m][1](rows[m])) for m in sorted(rows)]


def sample_posterior_density(state: PosteriorState, rng) -> PiecewiseConstantMean:
    """Draw one working mean, which fixes its density: a model size from the
    posterior weights, then its bin levels from the bin posteriors, as every
    draw of empirical_divergence_quantiles takes them."""
    ((_, _, levels),) = _posterior_draws(state, rng, 1)
    return PiecewiseConstantMean(levels[0])


@dataclass(frozen=True, eq=False)
class DivergenceSummary:
    """Quantiles of posterior-draw divergences from the truth."""

    values: np.ndarray
    min: float
    median: float
    q95: float
    max: float


def empirical_divergence_quantiles(truth: TrueModel, state: PosteriorState,
                                   u: float, draws: int, rng,
                                   ) -> DivergenceSummary:
    """Sample posterior densities and summarize d_{-u}^2(p0, draw); the
    draws of one model size take one d_t_squared pass as a stack."""
    u = float(u)
    if not 0.0 < u < 1.0:
        raise ValueError(f"u must lie in (0, 1), got {u}")
    draws = int(draws)
    if draws < 1:
        raise ValueError("draws must be >= 1")
    values = np.empty(draws)
    for _, at, levels in _posterior_draws(state, rng, draws):
        values[at] = d_t_squared(truth.mean, PiecewiseConstantMean(levels), -u)
    values.setflags(write=False)
    return DivergenceSummary(
        values=values,
        min=float(values.min()),
        median=median(values),
        q95=quantile(values, 0.95),
        max=float(values.max()))


# ---------------------------------------------------------------------------
# exact enumeration oracle on finite spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleResult:
    lhs: float
    lhs_power: float
    rhs: float
    holds: bool
    u: float
    t: float
    n: int


def exact_enumeration_oracle(p0: DiscreteDensity, atoms: Sequence[DiscreteDensity],
                             prior_masses: Sequence[float], n: int,
                             event: Sequence[int], anchor: Sequence[int],
                             u: float, t: float) -> OracleResult:
    """Brute-force check of the posterior-mass bound on a finite prior.

    Enumerates every dataset of length n, averages the posterior mass of
    the event under the truth, and compares (lhs/4)^(1 + u/t) against
    the right-hand side covered by singleton balls over the event's
    atoms, which are trivially convex.
    """
    n = int(n)
    if n < 1 or n > 6:
        raise ValueError("enumeration supports 1 <= n <= 6")
    if p0.size > 3:
        raise ValueError("enumeration supports densities of size at most 3")
    atoms = list(atoms)
    if not 1 <= len(atoms) <= 4:
        raise ValueError("enumeration supports 1 to 4 prior atoms")
    for a in atoms:
        if a.size != p0.size:
            raise ValueError("atoms must have the truth's size")
    masses = np.asarray(prior_masses, dtype=float)
    if masses.shape != (len(atoms),) or np.any(masses <= 0):
        raise ValueError("prior masses must be positive, one per atom")
    if abs(float(masses.sum()) - 1.0) > 1e-12:
        raise ValueError("prior masses must sum to 1")
    event = sorted(set(int(i) for i in event))
    anchor = sorted(set(int(i) for i in anchor))
    if not anchor:
        raise ValueError("anchor set must be nonempty")
    if max(event + anchor) >= len(atoms) or min(event + anchor) < 0:
        raise ValueError("event/anchor indices out of range")

    lik_matrix = np.stack([a.mass for a in atoms])
    lhs = 0.0
    for ys in itertools.product(range(p0.size), repeat=n):
        cols = list(ys)
        truth_prob = float(np.prod(p0.mass[cols]))
        if truth_prob == 0.0:
            continue
        liks = np.prod(lik_matrix[:, cols], axis=1)
        denom = float(np.dot(masses, liks))
        if denom == 0.0:
            raise ValueError("posterior undefined on a dataset the truth can produce")
        numer = float(np.dot(masses[event], liks[event]))
        lhs += truth_prob * numer / denom

    entries = [(d_t_squared(p0, atoms[i], -u), math.log(float(masses[i])))
               for i in event]
    sup_d = max(d_t_squared(p0, atoms[i], t) for i in anchor)
    k_term = (sup_d, math.log(float(masses[anchor].sum())))
    rhs = posterior_mass_bound_rhs(entries, k_term, u, t, n)
    lhs_power = (lhs / 4.0) ** (1.0 + u / t)
    holds = lhs_power <= rhs * (1.0 + 1e-9) + 1e-300
    return OracleResult(lhs=lhs, lhs_power=lhs_power, rhs=rhs, holds=holds,
                        u=float(u), t=float(t), n=n)


def _positive_simplex(rng, size: int) -> np.ndarray:
    raw = rng.dirichlet(np.ones(size))
    mass = (raw + 0.2) / (1.0 + 0.2 * size)
    return mass / mass.sum()


def random_oracle_config(rng) -> dict:
    """Randomized small configuration for the enumeration oracle:
    strictly positive masses, singleton-ball cover over a random event,
    and a random anchor set."""
    k = int(rng.integers(2, 4))
    n = int(rng.integers(1, 7))
    n_atoms = int(rng.integers(2, 5))
    p0 = DiscreteDensity(_positive_simplex(rng, k))
    atoms = [DiscreteDensity(_positive_simplex(rng, k)) for _ in range(n_atoms)]
    masses = _positive_simplex(rng, n_atoms)
    event = rng.permutation(n_atoms)[: int(rng.integers(1, n_atoms + 1))]
    anchor = rng.permutation(n_atoms)[: int(rng.integers(1, n_atoms + 1))]
    u = float(rng.choice([0.5, 1.0 / 3.0]))
    t = float(rng.choice([0.5, 1.0, 2.0]))
    return {
        "p0": p0, "atoms": atoms, "prior_masses": masses, "n": n,
        "event": sorted(int(i) for i in event),
        "anchor": sorted(int(i) for i in anchor),
        "u": u, "t": t,
    }
