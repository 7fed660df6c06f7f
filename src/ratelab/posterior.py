"""Exact model-averaged posterior for binned binary regression.

Binning the covariate into m equal cells reduces each working model to
m independent Bernoulli problems (the bins of every model size are
tallied together), so the uniform within-model prior has Beta-function
evidence in closed form and conjugate Beta bin posteriors.  A certified
screen leaves out the models that cannot carry weight; only the others'
bins get their evidence.  Under a log-odds within-model prior each such
bin gets one frame from the prior's slope and curvature, its posterior
mode and the scale 1/sqrt(curvature) there: the evidence is
Gauss-Legendre quadrature on the framed bin, split at the prior's kink
if it has one, certified per bin, and a draw's quantiles invert the same
panel masses, by Newton steps inside the panel that holds each unit.
The draws of one size are scored against the truth together, as one
stack of levels.  A small exact enumeration oracle checks the
posterior-mass bound on finite spaces by brute force.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .divergence import (_GL_W, _GL_X, DiscreteDensity, QuadratureError,
                         RegressionDensity, _composite_gl, d_t_squared)
from .models import (Dataset, PriorSpec, TrueModel, UniformPrior, WithinModelPrior,
                     log_odds_to_mean, model_log_prior)
from .rate_bounds import posterior_mass_bound_rhs
from .special import (bisect, expit, log_beta_counts, logsumexp, median,
                      quantile)

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

_EVIDENCE_TOL, _SCREEN = 1e-10, 750.0


@functools.lru_cache(maxsize=64)
def _bin_cuts(m_max: int) -> tuple:
    """The upper cuts of the bins of model sizes 1..m_max, sorted without
    repeats, each flat bin's int32 index into them, and each size's first
    flat bin; read-only, so pool threads share them.  Bin j of m holds the
    x with j - 1 <= x * m < j, the floor(x * m) rule, and x = 1 joins bin m."""
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


def _bin_posteriors(trials: np.ndarray, successes: np.ndarray,
                    within: WithinModelPrior) -> np.ndarray:
    """Per-bin log evidence.  Under a log-odds prior a nonempty bin's is the
    sum of its 32-panel masses, certified when its 16-panel sum and its tail
    bound stay within _EVIDENCE_TOL of it."""
    s, f = successes, trials - successes
    if isinstance(within, UniformPrior):
        return log_beta_counts(s, f)
    log_ev = np.zeros(s.shape)  # an empty bin's evidence is 1, its log 0
    live = np.flatnonzero(trials)
    (mode, scale, peak), start, width, density = _bin_panels(s[live], f[live], within)
    coarse, fine = ((width * _panel_masses(start, width, density, p).sum(axis=-1)).sum(axis=0)
                    for p in _PANELS)
    # beyond each end the concave target falls at least as fast as over the
    # last unit of z inside, so the mass out there is below e^end / drop
    end, inside = (_log_target(mode + scale * np.array([[-z], [z]]), s[live], f[live],
                               within) - peak for z in (_SPAN, _SPAN - 1.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        tails = np.where(inside > end, np.exp(end) / (inside - end), np.inf).sum(axis=0)
        certified = (np.abs(fine - coarse) <= _EVIDENCE_TOL * fine) & (
            tails <= _EVIDENCE_TOL * fine)
        log_ev[live] = np.where(certified, peak + np.log(scale) + np.log(fine), np.nan)
    missed = np.flatnonzero(np.isnan(log_ev))  # the uncertified bins
    if missed.size:
        j = int(missed[0])
        error = QuadratureError(f"log-odds evidence of the bin with {s[j]:g} successes"
                                f" and {f[j]:g} failures missed tolerance {_EVIDENCE_TOL}")
        error.bin = j  # its index in trials
        raise error
    return log_ev


def log_evidence(trials: np.ndarray, successes: np.ndarray,
                 within: WithinModelPrior) -> float:
    """Log marginal likelihood of one model's bins, from their trial and
    success counts: the sum of the per-bin log evidence."""
    return float(np.sum(_bin_posteriors(trials, successes, within)))


def _log_odds_bin_loglik(theta, s, f):
    # ln sigma(+-theta) = -max(-+theta, 0) - ln(1 + e^(-|theta|)), stable
    return (-(s + f) * np.log1p(np.exp(-np.abs(theta)))
            - np.maximum(-s * theta, f * theta))


def _log_target(theta, s, f, within: WithinModelPrior):
    # log of a bin's unnormalized posterior on the log-odds scale; concave
    return _log_odds_bin_loglik(theta, s, f) + within.log_pdf(theta)


# A bin's frame is its log-odds posterior's mode and the scale
# 1/sqrt(curvature) there; z = (theta - mode) / scale.  The evidence's
# panels, which the draws invert, cover z in [-_SPAN, _SPAN] as z = _SPAN
# sinh(_GRADE v) / sinh(_GRADE), v in [-1, 1]: uniform steps in v are 0.93
# dv wide in z at the mode and widen outward, where wide Laplace tails reach.
_SPAN, _GRADE, _PANELS = 1024.0, 10.0, (16, 32)
# a chunk of bins integrates as (2 pieces, _CHUNK bins, 32 x 32 nodes)
# float64 temporaries, 16 KiB per bin: at 6 bins they stay below glibc
# malloc's 128 KiB mmap and trim thresholds, so chunks reuse heap pages;
# a block of quantiles takes (_BLOCK, 33) temporaries
_MODE_BRACKET, _CHUNK, _BLOCK = 64.0, 6, 4096
_QUANTILE_TOL, _NEWTON_STEPS = 1e-12, 50


def _z_of_v(v):  # z and dz/dv
    unit = _SPAN / math.sinh(_GRADE)
    return unit * np.sinh(_GRADE * v), unit * _GRADE * np.cosh(_GRADE * v)


def _bin_panels(s, f, within: WithinModelPrior):
    """Per bin with s successes and f failures: its frame (mode, scale and
    peak, the log target at the mode, as rows), the mode by bisection on the
    concave target's slope over [-64, 64], an empty bin's the prior's; its
    two pieces in v, split at the mode or at a Laplace kink in the span
    (start, width rows); and its framed density per unit width, as
    density(v, at) of the bins at, at v."""
    def rising(mid):
        return s * expit(-mid) - f * expit(mid) + within.slope(mid) > 0

    bracket = np.full(s.shape, _MODE_BRACKET)
    lo, hi = bisect(rising, -bracket, bracket)
    mode = 0.5 * (lo + hi)
    curvature = (s + f) * expit(mode) * expit(-mode) + within.curvature
    empty = s + f == 0
    scale = np.where(empty, within.scale ** -2.0, curvature) ** -0.5
    mode = np.where(empty, 0.0, mode)
    peak = _log_target(mode, s, f, within)
    kink = np.arcsinh(-mode / scale * math.sinh(_GRADE) / _SPAN) / _GRADE
    cut = np.where(within.kinked & (np.abs(kink) < 1.0), kink, 0.0)
    start = np.stack([np.full_like(cut, -1.0), cut])
    width = np.stack([cut + 1.0, 1.0 - cut])

    def density(v, at):  # exp(target - peak) dz/dv of the bins at
        z, dz_dv = _z_of_v(v)
        theta = mode[at, None] + scale[at, None] * z
        return dz_dv * np.exp(_log_target(theta, s[at, None], f[at, None], within)
                              - peak[at, None])

    return np.stack([mode, scale, peak]), start, width, density


def _panel_masses(start, width, density, panels: int) -> np.ndarray:
    """The masses of `panels` equal panels in v per piece of the framed
    density per unit width of _bin_panels, as (piece, bin, panel),
    integrated _CHUNK bins at a time."""
    chunks = np.split(np.arange(start.shape[1]), np.arange(_CHUNK, start.shape[1], _CHUNK))
    return np.concatenate([_composite_gl(  # u runs over [0, 1] along each piece
        lambda u: density(start[:, at, None] + width[:, at, None] * u, at),
        np.linspace(0.0, 1.0, panels + 1)) for at in chunks], axis=1)


def _log_odds_quantiles(s, f, within: WithinModelPrior, units) -> np.ndarray:
    """Log-odds quantiles at units (units[..., j] for bin j) of the m bins of
    one model.  In the panel that holds a unit's share of the running sum of
    32-panel masses, safeguarded Newton steps on v (partial masses by 32-node
    Gauss-Legendre, the framed density as slope, bisection where a step
    leaves the bracket) solve to _QUANTILE_TOL of the bin's mass."""
    s, f = np.atleast_1d(s), np.atleast_1d(f)
    frame, start, width, density = _bin_panels(s, f, within)
    fine = _panel_masses(start, width, density, _PANELS[-1])
    mass = (width[..., None] * fine).transpose(1, 0, 2).reshape(s.size, -1)
    cdf = np.cumsum(mass, axis=1)  # panels of the first piece, then the second
    units = np.broadcast_to(units, np.broadcast_shapes(np.shape(units), s.shape))
    bins = np.broadcast_to(np.arange(s.size), units.shape).ravel()
    theta = np.empty(bins.size)
    for block in np.split(np.arange(bins.size), np.arange(_BLOCK, bins.size, _BLOCK)):
        j = bins[block]
        want = units.flat[block] * cdf[j, -1]
        panel = np.minimum((cdf[j] <= want[:, None]).sum(axis=-1), cdf.shape[1] - 1)
        rest = want - np.where(panel > 0, cdf[j, panel - 1], 0.0)
        piece, k = np.divmod(panel, fine.shape[-1])
        lo = start[piece, j] + width[piece, j] * (k / fine.shape[-1])  # panel start
        bracket = np.stack([lo, lo + width[piece, j] / fine.shape[-1]])
        v = lo + (bracket[1] - lo) * rest / mass[j, panel]
        at = np.arange(block.size)  # the unsolved
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(_NEWTON_STEPS):
                half = 0.5 * (v[at] - lo[at])
                nodes = np.concatenate([lo[at, None] + half[:, None] * (1.0 + _GL_X),
                                        v[at, None]], axis=1)
                g = density(nodes, j[at])
                miss = half * (g[:, :-1] * _GL_W).sum(axis=-1) - rest[at]
                bracket[np.where(miss < 0, 0, 1), at] = v[at]
                step = v[at] - miss / g[:, -1]
                inside = (bracket[0, at] < step) & (step < bracket[1, at])
                go = np.abs(miss) > _QUANTILE_TOL * cdf[j[at], -1]
                v[at[go]] = np.where(inside, step, bracket[:, at].mean(axis=0))[go]
                at = at[go]
                if not at.size:
                    break
        if at.size:
            raise QuadratureError(f"model size m={s.size}, bin {j[at[0]] + 1}: log-odds"
                                  f" quantile missed tolerance {_QUANTILE_TOL:g} in"
                                  f" {_NEWTON_STEPS} Newton steps")
        theta[block] = frame[0, j] + frame[1, j] * _z_of_v(v)[0]
    return theta.reshape(units.shape)


@dataclass(frozen=True, eq=False)
class PosteriorState:
    """Exact posterior over model sizes plus the bin counts of every model,
    flat: the m bins of model m sit at [m(m-1)/2, m(m+1)/2).

    Bin-level posteriors are conjugate Beta(1 + s, 1 + f) under the
    uniform prior.  ``cdf`` is the cumulative sum of the weights, scaled
    to end at 1, from which every draw picks its model size.
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


def _model_counts(state: PosteriorState, m: int) -> tuple:
    """Successes and failures of model m's bins."""
    s = state.successes[_model_bins(m)]
    return s, state.trials[_model_bins(m)] - s


def model_posterior(data: Dataset, spec: PriorSpec) -> PosteriorState:
    """Posterior model weights w_m proportional to pi_m * evidence_m,
    accumulated in log space, with the weights' bits of every model's
    exact log evidence.  The bins of every model are tallied in one flat
    pass.  A screen skips the models whose mass np.exp takes to 0; each
    other model's log evidence is the sum over its own bins, as
    log_evidence takes it.  An empty dataset reproduces the prior."""
    sizes = np.arange(1, spec.m_max + 1)
    trials, successes, first = _flat_counts(data, spec.m_max)
    log_prior = model_log_prior(spec)
    # The screen: a bin's evidence under a proper prior is at most its best
    # likelihood, s ln(s/N) + f ln(f/N), so bound >= each model's log mass.
    # A model whose bound is 750 below an exact mass has a normalized log
    # weight below -749.99, and np.exp takes anything below -745.14 to 0:
    # skipping it (log mass -inf) leaves logsumexp, the weights and the CDF
    # bit for bit.  The gap to 750 covers the bound sums' rounding, < 1e-9.
    bound = log_prior.copy()
    for k, sign in ((successes, 1.0), (trials - successes, 1.0), (trials, -1.0)):
        bound += sign * np.add.reduceat(k * np.log(np.maximum(k, 1)), first)
    log_post = np.full(spec.m_max, -np.inf)
    per_bin = np.zeros(trials.size)

    def evaluate(models):  # the exact log masses of the models flagged
        bins = np.repeat(models, sizes)
        try:
            per_bin[bins] = _bin_posteriors(trials[bins], successes[bins], spec.within)
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
    if abs(float(weights.sum()) - 1.0) > 1e-12:
        raise RuntimeError("posterior weights failed to normalize")
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
    the levels: Beta(1 + s, 1 + f) variates under the uniform prior, else
    m uniforms, bin posterior quantiles for all draws of the size at once.
    The Beta variates are scalar calls, one per bin in bin order: numpy's
    array call runs the same sampler per bin in order, so the bits are the
    same, but spends 11-17 us checking its arrays against about 1 us a call."""
    conjugate = isinstance(state.spec.within, UniformPrior)
    cdf, beta = state.cdf.tolist(), rng.beta
    sizes = np.empty(draws, dtype=np.int64)
    rows, params = {}, {}  # per size: the draws' variates, the (a, b) per bin
    for i in range(draws):
        m = sizes[i] = bisect_right(cdf, rng.random()) + 1  # searchsorted(side="right")
        if m not in rows:
            rows[m] = []
            if conjugate:
                a, b = (1.0 + c for c in _model_counts(state, m))
                params[m] = list(zip(a.tolist(), b.tolist()))
        rows[m].append([beta(a, b) for a, b in params[m]] if conjugate else rng.random(m))
    groups = []
    for m in sorted(rows):
        levels = np.array(rows[m])
        if not conjugate:
            levels = log_odds_to_mean(_log_odds_quantiles(
                *_model_counts(state, m), state.spec.within, levels))
        groups.append((m, np.flatnonzero(sizes == m), levels))
    return groups


def sample_posterior_density(state: PosteriorState, rng) -> RegressionDensity:
    """Draw one working density: a model size from the posterior weights,
    then its bin levels from the bin posteriors, as every draw of
    empirical_divergence_quantiles takes them."""
    ((_, _, levels),) = _posterior_draws(state, rng, 1)
    return RegressionDensity.piecewise(levels[0])


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
    p0 = truth.density
    values = np.empty(draws)
    for _, at, levels in _posterior_draws(state, rng, draws):
        values[at] = d_t_squared(p0, RegressionDensity.piecewise(levels), -u)
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
                             u: float, t: float,
                             cover: Optional[Sequence[Sequence[int]]] = None,
                             ) -> OracleResult:
    """Brute-force check of the posterior-mass bound on a finite prior.

    Enumerates every dataset of length n, averages the posterior mass of
    the event under the truth, and compares (lhs/4)^(1 + u/t) against
    the covered right-hand side.  Balls default to singletons over the
    event's atoms, which are trivially convex; callers supplying wider
    balls are responsible for their convexity (the worst-case divergence
    is evaluated over the listed members).
    """
    n = int(n)
    if n < 1 or n > 6:
        raise ValueError("enumeration supports 1 <= n <= 6")
    if p0.size > 3:
        raise ValueError("enumeration supports at most 3 outcomes")
    atoms = list(atoms)
    if not 1 <= len(atoms) <= 4:
        raise ValueError("enumeration supports 1 to 4 prior atoms")
    for a in atoms:
        if a.outcomes != p0.outcomes:
            raise ValueError("atoms must share the truth's outcome set")
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

    if cover is None:
        cover = [(i,) for i in event]
    entries = []
    for ball in cover:
        ball = [int(i) for i in ball]
        if not ball:
            raise ValueError("cover balls must be nonempty")
        worst = min(d_t_squared(p0, atoms[i], -u) for i in ball)
        entries.append((worst, math.log(float(masses[ball].sum()))))
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
