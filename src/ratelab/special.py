"""The few special functions ratelab needs, on numpy and math alone.

The package carries its own because importing SciPy's special-function
module costs a fresh process about 0.3 s, more than half of what
``import ratelab`` took with it, while only these five were used from it.
The median and quantile of a sample are here because numpy's own import
numpy.ma on first use, which holds about 1.3 MB of resident memory.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["logsumexp", "log_beta_counts", "expit", "logit", "ndtr", "median",
           "quantile", "bisect"]

_SQRT2 = math.sqrt(2.0)


def logsumexp(a) -> float:
    """ln sum(exp(a)) over the elements of a; -inf for empty input.

    The rule of Blanchard, Higham & Higham, "Accurately computing the
    log-sum-exp and softmax functions" (IMA J. Numer. Anal. 41(4), 2021),
    as SciPy >= 1.15 applies it, with the same bits: the maximal terms
    are taken out of the sum, max + ln(count) + log1p(rest / count), and
    where that is not finite the plain ln(sum(exp(a))) is returned.
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return -math.inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = a.max()
        at_top = a == top
        count = np.float64(np.count_nonzero(at_top))
        rest = np.exp(np.where(at_top, -np.inf, a) - top).sum()
        if rest != 0:
            rest = rest / count
        out = np.log1p(rest) + np.log(count) + top
        if not np.isfinite(out):
            out = np.log(np.exp(a).sum())
    return float(out)


_LOG_FACTORIALS = np.zeros(0)  # ln k! for k below its size


def _log_factorials(size: int) -> np.ndarray:
    """The ln k! table, first replaced by a copy extended to the power of
    two at or above size if it is shorter: never grown in place, as every
    caller shares it.  An entry's bits do not depend on the length."""
    global _LOG_FACTORIALS
    table = _LOG_FACTORIALS
    if table.size < size:
        more = range(table.size, 1 << (size - 1).bit_length())
        table = np.concatenate([table, np.fromiter(  # no list of floats
            (math.lgamma(k + 1.0) for k in more), dtype=float, count=len(more))])
        table.setflags(write=False)
        _LOG_FACTORIALS = table
    return table


def log_beta_counts(s, f) -> np.ndarray:
    """ln B(1 + s, 1 + f) for nonnegative integer counts s and f, as
    ln s! + ln f! - ln (s + f + 1)!, read off the one table of ln k!."""
    s = np.asarray(s, dtype=np.int64)
    f = np.asarray(f, dtype=np.int64)
    total = s + f + 1
    if total.size == 0:
        return np.zeros(total.shape)
    if min(int(s.min()), int(f.min())) < 0:
        raise ValueError("counts must be nonnegative")
    table = _log_factorials(int(total.max()) + 1)
    return table[s] + table[f] - table[total]


def expit(x):
    """The logistic function 1 / (1 + exp(-x))."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def logit(p):
    """ln(p / (1 - p)), in SciPy's two-branch form: inside [0.3, 0.65],
    where that ratio loses precision, log1p(2(p - 1/2)) - log1p(-2(p - 1/2))."""
    p = np.asarray(p, dtype=float)
    s = 2.0 * (p - 0.5)
    with np.errstate(divide="ignore"):
        return np.where((p < 0.3) | (p > 0.65), np.log(p / (1.0 - p)),
                        np.log1p(s) - np.log1p(-s))


def ndtr(x):
    """Standard normal CDF, 0.5 erfc(-x / sqrt(2)) per element, by
    math.erfc over a list: np.frompyfunc is about 1.5 times slower on the
    m-sized arrays of the box masses."""
    x = np.asarray(x, dtype=float)
    out = np.fromiter([0.5 * math.erfc(-v / _SQRT2) for v in x.ravel().tolist()],
                      dtype=float, count=x.size)
    return out.reshape(x.shape)[()]


def median(a) -> float:
    """np.median of a nonempty 1-d sample, with the same bits: the middle
    order statistic, or (x + y) / 2 of the middle two; nan if a holds nan."""
    ordered = np.sort(np.asarray(a, dtype=float))
    half = ordered.size // 2
    if np.isnan(ordered[-1]):
        return math.nan
    if ordered.size % 2:
        return float(ordered[half])
    return float((ordered[half - 1] + ordered[half]) / 2.0)


def quantile(a, q: float) -> float:
    """np.quantile(a, q) of a nonempty 1-d sample for q in [0, 1], with the
    same bits: numpy's default 'linear' method, which interpolates between
    the order statistics around (size - 1) q, from the upper one when the
    weight on it is 1/2 or more; nan if a holds nan."""
    ordered = np.sort(np.asarray(a, dtype=float))
    if np.isnan(ordered[-1]):
        return math.nan
    at = (ordered.size - 1) * q
    # at the top both neighbours are the last element, as numpy takes them
    below = math.floor(at) if at < ordered.size - 1 else -1
    lo, hi = ordered[below], ordered[below + 1 if below >= 0 else -1]
    weight = at - below
    if weight >= 0.5:
        return float(hi - (hi - lo) * (1.0 - weight))
    return float(lo + (hi - lo) * weight)


def bisect(right_of, lo, hi):
    """Every bracket [lo, hi] halved 64 times at once, which pins a root
    to the last bit: each step keeps [mid, hi] where right_of(mid) holds,
    [lo, mid] elsewhere.  Returns the final (lo, hi)."""
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        right = right_of(mid)
        lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
    return lo, hi
