"""Seeded audit of the log-odds priors' interval masses against mpmath.

References are built from the closed-form tails at 60 digits, never from
CDF differences, which cancel for a narrow interval under a wide prior.
A log mass must be right to 1e-13 relative either way: a mass that is too
large lowers a certified penalized bound.  No mass reads -inf: past the
subnormal float tail the normal log tail takes the Mills ratio.
"""

import math

import mpmath
import numpy as np
import pytest

from ratelab import LaplacePrior, NormalPrior

LOG_ODDS = {"normal": NormalPrior, "laplace": LaplacePrior}
CASES = 1000  # random boxes per prior
REL = 1e-13


def _tail(density, scale):
    s = mpmath.mpf(scale)
    if density == "normal":
        return lambda w: mpmath.erfc(mpmath.mpf(w) / (s * mpmath.sqrt(2))) / 2
    return lambda w: mpmath.exp(-mpmath.mpf(w) / s) / 2


def _reference(density, scale, lo, hi):
    """ln P(lo < W < hi) from tails at 60 digits."""
    with mpmath.workdps(60):
        tail = _tail(density, scale)
        if lo < 0 < hi:
            return mpmath.log(1 - tail(-lo) - tail(hi))
        near, far = (lo, hi) if lo >= 0 else (-hi, -lo)
        return mpmath.log(tail(near) - tail(far))


def _audit(density, scale, lo, hi):
    """Check each log mass is right to REL relative."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    got = LOG_ODDS[density](scale).log_interval_mass(lo, hi)
    for g, a, b in zip(got.tolist(), lo.tolist(), hi.tolist()):
        ref = _reference(density, scale, a, b)
        err = float((g - ref) / abs(ref))
        assert abs(err) <= REL, (density, scale, a, b, g, float(ref))


def _random_boxes(rng, scale, count):
    """One-sided boxes near and far out in a tail, mirrored at random, and
    boxes across 0; widths log-uniform from 1e-4 to 4 scales."""
    width = np.exp(rng.uniform(math.log(1e-4), math.log(4.0 * scale), count))
    near = np.where(rng.random(count) < 0.5, rng.uniform(0.0, 1.1, count),
                    scale * rng.uniform(0.0, 40.0, count))
    kind = rng.integers(0, 3, count)  # right of 0, left of 0, across 0
    lo = np.where(kind == 0, near, np.where(kind == 1, -near - width,
                                            -rng.random(count) * width))
    return lo, lo + width


@pytest.mark.parametrize("density", ["normal", "laplace"])
def test_random_boxes_against_mpmath(density):
    rng = np.random.default_rng(8 if density == "normal" else 9)
    for scale in 10.0 ** rng.uniform(-1.5, 6.0, CASES // 5):
        _audit(density, scale, *_random_boxes(rng, scale, 5))


@pytest.mark.parametrize("density", ["normal", "laplace"])
@pytest.mark.parametrize("n", [500, 1000, 4000])
def test_cells_against_mpmath(density, n):
    # cells [j h, (j + 1) h] of the u = 1/2 grid, h = 4 n^-2, from the cell
    # at 0 out to 40 scales, as NormalPrior.cell_sum reads them
    rng = np.random.default_rng(n)
    h = 4.0 * n ** -2.0
    for scale in (10.0 ** -1.5, 1.5, 10.0 ** rng.uniform(-1.5, 6.0)):
        j = np.floor(np.exp(rng.uniform(0.0, math.log(40.0 * scale / h), 6)))
        edges = np.concatenate([[0.0], j]) * h
        _audit(density, scale, edges, edges + h)



@pytest.mark.parametrize("density", ["normal", "laplace"])
def test_far_boxes_against_mpmath(density):
    # boxes 35 to 80 scales out under narrow priors, where the float normal
    # tail turns subnormal (37.5 scales) and then 0 (38.5): the triangle's
    # bins sit 47 scales out at scale 0.02
    rng = np.random.default_rng(10 if density == "normal" else 11)
    for scale in (0.0127, 0.0164, 0.02, 0.0247, 0.03):
        count = CASES // 50
        width = np.exp(rng.uniform(math.log(1e-4), math.log(4.0 * scale), count))
        lo = scale * rng.uniform(35.0, 80.0, count)
        mirrored = rng.random(count) < 0.5
        _audit(density, scale, np.where(mirrored, -lo - width, lo),
               np.where(mirrored, -lo, lo + width))
