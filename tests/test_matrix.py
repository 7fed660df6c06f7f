"""Every truth kind under every within prior, all four variants, to n = 32000,
and the uniform prior's smooth kinds to n = 2^20.

The rows must be finite, each variant's epsilon_n must fall along the n
grid, and the posterior's divergence draws must stay below epsilon_n: the
contraction a rate study exists to check.  To n = 32000 no slope band is
set, since at these n the smooth kinds' slopes are still pre-asymptotic;
to 2^20 the triangle's slope must lie in acceptance test 07's band.  The
variants take the cover mixture (prop3, prop7) and the norm mixture
(remark8, remark10), so both run under every prior.  The studies are the
ones `tools/slope_table.py` tabulates for the README.
"""

import math
import sys
from pathlib import Path

import pytest

from ratelab import VARIANTS, run_rate_study

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from slope_table import N_GRID, PRIORS, TRUTHS, study_config  # noqa: E402

LARGE_N_GRID = (500, 2000, 8000, 32000, 131072, 524288, 1048576)


def _check_contraction(result, n_grid):
    assert len(result.rows) == len(n_grid) * len(VARIANTS)
    for row in result.rows:
        values = (row.d2_min, row.d2_median, row.d2_q95, row.d2_max,
                  row.penalized_div, row.complexity_term, row.epsilon_n)
        assert all(map(math.isfinite, values)), row
    for variant in VARIANTS:
        eps = [row.epsilon_n for row in result.rows if row.variant == variant]
        assert all(b < a for a, b in zip(eps, eps[1:])), (variant, eps)
    for variant, worst in result.summary.max_exceedance:
        assert worst <= 0.05, (variant, worst)


@pytest.mark.parametrize("prior", sorted(PRIORS))
@pytest.mark.parametrize("truth", sorted(TRUTHS))
def test_study_contracts_to_largest_n(truth, prior):
    result = run_rate_study(study_config(truth, prior, variants=VARIANTS))
    _check_contraction(result, N_GRID)


@pytest.mark.parametrize("truth", ["triangle", "sine", "linear"])
def test_uniform_prior_contracts_to_two_to_the_twenty(truth):
    result = run_rate_study(study_config(truth, "uniform", LARGE_N_GRID, VARIANTS))
    _check_contraction(result, LARGE_N_GRID)
    if truth == "triangle":
        assert -0.9 < result.summary.fit.slope < -0.45, result.summary.fit
