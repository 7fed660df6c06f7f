"""Every truth kind under every within prior, all four variants, to n = 32000.

The rows must be finite, each variant's epsilon_n must fall along the n
grid, and the posterior's divergence draws must stay below epsilon_n: the
contraction a rate study exists to check.  No slope band is set, since at
these n the smooth kinds' slopes are still pre-asymptotic.  The variants
take the cover mixture (prop3, prop7) and the norm mixture (remark8,
remark10), so both run under every prior.
"""

import math

import pytest

from ratelab import VARIANTS, parse_config_text, run_rate_study

TRUTHS = {
    "triangle": "kind = triangle\npeak = 0.45",
    "sine": "kind = sine",
    "linear": "kind = linear\nintercept = 0.35\nslope = 0.3",
    "constant": "kind = constant\nlevel = 0.4",
    "sparse": "kind = sparse\nlevels = 0.3, 0.7, 0.45",
}

PRIORS = {"uniform": "within = uniform",
          "normal-1.5": "within = normal\nscale = 1.5",
          "laplace-0.7": "within = laplace\nscale = 0.7"}

N_GRID = (500, 1000, 2000, 4000, 8000, 16000, 32000)


@pytest.mark.parametrize("prior", sorted(PRIORS))
@pytest.mark.parametrize("truth", sorted(TRUTHS))
def test_study_contracts_to_largest_n(truth, prior):
    config = parse_config_text(f"""
[truth]
{TRUTHS[truth]}

[prior]
{PRIORS[prior]}

[run]
n_grid = {", ".join(map(str, N_GRID))}
draws = 50
replicates = 1
variants = {", ".join(VARIANTS)}
""")
    result = run_rate_study(config)
    assert len(result.rows) == len(N_GRID) * len(VARIANTS)
    for row in result.rows:
        values = (row.d2_min, row.d2_median, row.d2_q95, row.d2_max,
                  row.penalized_div, row.complexity_term, row.epsilon_n)
        assert all(map(math.isfinite, values)), row
    for variant in VARIANTS:
        eps = [row.epsilon_n for row in result.rows if row.variant == variant]
        assert all(b < a for a, b in zip(eps, eps[1:])), (variant, eps)
    for variant, worst in result.summary.max_exceedance:
        assert worst <= 0.05, (variant, worst)
