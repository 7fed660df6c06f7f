"""Print the rate of every truth kind under every within prior as a Markdown table.

    python tools/slope_table.py

Runs the 15 truth x prior studies of `tests/test_matrix.py` with the
ratelab that Python imports (installed, or `PYTHONPATH=src`): n = 500 ...
32000, one replicate, 50 draws, the `prop7` variant.  Per pair it prints
the fitted slope of the pooled median d2 against n on log-log axes, and
the largest ratio, over the n grid, of prop7's epsilon_n to that median.
It takes about 5 s on 2 cores.
"""

from __future__ import annotations

from ratelab import parse_config_text, run_rate_study

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


def study_config(truth: str, prior: str, n_grid=N_GRID, variants=("prop7",)):
    """One replicate of 50 draws of a TRUTHS kind under a PRIORS prior."""
    return parse_config_text(f"""
[truth]
{TRUTHS[truth]}

[prior]
{PRIORS[prior]}

[run]
n_grid = {", ".join(map(str, n_grid))}
draws = 50
replicates = 1
variants = {", ".join(variants)}
""")


def main() -> None:
    print("| truth | prior | slope | max prop7 epsilon_n / median d2 |")
    print("| --- | --- | --- | --- |")
    for truth in TRUTHS:
        for prior in PRIORS:
            result = run_rate_study(study_config(truth, prior))
            eps = [row.epsilon_n for row in result.rows]  # one prop7 row per n
            ratio = max(e / d2 for e, d2 in zip(eps, result.summary.pooled_medians))
            print(f"| {truth} | {prior} | {result.summary.fit.slope:.3f} | {ratio:.0f} |")


if __name__ == "__main__":
    main()
