"""Study driver: determinism, stream layout, fits, CSV output and work counts."""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ratelab
import ratelab.divergence as divergence
import ratelab.models as models
import ratelab.penalized as penalized
import ratelab.posterior as posterior
from ratelab import (
    StudyRow,
    TrueModel,
    best_approximation,
    fit_slope,
    format_study_csv,
    parse_config_text,
    run_rate_study,
    simulate_data,
    variant_bounds_for_n,
    write_study_csv,
)
from ratelab.posterior import empirical_divergence_quantiles, model_posterior
from ratelab.rng import stream
from ratelab.study import CSV_COLUMNS, CSV_SCHEMA_HEADER, TAG_DATA, TAG_DRAW

STUDY = """
[truth]
kind = sparse
levels = 0.3, 0.7, 0.45

[run]
n_grid = 200, 400, 800
draws = 8
replicates = 2
seed = 3
variants = prop3, prop7, remark8, remark10
"""


@pytest.fixture(scope="module")
def result():
    return run_rate_study(parse_config_text(STUDY))


class TestFitSlope:
    def test_exact_line(self):
        fit = fit_slope([(x, 2.0 * x + 1.0) for x in range(4)])
        assert fit.slope == pytest.approx(2.0, rel=1e-14)
        assert fit.intercept == pytest.approx(1.0, rel=1e-14)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-14)

    def test_noisy_recovery(self, rng):
        x = np.linspace(0.0, 5.0, 40)
        y = -0.8 * x + 0.3 + rng.normal(0.0, 0.01, x.size)
        fit = fit_slope(np.column_stack([x, y]))
        assert fit.slope == pytest.approx(-0.8, abs=0.01)
        assert fit.r_squared > 0.99

    def test_constant_ordinates_have_unit_r_squared(self):
        fit = fit_slope([(0.0, 2.0), (1.0, 2.0), (2.0, 2.0)])
        assert fit.slope == 0.0
        assert fit.r_squared == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_slope([(0.0, 1.0), (1.0, 2.0)])
        with pytest.raises(ValueError):
            fit_slope([(0.0, 1.0), (1.0, math.nan), (2.0, 3.0)])
        with pytest.raises(ValueError):
            fit_slope([(1.0, 1.0), (1.0, 2.0), (1.0, 3.0)])


class TestStudyRows:
    def test_row_count_and_ordering(self, result):
        cfg = result.config
        assert len(result.rows) == (len(cfg.n_grid) * cfg.replicates
                                    * len(cfg.variants))
        seen = [(row.n, row.replicate, row.variant) for row in result.rows]
        expected = [(n, r, v) for n in cfg.n_grid
                    for r in range(cfg.replicates) for v in cfg.variants]
        assert seen == expected

    def test_rows_match_bound_recomputation(self, result):
        cfg = result.config
        for n in cfg.n_grid:
            bounds = {vb.variant: vb for vb in variant_bounds_for_n(cfg, n)}
            for row in result.rows:
                if row.n != n:
                    continue
                vb = bounds[row.variant]
                assert row.penalized_div == vb.penalized_div
                assert row.complexity_term == vb.complexity_term
                assert row.epsilon_n == vb.epsilon_n

    def test_cells_are_replayable_from_stream_keys(self, result):
        cfg = result.config
        n, rep = cfg.n_grid[1], 1
        data = simulate_data(cfg.truth, n, seed=(cfg.seed, TAG_DATA, n, rep))
        state = model_posterior(data, cfg.prior_for(n))
        summary = empirical_divergence_quantiles(
            cfg.truth, state, cfg.u, cfg.draws, stream(cfg.seed, TAG_DRAW, n, rep))
        row = next(r for r in result.rows
                   if r.n == n and r.replicate == rep and r.variant == "prop7")
        assert row.d2_median == summary.median
        assert row.d2_min == summary.min
        assert row.d2_max == summary.max
        vb = {v.variant: v for v in variant_bounds_for_n(cfg, n)}["prop7"]
        assert row.exceedance == float(np.mean(summary.values > vb.epsilon_n))

    def test_pooled_medians_concatenate_replicates(self, result):
        cfg = result.config
        for i, n in enumerate(cfg.n_grid):
            values = []
            for rep in range(cfg.replicates):
                data = simulate_data(cfg.truth, n,
                                     seed=(cfg.seed, TAG_DATA, n, rep))
                state = model_posterior(data, cfg.prior_for(n))
                summary = empirical_divergence_quantiles(
                    cfg.truth, state, cfg.u, cfg.draws,
                    stream(cfg.seed, TAG_DRAW, n, rep))
                values.append(summary.values)
            pooled = float(np.median(np.concatenate(values)))
            assert result.summary.pooled_medians[i] == pooled

    def test_epsilon_decomposition_enforced(self):
        with pytest.raises(ValueError):
            StudyRow(n=10, replicate=0, variant="prop7", d2_min=0.0,
                     d2_median=0.1, d2_q95=0.2, d2_max=0.3, penalized_div=0.1,
                     complexity_term=0.2, epsilon_n=0.5, exceedance=0.0)
        with pytest.raises(ValueError):
            StudyRow(n=10, replicate=0, variant="prop7", d2_min=0.0,
                     d2_median=0.1, d2_q95=0.2, d2_max=0.3, penalized_div=0.1,
                     complexity_term=0.2, epsilon_n=0.3, exceedance=1.5)


    def test_result_records_carry_no_instance_dict(self, result):
        # a benchmark keeps every study it runs: slots keep each row small
        for record in (result, result.rows[0], result.summary,
                       result.summary.fit):
            assert not hasattr(record, "__dict__")


class TestSummary:
    def test_fit_covers_the_grid(self, result):
        fit = result.summary.fit
        assert math.isfinite(fit.slope) and math.isfinite(fit.r_squared)
        assert fit.slope < 0.0
        assert all(med > 0.0 for med in result.summary.pooled_medians)

    def test_exceedance_lookup(self, result):
        for variant in result.config.variants:
            value = dict(result.summary.max_exceedance)[variant]
            assert 0.0 <= value <= 1.0

    def test_exceedance_matches_row_maximum(self, result):
        burn_n = result.summary.burn_in_n
        assert burn_n == result.config.n_grid[result.config.burn_in]
        for variant in result.config.variants:
            worst = max(row.exceedance for row in result.rows
                        if row.variant == variant and row.n >= burn_n)
            assert dict(result.summary.max_exceedance)[variant] == worst

    def test_burn_in_drops_leading_grid_points(self):
        cfg = parse_config_text(STUDY + "burn_in = 2\n")
        res = run_rate_study(cfg)
        assert res.summary.burn_in_n == 800
        for variant in cfg.variants:
            worst = max(row.exceedance for row in res.rows
                        if row.variant == variant and row.n >= 800)
            assert dict(res.summary.max_exceedance)[variant] == worst

    def test_short_grid_yields_nan_fit(self):
        cfg = parse_config_text("""
[truth]
kind = constant
level = 0.4

[run]
n_grid = 50, 100
draws = 3
seed = 11
""")
        res = run_rate_study(cfg)
        assert math.isnan(res.summary.fit.slope)
        assert math.isnan(res.summary.fit.r_squared)
        assert len(res.summary.pooled_medians) == 2


class TestDeterminism:
    def test_byte_identical_replay(self, result):
        again = run_rate_study(parse_config_text(STUDY))
        assert format_study_csv(again) == format_study_csv(result)

    def test_workers_key_runs_the_serial_loop(self, tmp_path):
        # workers is read and dropped: with workers = 2, rate-study writes
        # the bytes of the same config without the key, and never loads
        # the thread pool
        dense = ("[truth]\nkind = triangle\namplitude = 0.22\npeak = 0.45\n\n"
                 "[run]\nn_grid = 500, 1000, 2000\ndraws = 20\nreplicates = 2\n"
                 "seed = 3\nvariants = prop3, prop7, remark8, remark10\n")
        stems = []
        for name, key in (("serial", ""), ("pool2", "workers = 2\n")):
            (tmp_path / f"{name}.cfg").write_text(f"{dense}{key}", encoding="utf-8")
            stems.append(str(tmp_path / name))
        src = str(Path(ratelab.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, ratelab.cli as cli; "
             "print([cli.main(['rate-study', '--config', stem + '.cfg', '--out', "
             "stem + '.csv']) for stem in sys.argv[1:]], 'concurrent.futures' in sys.modules)",
             *stems],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
            timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0] False"
        serial = (tmp_path / "serial.csv").read_bytes()
        assert serial.count(b"\n") == 2 + 3 * 2 * 4
        assert (tmp_path / "pool2.csv").read_bytes() == serial


class TestCsv:
    def test_layout(self, result):
        text = format_study_csv(result)
        lines = text.splitlines()
        assert lines[0] == CSV_SCHEMA_HEADER
        assert lines[1] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2 + len(result.rows)
        assert text.endswith("\n")

    def test_floats_survive_a_round_trip(self, result):
        line = format_study_csv(result).splitlines()[2]
        fields = dict(zip(CSV_COLUMNS, line.split(",")))
        row = result.rows[0]
        assert int(fields["n"]) == row.n
        assert float(fields["d2_median"]) == row.d2_median
        assert float(fields["epsilon_n"]) == row.epsilon_n

    def test_write_matches_format(self, result, tmp_path):
        path = tmp_path / "study.csv"
        write_study_csv(result, str(path))
        assert path.read_bytes().decode("utf-8") == format_study_csv(result)


DENSE_SMALL = """
[truth]
kind = triangle
amplitude = 0.22
peak = 0.45

[run]
n_grid = 200, 400, 800
draws = 20
replicates = 2
seed = 4
"""


def _counting_triangle(calls):
    base = TrueModel.triangle(amplitude=0.22, peak=0.45)

    def fn(x):
        calls.append(np.size(x))
        return base.mean.fn(x)

    return TrueModel.smooth(fn, base.mean.d_bound, base.margin,
                            breakpoints=base.mean.breakpoints)


class TestWorkCounts:
    """Counts of repeated work, not wall time: a dropped cache shows here."""

    def test_best_approximation_computed_once_per_model_size(self, monkeypatch):
        truth = _counting_triangle([])
        config = replace(parse_config_text(DENSE_SMALL), truth=truth)
        seen = []

        def recorded(truth, m):
            seen.append((truth, int(m)))
            return best_approximation(truth, m)

        monkeypatch.setattr(penalized, "best_approximation", recorded)
        before = models._best_approximation.cache_info().misses
        for n in config.n_grid:
            variant_bounds_for_n(config, n)
        misses = models._best_approximation.cache_info().misses - before
        # best_approximation takes no n: one miss per distinct (truth, m),
        # which is at most the number of distinct (n, m) pairs
        assert misses == len(set(seen))
        assert len(seen) > misses

    def test_moment_tables_built_once_per_truth_model_size_and_order(
            self, monkeypatch):
        calls = []
        # a weak model prior, so that the draws spread over several sizes
        config = replace(parse_config_text(DENSE_SMALL),
                         truth=_counting_triangle(calls), k_model=0.5)
        triples = set()
        divergence_of = posterior.d_t_squared

        def recorded(p, q, t):
            triples.add((p, q.m, t))
            return divergence_of(p, q, t)

        monkeypatch.setattr(posterior, "d_t_squared", recorded)
        misses = divergence._bin_moments.cache_info().misses
        start = misses
        for n in config.n_grid:
            for r in range(config.replicates):
                data = simulate_data(config.truth, n,
                                     seed=(config.seed, TAG_DATA, n, r))
                state = model_posterior(data, config.prior_for(n))
                calls.clear()
                empirical_divergence_quantiles(
                    config.truth, state, config.u, config.draws,
                    stream(config.seed, TAG_DRAW, n, r))
                # one evaluation of the truth per quadrature pass, and the
                # kink-aware panels need one check pass per table
                before = misses
                misses = divergence._bin_moments.cache_info().misses
                assert len(calls) <= 2 * (misses - before)
        assert misses - start == len(triples)
        assert len(triples) > 1
