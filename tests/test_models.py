"""True means, best approximations, priors, and data simulation."""

import math
import re
import sys

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from ratelab import (
    Dataset,
    PriorSpec,
    TrueModel,
    WithinModelPrior,
    best_approximation,
    log_odds_to_mean,
    mean_to_log_odds,
    model_log_prior,
    simulate_data,
)
from ratelab import models
from ratelab.special import ndtr


class TestBestApproximation:
    def test_linear_truth_left_endpoint_levels(self):
        truth = TrueModel.linear(intercept=0.3, slope=0.4)
        approx = best_approximation(truth, 4)
        assert np.allclose(approx.levels, [0.3, 0.4, 0.5, 0.6], atol=1e-15)
        assert approx.sup_error == pytest.approx(0.1, abs=1e-15)

    def test_sparse_truth_exact_at_multiples_of_m0(self):
        truth = TrueModel.sparse([0.3, 0.6, 0.4])
        for m in (3, 6, 9):
            assert best_approximation(truth, m).sup_error == pytest.approx(
                0.0, abs=1e-15)

    def test_sparse_truth_gap_off_multiples(self):
        truth = TrueModel.sparse([0.3, 0.6, 0.4])
        approx = best_approximation(truth, 2)
        # working bin [0, 1/2) holds levels 0.3 then 0.6; sampling at the
        # left endpoint leaves a 0.3 gap on [1/3, 1/2)
        assert approx.sup_error == pytest.approx(0.3, abs=1e-12)

    def test_model_size_must_be_positive(self):
        with pytest.raises(ValueError):
            best_approximation(TrueModel.constant(0.5), 0)


class TestTruthConstructors:
    def test_triangle_meets_declared_derivative_bound(self):
        truth = TrueModel.triangle(amplitude=0.22, peak=0.45)
        assert truth.d_bound == pytest.approx(2 * 0.22 / 0.45, abs=1e-15)
        xs = np.array([0.0, 0.45, 1.0])
        assert np.allclose(truth.mean(xs), [0.28, 0.72, 0.28], atol=1e-12)

    def test_triangle_peak_validated(self):
        with pytest.raises(ValueError):
            TrueModel.triangle(peak=1.0)

    def test_sine_respects_margin(self):
        truth = TrueModel.sine(amplitude=0.15)
        xs = np.linspace(0, 1, 1001)
        assert truth.mean(xs).min() > 0.25
        assert truth.mean(xs).max() < 0.75

    def test_sparse_levels_must_clear_margin(self):
        with pytest.raises(ValueError):
            TrueModel.sparse([0.2, 0.6])

    def test_constant_has_zero_derivative_bound(self):
        truth = TrueModel.constant(0.4)
        assert truth.d_bound == 0.0
        assert truth.m0 is None

    def test_sparse_records_m0(self):
        assert TrueModel.sparse([0.3, 0.7, 0.45]).m0 == 3

    @pytest.mark.parametrize("build,fragment", [
        (lambda: TrueModel.sparse([0.3, math.nan]), "inside (margin, 1 - margin)"),
        (lambda: TrueModel.constant(math.nan), "mean leaves"),
        (lambda: TrueModel.sine(amplitude=math.nan), "mean leaves"),
        (lambda: TrueModel.linear(0.4, math.nan), "mean leaves"),
        (lambda: TrueModel.smooth(lambda x: 0.4 + 0 * x, math.inf, 0.25), "derivative bound"),
        (lambda: TrueModel.smooth(lambda x: 0.4 + 0 * x, math.nan, 0.25), "derivative bound"),
    ], ids=["levels", "level", "amplitude", "slope", "d_bound_inf", "d_bound_nan"])
    def test_non_finite_truths_are_refused(self, build, fragment):
        with pytest.raises(ValueError, match=re.escape(fragment)):
            build()


class TestModelPrior:
    def test_geometric_decay_ratio(self):
        spec = PriorSpec(n=100, k_model=3.0, m_max=5)
        masses = np.exp(model_log_prior(spec))
        assert masses.sum() == pytest.approx(1.0, abs=1e-12)
        for m in range(1, 5):
            assert masses[m] / masses[m - 1] == pytest.approx(
                100.0 ** -3.0, rel=1e-10)

    @pytest.mark.parametrize("k_model", [0.0, math.nan, math.inf])
    def test_k_model_must_be_positive_and_finite(self, k_model):
        with pytest.raises(ValueError, match="k_model must be positive"):
            PriorSpec(n=100, k_model=k_model)

    def test_default_m_max_is_sqrt_n(self):
        assert PriorSpec(n=10_000).m_max == 100
        assert PriorSpec(n=101).m_max == 11

    def test_n_equal_one_gives_uniform_model_prior(self):
        spec = PriorSpec(n=1, m_max=4)
        assert np.allclose(np.exp(model_log_prior(spec)), 0.25, atol=1e-14)

    def test_memoized_prior_is_shared_and_read_only(self):
        uniform = PriorSpec(n=400, k_model=2.0)
        normal = PriorSpec(n=400, k_model=2.0,
                           within=WithinModelPrior.log_odds("normal", 1.5))
        first, second = model_log_prior(uniform), model_log_prior(normal)
        assert np.array_equal(first, second)
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0.0
        assert np.array_equal(model_log_prior(uniform), second)

    def test_mass_accessor_bounds(self):
        spec = PriorSpec(n=50, m_max=3)
        log_prior = model_log_prior(spec)
        assert log_prior.shape == (3,)
        assert log_prior[0] > log_prior[1]


class TestWithinModelPrior:
    def test_uniform_rejects_log_odds_operations(self):
        with pytest.raises(AttributeError):
            WithinModelPrior.uniform_box().log_pdf(0.0)
        with pytest.raises(AttributeError):
            WithinModelPrior.uniform_box().log_interval_mass(0.0, 1.0)

    @pytest.mark.parametrize("density,scale", [("normal", 1.0), ("normal", 2.5),
                                               ("laplace", 1.0), ("laplace", 0.7)])
    def test_u_norm_integral_closed_form(self, density, scale):
        within = WithinModelPrior.log_odds(density=density, scale=scale)
        for u in (0.5, 1.0 / 3.0):
            # integrate one symmetric half; the truncation at 100 scales
            # is below 1e-14 relative for both densities at these orders
            half, err = quad(lambda w: math.exp(u * float(within.log_pdf(w))),
                             0.0, 100.0 * scale, limit=200)
            assert err < 1e-7
            assert math.exp(within.log_u_norm_integral(u)) == pytest.approx(
                2.0 * half, rel=1e-12)

    def test_u_norm_integral_frozen_values(self):
        normal = WithinModelPrior.log_odds("normal", 1.0)
        laplace = WithinModelPrior.log_odds("laplace", 1.0)
        assert math.exp(normal.log_u_norm_integral(0.5)) == pytest.approx(
            2.2390302698404954, abs=1e-14)
        assert math.exp(laplace.log_u_norm_integral(0.5)) == pytest.approx(
            2.8284271247461903, abs=1e-14)

    # ln P(lo < W < hi) against the closed-form tails at 40 digits: far
    # out in a tail, where a CDF difference cancels to 0, from 0, and
    # across 0, where the mass is near 1 and the log keeps the tails; the
    # narrow boxes across 0 under a wide prior have both tails near 1/2,
    # and ln(1 - both tails) read them 9.6e-9 and 7.3e-10 relative too large
    @pytest.mark.parametrize("density,scale,lo,hi,rel", [
        pytest.param("normal", 0.1, 0.815, 1.065, 1e-13, id="normal-far-tail"),
        pytest.param("laplace", 0.01, 1.0, 1.125, 1e-13, id="laplace-far-tail"),
        pytest.param("laplace", 1.3, 0.0, 2.1, 1e-13, id="laplace-from-0"),
        pytest.param("normal", 1.5, -0.3, 0.7, 1e-13, id="normal-across-0"),
        pytest.param("laplace", 1.3, -2.1, 0.4, 1e-13, id="laplace-across-0"),
        pytest.param("normal", 0.1, -1.0, 1.0, 1e-13, id="normal-near-1"),
        pytest.param("laplace", 0.1, -5.0, 4.0, 1e-13, id="laplace-near-1"),
        pytest.param("laplace", 1e6, -1e-3, 2e-3, 1e-14, id="laplace-narrow-across-0"),
        pytest.param("normal", 4e5, -0.05, 0.07, 1e-14, id="normal-narrow-across-0"),
    ])
    def test_log_interval_mass_against_mpmath(self, density, scale, lo, hi, rel):
        with mpmath.workdps(40):
            s = mpmath.mpf(scale)
            if density == "normal":
                tail = lambda w: mpmath.erfc(w / (s * mpmath.sqrt(2))) / 2
            else:
                tail = lambda w: mpmath.exp(-w / s) / 2
            a, b = mpmath.mpf(lo), mpmath.mpf(hi)
            mass = tail(a) - tail(b) if a >= 0 else 1 - tail(-a) - tail(b)
            log_ref = float(mpmath.log(mass))
            mass = float(mass)
        got = float(WithinModelPrior.log_odds(density, scale)
                    .log_interval_mass(lo, hi))
        assert got == pytest.approx(log_ref, rel=rel)
        assert math.exp(got) == pytest.approx(mass, rel=rel)

    # the near tail of a normal box at 37.4 scales is still a normal
    # float; at 37.6 and 38.1 it is subnormal, and at 38.1 a mass from it
    # would be 2.6e-6 relative too large, which would lower a certified
    # bound; past 37.5 scales the log tail takes the Mills ratio instead,
    # out to 47 and 80 scales, where the float tail is 0
    @pytest.mark.parametrize("distance", [37.4, 37.6, 38.1, 47.0, 80.0])
    def test_box_past_the_subnormal_tail_gets_its_mass(self, distance):
        scale = 0.0247
        lo = distance * scale
        hi = lo + 0.002
        within = WithinModelPrior.log_odds("normal", scale)
        got = within.log_interval_mass(np.array([lo, -hi]), np.array([hi, -lo]))
        with mpmath.workdps(40):
            tail = lambda w: mpmath.erfc(w / (scale * mpmath.sqrt(2))) / 2
            near = tail(mpmath.mpf(lo))
            log_ref = float(mpmath.log(near - tail(mpmath.mpf(hi))))
        assert (float(near) >= np.finfo(float).tiny) == (distance < 37.5)
        assert got == pytest.approx([log_ref, log_ref], rel=1e-13)

    # 38.1 scales out the near tail is subnormal, but ln f falls by only
    # 0.78 nats across a box of width 5e-4, so its mass is a quadrature
    def test_narrow_box_past_the_subnormal_tail_gets_its_mass(self):
        scale = 0.0247
        lo = 38.1 * scale
        hi = lo + 5e-4
        within = WithinModelPrior.log_odds("normal", scale)
        got = within.log_interval_mass(np.array([lo, -hi]), np.array([hi, -lo]))
        with mpmath.workdps(40):
            tail = lambda w: mpmath.erfc(w / (scale * mpmath.sqrt(2))) / 2
            near = tail(mpmath.mpf(lo))
            log_ref = float(mpmath.log(near - tail(mpmath.mpf(hi))))
        assert float(near) < np.finfo(float).tiny
        assert got == pytest.approx([log_ref, log_ref], rel=1e-13)

    # a narrow box against a wide prior: both tails round near 1/2, and their
    # difference would cancel (0.11 too large at scale 1e13 under laplace,
    # 8e-6 relative at 1e10 under normal)
    @pytest.mark.parametrize("density", ["laplace", "normal"])
    @pytest.mark.parametrize("scale", [0.7, 1e6, 1e10, 1e13])
    def test_narrow_laplace_box_against_mpmath(self, density, scale):
        lo, hi = 0.942462, 0.946462
        with mpmath.workdps(50):
            b = mpmath.mpf(scale)
            tail = ((lambda w: mpmath.exp(-mpmath.mpf(w) / b) / 2) if density == "laplace"
                    else (lambda w: mpmath.erfc(mpmath.mpf(w) / (b * mpmath.sqrt(2))) / 2))
            log_ref = float(mpmath.log(tail(lo) - tail(hi)))
        within = WithinModelPrior.log_odds(density, scale)
        got = within.log_interval_mass(np.array([lo, -hi]), np.array([hi, -lo]))
        assert got == pytest.approx([log_ref, log_ref], rel=1e-13)

    def test_literals_are_leggauss_10_to_the_bit(self):
        nodes, weights = np.polynomial.legendre.leggauss(10)
        assert models._GL10_X.tobytes() == nodes.tobytes()
        assert models._GL10_W.tobytes() == weights.tobytes()

    @pytest.mark.parametrize("scale", [0.0127, 0.02, 1.5])
    def test_normal_log_tail_against_mpmath(self, scale):
        # ln ndtr(-x) up to 37.5 scales, ln phi(x) + ln R(x) past it, where
        # the float tail turns subnormal and from 38.5 scales reads 0
        x = np.concatenate([np.linspace(30.0, 45.0, 61), np.geomspace(45.0, 1e6, 40)])
        within = WithinModelPrior.log_odds("normal", scale)
        got = within.log_tail(x * scale)
        with mpmath.workdps(60):
            ref = [float(mpmath.log(mpmath.erfc(mpmath.mpf(v) / mpmath.sqrt(2)) / 2))
                   for v in (x * scale / scale).tolist()]
        assert got == pytest.approx(ref, rel=1e-15)

    def test_narrow_intervals_never_call_ndtr(self, monkeypatch):
        calls = []

        def counted(x):
            calls.append(np.size(x))
            return ndtr(x)

        monkeypatch.setattr(models, "ndtr", counted)
        within = WithinModelPrior.log_odds("normal", 1.5)
        assert math.isfinite(within.log_cell_sum(1000, 0.5))  # 4.4 M cells a side
        assert math.isfinite(within.log_interval_mass(0.9, 1.9))
        assert calls == []
        within.log_interval_mass(np.array([-0.9, 0.9]), np.array([3.1, 4.1]))
        assert calls == [2, 2]  # the wide intervals' two ends, once each

    @pytest.mark.parametrize("density,scale", [("normal", 0.1), ("normal", 1.5),
                                               ("laplace", 0.01), ("laplace", 100.0)])
    def test_mirrored_boxes_give_equal_bits(self, density, scale):
        within = WithinModelPrior.log_odds(density, scale)
        lo = np.array([0.0, 0.3, 0.815, 2.0, -0.2, -1.5])
        hi = np.array([0.4, 0.9, 1.065, 7.5, 0.5, 0.25])
        assert np.array_equal(within.log_interval_mass(lo, hi),
                              within.log_interval_mass(-hi, -lo))

    def test_unknown_kind_rejected(self):
        # a prior is built by its factory or its class, never from a kind
        with pytest.raises(TypeError):
            WithinModelPrior("beta")
        with pytest.raises(ValueError):
            WithinModelPrior.log_odds("cauchy")

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
    def test_scale_must_be_positive_and_finite(self, scale):
        for density in ("normal", "laplace"):
            with pytest.raises(ValueError, match="scale must be positive"):
                WithinModelPrior.log_odds(density, scale)

    def test_subnormal_scale_is_refused(self):
        # 1/b of a subnormal scale overflows float64, and the Laplace slope divides
        # by b; the smallest normal scale is the root of the smallest normal float
        tiny = sys.float_info.min
        for density, least in (("normal", math.sqrt(tiny)), ("laplace", tiny)):
            with pytest.raises(ValueError, match="not subnormal"):
                WithinModelPrior.log_odds(density, 1e-310)
            smallest = WithinModelPrior.log_odds(density, least)
            assert math.isfinite(smallest.log_analytic_sum(500, 0.5))

    def test_normal_scale_with_an_overflowing_square_is_refused(self):
        # the normal slope and log ratio divide by s^2; a Laplace scale has no cap
        largest = math.sqrt(sys.float_info.max)
        assert WithinModelPrior.log_odds("normal", largest).slope(1.0) < 0.0
        with pytest.raises(ValueError, match="scale must be at most"):
            WithinModelPrior.log_odds("normal", math.nextafter(largest, math.inf))
        assert WithinModelPrior.log_odds("laplace", 1e300).slope(1.0) < 0.0
        # and below: the curvature 1/s^2 of a square under the normal floats overflows
        smallest = math.sqrt(sys.float_info.min)
        assert WithinModelPrior.log_odds("normal", smallest).curvature < math.inf
        with pytest.raises(ValueError, match="scale must be at least"):
            WithinModelPrior.log_odds("normal", math.nextafter(smallest, 0.0))


class TestSimulation:
    def test_reproducible_for_equal_seeds(self):
        truth = TrueModel.sine()
        a = simulate_data(truth, 200, seed=(3, 1, 200, 0))
        b = simulate_data(truth, 200, seed=(3, 1, 200, 0))
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.z, b.z)

    def test_integer_seed_means_singleton_key(self):
        truth = TrueModel.constant(0.5)
        assert np.array_equal(simulate_data(truth, 50, 9).x,
                              simulate_data(truth, 50, (9,)).x)

    def test_distinct_replicates_decorrelate(self):
        truth = TrueModel.sine()
        a = simulate_data(truth, 200, seed=(3, 1, 200, 0))
        b = simulate_data(truth, 200, seed=(3, 1, 200, 1))
        assert not np.array_equal(a.z, b.z)

    def test_empirical_rate_tracks_mean(self):
        truth = TrueModel.constant(0.35)
        data = simulate_data(truth, 40_000, seed=11)
        se = math.sqrt(0.35 * 0.65 / data.n)
        assert abs(float(data.z.mean()) - 0.35) < 4 * se

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            Dataset(x=np.array([0.5, 1.5]), z=np.array([0, 1], dtype=np.int8))
        with pytest.raises(ValueError):
            Dataset(x=np.array([0.5]), z=np.array([2], dtype=np.int8))


def test_log_odds_mean_round_trip():
    mus = np.array([0.001, 0.25, 0.5, 0.75, 0.999])
    assert np.allclose(log_odds_to_mean(mean_to_log_odds(mus)), mus, atol=1e-12)
    assert mean_to_log_odds(0.5) == pytest.approx(0.0, abs=1e-12)
