"""Covering numbers and prior-weighted norm complexities."""

import math

import mpmath
import numpy as np
import pytest

import ratelab.complexity as complexity
from ratelab import (
    WithinModelPrior,
    log_covering_number_uniform,
    log_norm_complexity_analytic,
    log_norm_complexity_mixture,
    norm_complexity_grid,
)

UNIFORM = WithinModelPrior.uniform_box()
NORMAL = WithinModelPrior.log_odds("normal", 1.0)
LAPLACE = WithinModelPrior.log_odds("laplace", 1.0)


def _mp_cell_sum(within, h: float, u: float) -> float:
    """2 sum_j (T(jh) - T((j+1)h))^u over the cells out to 160 prior
    scales, T the prior's tail, at 40 digits."""
    with mpmath.workdps(40):
        s, hh, uu = (mpmath.mpf(v) for v in (within.scale, h, u))
        if within.name == "normal":
            tail = lambda x: mpmath.ncdf(-x / s)
        else:
            tail = lambda x: mpmath.exp(-x / s) / 2
        edges = [tail(j * hh) for j in range(int(160 * within.scale / h) + 2)]
        return float(2 * mpmath.fsum((a - b) ** uu for a, b in zip(edges, edges[1:])))


class TestCoveringNumbers:
    def test_single_coordinate_count(self):
        # radius n^(-1/u) = 1/16 at n = 4, u = 1/2
        assert math.exp(log_covering_number_uniform(1, 4, 0.5)) == (
            pytest.approx(16, rel=1e-14))

    def test_power_in_dimension(self):
        assert math.exp(log_covering_number_uniform(3, 4, 0.5)) == (
            pytest.approx(16 ** 3, rel=1e-14))

    def test_integer_power_path_is_exact(self):
        # n^(1/u) with u = 1/3 and n = 10 must be exactly 1000, not a
        # float ceiling artifact
        assert log_covering_number_uniform(1, 10, 1.0 / 3.0) == math.log(1000)

    def test_fractional_exponent_uses_ceiling(self):
        assert log_covering_number_uniform(1, 5, 0.4) == math.log(
            math.ceil(5 ** 2.5 - 1e-9))

    def test_log_form_matches(self):
        # against the log of the integer count ceil(n^(1/u))^m
        for m, n, u, side in [(1, 4, 0.5, 16), (3, 9, 0.5, 81),
                              (2, 8, 1.0 / 3.0, 512)]:
            assert log_covering_number_uniform(m, n, u) == pytest.approx(
                math.log(side ** m), rel=1e-14)

    def test_zero_dimensions_is_one_ball(self):
        assert log_covering_number_uniform(0, 100, 0.5) == 0.0


class TestUniformGridSums:
    def test_closed_form_when_grid_divides_evenly(self):
        # h = 4 n^(-2); 1/h = n^2/4 is an integer for even n, and then
        # the norm is exactly h^(m(u-1)/u)
        for n in (4, 10, 20):
            h = 4.0 * n ** -2.0
            for m in (1, 2, 3):
                summary = norm_complexity_grid(UNIFORM, m, 0.5, n)
                assert summary.grid_spacing == pytest.approx(h, rel=1e-15)
                assert math.exp(summary.log_lu_norm) == pytest.approx(
                    h ** (m * (0.5 - 1.0) / 0.5), rel=1e-9)

    def test_partial_cell_contributes_its_own_mass(self):
        # n = 3 gives h = 4/9: two full cells plus a width-1/9 remainder,
        # so the sum is 2*(4/9)^(1/2) + (1/9)^(1/2) = 5/3
        summary = norm_complexity_grid(UNIFORM, 1, 0.5, 3)
        assert summary.per_coordinate_sum == pytest.approx(5.0 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_sum_matches_the_integer_form(self, k):
        # 1/h = n^k / 4 for u = 1/k: n^k // 4 whole cells of width h and a
        # last one of width (n^k mod 4) / n^k, summed at 40 digits; n = 18,
        # 108 and 15874 and the README grid once counted a rounding residue
        # or one cell too many
        for n in (2, 3, 18, 108, 15874, 500, 1000, 2000, 4000, 8000, 16000, 32000):
            side = n ** k
            cells, rem = divmod(side, 4)
            with mpmath.workdps(40):
                u = mpmath.mpf(1) / k
                ref = (cells * (mpmath.mpf(4) / side) ** u
                       + (mpmath.mpf(rem) / side) ** u)
            got = norm_complexity_grid(UNIFORM, 1, 1.0 / k, n).per_coordinate_sum
            assert got == pytest.approx(float(ref), rel=1e-15, abs=0.0), n

    def test_underflowing_cell_width_is_refused(self):
        # h = 4 n^(-100) is 0 in float64 at n = 2000; the sum is refused
        # before n^100 is built, an integer that outgrows memory at tiny u
        with pytest.raises(FloatingPointError, match="underflows float64 at u=0.01"):
            norm_complexity_grid(UNIFORM, 1, 0.01, 2000)

    def test_coarse_grid_saturates_at_one(self):
        # h >= 1 means a single cell holding all the mass
        summary = norm_complexity_grid(UNIFORM, 2, 0.5, 1)
        assert summary.per_coordinate_sum == pytest.approx(1.0, abs=1e-15)
        assert math.exp(summary.log_lu_norm) == pytest.approx(1.0, abs=1e-12)


class TestLogOddsGridSums:
    @pytest.mark.parametrize("within", [NORMAL, LAPLACE])
    def test_grid_sum_below_analytic_bound(self, within):
        for n in (2, 3, 4):
            for m in (1, 2, 3):
                summary = norm_complexity_grid(within, m, 0.5, n)
                assert summary.log_lu_norm <= summary.log_analytic_bound + 1e-12

    def test_refining_the_grid_never_shrinks_the_sum(self):
        # splitting cells can only grow sum(mass^u) by concavity
        coarse = norm_complexity_grid(NORMAL, 1, 0.5, 2).per_coordinate_sum
        fine = norm_complexity_grid(NORMAL, 1, 0.5, 4).per_coordinate_sum
        assert fine >= coarse - 1e-12

    def test_analytic_helper_matches_grid_summary_field(self):
        for within in (UNIFORM, NORMAL, LAPLACE):
            for m, n in [(1, 3), (2, 4), (3, 2)]:
                summary = norm_complexity_grid(within, m, 0.5, n)
                assert log_norm_complexity_analytic(within, m, 0.5, n) == (
                    pytest.approx(summary.log_analytic_bound, rel=1e-14))

    def test_laplace_cell_sum_against_direct_formula(self):
        # Laplace tail is exp(-w)/2, so cell masses are available in
        # closed form and the grid sum can be recomputed directly
        n = 3
        h = 4.0 * n ** -2.0
        js = np.arange(0, 200_000)
        masses = 0.5 * (np.exp(-js * h) - np.exp(-(js + 1) * h))
        direct = 2.0 * float(np.sum(np.sqrt(masses)))
        summary = norm_complexity_grid(LAPLACE, 1, 0.5, n)
        assert summary.per_coordinate_sum == pytest.approx(direct, rel=1e-9)


class TestLogOddsEnclosure:
    # at u = 1/3 and n = 500 the unit-scale normal prior needs 5e8 cells per
    # side, past its cap, so a narrower one stands in; the Laplace sum is
    # a closed form, checked at the same narrow scale as before
    CASES = ([(w, u, n) for w in (NORMAL, LAPLACE) for u in (0.5, 1.0 / 3.0)
              for n in (2, 3, 4)]
             + [(NORMAL, 0.5, 500), (LAPLACE, 0.5, 500),
                (WithinModelPrior.log_odds("normal", 0.01), 1.0 / 3.0, 500),
                (WithinModelPrior.log_odds("laplace", 0.001), 1.0 / 3.0, 500)])

    @pytest.mark.parametrize("within,u,n", CASES, ids=lambda v: (
        f"{v.name}{v.scale:g}" if isinstance(v, WithinModelPrior) else f"{v:.3g}"))
    def test_exact_sum_lies_inside_the_enclosure(self, within, u, n):
        summary = norm_complexity_grid(within, 1, u, n)
        h = summary.grid_spacing
        spread = 2.0 * h * within.peak ** u
        integral = within.u_norm_integral(u)
        total = summary.per_coordinate_sum
        # strictly above the lower end, which is what the normal cap reports
        assert (integral - spread) * h ** (u - 1.0) < total
        assert total <= (integral + spread) * h ** (u - 1.0)
        assert total <= math.exp(u * summary.log_analytic_bound)
        if n <= 4:
            assert total == pytest.approx(_mp_cell_sum(within, h, u), rel=1e-13)



class TestLaplaceClosedForm:
    @pytest.mark.parametrize("n", [2, 3, 4, 500, 4000, 32000])
    @pytest.mark.parametrize("u", [0.5, 1.0 / 3.0], ids=["u2", "u3"])
    @pytest.mark.parametrize("scale", [0.001, 0.7, 1.5, 1000.0])
    def test_sum_against_mpmath(self, scale, u, n):
        # the cells j >= 0 hold masses T(jh) - T((j+1)h), T(x) = e^(-x/b) / 2,
        # whose u-th powers fall by one ratio r per cell: at 60 digits, from
        # the tails, S = 2 (T(0) - T(h))^u / (1 - r)
        within = WithinModelPrior.log_odds("laplace", scale)
        summary = norm_complexity_grid(within, 1, u, n)
        h, total = summary.grid_spacing, summary.per_coordinate_sum
        with mpmath.workdps(60):
            b, hh, uu = (mpmath.mpf(v) for v in (scale, h, u))
            tail = lambda x: mpmath.exp(-x / b) / 2
            first, second = tail(0) - tail(hh), tail(hh) - tail(2 * hh)
            ref = 2 * first ** uu / (1 - (second / first) ** uu)
        assert total == pytest.approx(float(ref), rel=1e-14)
        lower, upper = within.enclosure(h, u)
        assert total <= upper
        assert total <= math.exp(u * summary.log_analytic_bound)
        # where the spread 2 h f(0)^u is lost to rounding (b = 1000, u = 1/3,
        # n = 32000) the two float ends coincide, 2.2e-15 above S
        if upper > lower:
            assert lower < float(ref)


class TestMixtures:
    def test_single_model_reduces_to_weighted_norm(self):
        val = log_norm_complexity_mixture([0.0], [math.log(7.5)], 0.5)
        assert math.exp(val) == pytest.approx(7.5, rel=1e-12)

    def test_two_model_hand_computation(self):
        masses, norms, u = [0.75, 0.25], [2.0, 16.0], 0.5
        expected = (math.sqrt(0.75 * 2.0) + math.sqrt(0.25 * 16.0)) ** 2
        log_val = log_norm_complexity_mixture(np.log(masses), np.log(norms), u)
        assert math.exp(log_val) == pytest.approx(expected, rel=1e-12)

    def test_log_and_linear_forms_agree(self):
        # against the linear sum [sum_m (pi_m N_m)^u]^(1/u), u = 1/3
        masses, norms = [0.5, 0.3, 0.2], [3.0, 9.0, 27.0]
        linear = sum((p * c) ** (1.0 / 3.0) for p, c in zip(masses, norms)) ** 3
        log_val = log_norm_complexity_mixture(
            np.log(masses), np.log(norms), 1.0 / 3.0)
        assert math.exp(log_val) == pytest.approx(linear, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            log_norm_complexity_mixture([0.0, 0.0], [1.0], 0.5)
        with pytest.raises(ValueError):
            log_norm_complexity_mixture([], [], 0.5)
        with pytest.raises(ValueError):
            log_norm_complexity_mixture([0.0], [1.0], 1.5)


def test_unit_fraction_enforced():
    with pytest.raises(ValueError):
        norm_complexity_grid(UNIFORM, 1, 0.4, 10)
    with pytest.raises(ValueError):
        log_covering_number_uniform(-1, 10, 0.5)
