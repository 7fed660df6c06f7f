"""Covering numbers and prior-weighted norm complexities."""

import math

import mpmath
import numpy as np
import pytest

from ratelab import WithinModelPrior, cli, log_covering_number_uniform, log_norm_complexity_mixture
from ratelab.models import _grid_spacing

UNIFORM = WithinModelPrior.uniform_box()
NORMAL = WithinModelPrior.log_odds("normal", 1.0)
LAPLACE = WithinModelPrior.log_odds("laplace", 1.0)


def _log_norm(within, m: int, u: float, n: int) -> float:
    """ln of model m's grid complexity S^(m/u)."""
    return m * within.log_cell_sum(n, u) / u


def _log_analytic(within, m: int, u: float, n: int) -> float:
    """ln of model m's analytic complexity bound."""
    return m * within.log_analytic_sum(n, u) / u


def _cell_sum(within, n: int, u: float) -> float:
    """The per-coordinate sum S, from the prior's log of it."""
    return math.exp(within.log_cell_sum(n, u))


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
        assert math.exp(log_covering_number_uniform(4, 0.5)) == (
            pytest.approx(16, rel=1e-14))

    def test_power_in_dimension(self):
        # model m's cover log is m times the one-coordinate log
        assert math.exp(3 * log_covering_number_uniform(4, 0.5)) == (
            pytest.approx(16 ** 3, rel=1e-14))

    def test_integer_power_path_is_exact(self):
        # n^(1/u) with u = 1/3 and n = 10 must be exactly 1000, not a
        # float ceiling artifact
        assert log_covering_number_uniform(10, 1.0 / 3.0) == math.log(1000)

    def test_fractional_exponent_uses_ceiling(self):
        assert log_covering_number_uniform(5, 0.4) == math.log(
            math.ceil(5 ** 2.5 - 1e-9))

    def test_log_form_matches(self):
        # against the log of the integer count ceil(n^(1/u))^m
        for m, n, u, side in [(1, 4, 0.5, 16), (3, 9, 0.5, 81),
                              (2, 8, 1.0 / 3.0, 512)]:
            assert m * log_covering_number_uniform(n, u) == pytest.approx(
                math.log(side ** m), rel=1e-14)

    def test_unit_n_is_one_ball(self):
        # radius 1 at n = 1 covers [0, 1] with a single ball at every u
        for u in (0.5, 1.0 / 3.0, 0.4):
            assert log_covering_number_uniform(1, u) == 0.0


class TestUniformGridSums:
    def test_closed_form_when_grid_divides_evenly(self):
        # h = 4 n^(-2); 1/h = n^2/4 is an integer for even n, and then
        # the norm is exactly h^(m(u-1)/u)
        for n in (4, 10, 20):
            h = 4.0 * n ** -2.0
            for m in (1, 2, 3):
                assert _grid_spacing(n, 0.5) == pytest.approx(h, rel=1e-15)
                assert math.exp(_log_norm(UNIFORM, m, 0.5, n)) == pytest.approx(
                    h ** (m * (0.5 - 1.0) / 0.5), rel=1e-9)

    def test_partial_cell_contributes_its_own_mass(self):
        # n = 3 gives h = 4/9: two full cells plus a width-1/9 remainder,
        # so the sum is 2*(4/9)^(1/2) + (1/9)^(1/2) = 5/3
        assert _cell_sum(UNIFORM, 3, 0.5) == pytest.approx(5.0 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_sum_matches_the_integer_form(self, k):
        # 1/h = n^k / 4 for u = 1/k: n^k // 4 whole cells of width h and a
        # last one of width (n^k mod 4) / n^k, summed at 40 digits; n = 18,
        # 108 and 15874 and the README grid once counted a rounding residue
        # or one cell too many; S to 1e-15 relative is ln S to 1e-15, to
        # which the log of the float S adds its own half-ulp rounding
        for n in (2, 3, 18, 108, 15874, 500, 1000, 2000, 4000, 8000, 16000, 32000):
            side = n ** k
            cells, rem = divmod(side, 4)
            with mpmath.workdps(40):
                u = mpmath.mpf(1) / k
                log_ref = mpmath.log(cells * (mpmath.mpf(4) / side) ** u
                                     + (mpmath.mpf(rem) / side) ** u)
            got = UNIFORM.log_cell_sum(n, 1.0 / k)
            assert float(abs(got - log_ref)) <= 1e-15 + math.ulp(got) / 2, n

    @pytest.mark.parametrize("n,k", [(2000, 100), (500, 100), (2000, 10_000),
                                     (2000, 10 ** 8)])
    def test_underflowing_cell_width_takes_the_log_form(self, n, k):
        # h = 4 n^(-k) is below the normal floats but at (500, 100): ln S
        # comes from k ln n there, without building n^k (at k = 10^8 it would
        # outgrow memory), against the exact integer sum at 60 digits where
        # n^k is small enough to build
        got = UNIFORM.log_cell_sum(n, 1.0 / k)
        with mpmath.workdps(60):
            u = mpmath.mpf(1) / k
            if k <= 10_000:
                cells, rem = divmod(n ** k, 4)
                side = mpmath.mpf(n) ** k
                log_ref = mpmath.log(cells * (4 / side) ** u + (rem / side) ** u)
            else:  # (n^k / 4)^(1 - u), 4 n^(-k) relative from S
                log_ref = (1 - u) * (k * mpmath.log(n) - mpmath.log(4))
        assert got == pytest.approx(float(log_ref), rel=1e-15)
        assert math.isfinite(_log_norm(UNIFORM, 3, 1.0 / k, n))

    def test_coarse_grid_saturates_at_one(self):
        # h >= 1 means a single cell holding all the mass
        assert _cell_sum(UNIFORM, 1, 0.5) == pytest.approx(1.0, abs=1e-15)
        assert math.exp(_log_norm(UNIFORM, 2, 0.5, 1)) == pytest.approx(1.0, abs=1e-12)


class TestLogOddsGridSums:
    @pytest.mark.parametrize("within", [NORMAL, LAPLACE])
    def test_grid_sum_below_analytic_bound(self, within):
        for n in (2, 3, 4):
            for m in (1, 2, 3):
                assert (_log_norm(within, m, 0.5, n)
                        <= _log_analytic(within, m, 0.5, n) + 1e-12)

    def test_refining_the_grid_never_shrinks_the_sum(self):
        # splitting cells can only grow sum(mass^u) by concavity
        coarse = _cell_sum(NORMAL, 2, 0.5)
        fine = _cell_sum(NORMAL, 4, 0.5)
        assert fine >= coarse - 1e-12

    def test_analytic_helper_matches_grid_summary_field(self):
        # the analytic bound is the grid sum itself under the uniform prior,
        # and the enclosure's upper end under a log-odds prior
        for within in (UNIFORM, NORMAL, LAPLACE):
            for m, n in [(1, 3), (2, 4), (3, 2)]:
                log_sum = (within.log_cell_sum(n, 0.5) if within is UNIFORM
                           else within._log_enclosure(n, 0.5)[1])
                assert _log_analytic(within, m, 0.5, n) == (
                    pytest.approx(m * log_sum / 0.5, rel=1e-14))

    def test_laplace_cell_sum_against_direct_formula(self):
        # Laplace tail is exp(-w)/2, so cell masses are available in
        # closed form and the grid sum can be recomputed directly
        n = 3
        h = 4.0 * n ** -2.0
        js = np.arange(0, 200_000)
        masses = 0.5 * (np.exp(-js * h) - np.exp(-(js + 1) * h))
        direct = 2.0 * float(np.sum(np.sqrt(masses)))
        assert _cell_sum(LAPLACE, n, 0.5) == pytest.approx(direct, rel=1e-9)


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
        log_analytic = _log_analytic(within, 1, u, n)
        h = _grid_spacing(n, u)
        spread = 2.0 * h * math.exp(within.log_pdf(0.0)) ** u
        integral = math.exp(within.log_u_norm_integral(u))
        total = _cell_sum(within, n, u)
        # strictly above the lower end, which is what the normal cap reports
        assert (integral - spread) * h ** (u - 1.0) < total
        assert total <= (integral + spread) * h ** (u - 1.0)
        assert total <= math.exp(u * log_analytic)
        if n <= 4:
            assert total == pytest.approx(_mp_cell_sum(within, h, u), rel=1e-13)

    @pytest.mark.parametrize("density", ["normal", "laplace"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_lower_end_is_minus_inf_where_the_spread_passes_the_integral(self, density, n):
        # at h = 4 / n^2 >= 0.44 a scale of 0.01 puts 2 h f(0)^(1/2) above I,
        # so the lower end h^(u-1) (I - 2 h f(0)^u) is not positive
        within = WithinModelPrior.log_odds(density, 0.01)
        assert 2.0 * _grid_spacing(n, 0.5) * math.exp(0.5 * within.log_pdf(0.0)) > math.exp(
            within.log_u_norm_integral(0.5))
        lower, upper = within._log_enclosure(n, 0.5)
        assert lower == -math.inf and math.isfinite(upper)
        assert within.log_cell_sum(n, 0.5) <= upper

    # the m = 1 rows of `complexity` on n_grid = 2, 3, 500 at u = 1/2, from
    # the float enclosure the log one replaced: the grid sums keep their bits,
    # the analytic columns move by rounding
    ROWS = {("normal", 0.02): ["0.6931471805599454,4.4490492802487154,7.2345151646382568",
                               "0.6931471805599454,3.7219269896106488,5.2962244234070504",
                               "8.7429845707276304,8.7438870437375922,8.7581047141332018"],
            ("normal", 1.5): ["2.0355490669786946,2.6560959974468581,4.2336461049879377",
                              "2.8321178421675843,3.1376404148360875,4.4100326309419611",
                              "13.060472657602014,13.060484693605508,13.187043289223432"],
            ("laplace", 0.02): ["0.69314718058772129,4.6836116122946541,7.6511232030400631",
                                "0.69317707123699723,3.9665953622538677,5.6798903299225234",
                                "9.2103403853095163,9.2111402120188366,9.2291164480978978"],
            ("laplace", 1.5): ["2.4941063601040105,3.0602707946915619,4.878730325871782",
                               "3.2976635174525226,3.5721375429659634,5.0649821878792691",
                               "13.527828485514863,13.527839152150715,13.68908840482457"]}

    @pytest.mark.parametrize("density,scale", list(ROWS))
    def test_complexity_rows_are_pinned(self, density, scale, tmp_path, capsys):
        path = tmp_path / "rows.cfg"
        path.write_text("[truth]\nkind = triangle\namplitude = 0.22\npeak = 0.45\n\n"
                        f"[prior]\nwithin = {density}\nscale = {scale}\n\n"
                        "[run]\nn_grid = 2, 3, 500\n", encoding="utf-8")
        assert cli.main(["complexity", "--config", str(path)]) == 0
        rows = [line.split(",")[3:] for line in capsys.readouterr().out.splitlines()[1:]
                if line.startswith("1,")]
        for got, want in zip(rows, self.ROWS[density, scale], strict=True):
            want = want.split(",")
            assert got[0] == want[0]
            assert [float(v) for v in got[1:]] == pytest.approx(
                [float(v) for v in want[1:]], rel=1e-15)



class TestLaplaceClosedForm:
    @pytest.mark.parametrize("n", [2, 3, 4, 500, 4000, 32000])
    @pytest.mark.parametrize("u", [0.5, 1.0 / 3.0], ids=["u2", "u3"])
    @pytest.mark.parametrize("scale", [0.001, 0.7, 1.5, 1000.0])
    def test_sum_against_mpmath(self, scale, u, n):
        # the cells j >= 0 hold masses T(jh) - T((j+1)h), T(x) = e^(-x/b) / 2,
        # whose u-th powers fall by one ratio r per cell: at 60 digits, from
        # the tails, S = 2 (T(0) - T(h))^u / (1 - r)
        within = WithinModelPrior.log_odds("laplace", scale)
        log_analytic = _log_analytic(within, 1, u, n)
        h, total = _grid_spacing(n, u), _cell_sum(within, n, u)
        with mpmath.workdps(60):
            b, hh, uu = (mpmath.mpf(v) for v in (scale, h, u))
            tail = lambda x: mpmath.exp(-x / b) / 2
            first, second = tail(0) - tail(hh), tail(hh) - tail(2 * hh)
            ref = 2 * first ** uu / (1 - (second / first) ** uu)
        assert total == pytest.approx(float(ref), rel=1e-14)
        lower, upper = (math.exp(end) for end in within._log_enclosure(n, u))
        assert total <= upper
        assert total <= math.exp(u * log_analytic)
        # where the spread 2 h f(0)^u is lost to rounding (b = 1000, u = 1/3,
        # n = 32000) the two float ends coincide, 2.2e-15 above S
        if upper > lower:
            assert lower < float(ref)


class TestSmallULogForms:
    # where h = 4 n^(-1/u) or h^(u - 1) leaves the normal floats (all but
    # (500, 100) and (2000, 3)), the sums come from ln h = ln 4 - ln(n) / u;
    # against 60 digits: the enclosure's ends (I -+ 2 h f(0)^u) h^(u - 1),
    # and the Laplace geometric series; the float I is inf under normal 1e154
    # at every u and under laplace 1e300 at u = 1e-8, where the ends take ln I
    # in closed form
    CASES = [(2000, 3), (500, 100), (2000, 100), (2000, 10_000), (2000, 10 ** 8)]

    @staticmethod
    def _mp_log_ends(within, n, k):
        s, u, h = mpmath.mpf(within.scale), mpmath.mpf(1) / k, 4 * mpmath.mpf(n) ** -k
        if within.name == "normal":
            integral = (2 * mpmath.pi * s * s) ** ((1 - u) / 2) / mpmath.sqrt(u)
        else:
            integral = (2 * s) ** (1 - u) / u
        spread = 2 * h * math.exp(within.log_pdf(0.0)) ** u
        return [mpmath.log(integral + sign * spread) + (u - 1) * mpmath.log(h)
                for sign in (-1, 1)]

    @pytest.mark.parametrize("n,k", CASES)
    @pytest.mark.parametrize("density,scale", [("normal", 0.02), ("normal", 1.5),
                                               ("normal", 1e154), ("laplace", 0.02),
                                               ("laplace", 1.5), ("laplace", 1000.0),
                                               ("laplace", 1e300)])
    def test_log_sums_against_mpmath(self, density, scale, n, k):
        within = WithinModelPrior.log_odds(density, scale)
        with mpmath.workdps(60):
            lower, upper = self._mp_log_ends(within, n, k)
            if density == "laplace":
                b, u, h = mpmath.mpf(scale), mpmath.mpf(1) / k, 4 * mpmath.mpf(n) ** -k
                cell = mpmath.log(2 * (-mpmath.expm1(-h / b) / 2) ** u
                                  / -mpmath.expm1(-u * h / b))
            else:  # past the cell cap, the lower end
                cell = lower
        assert within.log_analytic_sum(n, 1.0 / k) == pytest.approx(float(upper), rel=1e-15)
        if (density, k) != ("normal", 3):  # that one is an exact grid sum
            assert within.log_cell_sum(n, 1.0 / k) == pytest.approx(float(cell), rel=1e-15)
        log_norm = _log_norm(within, 3, 1.0 / k, n)
        assert math.isfinite(log_norm)
        # S <= its upper end, which it meets to rounding where h underflows
        assert log_norm <= _log_analytic(within, 3, 1.0 / k, n) * (1.0 + 1e-15)


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
    # k = round(1 / 0.4) = 2 would give ln S = 1.4708 at n = 10, not ln S = 2.62
    for log_sum in (UNIFORM.log_cell_sum, UNIFORM.log_analytic_sum):
        with pytest.raises(ValueError, match="reciprocal of a positive integer"):
            log_sum(10, 0.4)
    with pytest.raises(ValueError):
        log_covering_number_uniform(0, 0.5)
