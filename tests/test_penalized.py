"""Boxed penalized-divergence bounds and their decomposition."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import ratelab.divergence as divergence
from ratelab import (
    BestApproximation,
    LaplacePrior,
    NormalPrior,
    PiecewiseConstantMean,
    PriorSpec,
    TrueModel,
    UniformPrior,
    best_approximation,
    default_delta_grid,
    default_m_grid,
    mean_to_log_odds,
    model_log_prior,
    penalized_divergence_upper,
    penalized_value_at,
)
from ratelab.penalized import _box_sups

LINEAR = TrueModel.linear(intercept=0.3, slope=0.4)


def box_sup(truth, m, delta, t=1.0):
    """The box supremum of one (m, delta), read off the array path."""
    return float(_box_sups(truth, best_approximation(truth, m),
                           np.array([float(delta)]), t)[0])


def box_log_mass(spec, m, delta, centers=None):
    """ln(pi_m * pi(box | m)) of the box of half-width delta around the
    centers (default 1/2 each), or under a log-odds prior around their
    log odds."""
    centers = np.full(m, 0.5) if centers is None else np.asarray(centers, dtype=float)
    approx = BestApproximation(centers, 0.0, mean_to_log_odds(centers))
    return float(model_log_prior(spec)[m - 1]
                 + spec.within.log_box_masses(np.array([float(delta)]), approx)[0])


class TestBoxSupremum:
    def test_chi_squared_closed_form(self):
        # (sup_error + delta)^2 / ((margin - delta)(1 - margin + delta))
        # with sup_error = 0.4/4 and the default margin 0.25
        val = box_sup(LINEAR, m=4, delta=0.05, t=1.0)
        assert val == pytest.approx(0.15 ** 2 / (0.2 * 0.8), abs=1e-15)
        assert val == pytest.approx(0.140625, abs=1e-15)

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            box_sup(LINEAR, m=4, delta=0.05, t=0.0)

    def test_general_order_attained_at_box_corner(self):
        # the per-bin integrand is convex in the level, so the numeric
        # scan must agree with the worse of the two box endpoints
        truth = TrueModel.sparse([0.4, 0.6])
        delta, t = 0.08, 2.0
        got = box_sup(truth, m=2, delta=delta, t=t)
        total = 0.0
        for level in (0.4, 0.6):
            corner = -math.inf
            for theta in (level - delta, level + delta):
                val = 0.5 * (level ** (1 + t) * theta ** -t
                             + (1 - level) ** (1 + t) * (1 - theta) ** -t - 1.0)
                corner = max(corner, val)
            total += corner
        assert got == pytest.approx(total / t, rel=1e-12)

    def test_general_order_with_a_truth_edge_inside_the_bin(self):
        # m = 1 puts the sparse truth's edge x = 0.5 inside the one box
        # bin, whose best level is 0.4; each half carries half the mass
        truth = TrueModel.sparse([0.4, 0.6])
        delta, t = 0.08, 2.0

        def g(a, theta):
            return a ** 3 * theta ** -2 + (1 - a) ** 3 * (1 - theta) ** -2 - 1.0

        expected = max(0.5 * (g(0.4, theta) + g(0.6, theta)) / t
                       for theta in (0.4 - delta, 0.4 + delta))
        got = box_sup(truth, m=1, delta=delta, t=t)
        assert got == pytest.approx(expected, rel=1e-13)

    def test_general_order_on_a_kinked_truth(self):
        # one bin over the triangle 0.28 -> 0.72 (x = 0.45) -> 0.28: each
        # linear piece of length L from a to b has integral of mu^3 equal
        # to L (a + b)(a^2 + b^2) / 4, and 1 - mu is the mirror image
        truth = TrueModel.triangle(amplitude=0.22, peak=0.45)
        delta, t = 0.05, 2.0
        cube = (0.28 + 0.72) * (0.28 ** 2 + 0.72 ** 2) / 4.0
        corners = [cube / theta ** 2 + cube / (1.0 - theta) ** 2 - 1.0
                   for theta in (0.28 - delta, 0.28 + delta)]
        got = box_sup(truth, m=1, delta=delta, t=t)
        assert got == pytest.approx(max(corners) / t, rel=1e-13)

    @pytest.mark.parametrize("t", [0.5, 2.0])
    @pytest.mark.parametrize("truth", [
        TrueModel.triangle(amplitude=0.22, peak=0.45),
        TrueModel.sparse([0.3, 0.7, 0.45]),
    ], ids=["triangle", "sparse"])
    def test_bin_moments_against_per_bin_integrals(self, truth, t):
        rng = np.random.default_rng(int(40 * t))
        term = lambda mu, q: divergence._binary_power_minus1(mu, q, t)
        kinks = truth.mean.breakpoints if truth.m0 is None else (1 / 3, 2 / 3)
        for _ in range(4):
            m = int(rng.integers(1, 31))
            # log-uniform over the default delta grids for n up to 32000
            delta = math.exp(rng.uniform(math.log(1 / 32000),
                                         math.log(truth.margin / 2)))
            got = box_sup(truth, m, delta, t)
            levels = best_approximation(truth, m).levels
            # the full integrand over each bin at both box ends; both sums
            # cancel terms of size 1 down to the result, so they agree to
            # about 1e-16 absolute when the result is tiny (a sparse truth
            # on bins that refine its own, with delta near 1/n)
            ends = [divergence._covariate_integral(
                        term, truth.mean, PiecewiseConstantMean(levels + s),
                        bins=m) for s in (-delta, delta)]
            assert got == pytest.approx(np.maximum(*ends).sum() / t,
                                        rel=1e-12, abs=1e-15)
            # every point of the box is below the supremum: quad over
            # each bin, at levels a hair inside both ends
            edges = np.linspace(0.0, 1.0, m + 1)
            inside = 0.0
            for j in range(m):
                cuts = [k for k in kinks if edges[j] < k < edges[j + 1]]
                inside += max(quad(
                    lambda x: float(term(truth.mean(np.array([x])),
                                         np.array([theta]))[0]),
                    edges[j], edges[j + 1], points=cuts or None,
                    epsabs=1e-15, epsrel=1e-13, limit=200)[0]
                    for theta in (levels[j] - delta * (1 - 1e-6),
                                  levels[j] + delta * (1 - 1e-6)))
            assert inside / t <= got <= inside / t * (1 + 1e-5)

    def test_monotone_in_delta(self):
        vals = [box_sup(LINEAR, 4, d) for d in (0.02, 0.08, 0.2)]
        assert vals[0] < vals[1] < vals[2]


class TestBoxPriorMass:
    def test_uniform_interior_box(self):
        spec = PriorSpec(n=64, k_model=2.0, m_max=6)
        delta, m = 0.1, 3
        got = box_log_mass(spec, m, delta)
        expected = float(model_log_prior(spec)[m - 1]) + m * math.log(2 * delta)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_uniform_prior_box_may_not_escape_support(self):
        spec = PriorSpec(n=64, m_max=4)
        with pytest.raises(ValueError):
            box_log_mass(spec, 2, 0.2, centers=[0.1, 0.5])

    def test_log_odds_box_around_even_odds(self):
        # the normal(1) mass of (-0.1, 0.1) is 2 ndtr(0.1) - 1 per bin
        spec = PriorSpec(n=64, m_max=4, within=NormalPrior(1.0))
        val = box_log_mass(spec, 2, 0.1, centers=[0.5, 0.5])
        expected = (float(model_log_prior(spec)[1])
                    + 2 * math.log(math.erf(0.1 / math.sqrt(2.0))))
        assert val == pytest.approx(expected, rel=1e-12)

    def test_delta_must_be_positive(self):
        with pytest.raises(ValueError):
            penalized_value_at(LINEAR, PriorSpec(n=64, m_max=4), 1.0, 2, 0.0)


class TestPenalizedValue:
    def test_decomposition_is_exact(self):
        spec = PriorSpec(n=500, k_model=3.0, m_max=20)
        res = penalized_value_at(LINEAR, spec, t=1.0, m=5, delta=0.03)
        assert res.value == pytest.approx(
            res.approx_term + res.box_term + res.model_term, abs=1e-15)
        assert res.box_term == pytest.approx(-5 * math.log(0.06) / 500, abs=1e-12)
        assert res.model_term == pytest.approx(
            -float(model_log_prior(spec)[4]) / 500, abs=1e-12)
        assert res.approx_term == pytest.approx(
            box_sup(LINEAR, 5, 0.03), abs=1e-15)

    def test_log_odds_delta_shrinks_on_mean_scale(self):
        spec = PriorSpec(n=500, m_max=20, within=NormalPrior(1.0))
        res = penalized_value_at(LINEAR, spec, t=1.0, m=5, delta=0.4)
        # the logistic map is 1/4-Lipschitz: log-odds half-width 0.4 maps
        # into a mean box of half-width at most 0.1
        assert res.approx_term == pytest.approx(
            box_sup(LINEAR, 5, 0.1), abs=1e-15)

    def test_model_index_bounds(self):
        spec = PriorSpec(n=100, m_max=4)
        with pytest.raises(ValueError):
            penalized_value_at(LINEAR, spec, 1.0, 5, 0.05)


class TestPenalizedUpper:
    def test_minimum_over_explicit_grid(self):
        spec = PriorSpec(n=200, m_max=10)
        m_grid, delta_grid = (1, 2, 4, 8), (0.01, 0.05, 0.1)
        best = penalized_divergence_upper(LINEAR, spec, 1.0,
                                          m_grid=m_grid, delta_grid=delta_grid)
        values = [penalized_value_at(LINEAR, spec, 1.0, m, d).value
                  for m in m_grid for d in delta_grid]
        assert best.value == pytest.approx(min(values), abs=1e-15)

    def test_tie_prefers_smaller_m(self):
        # a constant truth is fit exactly by every m, and larger m only
        # adds prior cost, so the minimizer must sit at m = 1
        truth = TrueModel.constant(0.5)
        spec = PriorSpec(n=300, m_max=12)
        best = penalized_divergence_upper(truth, spec, 1.0)
        assert best.m == 1

    def test_n_comes_from_the_prior_spec(self):
        # the dense triangle's n = 1000 row of bench/reference.json
        truth = TrueModel.triangle(amplitude=0.22, peak=0.45)
        res = penalized_divergence_upper(truth, PriorSpec(n=1000), 1.0)
        assert res.value == 0.26942798500795107

    def test_infeasible_grids_raise(self):
        spec = PriorSpec(n=200, m_max=10)
        with pytest.raises(ValueError):
            penalized_divergence_upper(LINEAR, spec, 1.0, delta_grid=(0.4, 0.9))

    @pytest.mark.parametrize("t", [3000.0, 1e-300])
    def test_suprema_float64_cannot_certify_read_inf(self, t):
        # at t = 3000 every bin moment underflows to 0; at t = 1e-300 the
        # rounding of the moment sums swamps t times the supremum
        truth = TrueModel.triangle(amplitude=0.22, peak=0.45)
        res = penalized_divergence_upper(truth, PriorSpec(n=500), t)
        assert res.value == math.inf
        assert res.approx_term == math.inf

    def test_default_grids_cover_m0(self):
        truth = TrueModel.sparse([0.3, 0.7, 0.45])
        spec = PriorSpec(n=8, m_max=6)
        assert truth.m0 in default_m_grid(truth, spec)
        deltas = default_delta_grid(truth, 8)
        assert all(0 < d < truth.margin for d in deltas)

    def test_oracle_inequality_against_per_model_values(self, rng):
        """The mixture bound equals the best per-model value plus its
        model-prior charge (the defining infimum is scanned jointly)."""
        for _ in range(20):
            n = int(rng.integers(50, 400))
            if rng.random() < 0.5:
                truth = TrueModel.sine(amplitude=float(rng.uniform(0.05, 0.2)))
            else:
                truth = TrueModel.sparse(rng.uniform(0.3, 0.7, size=3))
            spec = PriorSpec(n=n, k_model=float(rng.uniform(0.5, 3.0)),
                             m_max=int(rng.integers(4, 12)))
            mixture = penalized_divergence_upper(truth, spec, 1.0)
            m_grid = default_m_grid(truth, spec)
            delta_grid = default_delta_grid(truth, n)
            log_prior = model_log_prior(spec)
            per_model_best = math.inf
            for m in m_grid:
                for delta in delta_grid:
                    res = penalized_value_at(truth, spec, 1.0, m, delta)
                    charged = (res.approx_term + res.box_term
                               - float(log_prior[m - 1]) / n)
                    per_model_best = min(per_model_best, charged)
            assert mixture.value <= per_model_best + 1e-12


def _loop_minimum(truth, spec, t, m_grid, delta_grid):
    """The grid minimum one candidate at a time: (m, delta) in sorted
    order, infeasible half-widths skipped, strict improvements only."""
    best = None
    for m in sorted(set(m_grid)):
        for delta in sorted(set(delta_grid)):
            half = spec.within.mean_half_width(delta)
            if not 0.0 < half < truth.margin:
                continue
            cand = penalized_value_at(truth, spec, t, m, delta)
            if best is None or cand.value < best.value:
                best = cand
    return best


def _fields(res):
    return (res.value, res.m, res.delta, res.approx_term, res.box_term,
            res.model_term)


TRIANGLE = TrueModel.triangle(amplitude=0.22, peak=0.45)


class TestGridEqualsLoop:
    """The array grid returns the bits of the per-candidate minimum."""

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("truth,within,k_model", [
        (TRIANGLE, UniformPrior(), 3.0),
        (TrueModel.sparse([0.3, 0.7, 0.45]), UniformPrior(), 1.0),
        (TRIANGLE, NormalPrior(1.5), 3.0),
        (TRIANGLE, LaplacePrior(1.5), 3.0),
    ], ids=["dense", "sparse", "logodds-normal", "logodds-laplace"])
    @pytest.mark.parametrize("n", [500, 4000])
    def test_default_grids(self, truth, within, k_model, t, n):
        spec = PriorSpec(n=n, k_model=k_model, within=within)
        m_grid = default_m_grid(truth, spec)
        delta_grid = default_delta_grid(truth, n)
        got = penalized_divergence_upper(truth, spec, t)
        want = _loop_minimum(truth, spec, t, m_grid, delta_grid)
        assert _fields(got) == _fields(want)

    def test_exact_tie_takes_the_smallest_m_then_delta(self):
        # n = 1 gives every model the same prior mass, boxes 100 scales
        # wide around log odds 0 hold prior mass 1, and the approximation
        # term of the constant truth is below half an ulp of the total:
        # every candidate has the same value
        truth = TrueModel.constant(0.5)
        spec = PriorSpec(n=1, m_max=6, within=NormalPrior(1e-10))
        m_grid, delta_grid = (4, 2, 6, 1, 3), (1.2e-8, 1e-8, 1.1e-8)
        values = {penalized_value_at(truth, spec, 1.0, m, d).value
                  for m in m_grid for d in delta_grid}
        assert len(values) == 1
        got = penalized_divergence_upper(truth, spec, 1.0, m_grid, delta_grid)
        assert (got.m, got.delta) == (1, 1e-8)
        assert _fields(got) == _fields(
            _loop_minimum(truth, spec, 1.0, m_grid, delta_grid))

    @pytest.mark.parametrize("within", [UniformPrior(), NormalPrior(1.0)],
                             ids=["uniform", "normal"])
    def test_infeasible_deltas_are_skipped(self, within):
        # 0, a negative width and half-widths of the margin or more
        spec = PriorSpec(n=300, m_max=10, within=within)
        m_grid = (1, 3, 5)
        delta_grid = (0.0, -0.01, 0.02, 0.07, 0.25, 0.6, 1.0, 2.0)
        got = penalized_divergence_upper(LINEAR, spec, 2.0, m_grid, delta_grid)
        want = _loop_minimum(LINEAR, spec, 2.0, m_grid, delta_grid)
        assert _fields(got) == _fields(want)
        with pytest.raises(ValueError, match="delta must lie in"):
            penalized_value_at(LINEAR, spec, 2.0, 3, 1.0 / within.mean_half_width(1.0))

    def test_out_of_range_log_odds_delta_is_named_as_passed(self):
        # a log-odds delta maps to the mean half-width delta / 4, and the
        # message names the delta the caller passed
        spec = PriorSpec(n=300, m_max=10, within=NormalPrior(1.0))
        with pytest.raises(ValueError) as err:
            penalized_value_at(LINEAR, spec, 2.0, 3, 4.0)
        assert str(err.value).startswith("delta must lie in (0, 1) ")
        assert str(err.value).endswith("got 4.0")

    def test_underflow_names_the_first_failing_candidate(self, monkeypatch):
        # m = 1 puts its box around log odds 0; from m = 2 on, the level
        # 0.3 sits 42 prior scales out, where small boxes lose their mass
        # once the normal log tail is cut where the float tail turns
        # subnormal, as it once was
        log_tail = NormalPrior.log_tail
        monkeypatch.setattr(NormalPrior, "log_tail", lambda self, w: np.where(
            np.asarray(w) / self.scale > 37.5, -np.inf, log_tail(self, w)))
        truth = TrueModel.sparse([0.5, 0.3])
        spec = PriorSpec(n=400, m_max=6, within=NormalPrior(0.02))
        message = ("prior mass of bin 2's log-odds box [-0.867298, -0.827298] "
                   "underflows float64 at m=2, delta=0.02 "
                   "(normal prior, scale=0.02)")
        with pytest.raises(FloatingPointError) as grid:
            penalized_divergence_upper(truth, spec, 1.0, (3, 1, 2), (0.3, 0.05, 0.02))
        assert str(grid.value) == message
        with pytest.raises(FloatingPointError) as single:
            penalized_value_at(truth, spec, 1.0, 2, 0.02)
        assert str(single.value) == message
        assert penalized_value_at(truth, spec, 1.0, 1, 0.02).m == 1

    def test_escaping_box_keeps_its_message(self):
        spec = PriorSpec(n=64, m_max=4)
        with pytest.raises(ValueError, match=r"^box escapes the within-model "
                           r"prior support \[0, 1\]$"):
            box_log_mass(spec, 2, 0.2, centers=[0.5, 0.9])
