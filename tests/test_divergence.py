"""Divergence family: frozen closed-form oracles and structural laws.

The reference values below are computed by hand from the defining
integrals (chi-squared, squared Hellinger, Kullback-Leibler) so the
implementation is checked against independent arithmetic, not against
itself.
"""

import itertools
import math

import numpy as np
import pytest

from ratelab import (
    DiscreteDensity,
    PiecewiseConstantMean,
    SmoothMean,
    TrueModel,
    d_t_squared,
    d_t_squared_product,
    kl_divergence,
    l1_distance,
)
import ratelab.divergence as divergence
from conftest import random_density_pair

BERN_03 = DiscreteDensity([1.0 - 0.3, 0.3])
BERN_05 = DiscreteDensity([1.0 - 0.5, 0.5])

# chi-squared(Bern(.3), Bern(.5)) = (0.09 + 0.49)/0.5 - 1
CHI2_ORACLE = 0.16
# squared Hellinger = 2 - 2*(sqrt(.3*.5) + sqrt(.7*.5))
HELLINGER_ORACLE = 0.042187374138593414
# KL = .3 ln(.3/.5) + .7 ln(.7/.5)
KL_ORACLE = 0.08228287850505178


class TestFrozenOracles:
    def test_chi_squared(self):
        assert d_t_squared(BERN_03, BERN_05, 1.0) == pytest.approx(
            CHI2_ORACLE, abs=1e-14)

    def test_squared_hellinger(self):
        assert d_t_squared(BERN_03, BERN_05, -0.5) == pytest.approx(
            HELLINGER_ORACLE, abs=1e-14)

    def test_kl_tag_and_limit(self):
        assert kl_divergence(BERN_03, BERN_05) == pytest.approx(KL_ORACLE, abs=1e-14)
        assert d_t_squared(BERN_03, BERN_05, 0.0) == pytest.approx(KL_ORACLE, abs=1e-14)
        # |t| below the small-t threshold goes through the expansion path
        assert d_t_squared(BERN_03, BERN_05, 1e-12) == pytest.approx(
            KL_ORACLE, abs=1e-10)

    def test_l1(self):
        assert l1_distance(BERN_03, BERN_05) == pytest.approx(0.4, abs=1e-15)

    def test_identical_densities_vanish(self):
        for t in (-0.5, 1e-9, 0.3, 1.0, 2.0, 0.0):
            assert d_t_squared(BERN_03, BERN_03, t) == pytest.approx(0.0, abs=1e-12)

    def test_large_order(self):
        # at t = 1000, 0.3^1001 underflows to 0 against 0.3^-1000 = inf;
        # mpmath at 50 digits on the float64 masses gives 1241.78659478787783
        p = DiscreteDensity([0.3, 0.7])
        q = DiscreteDensity([0.31, 0.69])
        assert d_t_squared(p, q, 1000.0) == pytest.approx(1241.7865947878778, rel=1e-13)
        assert d_t_squared(p, p, 1000.0) == pytest.approx(0.0, abs=1e-15)


class TestSupportMismatch:
    """+infinity is a first-class value for t > 0; negative orders stay finite."""

    def test_positive_order_is_infinite(self):
        q = DiscreteDensity([1.0, 0.0])
        assert d_t_squared(BERN_05, q, 1.0) == math.inf
        assert kl_divergence(BERN_05, q) == math.inf

    def test_negative_order_is_finite(self):
        # d_{-1/2}^2 = (sum sqrt(p*q) - 1)/(-1/2) = 2 - sqrt(2)
        q = DiscreteDensity([1.0, 0.0])
        assert d_t_squared(BERN_05, q, -0.5) == pytest.approx(
            0.5857864376269049, abs=1e-14)

    def test_zero_against_zero_costs_nothing(self):
        p = DiscreteDensity(np.array([1.0, 0.0]))
        q = DiscreteDensity(np.array([1.0, 0.0]))
        assert d_t_squared(p, q, 1.0) == pytest.approx(0.0, abs=1e-15)


class TestValidation:
    def test_masses_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DiscreteDensity(np.array([0.5, 0.4]))

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            DiscreteDensity(np.array([1.2, -0.2]))

    def test_outcome_sets_must_match(self):
        # masses on outcome sets of different sizes, at every divergence and
        # through the KL limit
        q = DiscreteDensity(np.full(3, 1.0 / 3.0))
        for fn in (lambda p, q: d_t_squared(p, q, 1.0), lambda p, q: d_t_squared(p, q, 0.0),
                   kl_divergence, l1_distance,
                   lambda p, q: d_t_squared_product(p, q, 0.5, 3)):
            with pytest.raises(ValueError, match="same size"):
                fn(BERN_05, q)

    def test_mixed_representations_rejected(self):
        # regression divergences take a piecewise-constant q only
        mean = PiecewiseConstantMean([0.5])
        for p, q in ((BERN_03, mean), (mean, BERN_03), (mean, [0.5]),
                     (np.array([0.3, 0.7]), BERN_05), (TRIANGLE.mean, TRIANGLE),
                     (TRIANGLE.mean, TRIANGLE.mean), (mean, TRIANGLE.mean)):
            for fn in (lambda p, q: d_t_squared(p, q, 1.0), lambda p, q: d_t_squared(p, q, 0.0),
                       kl_divergence, l1_distance):
                with pytest.raises(ValueError, match="need two"):
                    fn(p, q)
        # L1 takes discrete densities only
        for p in (mean, TRIANGLE.mean):
            with pytest.raises(ValueError, match="need two DiscreteDensity"):
                l1_distance(p, mean)

    @pytest.mark.parametrize("t", [-1.0, math.inf])
    def test_order_must_exceed_minus_one(self, t):
        with pytest.raises(ValueError):
            d_t_squared(BERN_03, BERN_05, t)


class TestMonotonicityInOrder:
    def test_nondecreasing_on_grid(self, rng):
        grid = np.linspace(-0.9, 2.0, 25)
        for _ in range(200):
            p, q = random_density_pair(rng)
            vals = [d_t_squared(p, q, t) for t in grid]
            diffs = np.diff(vals)
            assert np.all(diffs >= -1e-10)

    def test_kl_bracketed_by_small_orders(self, rng):
        for _ in range(200):
            p, q = random_density_pair(rng)
            lo = d_t_squared(p, q, -1e-4)
            hi = d_t_squared(p, q, 1e-4)
            mid = kl_divergence(p, q)
            assert lo <= mid + 1e-12
            assert mid <= hi + 1e-12


class TestL1Continuity:
    """u|d_{-u}^2(p0,p1) - d_{-u}^2(p0,p2)| <= 2 * (L1 distance)^u."""

    @pytest.mark.parametrize("u", [0.5, 1.0 / 3.0, 0.25])
    def test_random_triples(self, u, rng):
        for _ in range(300):
            p0, p1 = random_density_pair(rng, size=4)
            p2 = DiscreteDensity(np.asarray(
                (p1.mass + random_density_pair(rng, size=4)[0].mass) / 2.0))
            gap = abs(d_t_squared(p0, p1, -u) - d_t_squared(p0, p2, -u))
            assert u * gap <= 2.0 * l1_distance(p1, p2) ** u + 1e-12


class TestTensorization:
    def test_two_fold_chi_squared_value(self):
        # ((1 + 0.16)^2 - 1)/1 for the frozen Bernoulli pair
        assert d_t_squared_product(BERN_03, BERN_05, 1.0, 2) == pytest.approx(
            0.3456, abs=1e-14)

    def test_matches_explicit_product_space(self, rng):
        for _ in range(25):
            size = int(rng.integers(2, 4))
            p, q = random_density_pair(rng, size=size)
            n = int(rng.integers(1, 5))
            for t in (-0.5, 0.7, 1.0, 2.0):
                prod_p, prod_q = [], []
                for ys in itertools.product(range(size), repeat=n):
                    prod_p.append(float(np.prod(p.mass[list(ys)])))
                    prod_q.append(float(np.prod(q.mass[list(ys)])))
                big_p = DiscreteDensity(np.array(prod_p))
                big_q = DiscreteDensity(np.array(prod_q))
                direct = d_t_squared(big_p, big_q, t)
                closed = d_t_squared_product(p, q, t, n)
                assert closed == pytest.approx(direct, rel=1e-10, abs=1e-12)

    def test_kl_is_additive(self, rng):
        p, q = random_density_pair(rng)
        base = kl_divergence(p, q)
        assert d_t_squared_product(p, q, 0.0, 7) == pytest.approx(7 * base, rel=1e-14)

    def test_infinite_kl_is_additive(self):
        # t = 0 is the KL member: a support mismatch gives n * inf, no error
        q = DiscreteDensity([1.0, 0.0])
        assert d_t_squared_product(BERN_05, q, 0.0, 3) == math.inf

    def test_support_mismatch_is_infinite_for_positive_orders(self):
        # p puts mass where q has none, so every order t > 0 is +inf,
        # below the small-t cut-off included
        q = DiscreteDensity([1.0, 0.0])
        for t in (1e-9, 0.5, 2.0):
            assert d_t_squared_product(BERN_05, q, t, 3) == math.inf
        prod_p = [float(np.prod(BERN_05.mass[list(ys)]))
                  for ys in itertools.product(range(2), repeat=2)]
        prod_q = [float(np.prod(q.mass[list(ys)]))
                  for ys in itertools.product(range(2), repeat=2)]
        direct = d_t_squared(DiscreteDensity(np.array(prod_p)),
                             DiscreteDensity(np.array(prod_q)), 0.5)
        assert direct == d_t_squared_product(BERN_05, q, 0.5, 2) == math.inf

    def test_bad_product_size(self):
        with pytest.raises(ValueError):
            d_t_squared_product(BERN_03, BERN_05, 1.0, 0)


class TestRegressionDensities:
    def test_piecewise_pair_matches_binary_closed_form(self):
        # constant means: the x-integral collapses to a single binary term
        p = PiecewiseConstantMean([0.3])
        q = PiecewiseConstantMean([0.5])
        assert d_t_squared(p, q, 1.0) == pytest.approx(CHI2_ORACLE, abs=1e-14)
        assert d_t_squared(p, q, -0.5) == pytest.approx(HELLINGER_ORACLE, abs=1e-14)
        assert kl_divergence(p, q) == pytest.approx(KL_ORACLE, abs=1e-14)

    def test_piecewise_different_bin_counts(self):
        p = PiecewiseConstantMean([0.3, 0.5])
        q = PiecewiseConstantMean([0.4])
        # each half contributes 0.5 * chi2(Bern(level), Bern(0.4))
        expected = 0.5 * (0.01 / 0.4 + 0.01 / 0.6) + 0.5 * (0.01 / 0.4 + 0.01 / 0.6)
        assert d_t_squared(p, q, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_smooth_mean_declared_bound_enforced(self):
        with pytest.raises(ValueError):
            SmoothMean(lambda x: 0.5 + 0.2 * np.sin(2 * np.pi * x),
                       d_bound=0.1, margin=0.2)

    def test_smooth_mean_margin_enforced(self):
        with pytest.raises(ValueError):
            SmoothMean(lambda x: 0.5 + 0.4 * np.sin(2 * np.pi * x),
                       d_bound=3.0, margin=0.25)

    def test_piecewise_levels_validated(self):
        with pytest.raises(ValueError):
            PiecewiseConstantMean(np.array([0.5, 1.2]))


# d_{-1/2}^2 between TrueModel.triangle(amplitude=0.22, peak=0.45) and the
# piecewise means with levels 0.3 + 0.4 * ((5j + 2) mod m) / m, from
# mpmath.quad at 30 digits split at every bin edge and at the kink 0.45
TRIANGLE_HELLINGER_ORACLE = {
    3: 0.0307941118140840774519964,
    7: 0.03107018307794482069564992,
    20: 0.03008327763915610849291714,
}
TRIANGLE = TrueModel.triangle(amplitude=0.22, peak=0.45)


def _triangle_draw(m):
    levels = [0.3 + 0.4 * ((5 * j + 2) % m) / m for j in range(m)]
    return PiecewiseConstantMean(levels)


class TestDeclaredBreakpoints:
    @pytest.mark.parametrize("m", sorted(TRIANGLE_HELLINGER_ORACLE))
    def test_triangle_against_mpmath(self, m):
        got = d_t_squared(TRIANGLE.mean, _triangle_draw(m), -0.5)
        assert abs(got - TRIANGLE_HELLINGER_ORACLE[m]) <= 1e-14

    @pytest.mark.parametrize("m", (3, 7, 20))
    def test_kink_panel_needs_no_bisection(self, m, monkeypatch):
        passes = []
        composite = divergence._composite_gl

        def counted(fn, edges):
            passes.append(edges.size - 1)
            return composite(fn, edges)

        monkeypatch.setattr(divergence, "_composite_gl", counted)
        d_t_squared(TRIANGLE.mean, _triangle_draw(m), -0.5)
        assert len(passes) <= 2

    def test_triangle_declares_its_peak(self):
        assert TRIANGLE.mean.breakpoints == (0.45,)
        edges = divergence._union_edges(TRIANGLE.mean, _triangle_draw(3))
        assert 0.45 in edges

    @pytest.mark.parametrize("points", [(1.2,), (0.0,), (0.6, 0.3), (0.4, 0.4)])
    def test_breakpoints_validated(self, points):
        with pytest.raises(ValueError):
            SmoothMean(lambda x: 0.5 + 0.1 * x, d_bound=0.1, margin=0.25,
                       breakpoints=points)


def _hellinger_closed_form(mu, levels):
    # d_{-1/2}^2 of a constant truth mu against piecewise levels l_j:
    # (1/t)(sum_j (1/m)[mu^(1+t) l_j^(-t) + (1-mu)^(1+t)(1-l_j)^(-t)] - 1)
    t = -0.5
    m = len(levels)
    total = sum((mu ** (1 + t) * lv ** (-t)
                 + (1 - mu) ** (1 + t) * (1 - lv) ** (-t)) / m
                for lv in levels)
    return (total - 1.0) / t


def _generic_d2(truth, draw, t):
    # the covariate integral of the full integrand, no bin moments
    term = lambda a, b: divergence._binary_power_minus1(a, b, t)
    return divergence._covariate_integral(term, truth.mean, draw)[0] / t


class TestBinMoments:
    LEVELS = [0.35, 0.62, 0.48, 0.7, 0.41]

    @pytest.mark.parametrize("t", [-0.5, -1.0 / 3.0, 0.5, 2.0])
    @pytest.mark.parametrize("m", [1, 3, 7, 20, 179])
    @pytest.mark.parametrize("truth", [
        TRIANGLE, TrueModel.sine(), TrueModel.sparse([0.3, 0.7, 0.45])],
        ids=["triangle", "sine", "sparse"])
    def test_random_draws_match_the_generic_integral(self, truth, m, t):
        rng = np.random.default_rng(1000 * m + 7)
        for _ in range(3):
            draw = PiecewiseConstantMean(rng.uniform(0.05, 0.95, m))
            want = _generic_d2(truth, draw, t)
            assert d_t_squared(truth.mean, draw, t) == pytest.approx(
                want, rel=1e-13, abs=0)

    @pytest.mark.parametrize("t", [-0.5, -1.0 / 3.0, 0.5, 2.0])
    def test_levels_of_zero_and_one(self, t):
        draw = PiecewiseConstantMean([0.0, 0.4, 1.0, 0.7])
        got = d_t_squared(TRIANGLE.mean, draw, t)
        if t > 0:
            assert got == math.inf
        else:
            assert got == pytest.approx(_generic_d2(TRIANGLE, draw, t),
                                        rel=1e-13, abs=0)

    @pytest.mark.parametrize("t", [-0.5, 2.0])
    def test_zero_moments_read_zero(self, t):
        # a moment of 0 gives 0 whatever its level; a positive moment
        # against a level of 0 or 1 gives 0 for t < 0 and +inf for t > 0
        moments = np.array([[0.0, 0.2, 0.0], [0.3, 0.0, 0.0]])
        got = divergence._moment_terms(moments, [0.0, 1.0, 0.5], t)
        assert got.tolist() == [0.3, 0.2, 0.0]
        edge = divergence._moment_terms(np.array([[0.2], [0.3]]), [0.0], t)
        assert edge.tolist() == [math.inf if t > 0 else 0.3]

    def test_alternating_truths_on_one_m_stay_apart(self):
        draw = PiecewiseConstantMean(self.LEVELS)
        truths = {mu: TrueModel.constant(mu) for mu in (0.3, 0.6)}
        for mu in (0.3, 0.6, 0.3, 0.6, 0.3):
            got = d_t_squared(truths[mu].mean, draw, -0.5)
            assert got == pytest.approx(
                _hellinger_closed_form(mu, self.LEVELS), rel=1e-13, abs=0)

    @pytest.mark.parametrize("t", [-0.5, 2.0, -1e-9])
    def test_stacked_levels_give_one_value_per_row(self, t):
        # two rows, the trap where a (2, m) moment table broadcasts
        # against (2, k, m) terms without error; -1e-9 takes the KL limit
        rows = np.array([[0.0, 0.4, 0.7, 0.55], [0.35, 0.62, 0.48, 0.41]])
        got = d_t_squared(TRIANGLE.mean, PiecewiseConstantMean(rows), t)
        want = [d_t_squared(TRIANGLE.mean, PiecewiseConstantMean(row), t)
                for row in rows]
        assert got.shape == (2,)
        assert got.tobytes() == np.array(want).tobytes()
        if t > 0:  # a level of 0 against a positive moment
            assert got[0] == math.inf

    def test_levels_stack_at_most_two_deep(self):
        mean = PiecewiseConstantMean(np.full((3, 5), 0.5))
        assert mean.m == 5 and mean(np.array([0.1, 0.9])).shape == (3, 2)
        with pytest.raises(ValueError):
            PiecewiseConstantMean(np.full((2, 3, 5), 0.5))

    def test_tables_are_read_only_and_bounded(self):
        truth = TrueModel.constant(0.3)
        table = divergence._bin_moments(truth.mean, 4, -0.5)
        assert not table.flags.writeable
        assert table is divergence._bin_moments(truth.mean, 4, -0.5)
        assert table.shape == (2, 4)
        assert table == pytest.approx(
            np.array([[0.3 ** 0.5 / 4] * 4, [0.7 ** 0.5 / 4] * 4]),
            rel=1e-14, abs=0)
        assert divergence._bin_moments.cache_info().maxsize <= 256


def _reference_power_term(a, b, t):
    # the zero-support convention element by element; each power is the
    # same numpy array operation the vectorized term applies
    out = []
    for x, y in zip(a.tolist(), b.tolist()):
        if x == 0.0:
            out.append(0.0)
        elif y == 0.0:
            out.append(math.inf if t > 0 else 0.0)
        else:
            with np.errstate(over="ignore"):
                out.append((np.array([x]) ** (1.0 + t)
                            * np.array([y]) ** (-t))[0])
    return np.array(out)


class TestGaussLegendreNodes:
    def test_literals_are_leggauss_32_to_the_bit(self):
        nodes, weights = np.polynomial.legendre.leggauss(32)
        assert divergence._GL_X.tobytes() == nodes.tobytes()
        assert divergence._GL_W.tobytes() == weights.tobytes()


class TestPowerTerm:
    @pytest.mark.parametrize("t", [-0.5, -1.0 / 3.0, 0.5, 2.0])
    @pytest.mark.parametrize("case", ["corners", "positive", "tiny_b",
                                      "tiny_a"])
    def test_bit_for_bit_against_scalar_convention(self, t, case):
        rng = np.random.default_rng(61)
        a = rng.uniform(0.0, 1.0, 400)
        b = rng.uniform(0.0, 1.0, 400)
        if case == "corners":
            # exact 0 and 1 in both arguments, every combination
            corners = np.array([0.0, 1.0, 0.25])
            a[:9] = np.repeat(corners, 3)
            b[:9] = np.tile(corners, 3)
        elif case == "tiny_b":
            # b > 0 everywhere, but b^(-t) overflows at t = 2 and
            # 0 * inf must still read 0
            a[:3] = [0.0, 0.5, 1.0]
            b[:3] = 1e-200
        elif case == "tiny_a":
            # a^(1+t) underflows to 0 for t > 0, yet b == 0 < a must
            # still read +inf rather than 0 * inf = nan
            a[:3] = 1e-300
            b[:3] = [0.0, 0.5, 1.0]
        got = divergence._power_term(a, b, t)
        want = _reference_power_term(a, b, t)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
