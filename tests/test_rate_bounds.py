"""Rate-bound assembly, proof constants, and the posterior-mass RHS."""

import math

import numpy as np
import pytest
from mpmath import mp

from ratelab import (
    VARIANTS,
    PenalizedDivergenceResult,
    bound_prefactor,
    floor_to_unit_fraction,
    log_cover_mixture,
    parse_config_text,
    posterior_mass_bound_rhs,
    rate_bound,
    variant_bounds_for_n,
)
from ratelab.models import _unit_fraction
from ratelab.study import log_mixture_norm_complexity


class TestUnitFractionFloor:
    @pytest.mark.parametrize("raw,expected", [
        (0.5, 0.5),
        (0.4, 1.0 / 3.0),
        (0.34, 1.0 / 3.0),
        (0.99, 0.5),
        (0.2, 0.2),
    ])
    def test_floor_values(self, raw, expected):
        assert floor_to_unit_fraction(raw) == pytest.approx(expected, rel=1e-14)

    def test_float_noise_snaps_instead_of_tipping(self):
        assert floor_to_unit_fraction(1.0 / 3.0) == pytest.approx(1.0 / 3.0)
        assert floor_to_unit_fraction(1.0 / 3.0 + 1e-12) == pytest.approx(1.0 / 3.0)

    def test_unit_fractions_read_back_at_any_k(self):
        # past k = 4.5e6 one ulp of 1/u is wider than 1e-9, where an absolute
        # test on the reciprocal once tipped 1/k to 1/(k + 1) or refused it
        seeded = np.random.default_rng(34).integers(2000, 10**8, size=2000).tolist()
        for k in list(range(2, 2000)) + seeded + [14084845, 23796405]:
            assert floor_to_unit_fraction(1.0 / k) == 1.0 / k, k
            assert _unit_fraction(1.0 / k) == k, k

    def test_result_never_exceeds_input(self):
        for raw in np.linspace(0.02, 0.98, 49):
            u = floor_to_unit_fraction(float(raw))
            assert u <= raw + 1e-9
            assert round(1.0 / u) == pytest.approx(1.0 / u)

    @pytest.mark.parametrize("raw", [0.0, 1.0, -0.2, 1.7])
    def test_domain(self, raw):
        with pytest.raises(ValueError):
            floor_to_unit_fraction(raw)


def _prefactor_mp(u, t):
    u, t = mp.mpf(u), mp.mpf(t)
    a = t / (t + u)
    b = u / (t + u)
    return a ** (-a) * b ** (-b) * (u ** u * (1 - u) ** (1 - u)) ** (-t / (u + t))


class TestBoundPrefactor:
    def test_frozen_values(self):
        # c(1/2, 1/2) = 2*sqrt(2) and c(1/2, 1) = 3, both exact
        assert bound_prefactor(0.5, 0.5) == pytest.approx(
            2.8284271247461903, rel=1e-12)
        assert bound_prefactor(0.5, 1.0) == pytest.approx(3.0, rel=1e-12)

    def test_extended_precision_recomputation(self):
        mp.dps = 50
        for u, t in [(0.5, 0.5), (0.5, 1.0), (1.0 / 3.0, 2.0), (0.05, 10.0),
                     (0.95, 0.1), (0.25, 0.7)]:
            assert bound_prefactor(u, t) == pytest.approx(
                float(_prefactor_mp(u, t)), rel=1e-12)

    def test_at_most_four_on_grid(self):
        for u in np.linspace(0.05, 0.95, 19):
            for t in np.linspace(0.1, 10.0, 20):
                c = bound_prefactor(float(u), float(t))
                assert math.isfinite(c) and c > 0.0
                assert c <= 4.0 + 1e-12

    @pytest.mark.parametrize("u,t", [(0.0, 1.0), (1.0, 1.0), (0.5, 0.0),
                                     (0.5, -1.0)])
    def test_domain(self, u, t):
        with pytest.raises(ValueError):
            bound_prefactor(u, t)


def _rhs_mp(cover, anchor, u, t, n):
    mp.dps = 60
    sup_d, log_anchor = anchor
    total = mp.mpf(0)
    for inf_d, log_mass in cover:
        if math.isinf(inf_d):
            continue
        expo = -mp.mpf(u) * (n * mp.mpf(inf_d) - mp.mpf(log_mass)
                             - n * mp.mpf(sup_d) + mp.mpf(log_anchor))
        total += mp.e ** expo
    return float(total)


class TestPosteriorMassRhs:
    def test_cancelling_single_ball_gives_one(self):
        # inf d^2 equals the anchor bracket and the masses match, so the
        # exponent is identically zero
        rhs = posterior_mass_bound_rhs([(0.3, math.log(0.2))],
                                       (0.3, math.log(0.2)), 0.5, 1.0, 10)
        assert rhs == pytest.approx(1.0, rel=1e-14)

    def test_empty_cover_is_zero(self):
        assert posterior_mass_bound_rhs([], (0.1, -1.0), 0.5, 1.0, 5) == 0.0

    def test_unreachable_balls_are_skipped(self):
        cover = [(math.inf, math.log(0.5)), (0.2, math.log(0.5))]
        kept = posterior_mass_bound_rhs(cover[1:], (0.1, -2.0), 0.5, 1.0, 8)
        both = posterior_mass_bound_rhs(cover, (0.1, -2.0), 0.5, 1.0, 8)
        assert both == kept
        only_inf = posterior_mass_bound_rhs(cover[:1], (0.1, -2.0), 0.5, 1.0, 8)
        assert only_inf == 0.0

    def test_infinite_anchor_bracket_is_infinite(self):
        rhs = posterior_mass_bound_rhs([(0.2, -1.0)], (math.inf, -1.0),
                                       0.5, 1.0, 8)
        assert math.isinf(rhs)

    def test_matches_extended_precision(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 20))
            k = int(rng.integers(1, 6))
            cover = [(float(rng.uniform(0.0, 2.0)),
                      float(np.log(rng.uniform(0.05, 1.0))))
                     for _ in range(k)]
            anchor = (float(rng.uniform(0.0, 2.0)),
                      float(np.log(rng.uniform(0.05, 1.0))))
            u = float(rng.choice([0.5, 1.0 / 3.0, 0.25]))
            t = float(rng.choice([0.5, 1.0, 2.0]))
            got = posterior_mass_bound_rhs(cover, anchor, u, t, n)
            assert got == pytest.approx(_rhs_mp(cover, anchor, u, t, n),
                                        rel=1e-12)

    def test_splitting_a_ball_never_decreases_the_rhs(self):
        # mass pi split in two halves scales that term by 2^(1-u) >= 1
        anchor = (0.15, math.log(0.3))
        u, t, n = 0.5, 1.0, 12
        whole = posterior_mass_bound_rhs([(0.4, math.log(0.3))], anchor, u, t, n)
        halves = posterior_mass_bound_rhs(
            [(0.4, math.log(0.15)), (0.4, math.log(0.15))], anchor, u, t, n)
        assert halves == pytest.approx(2.0 ** (1.0 - u) * whole, rel=1e-12)
        assert halves >= whole

    def test_refining_a_mixed_cover_never_decreases_the_rhs(self, rng):
        anchor = (0.1, math.log(0.5))
        for _ in range(20):
            cover = [(float(rng.uniform(0.0, 1.0)),
                      float(np.log(rng.uniform(0.05, 0.5))))
                     for _ in range(3)]
            split = []
            for inf_d, log_mass in cover:
                frac = float(rng.uniform(0.2, 0.8))
                split.append((inf_d, log_mass + math.log(frac)))
                split.append((inf_d, log_mass + math.log1p(-frac)))
            u = float(rng.choice([0.5, 1.0 / 3.0]))
            before = posterior_mass_bound_rhs(cover, anchor, u, 1.0, 10)
            after = posterior_mass_bound_rhs(split, anchor, u, 1.0, 10)
            assert after >= before * (1.0 - 1e-12)

    @pytest.mark.parametrize("u,t,n", [(1.5, 1.0, 5), (0.5, 0.0, 5),
                                       (0.5, 1.0, 0)])
    def test_domain(self, u, t, n):
        with pytest.raises(ValueError):
            posterior_mass_bound_rhs([(0.1, -1.0)], (0.1, -1.0), u, t, n)


def _pen(value):
    """A penalized-divergence result carrying only its value."""
    return PenalizedDivergenceResult(value=value, m=1, delta=0.1,
                                     approx_term=value, box_term=0.0,
                                     model_term=0.0)


class TestRateBound:
    def test_cover_count_assembly_identity(self):
        # the complexity term collapses to [2(1+u/t)ln n + ln N] / (n u)
        u, t, n, log_count, pen = 1.0 / 3.0, 0.7, 977, 12.34, 0.05
        got = rate_bound("prop3", u, t, n, _pen(pen), log_count)
        expected = (2.0 * (1.0 + u / t) * math.log(n) + log_count) / (n * u)
        assert got.complexity_term == pytest.approx(expected, rel=1e-12)
        assert got.epsilon_n == pytest.approx(pen + expected, rel=1e-12)
        assert got.log_richness == log_count

    def test_single_model_mixture_reduces_to_plain_count(self):
        plain = rate_bound("prop3", 0.5, 1.0, 100, _pen(0.02), 5.0)
        mixed = rate_bound("prop7", 0.5, 1.0, 100, _pen(0.02),
                           log_cover_mixture([0.0], [5.0], 0.5))
        assert mixed.complexity_term == plain.complexity_term
        assert mixed.epsilon_n == plain.epsilon_n

    def test_two_model_mixture_hand_value(self):
        log_richness = log_cover_mixture(np.log([0.5, 0.5]),
                                         np.log([4.0, 16.0]), 0.5)
        got = rate_bound("prop7", 0.5, 1.0, 50, _pen(0.0), log_richness)
        expected = math.log(math.sqrt(0.5) * (4.0 + 16.0))
        assert got.log_richness == pytest.approx(expected, rel=1e-12)

    def test_norm_variants_skip_the_extra_power(self):
        # the norm already carries the 1/u, so remark8 adds ln N directly
        u, t, n, log_norm = 0.5, 1.0, 1000, math.log(100.0)
        r8 = rate_bound("remark8", u, t, n, _pen(0.0), log_norm)
        expected = (log_norm + 2.0 * (1.0 / u + 1.0 / t) * math.log(n)) / n
        assert r8.complexity_term == pytest.approx(expected, rel=1e-14)
        r10 = rate_bound("remark10", u, t, n, _pen(0.0), log_norm)
        assert r10.complexity_term == r8.complexity_term
        assert r10.variant == "remark10"
        plain = rate_bound("prop3", u, t, n, _pen(0.0), log_norm)
        gap = plain.complexity_term - r8.complexity_term
        assert gap == pytest.approx((1.0 / u - 1.0) * log_norm / n, rel=1e-12)

    def test_geometric_prior_keeps_complexity_near_log_n_over_n(self):
        # pi_m ~ n^(-3(m-1)) against covers n^(2m) for m <= 5: the
        # mixture sum is dominated by the largest model and the scaled
        # complexity n * term / ln n settles at 8 + 6 = 14
        u, t, sizes = 0.5, 1.0, np.arange(1, 6)
        for n in (100, 10_000, 1_000_000):
            raw = -3.0 * (sizes - 1) * math.log(n)
            lm = raw - math.log(np.sum(np.exp(raw - raw.max()))) - raw.max()
            lc = 2.0 * sizes * math.log(n)
            got = rate_bound("prop7", u, t, n, _pen(0.0),
                             log_cover_mixture(lm, lc, u))
            assert math.isfinite(got.log_richness)
            scaled = got.complexity_term * n / math.log(n)
            assert 13.9 <= scaled <= 14.2

    def test_terms_nonnegative_and_consistent(self):
        pen = _pen(0.01)
        for variant, log_richness in [
                ("prop3", 3.0),
                ("prop7", log_cover_mixture([math.log(0.3), math.log(0.7)],
                                            [1.0, 2.0], 0.5)),
                ("remark8", 4.0),
        ]:
            b = rate_bound(variant, 0.5, 2.0, 64, pen, log_richness)
            assert b.penalized is pen and b.penalized_div == pen.value
            assert b.complexity_term > 0.0
            assert abs(b.epsilon_n - (b.penalized_div + b.complexity_term)) <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            rate_bound("prop4", 0.5, 1.0, 10, _pen(0.0), 1.0)
        with pytest.raises(ValueError):
            rate_bound("prop3", 0.4, 1.0, 10, _pen(0.0), 1.0)
        with pytest.raises(ValueError):
            rate_bound("prop3", 0.5, 1.0, 1, _pen(0.0), 1.0)
        with pytest.raises(ValueError):
            rate_bound("prop3", 0.5, 1.0, 10, _pen(-0.1), 1.0)
        with pytest.raises(ValueError):
            rate_bound("prop3", 0.5, 1.0, 10, _pen(0.0), -0.5)
        with pytest.raises(ValueError):
            log_cover_mixture([0.0, -1.0], [1.0], 0.5)
        with pytest.raises(ValueError):
            log_cover_mixture([0.0], [-1.0], 0.5)
        with pytest.raises(ValueError):
            rate_bound("remark8", 0.5, 1.0, 10, _pen(0.0), -2.0)

    def test_variant_tags(self):
        assert VARIANTS == ("prop3", "prop7", "remark8", "remark10")


def test_richness_table_for_uniform_prior():
    # n = 16, u = 1/2: m_max = 4 and each model's cover count is
    # (16^2)^m = 256^m; the model prior is pi_m ~ 16^(-3(m-1))
    config = parse_config_text("""
[truth]
kind = triangle

[prior]
within = uniform

[run]
n_grid = 16
u = 0.5
t = 1
variants = prop3, prop7, remark8, remark10
""")
    n, u, t = 16, 0.5, 1.0
    rows = {b.variant: b for b in variant_bounds_for_n(config, n)}
    spec = config.prior_for(n)
    assert spec.m_max == 4

    assert rows["prop3"].log_richness == pytest.approx(
        math.log(sum(256 ** m for m in range(1, 5))), rel=1e-15)
    mp.dps = 30
    weights = [mp.mpf(16) ** (-3 * (m - 1)) for m in range(1, 5)]
    total = sum(weights)
    prop7 = mp.log(sum(mp.sqrt(w / total) * mp.mpf(256) ** m
                       for m, w in zip(range(1, 5), weights)))
    assert rows["prop7"].log_richness == pytest.approx(float(prop7), rel=1e-14)
    log_norm = log_mixture_norm_complexity(spec, u)
    assert rows["remark8"].log_richness == log_norm
    assert rows["remark10"].log_richness == log_norm

    for variant, b in rows.items():
        richness = b.log_richness if variant.startswith("remark") else b.log_richness / u
        expected = (richness + 2.0 * (1.0 / u + 1.0 / t) * math.log(n)) / n
        assert b.complexity_term == pytest.approx(expected, rel=1e-13)


def test_epsilon_decreases_along_the_grid_for_step_truth():
    config = parse_config_text("""
[truth]
kind = sparse
levels = 0.3, 0.7, 0.45

[run]
n_grid = 1000, 10000, 100000, 1000000
""")
    eps = [variant_bounds_for_n(config, n)[0].epsilon_n
           for n in config.n_grid]
    assert all(b < a for a, b in zip(eps, eps[1:]))
