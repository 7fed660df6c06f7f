"""ratelab.special against mpmath references at 40 digits.

Each tolerance is a rounding bound in units of the double epsilon:
EPS per correctly rounded step, and the argument's own rounding error
times the function's condition number where that dominates.  The
median and quantile are checked against numpy's, bit for bit.
"""

import math

import mpmath
import numpy as np
import pytest

import ratelab.special as special
from ratelab.special import (_log_factorials, expit, log_beta_counts, logit,
                             logsumexp, median, ndtr, quantile)

EPS = np.finfo(float).eps


@pytest.fixture(autouse=True)
def _forty_digits():
    with mpmath.workdps(40):
        yield


def _mp_logsumexp(a) -> float:
    return float(mpmath.log(mpmath.fsum(mpmath.exp(mpmath.mpf(v)) for v in a)))


class TestLogSumExp:
    @pytest.mark.parametrize("case", [
        [0.3],
        [-1.0, 2.5, 0.25, -700.0],
        [5.0, 5.0, 5.0],                     # every term at the maximum
        [1e-3, 1e-3, -2.0, 1e-3 - 1e-12],    # ties just below the top
        [800.0, 799.0, -800.0],              # exp(max) overflows
        [-800.0, -801.0, -1e4],              # exp(max) underflows
        [-math.inf, 0.5, -math.inf, -3.0],   # -inf entries add nothing
    ])
    def test_matches_mpmath(self, case):
        finite = [v for v in case if math.isfinite(v)]
        ref = _mp_logsumexp(finite)
        # log1p of a sum of n exps, then two additions
        tol = (len(case) + 3) * EPS + 2 * EPS * abs(ref)
        assert abs(logsumexp(np.array(case)) - ref) <= tol

    def test_random_arrays(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = rng.normal(0.0, 10.0 ** rng.uniform(-2, 3), int(rng.integers(1, 40)))
            ref = _mp_logsumexp(a.tolist())
            tol = (a.size + 3) * EPS + 2 * EPS * abs(ref)
            assert abs(logsumexp(a) - ref) <= tol

    def test_edge_values(self):
        assert logsumexp(np.array([])) == -math.inf
        assert logsumexp([-math.inf, -math.inf]) == -math.inf
        assert logsumexp([1.0, math.inf, -2.0]) == math.inf
        assert math.isnan(logsumexp([math.nan, 1.0]))
        assert logsumexp([2.0, 2.0]) == 2.0 + math.log(2.0)
        assert isinstance(logsumexp([0.0]), float)


class TestLogBetaCounts:
    def test_counts_up_to_32000(self):
        rng = np.random.default_rng(5)
        s = np.concatenate([[0, 0, 32000, 16000, 1, 7], rng.integers(0, 32001, 60)])
        f = np.concatenate([[0, 32000, 0, 16000, 1, 0], rng.integers(0, 32001, 60)])
        f = np.minimum(f, 32000 - s)  # a bin holds at most n = 32000 points
        got = log_beta_counts(s, f)
        assert got.shape == s.shape
        for a, b, value in zip(s.tolist(), f.tolist(), got.tolist()):
            ref = mpmath.log(mpmath.beta(1 + a, 1 + b))
            # three ln k! entries within 2 ulps each, then two additions
            scale = sum(float(mpmath.loggamma(k + 1)) for k in (a, b, a + b + 1))
            assert abs(value - float(ref)) <= 4 * EPS * scale + 1e-300, (a, b)

    def test_table_entries_do_not_depend_on_its_size(self, monkeypatch):
        monkeypatch.setattr(special, "_LOG_FACTORIALS", np.zeros(0))
        short = _log_factorials(16)
        long = _log_factorials(1 << 15)
        assert short.size == 16 and long.size == 1 << 15
        assert np.array_equal(long[:16], short)
        assert _log_factorials(17) is long  # one table serves every count
        assert not long.flags.writeable
        assert np.array_equal(long, [math.lgamma(k + 1.0) for k in range(1 << 15)])

    def test_shapes_and_validation(self):
        assert log_beta_counts([], []).shape == (0,)
        assert log_beta_counts(0, 0) == 0.0  # B(1, 1) = 1
        with pytest.raises(ValueError):
            log_beta_counts([1, -1], [0, 2])


class TestNdtr:
    def test_matches_mpmath_for_abs_x_up_to_30(self):
        x = np.concatenate([np.linspace(-30.0, 30.0, 601),
                            np.random.default_rng(2).uniform(-30.0, 30.0, 200)])
        got = ndtr(x)
        for v, value in zip(x.tolist(), got.tolist()):
            ref = float(mpmath.ncdf(mpmath.mpf(v)))
            # z = -x / sqrt(2) carries a relative error EPS, which erfc
            # scales by 2 z^2 = x^2; then erfc itself and the halving
            assert abs(value - ref) <= (v * v + 4) * EPS * ref, v

    def test_shapes(self):
        assert ndtr(0.0) == 0.5
        assert isinstance(ndtr(0.0), np.float64)
        assert ndtr(np.zeros((2, 3))).shape == (2, 3)
        assert ndtr(np.array([])).shape == (0,)
        assert ndtr(np.array([-math.inf, math.inf])).tolist() == [0.0, 1.0]


class TestLogistic:
    def test_expit_matches_mpmath(self):
        x = np.concatenate([np.linspace(-40.0, 40.0, 401), [0.0, 1e-9, -1e-9]])
        for v, value in zip(x.tolist(), expit(x).tolist()):
            ref = float(1 / (1 + mpmath.exp(-mpmath.mpf(v))))
            # exp, the sum and the quotient, an ulp each
            assert abs(value - ref) <= 4 * EPS * ref, v

    def test_logit_matches_mpmath(self):
        p = np.concatenate([np.linspace(1e-12, 1 - 1e-12, 401),
                            np.linspace(0.3, 0.65, 101),
                            [0.5 + 2.0 ** -30, 0.5 - 2.0 ** -30, 0.29999, 0.65001]])
        for v, value in zip(p.tolist(), logit(p).tolist()):
            x = mpmath.mpf(v)
            ref = float(mpmath.log(x / (1 - x)))
            assert abs(value - ref) <= 4 * EPS * abs(ref), v

    def test_logit_keeps_precision_near_one_half(self):
        # ln(p / (1 - p)) at p = 1/2 + 2^-30 is off by about 2e-9 relative;
        # the log1p branch inside [0.3, 0.65] is not
        p = 0.5 + 2.0 ** -30
        x = mpmath.mpf(p)
        ref = float(mpmath.log(x / (1 - x)))
        assert abs(math.log(p / (1 - p)) - ref) > 1e-10 * ref
        assert abs(float(logit(p)) - ref) <= 4 * EPS * ref
        assert logit(0.5) == 0.0


class TestOrderStatistics:
    @pytest.mark.parametrize("q", [0.95, 0.5, 0.0, 1.0, 0.25])
    def test_bit_for_bit_against_numpy(self, q):
        # sizes 1 to 60, ties, +inf at the top, and a nan
        rng = np.random.default_rng(17)
        for size in range(1, 61):
            for sample in (rng.random(size), np.round(rng.random(size), 1),
                           rng.exponential(size=size) * 1e-3):
                cases = [sample, np.where(sample == sample.max(), math.inf, sample)]
                if size > 2:
                    cases.append(np.where(sample == sample.min(), math.nan, sample))
                for values in cases:
                    with np.errstate(invalid="ignore"):
                        want = np.quantile(values, q), np.median(values)
                        got = quantile(values, q), median(values)
                    assert np.array(got).tobytes() == np.array(want).tobytes(), (
                        q, values)
                    assert all(isinstance(v, float) for v in got)
