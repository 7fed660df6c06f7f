"""Binned posterior, its samplers, and the enumeration oracle."""

import functools
import math
import sys
import threading
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad, simpson
from scipy.optimize import brentq

from ratelab import (
    Dataset,
    DiscreteDensity,
    PriorSpec,
    QuadratureError,
    TrueModel,
    WithinModelPrior,
    d_t_squared,
    empirical_divergence_quantiles,
    exact_enumeration_oracle,
    log_evidence,
    model_posterior,
    random_oracle_config,
    sample_posterior_density,
    simulate_data,
)
from ratelab import posterior
from ratelab.models import (_bin_panels, _log_odds_bin_loglik, _log_odds_quantiles,
                            model_log_prior)
from ratelab.posterior import _model_bins, _posterior_draws
from ratelab.rng import stream
# the normalizer model_posterior applies: the bit-for-bit weight check below
# must not depend on which log-sum-exp rule the installed scipy uses
from ratelab.special import logsumexp

NORMAL = WithinModelPrior.log_odds("normal", 1.0)
LAPLACE = WithinModelPrior.log_odds("laplace", 0.7)

EMPTY = Dataset(x=np.zeros(0), z=np.zeros(0, dtype=np.int8))


def _dataset(x, z):
    return Dataset(x=np.asarray(x, dtype=float),
                   z=np.asarray(z, dtype=np.int8))


def _reference_counts(data, m):
    # the floor(x * m) rule with x = 1 in bin m, tallied directly
    idx = np.minimum((data.x * m).astype(int), m - 1)
    trials = np.bincount(idx, minlength=m)
    successes = np.bincount(idx, weights=data.z, minlength=m).astype(int)
    return trials, successes


def _posterior_counts(data, m):
    # model m's bins as the one flat tally of model_posterior counts them
    state = model_posterior(data, PriorSpec(n=max(data.n, 1), m_max=m))
    return state.trials[_model_bins(m)], state.successes[_model_bins(m)]


class TestBinCounts:
    def _check(self, data, m, trials, successes):
        for counts in (_posterior_counts(data, m), _reference_counts(data, m)):
            assert counts[0].tolist() == trials
            assert counts[1].tolist() == successes

    def test_empty_dataset_gives_zero_counts(self):
        self._check(EMPTY, 3, [0, 0, 0], [0, 0, 0])

    def test_two_bin_split(self):
        data = _dataset([0.1, 0.3, 0.6, 0.9], [1, 0, 1, 1])
        self._check(data, 2, [2, 2], [1, 2])

    def test_right_edge_joins_last_bin(self):
        self._check(_dataset([1.0], [1]), 4, [0, 0, 0, 1], [0, 0, 0, 1])

    def test_bin_boundary_goes_right(self):
        self._check(_dataset([0.5], [0]), 2, [0, 1], [0, 0])

    def test_totals_preserved(self, rng):
        data = simulate_data(TrueModel.constant(0.4), 257, seed=(3, 1))
        for m in (1, 2, 7, 50):
            trials, successes = _posterior_counts(data, m)
            assert trials.sum() == 257
            assert successes.sum() == int(data.z.sum())


# every bin edge j/m for m up to 32 and the doubles next to it, inside
# [0, 1]: x * m rounds to either side of j near an edge
EDGE_POINTS = sorted({
    x for m in range(1, 33) for j in range(m + 1)
    for x in (np.nextafter(j / m, -1.0), j / m, np.nextafter(j / m, 2.0))
    if 0.0 <= x <= 1.0})


DATASETS = pytest.mark.parametrize("data", [
    simulate_data(TrueModel.sine(), 997, seed=(12, 0)),
    _dataset(EDGE_POINTS, [i % 3 == 0 for i in range(len(EDGE_POINTS))]),
    _dataset([0.0, 0.0, 1.0, 1.0, 1.0], [1, 0, 1, 1, 0]),
    EMPTY,
], ids=["random", "edges", "ends", "empty"])


def _check_every_model(data, state, m_max):
    # the flat tally holds every model's bins, each as tallied directly
    assert state.trials.size == state.successes.size == m_max * (m_max + 1) // 2
    for m in range(1, m_max + 1):
        trials, successes = _reference_counts(data, m)
        assert state.trials[_model_bins(m)].tolist() == trials.tolist()
        assert state.successes[_model_bins(m)].tolist() == successes.tolist()


def _every_model(data):
    # every model size up to max(32, ceil sqrt n) in one posterior
    m_top = max(32, math.ceil(math.sqrt(data.n)))
    return PriorSpec(n=max(data.n, 1), m_max=m_top)


class TestOnePassBinning:
    @DATASETS
    def test_counts_match_direct_tally_for_every_model(self, data):
        spec = _every_model(data)
        _check_every_model(data, model_posterior(data, spec), spec.m_max)

    def test_edges_of_models_up_to_1024(self):
        # the edges j/m of a few sizes up to 1024 and the doubles next to
        # them, successes and failures alternating in x order; every
        # model up to 1024 is checked against the direct tally
        x = sorted({v for m in (3, 10, 49, 100, 509, 1000, 1023, 1024)
                    for j in range(m + 1)
                    for v in (np.nextafter(j / m, -1.0), j / m, np.nextafter(j / m, 2.0))
                    if 0.0 <= v <= 1.0})
        data = _dataset(x, [i % 2 for i in range(len(x))])
        state = model_posterior(data, PriorSpec(n=data.n, m_max=1024))
        _check_every_model(data, state, 1024)

    @DATASETS
    @pytest.mark.parametrize("within", [WithinModelPrior.uniform_box(),
                                        WithinModelPrior.log_odds("normal", 1.5)],
                             ids=["uniform", "normal"])
    def test_weights_match_per_model_log_evidence(self, data, within):
        spec = replace(_every_model(data), within=within)
        log_post = model_log_prior(spec) + np.array([
            log_evidence(*_reference_counts(data, m), within)
            for m in range(1, spec.m_max + 1)])
        log_post = log_post - logsumexp(log_post)
        weights = np.exp(log_post)
        weights = weights / weights.sum()
        got = model_posterior(data, spec).weights
        assert np.array_equal(got.view(np.int64), weights.view(np.int64))


@functools.lru_cache(maxsize=None)
def _unscreened(within, n):
    # every bin of every model size, tallied directly, with its evidence:
    # the posterior as it was before any model was screened out
    data = simulate_data(TrueModel.triangle(amplitude=0.22, peak=0.45), n,
                         seed=(17, n))
    counts = [_reference_counts(data, m)
              for m in range(1, math.ceil(math.sqrt(n)) + 1)]
    trials = np.concatenate([t for t, _ in counts])
    successes = np.concatenate([s for _, s in counts])
    return data, trials, successes, within.bin_log_evidence(successes, trials - successes)


# log-odds priors at n = 32000 leave out k_model = 0.5, which keeps nearly
# every bin: it is the unscreened case, at 3 s a posterior
SCREENED = [(within, n, k_model)
            for within in (WithinModelPrior.uniform_box(),
                           WithinModelPrior.log_odds("normal", 1.5), LAPLACE)
            for n in (500, 4000, 32000) for k_model in (0.5, 1.0, 3.0)
            if (n, k_model) != (32000, 0.5) or within.name == "uniform"]


# at n = 2^20 the reference takes the posterior's own bin counts, whose
# tally TestBinCounts checks against np.bincount: tallying all 1024 sizes
# directly takes 15 s on a 2-core VM; the normal prior stops at m_max = 32,
# where every bin's evidence takes 0.1 s
SCREENED_2_20 = [(WithinModelPrior.uniform_box(), 0, 1.0),
                 (WithinModelPrior.uniform_box(), 0, 3.0),
                 (WithinModelPrior.log_odds("normal", 1.5), 32, 3.0)]


def _screened_evaluations(data, spec, per_bin, monkeypatch):
    """model_posterior's weights and CDF against the unscreened reference,
    every model's log prior plus the sum of its bins' log evidence,
    normalized as model_posterior does, bit for bit; returns the posterior
    and the number of bins whose evidence it evaluated."""
    log_post = model_log_prior(spec) + np.array([
        np.sum(per_bin[_model_bins(m)]) for m in range(1, spec.m_max + 1)])
    log_post = log_post - logsumexp(log_post)
    weights = np.exp(log_post)
    weights = weights / weights.sum()
    cdf = weights.cumsum()
    cdf /= cdf[-1]

    evaluated, bin_log_evidence = [], type(spec.within).bin_log_evidence
    def counting(self, s, f):
        evaluated.append(s.size)
        return bin_log_evidence(self, s, f)

    monkeypatch.setattr(type(spec.within), "bin_log_evidence", counting)
    state = model_posterior(data, spec)
    for got, want in ((state.weights, weights), (state.cdf, cdf)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    return state, sum(evaluated)


class TestModelScreen:
    @pytest.mark.parametrize("within,n,k_model", SCREENED, ids=[
        f"{within.name}-{n}-{k_model}" for within, n, k_model in SCREENED])
    def test_screened_posterior_matches_unscreened_bits(self, within, n, k_model,
                                                        monkeypatch):
        data, trials, successes, per_bin = _unscreened(within, n)
        spec = PriorSpec(n=n, k_model=k_model, within=within)
        state, evaluated = _screened_evaluations(data, spec, per_bin, monkeypatch)
        for got, want in ((state.trials, trials), (state.successes, successes)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        if k_model == 3.0 and n == 32000:
            assert evaluated < trials.size / 10

    @pytest.mark.parametrize("within,m_max,k_model", SCREENED_2_20, ids=[
        f"{within.name}-{m_max}-{k_model}" for within, m_max, k_model in SCREENED_2_20])
    def test_screened_weights_match_unscreened_bits_at_2_to_the_20(
            self, within, m_max, k_model, monkeypatch):
        n = 2 ** 20
        data = simulate_data(TrueModel.triangle(amplitude=0.22, peak=0.45), n,
                             seed=(17, n))
        spec = PriorSpec(n=n, k_model=k_model, m_max=m_max, within=within)
        counts = model_posterior(data, spec)
        per_bin = within.bin_log_evidence(counts.successes, counts.trials - counts.successes)
        _, evaluated = _screened_evaluations(data, spec, per_bin, monkeypatch)
        assert evaluated < counts.trials.size  # the screen left some bins out

    def test_memoized_cuts_shared_by_threads(self):
        # eight threads, two per model-size range, build and read the cut
        # tables at once under a short switch interval; every count and
        # weight matches the serial posterior
        data = simulate_data(TrueModel.triangle(), 4000, seed=(18, 0))
        specs = [PriorSpec(n=4000, m_max=m) for m in (40, 63, 64, 90)] * 2
        serial = [model_posterior(data, spec) for spec in specs]
        posterior._bin_cuts.cache_clear()
        results, interval = [None] * len(specs), sys.getswitchinterval()

        def run(i):
            results[i] = model_posterior(data, specs[i])

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(specs))]
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got, want in zip(results, serial):
            for name in ("trials", "successes", "weights", "cdf"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


class TestLogEvidence:
    def test_no_data_is_log_one(self):
        counts = _reference_counts(EMPTY, 3)
        assert log_evidence(*counts, PriorSpec(n=8).within) == 0.0
        assert log_evidence(*counts, NORMAL) == 0.0

    def test_single_success_closed_form(self):
        counts = _reference_counts(_dataset([0.2], [1]), 1)
        assert log_evidence(*counts, PriorSpec(n=8).within) == pytest.approx(
            -0.6931471805599453, rel=1e-14)

    def test_one_success_one_failure_closed_form(self):
        counts = _reference_counts(_dataset([0.2, 0.4], [1, 0]), 1)
        assert log_evidence(*counts, PriorSpec(n=8).within) == pytest.approx(
            -1.791759469228055, rel=1e-14)

    def test_bins_contribute_additively(self):
        data = _dataset([0.2, 0.7, 0.8], [1, 1, 0])
        whole = log_evidence(*_reference_counts(data, 2), PriorSpec(n=8).within)
        assert whole == pytest.approx(-0.6931471805599453 - 1.791759469228055,
                                      rel=1e-12)

    @pytest.mark.parametrize("within", [NORMAL, LAPLACE])
    @pytest.mark.parametrize("s,f", [(1, 0), (3, 2), (0, 4), (10, 7)])
    def test_log_odds_evidence_against_dense_trapezoid(self, within, s, f):
        theta = np.linspace(-40.0, 40.0, 2 ** 20 + 1)
        dens = np.exp(_log_odds_bin_loglik(theta, s, f) + within.log_pdf(theta))
        expected = math.log(np.trapezoid(dens, x=theta))
        assert log_evidence(np.array([s + f]), np.array([s]), within) == pytest.approx(
            expected, rel=1e-7)


# ln of the integral over the log-odds line of sigma^s (1 - sigma)^f times
# the prior density, to 32 digits: mpmath at 45 digits, the line cut at
# every half and, independently, every third of 1/sqrt(curvature) at the
# mode, out to 400 of them (and at 0 under a Laplace prior); both cuttings
# agree to all digits.  Under a symmetric prior one success alone gives
# exactly -ln 2.  Every Laplace bin here has theta = 0 inside its span.
MPMATH_BIN_LOG_EVIDENCE = [
    ("normal", 1.5, 1, 0, -0.69314718055994530941723212145818),
    ("normal", 1.5, 0, 1, -0.69314718055994530941723212145818),
    ("normal", 1.5, 3, 2, -4.0272044941934510337091794282059),
    ("normal", 1.5, 0, 4, -1.7026902043107106627676339996844),
    ("normal", 1.5, 10, 7, -12.697702551587075481359677745906),
    ("normal", 1.5, 100, 3, -17.134727378374212064248291439247),
    ("normal", 1.5, 16062, 15938, -22185.368616640649311797383220997),
    ("normal", 1.5, 16000, 16000, -22185.608861402063256214823614563),
    ("laplace", 1.0, 1, 0, -0.69314718055994530941723212145818),
    ("laplace", 1.0, 0, 2, -1.1813870618560035316479792086979),
    ("laplace", 1.0, 3, 2, -3.8712010109078909290641737227552),
    ("laplace", 1.0, 10, 7, -12.429663142615596277674436232017),
    ("laplace", 1.0, 40, 1, -8.045588280807000171333795277835),
    ("laplace", 1.0, 16062, 15938, -22184.748269095246552313841344573),
    ("laplace", 5.0, 1, 0, -0.69314718055994530941723212145818),
    ("laplace", 5.0, 0, 2, -0.86195102951265003214852051576649),
    ("laplace", 5.0, 3, 2, -4.9552454563658556308942392062978),
    ("laplace", 5.0, 10, 7, -13.692430229682669825588591717865),
    ("laplace", 5.0, 40, 1, -6.8115969532451006080734888704063),
    ("laplace", 5.0, 16062, 15938, -22186.348952117452083223833926492),
]


class TestFramedLogOddsBins:
    @pytest.mark.parametrize("density,scale,s,f,expected", MPMATH_BIN_LOG_EVIDENCE)
    def test_bin_evidence_against_mpmath(self, density, scale, s, f, expected):
        got = log_evidence(np.array([s + f]), np.array([s]),
                           WithinModelPrior.log_odds(density, scale))
        assert abs(got - expected) <= 1e-10

    @pytest.mark.parametrize("within", [WithinModelPrior.log_odds("normal", 1.5),
                                        WithinModelPrior.log_odds("laplace", 1.0),
                                        WithinModelPrior.log_odds("laplace", 5.0)],
                             ids=["normal", "laplace1", "laplace5"])
    def test_bin_alone_matches_bin_in_batch(self, within):
        rng = np.random.default_rng(808)
        trials = np.concatenate([rng.integers(0, 40, 45),
                                 rng.integers(1000, 32000, 15)])
        successes = rng.binomial(trials, 0.4)

        def evidence_and_frames(trials, successes):
            return (within.bin_log_evidence(successes, trials - successes),
                    _bin_panels(successes, trials - successes, within)[0])

        batch = evidence_and_frames(trials, successes)
        backward = evidence_and_frames(trials[::-1], successes[::-1])
        for j in range(trials.size):
            alone = evidence_and_frames(trials[j:j + 1], successes[j:j + 1])
            for got, flipped, one in zip(batch, backward, alone):
                assert got[..., j].tobytes() == one[..., 0].tobytes()
                assert flipped[..., -1 - j].tobytes() == one[..., 0].tobytes()

    def test_uncertified_bin_raises(self):
        # a Laplace prior of scale 10^4 leaves a one-success bin with mass
        # farther out than the span reaches
        with pytest.raises(QuadratureError, match="1e-10"):
            log_evidence(np.array([1]), np.array([1]),
                         WithinModelPrior.log_odds("laplace", 1e4))

    def test_sampled_sd_of_large_bin_matches_laplace_sd(self):
        # s = f: the mode is 0 by symmetry, the curvature there is
        # (s + f) / 4 + 1 / 1.5^2; quantiles at 200000 evenly spread units
        within = WithinModelPrior.log_odds("normal", 1.5)
        sd = 1.0 / math.sqrt(32000 / 4 + 1 / 1.5 ** 2)
        units = (np.arange(200_000) + 0.5) / 200_000
        theta = _log_odds_quantiles(16000, 16000, within, units[:, None])
        assert abs(theta.std() / sd - 1.0) <= 0.005
        assert abs(theta.mean()) <= 1e-3 * sd

    # the mpmath CDF is split at the mode +- 1, 3, 10 and 40 posterior sds,
    # since an unsplit quad misses the (2000, 1500) peak, and at the kink;
    # its integrand is scaled to 1 at the mode, as quad's tolerance is absolute
    @pytest.mark.parametrize("density", ["normal", "laplace"])
    @pytest.mark.parametrize("scale", [0.1, 1.5, 1000.0])
    def test_quantiles_against_mpmath_cdf(self, density, scale):
        within = WithinModelPrior.log_odds(density, scale)
        levels = np.linspace(0.01, 0.99, 9)
        for s, f in ((0, 0), (1, 0), (3, 1), (40, 7), (2000, 1500)):
            theta = _log_odds_quantiles(s, f, within, levels[:, None])[:, 0]
            mode, sd, _ = _bin_panels(np.array([s]), np.array([f]), within)[0][:, 0]
            with mpmath.workdps(20):
                b, mode, sd = (mpmath.mpf(float(x)) for x in (scale, mode, sd))

                def log_density(t):  # ln of sigma^s (1 - sigma)^f times the prior
                    log_prior = -(t / b) ** 2 / 2 if density == "normal" else -abs(t) / b
                    return (log_prior - s * mpmath.log1p(mpmath.exp(-t))
                            - f * mpmath.log1p(mpmath.exp(t)))

                density_at = lambda t: mpmath.exp(log_density(t) - log_density(mode))
                cuts = {mode + k * sd for k in (-40, -10, -3, -1, 0, 1, 3, 10, 40)}
                ends = sorted(cuts | set(map(mpmath.mpf, theta))
                              | ({mpmath.mpf(0)} if density == "laplace" else set()))
                ends = [-mpmath.inf] + ends + [mpmath.inf]
                cdf = np.cumsum([mpmath.quad(density_at, pair) for pair in zip(ends, ends[1:])])
                got = [float(cdf[ends.index(t) - 1] / cdf[-1]) for t in map(mpmath.mpf, theta)]
            assert np.abs(np.array(got) - levels).max() <= 1e-9, (s, f)

    def test_draw_consumes_one_uniform_per_bin(self):
        data = simulate_data(TrueModel.triangle(), 300, seed=(14, 0))
        state = model_posterior(data, PriorSpec(n=300, within=LAPLACE))
        rng, twin = stream(14, 1), stream(14, 1)
        for _ in range(20):
            m = sample_posterior_density(state, rng).m
            assert int(twin.choice(state.weights.size, p=state.weights)) + 1 == m
            twin.random(m)
        assert rng.random() == twin.random()


class TestModelPosterior:
    def test_empty_data_reproduces_prior(self):
        spec = PriorSpec(n=50)
        state = model_posterior(EMPTY, spec)
        assert np.allclose(state.weights, np.exp(model_log_prior(spec)),
                           rtol=0, atol=1e-12)
        assert np.argmax(state.weights) == 0
        assert not state.trials.any() and not state.successes.any()

    def test_weights_sum_to_one(self):
        data = simulate_data(TrueModel.constant(0.5), 40, seed=(5, 0))
        state = model_posterior(data, PriorSpec(n=40))
        assert abs(float(state.weights.sum()) - 1.0) <= 1e-12

    def test_weights_match_quadrature_recomputation(self):
        # independent per-bin Simpson integration of the evidence, no
        # Beta-function shortcut
        data = simulate_data(TrueModel.sparse([0.3, 0.7, 0.45]), 12, seed=(31, 0))
        spec = PriorSpec(n=12, m_max=4)
        state = model_posterior(data, spec)
        theta = np.linspace(0.0, 1.0, 100_001)
        log_ev = []
        for m in range(1, 5):
            total = 0.0
            for trials, s in zip(*_reference_counts(data, m)):
                vals = theta ** s * (1 - theta) ** (trials - s)
                total += math.log(simpson(vals, x=theta))
            log_ev.append(total)
        log_post = model_log_prior(spec) + np.array(log_ev)
        weights = np.exp(log_post - log_post.max())
        weights /= weights.sum()
        assert np.abs(weights - state.weights).max() <= 1e-10

    def test_mode_recovers_step_count_at_large_n(self):
        truth = TrueModel.sparse([0.3, 0.7, 0.45])
        hits = 0
        for r in range(100):
            data = simulate_data(truth, 10_000, seed=(404, r))
            state = model_posterior(data, PriorSpec(n=10_000))
            hits += np.argmax(state.weights) + 1 == truth.m0
        assert hits >= 90


class TestSampling:
    def test_beta_draw_mean_matches_conjugate_posterior(self):
        # one bin, 7 successes in 20 trials: levels are Beta(8, 14)
        data = _dataset(np.linspace(0.0, 0.95, 20),
                        [1] * 7 + [0] * 13)
        state = model_posterior(data, PriorSpec(n=20, m_max=1))
        rng = stream(77, 1)
        draws = np.array([
            sample_posterior_density(state, rng).levels[0]
            for _ in range(100_000)])
        a, b = 8.0, 14.0
        mean = a / (a + b)
        se = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)) / draws.size)
        assert abs(draws.mean() - mean) <= 4.0 * se
        assert 0.0 < draws.min() and draws.max() < 1.0

    def test_log_odds_draw_levels_stay_interior(self):
        data = _dataset(np.linspace(0.0, 0.95, 20), [1] * 7 + [0] * 13)
        state = model_posterior(data, PriorSpec(n=20, m_max=2, within=NORMAL))
        rng = stream(88, 2)
        levels = np.concatenate([
            sample_posterior_density(state, rng).levels
            for _ in range(500)])
        assert 0.0 < levels.min() and levels.max() < 1.0

    def test_model_choice_follows_weights(self):
        data = simulate_data(TrueModel.sparse([0.3, 0.7, 0.45]), 60, seed=(9, 0))
        state = model_posterior(data, PriorSpec(n=60, m_max=6))
        rng = stream(15, 3)
        sizes = np.array([
            sample_posterior_density(state, rng).m for _ in range(4000)])
        for m in range(1, 7):
            freq = float(np.mean(sizes == m))
            w = float(state.weights[m - 1])
            assert abs(freq - w) <= 4.0 * math.sqrt(w * (1 - w) / sizes.size) + 1e-9

    @pytest.mark.parametrize("spread", ["m_max6", "k_model", "flat"])
    def test_model_size_draw_matches_generator_choice(self, spread):
        # reference: the size drawn by rng.choice(p=weights), then the Beta
        # levels by one array call, from a second copy of the same stream;
        # the draws make one scalar call per bin.  "k_model" spreads the
        # draws over several sizes; "flat" weighs sizes 1..40 alike on 100
        # points, so that many bins are empty (numpy's Johnk branch) or
        # one-sided
        if spread == "m_max6":
            data = simulate_data(TrueModel.sparse([0.3, 0.7, 0.45]), 60, seed=(9, 0))
            state = model_posterior(data, PriorSpec(n=60, m_max=6))
        elif spread == "k_model":
            data = simulate_data(BATCH_TRUTHS["triangle"], 4000, seed=(41, 4000))
            state = model_posterior(data, PriorSpec(n=4000, k_model=0.5))
        else:
            data = simulate_data(BATCH_TRUTHS["sparse"], 100, seed=(45, 0))
            state = model_posterior(data, PriorSpec(n=100, m_max=40))
            weights = np.full(40, 1.0 / 40)
            cdf = weights.cumsum()
            cdf /= cdf[-1]  # as model_posterior and Generator.choice make it
            state = replace(state, weights=weights, cdf=cdf)
            counts = state.trials[_model_bins(40)], state.successes[_model_bins(40)]
            assert (counts[0] == 0).any() and (counts[1] == 0).any()
        rng, ref = stream(15, 4), stream(15, 4)
        sizes = set()
        for _ in range(3000):
            m = int(ref.choice(state.weights.size, p=state.weights)) + 1
            s = state.successes[_model_bins(m)]
            f = state.trials[_model_bins(m)] - s
            levels = ref.beta(1.0 + s, 1.0 + f)
            draw = sample_posterior_density(state, rng).levels
            assert draw.tobytes() == levels.tobytes()
            sizes.add(m)
        assert rng.random() == ref.random()
        assert len(sizes) > 1 or spread == "m_max6"  # that posterior draws m = 1 alone

    def test_quantile_sampler_matches_quadrature_median(self):
        sampled = _log_odds_quantiles(3, 1, NORMAL, 0.5)

        def target(th):
            arr = np.array([th])
            return float(np.exp(_log_odds_bin_loglik(arr, 3, 1)
                                + NORMAL.log_pdf(arr))[0])

        total = quad(target, -30, 30, limit=200)[0]
        median = brentq(
            lambda c: quad(target, -30, c, limit=200)[0] / total - 0.5,
            -10.0, 10.0, xtol=1e-10)
        assert abs(sampled - median) <= 1e-8

    def test_quantile_sampler_monotone_in_unit(self):
        units = np.linspace(0.05, 0.95, 10)
        values = [_log_odds_quantiles(5, 9, LAPLACE, float(v)) for v in units]
        assert all(b > a for a, b in zip(values, values[1:]))


BATCH_PRIORS = {"uniform": WithinModelPrior.uniform_box(), "normal": NORMAL,
                "laplace": LAPLACE}
BATCH_TRUTHS = {"triangle": TrueModel.triangle(amplitude=0.22, peak=0.45),
                "sparse": TrueModel.sparse([0.3, 0.7, 0.45])}


class TestDivergenceQuantiles:
    def test_posterior_concentrates_on_step_truth(self):
        truth = TrueModel.sparse([0.3, 0.7, 0.45])
        data = simulate_data(truth, 100_000, seed=(505, 0))
        state = model_posterior(data, PriorSpec(n=100_000))
        summary = empirical_divergence_quantiles(truth, state, 0.5, 30,
                                                 stream(505, 1))
        assert summary.median < 1e-2
        assert summary.min <= summary.median <= summary.q95 <= summary.max

    def test_single_draw_collapses_quantiles(self):
        truth = TrueModel.constant(0.4)
        data = simulate_data(truth, 30, seed=(6, 0))
        state = model_posterior(data, PriorSpec(n=30, m_max=3))
        summary = empirical_divergence_quantiles(truth, state, 0.5, 1,
                                                 stream(6, 1))
        assert summary.min == summary.median == summary.q95 == summary.max

    # every prior and truth at n = 500 and 4000; at n = 32000, where
    # log-odds evidence takes seconds, the uniform prior and one log-odds case
    @pytest.mark.parametrize("within, truth, n", [
        *((w, t, n) for w in BATCH_PRIORS for t in BATCH_TRUTHS for n in (500, 4000)),
        ("uniform", "triangle", 32000), ("uniform", "sparse", 32000),
        ("laplace", "sparse", 32000)])
    def test_batched_values_equal_per_draw_values(self, within, truth, n):
        name, truth = truth, BATCH_TRUTHS[truth]
        data = simulate_data(truth, n, seed=(41, n))
        # a weak model prior, so that the draws spread over several sizes
        state = model_posterior(data, PriorSpec(n=n, k_model=0.5,
                                                within=BATCH_PRIORS[within]))
        for u in (0.5, 1.0 / 3.0, 1e-9):  # 1e-9 takes the KL limit
            got = empirical_divergence_quantiles(truth, state, u, 50,
                                                 stream(42, n)).values
            rng = stream(42, n)
            want = np.array([d_t_squared(truth.mean,
                                         sample_posterior_density(state, rng), -u)
                             for _ in range(50)])
            assert got.tobytes() == want.tobytes()
        if (name, n) == ("triangle", 4000):
            # here the draws fall on several sizes under every prior
            assert len(_posterior_draws(state, stream(42, n), 50)) > 1

    @pytest.mark.parametrize("within", BATCH_PRIORS)
    def test_two_draws_of_one_size_score_as_two_rows(self, within):
        # a (2, m) moment table would broadcast against the (2, 2, m)
        # terms of two draws without error, mixing their bins
        truth = BATCH_TRUTHS["sparse"]
        data = simulate_data(truth, 4000, seed=(43, 0))
        state = model_posterior(data, PriorSpec(n=4000,
                                                within=BATCH_PRIORS[within]))
        (m, at, levels), = _posterior_draws(state, stream(44), 2)
        assert at.tolist() == [0, 1] and levels.shape == (2, m)
        got = empirical_divergence_quantiles(truth, state, 0.5, 2,
                                             stream(44)).values
        rng = stream(44)
        want = [d_t_squared(truth.mean, sample_posterior_density(state, rng),
                            -0.5) for _ in range(2)]
        assert got.tobytes() == np.array(want).tobytes()

    def test_validation(self):
        truth = TrueModel.constant(0.4)
        data = simulate_data(truth, 10, seed=(6, 0))
        state = model_posterior(data, PriorSpec(n=10, m_max=2))
        with pytest.raises(ValueError):
            empirical_divergence_quantiles(truth, state, 1.0, 5, stream(1))
        with pytest.raises(ValueError):
            empirical_divergence_quantiles(truth, state, 0.5, 0, stream(1))


BERN_ATOMS = [DiscreteDensity([1.0 - p, p]) for p in (0.3, 0.55, 0.8)]
BERN_MASSES = np.array([0.2, 0.5, 0.3])


class TestEnumerationOracle:
    def test_empty_event_is_trivially_bounded(self):
        res = exact_enumeration_oracle(
            DiscreteDensity([1.0 - 0.6, 0.6]), BERN_ATOMS, BERN_MASSES,
            3, [], [1], 0.5, 1.0)
        assert res.lhs == 0.0
        assert res.holds

    def test_full_event_has_unit_mass(self):
        res = exact_enumeration_oracle(
            DiscreteDensity([1.0 - 0.6, 0.6]), BERN_ATOMS, BERN_MASSES,
            3, [0, 1, 2], [1], 0.5, 1.0)
        assert res.lhs == pytest.approx(1.0, abs=1e-12)
        assert res.holds

    def test_average_posterior_mass_matches_sampling_law(self):
        # two-stage simulation: draw a dataset from the truth, then a
        # density from its posterior; the event frequency estimates the
        # enumerated average posterior mass
        res = exact_enumeration_oracle(
            DiscreteDensity([1.0 - 0.6, 0.6]), BERN_ATOMS, BERN_MASSES,
            4, [0, 2], [1], 0.5, 1.0)
        rng = stream(909, 2)
        reps = 100_000
        z = rng.random((reps, 4)) < 0.6
        s = z.sum(axis=1)
        probs = np.array([0.3, 0.55, 0.8])
        lik = probs[None, :] ** s[:, None] * (1 - probs[None, :]) ** (4 - s)[:, None]
        post = BERN_MASSES[None, :] * lik
        post /= post.sum(axis=1, keepdims=True)
        picks = (rng.random(reps)[:, None] > np.cumsum(post, axis=1)).sum(axis=1)
        freq = float(np.isin(picks, [0, 2]).mean())
        assert abs(freq - res.lhs) <= 4.0 * math.sqrt(res.lhs * (1 - res.lhs) / reps)

    def test_random_configs_respect_the_bound(self, rng):
        for _ in range(30):
            cfg = random_oracle_config(rng)
            res = exact_enumeration_oracle(**cfg)
            assert -1e-12 <= res.lhs <= 1.0 + 1e-12
            assert res.rhs >= 0.0
            assert res.holds
            assert res.lhs_power == pytest.approx(
                (res.lhs / 4.0) ** (1.0 + res.u / res.t), rel=1e-12)

    def test_config_generator_is_reproducible(self):
        a = random_oracle_config(np.random.default_rng(5150))
        b = random_oracle_config(np.random.default_rng(5150))
        assert a["n"] == b["n"] and a["u"] == b["u"] and a["t"] == b["t"]
        assert a["event"] == b["event"] and a["anchor"] == b["anchor"]
        assert np.array_equal(a["prior_masses"], b["prior_masses"])
        assert all(np.array_equal(x.mass, y.mass)
                   for x, y in zip(a["atoms"], b["atoms"]))
        assert 1 <= a["n"] <= 6 and 2 <= len(a["atoms"]) <= 4

    def test_validation(self):
        p0 = DiscreteDensity([1.0 - 0.6, 0.6])
        with pytest.raises(ValueError):
            exact_enumeration_oracle(p0, BERN_ATOMS, BERN_MASSES, 7,
                                     [0], [1], 0.5, 1.0)
        with pytest.raises(ValueError):
            exact_enumeration_oracle(p0, BERN_ATOMS, BERN_MASSES, 0,
                                     [0], [1], 0.5, 1.0)
        with pytest.raises(ValueError):
            exact_enumeration_oracle(p0, BERN_ATOMS, BERN_MASSES, 3,
                                     [0], [], 0.5, 1.0)
        with pytest.raises(ValueError):
            exact_enumeration_oracle(p0, BERN_ATOMS, BERN_MASSES, 3,
                                     [5], [1], 0.5, 1.0)
        with pytest.raises(ValueError):
            exact_enumeration_oracle(p0, BERN_ATOMS, [0.5, 0.4, 0.2], 3,
                                     [0], [1], 0.5, 1.0)
        with pytest.raises(ValueError):
            exact_enumeration_oracle(p0, BERN_ATOMS, [1.2, -0.1, -0.1], 3,
                                     [0], [1], 0.5, 1.0)
        with pytest.raises(ValueError):
            exact_enumeration_oracle(
                DiscreteDensity(np.full(4, 0.25)),
                [DiscreteDensity(np.full(4, 0.25))], [1.0], 3,
                [0], [0], 0.5, 1.0)
        with pytest.raises(ValueError, match="truth's size"):
            exact_enumeration_oracle(
                p0, [DiscreteDensity(np.full(3, 1.0 / 3.0))],
                [1.0], 3, [0], [0], 0.5, 1.0)
        with pytest.raises(ValueError):
            exact_enumeration_oracle(
                p0, [DiscreteDensity([1.0 - q, q]) for q in
                     (0.2, 0.3, 0.4, 0.5, 0.6)],
                np.full(5, 0.2), 3, [0], [1], 0.5, 1.0)
