"""End-to-end gate over the library's central numerical claims.

Each test prints one PASS/FAIL line with its measured margins directly
to the real stdout so the verdicts stay visible under output capture.
"""

import itertools
import math
import time

import numpy as np

from ratelab import (DiscreteDensity, PriorSpec, TrueModel, WithinModelPrior,
                     bound_prefactor, d_t_squared, d_t_squared_product,
                     default_delta_grid, default_m_grid,
                     exact_enumeration_oracle, kl_divergence, l1_distance,
                     log_norm_complexity_mixture, model_log_prior,
                     parse_config_text,
                     penalized_divergence_upper, penalized_value_at,
                     random_oracle_config, run_rate_study, stream)
from ratelab.models import _grid_spacing

DENSE_STUDY = """
[truth]
kind = triangle
amplitude = 0.22
peak = 0.45

[run]
n_grid = 500, 1000, 2000, 4000, 8000, 16000, 32000
draws = 50
replicates = 5
seed = 1
"""

SPARSE_STUDY = """
[truth]
kind = sparse
levels = 0.3, 0.7, 0.45

[prior]
k_model = 1

[run]
n_grid = 500, 1000, 2000, 4000, 8000, 16000, 32000
draws = 50
replicates = 5
seed = 1
"""

# the dense truth under a normal log-odds prior: framed quadrature evidence
# for the models the screen keeps, draws that invert its panels
LOGODDS_STUDY = """
[truth]
kind = triangle
amplitude = 0.22
peak = 0.45

[prior]
within = normal
scale = 1.5

[run]
n_grid = 500, 1000, 2000, 4000, 8000, 16000, 32000
draws = 50
replicates = 5
seed = 1
variants = prop3, prop7, remark8, remark10
"""


def _report(capsys, index, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"acceptance {index:02d} {verdict} {detail}", flush=True)
    assert ok, detail


def _simplex(rng, size):
    weights = rng.random(size) + 0.25
    return weights / weights.sum()


def test_01_special_case_identities_and_kl_bracketing(capsys):
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst_hellinger = 0.0
    worst_chi2 = 0.0
    bracketed = 0
    for _ in range(1000):
        k = int(rng.integers(2, 7))
        p, q = _simplex(rng, k), _simplex(rng, k)
        dp, dq = DiscreteDensity(p), DiscreteDensity(q)
        hellinger = float(np.sum((np.sqrt(p) - np.sqrt(q)) ** 2))
        chi2 = float(np.sum(p * p / q) - 1.0)
        worst_hellinger = max(worst_hellinger,
                              abs(d_t_squared(dp, dq, -0.5) - hellinger))
        worst_chi2 = max(worst_chi2, abs(d_t_squared(dp, dq, 1.0) - chi2))
        kl = kl_divergence(dp, dq)
        if d_t_squared(dp, dq, -1e-4) <= kl <= d_t_squared(dp, dq, 1e-4):
            bracketed += 1
    elapsed = time.perf_counter() - start
    ok = (worst_hellinger <= 1e-10 and worst_chi2 <= 1e-10
          and bracketed == 1000 and elapsed < 5.0)
    _report(capsys, 1, ok, f"hellinger dev {worst_hellinger:.2e}, chi2 dev "
                   f"{worst_chi2:.2e}, kl bracketed {bracketed}/1000, "
                   f"{elapsed:.2f}s")


def test_02_nondecreasing_in_the_order(capsys):
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    orders = np.linspace(-0.9, 2.0, 30)
    worst_drop = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 7))
        dp = DiscreteDensity(_simplex(rng, k))
        dq = DiscreteDensity(_simplex(rng, k))
        values = np.array([d_t_squared(dp, dq, float(t)) for t in orders])
        worst_drop = max(worst_drop, float(np.max(values[:-1] - values[1:])))
    elapsed = time.perf_counter() - start
    ok = worst_drop <= 1e-10 and elapsed < 10.0
    _report(capsys, 2, ok, f"worst drop {worst_drop:.2e} over 1000 pairs x 30 "
                   f"orders, {elapsed:.2f}s")


def test_03_product_space_closed_form(capsys):
    rng = np.random.default_rng(303)
    worst_rel = 0.0
    for k, n in itertools.product((2, 3), (1, 2, 3, 4)):
        for order in (1.0, 0.3, -0.5):
            for _ in range(3):
                p, q = _simplex(rng, k), _simplex(rng, k)
                pn = np.array([np.prod(p[list(idx)]) for idx in
                               itertools.product(range(k), repeat=n)])
                qn = np.array([np.prod(q[list(idx)]) for idx in
                               itertools.product(range(k), repeat=n)])
                direct = d_t_squared(DiscreteDensity(pn / pn.sum()),
                                     DiscreteDensity(qn / qn.sum()), order)
                closed = d_t_squared_product(DiscreteDensity(p),
                                             DiscreteDensity(q), order, n)
                worst_rel = max(worst_rel, abs(direct - closed) / abs(closed))
    ok = worst_rel <= 1e-10
    _report(capsys, 3, ok, f"worst relative gap {worst_rel:.2e} over full "
                   f"enumerations up to 3^4 outcomes")


def test_04_l1_continuity_of_negative_orders(capsys):
    rng = np.random.default_rng(404)
    violations = 0
    min_slack = math.inf
    for _ in range(1000):
        k = int(rng.integers(2, 6))
        p0, p1, p2 = (DiscreteDensity(_simplex(rng, k)) for _ in range(3))
        l1 = l1_distance(p1, p2)
        for u in (0.5, 1.0 / 3.0, 0.25):
            lhs = u * abs(d_t_squared(p0, p1, -u) - d_t_squared(p0, p2, -u))
            rhs = 2.0 * l1 ** u
            if lhs > rhs:
                violations += 1
            min_slack = min(min_slack, rhs - lhs)
    ok = violations == 0
    _report(capsys, 4, ok, f"{violations} violations over 1000 triples x 3 orders, "
                   f"min slack {min_slack:.3f}")


def test_05_posterior_mass_bound_on_enumerable_spaces(capsys):
    start = time.perf_counter()
    held = 0
    for i in range(100):
        config = random_oracle_config(stream(424242, 3, i))
        held += exact_enumeration_oracle(**config).holds
    elapsed = time.perf_counter() - start
    ok = held == 100 and elapsed < 60.0
    _report(capsys, 5, ok, f"bound held in {held}/100 random enumerable "
                   f"configurations, {elapsed:.2f}s")


def test_06_prefactor_stays_below_four(capsys):
    grid_max = max(bound_prefactor(float(u), float(t))
                   for u in np.linspace(0.05, 0.95, 19)
                   for t in np.geomspace(0.02, 10.0, 20))
    ok = grid_max <= 4.0
    _report(capsys, 6, ok, f"max prefactor {grid_max:.6f} over the 19x20 grid")


def test_07_dense_truth_contraction_rate(capsys):
    start = time.perf_counter()
    result = run_rate_study(parse_config_text(DENSE_STUDY))
    elapsed = time.perf_counter() - start
    fit = result.summary.fit
    worst_exceed = max(row.exceedance for row in result.rows)
    ok = (-0.9 <= fit.slope <= -0.45 and fit.r_squared >= 0.9
          and worst_exceed <= 0.05 and elapsed < 600.0)
    _report(capsys, 7, ok, f"slope {fit.slope:.4f}, r2 {fit.r_squared:.4f}, "
                   f"max exceedance {worst_exceed:.3f}, {elapsed:.1f}s")


def test_08_sparse_truth_near_parametric_rate(capsys):
    start = time.perf_counter()
    result = run_rate_study(parse_config_text(SPARSE_STUDY))
    elapsed = time.perf_counter() - start
    fit = result.summary.fit
    ns = np.array(result.config.n_grid, dtype=float)
    medians = np.array(result.summary.pooled_medians, dtype=float)
    scaled = ns * medians / np.log(ns)
    top = ns >= ns[-1] / 10.0
    trend = float(np.polyfit(np.log(ns[top]), np.log(scaled[top]), 1)[0])
    ok = (-1.15 <= fit.slope <= -0.75 and scaled.max() <= 5.0
          and trend <= 0.25 and elapsed < 600.0)
    _report(capsys, 8, ok, f"slope {fit.slope:.4f}, max n*median/ln n "
                   f"{scaled.max():.3f}, top-decade trend {trend:.3f}, "
                   f"{elapsed:.1f}s")


def test_09_penalized_bound_scaling_bands(capsys):
    dense = TrueModel.triangle(center=0.5, amplitude=0.22, peak=0.45)
    sparse = TrueModel.sparse([0.3, 0.7, 0.45])
    dense_ratios = []
    sparse_ratios = []
    for n in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
        m = int(math.ceil(n ** (1.0 / 3.0) - 1e-9))
        spec = PriorSpec(n=n, k_model=3.0, m_max=m)
        value = penalized_value_at(dense, spec, 1.0, n, m, 1.0 / n).value
        dense_ratios.append(value / (n ** (-2.0 / 3.0) * math.log(n)))
        spec = PriorSpec(n=n, k_model=1.0, m_max=3)
        value = penalized_value_at(sparse, spec, 1.0, n, 3, 1.0 / n).value
        sparse_ratios.append(value / (3.0 * math.log(n) / n))
    dense_band = max(dense_ratios) / min(dense_ratios)
    sparse_band = max(sparse_ratios) / min(sparse_ratios)
    ok = (min(dense_ratios) > 0 and min(sparse_ratios) > 0
          and dense_band <= 10.0 and sparse_band <= 10.0)
    _report(capsys, 9, ok, f"band ratios dense {dense_band:.3f}, sparse "
                   f"{sparse_band:.3f} across n = 1e3..1e6")


def test_10_norm_complexity_grid_analytic_and_mixture_growth(capsys):
    uniform = WithinModelPrior.uniform_box()
    worst_rel = 0.0
    u = 0.5
    for n, m in itertools.product((4, 10, 20), (1, 2, 3)):
        log_norm = m * uniform.log_cell_sum(n, u) / u
        h = _grid_spacing(n, u)
        assert abs(round(1.0 / h) - 1.0 / h) < 1e-9
        expected = h ** (m * (u - 1.0) / u)
        worst_rel = max(worst_rel, abs(math.exp(log_norm) - expected) / expected)

    gaussian = WithinModelPrior.log_odds(density="normal", scale=1.0)
    grid_bounded = True
    for n, m, uu in itertools.product((2, 3, 4), (1, 2, 3), (0.5, 1.0 / 3.0)):
        grid_bounded = grid_bounded and (
            math.exp(m * gaussian.log_cell_sum(n, uu) / uu)
            <= math.exp(m * gaussian.log_analytic_sum(n, uu) / uu) * (1 + 1e-12))

    ns = (100, 316, 1000, 3162, 10000)
    log_mixture = []
    for n in ns:
        spec = PriorSpec(n=n, k_model=10.0, m_max=5, within=uniform)
        log_norms = [m * uniform.log_cell_sum(n, u) / u for m in range(1, 6)]
        log_mixture.append(
            log_norm_complexity_mixture(model_log_prior(spec), log_norms, u))
    exponent = float(np.polyfit(np.log(ns), log_mixture, 1)[0])
    target = (1.0 - u) / u ** 2
    ok = (worst_rel <= 1e-9 and grid_bounded
          and abs(exponent - target) <= 0.1 * target)
    _report(capsys, 10, ok, f"uniform closed-form dev {worst_rel:.2e}, log-odds "
                    f"grids bounded {grid_bounded}, mixture exponent "
                    f"{exponent:.4f} vs {target}")


def _random_truth(rng, margin):
    lo, hi = margin + 0.03, 1.0 - margin - 0.03
    kind = rng.choice(["constant", "linear", "sine", "triangle", "sparse"])
    if kind == "constant":
        return TrueModel.constant(float(rng.uniform(lo, hi)), margin=margin)
    if kind == "linear":
        a, b = rng.uniform(lo, hi, size=2)
        return TrueModel.linear(float(a), float(b - a), margin=margin)
    if kind == "sine":
        amplitude = float(rng.uniform(0.02, (hi - lo) * 0.45))
        return TrueModel.sine(0.5 * (lo + hi), amplitude, margin=margin)
    if kind == "triangle":
        amplitude = float(rng.uniform(0.02, (hi - lo) * 0.45))
        return TrueModel.triangle(0.5 * (lo + hi), amplitude,
                                  float(rng.uniform(0.2, 0.8)), margin=margin)
    levels = rng.uniform(lo, hi, size=int(rng.integers(1, 4)))
    return TrueModel.sparse(levels, margin=margin)


def _random_within(rng):
    kind = str(rng.choice(["uniform", "normal", "laplace"]))
    if kind == "uniform":
        return WithinModelPrior.uniform_box()
    return WithinModelPrior.log_odds(density=kind,
                                     scale=float(rng.uniform(0.5, 2.0)))


def test_11_mixture_bound_no_worse_than_single_model_candidates(capsys):
    rng = np.random.default_rng(2024081911)
    worst_gap = -math.inf
    for i in range(50):
        margin = float(rng.uniform(0.12, 0.3))
        truth = _random_truth(rng, margin)
        # non-unit orders use the slower numeric box supremum, so they
        # are exercised only on piecewise-constant truths
        order = 1.0
        if i % 2 and truth.kind == "sparse":
            order = float(rng.choice([0.5, 2.0]))
        n = int(rng.integers(50, 5001))
        spec = PriorSpec(n=n, k_model=float(rng.uniform(0.5, 4.0)),
                         m_max=int(rng.integers(3, 9)),
                         within=_random_within(rng))
        mixture = penalized_divergence_upper(truth, spec, order, n).value
        log_prior = model_log_prior(spec)
        best_single = math.inf
        for m in default_m_grid(truth, spec, n):
            per_model = math.inf
            for delta in default_delta_grid(truth, n):
                mean_delta = spec.within.mean_half_width(delta)
                if not 0.0 < mean_delta < truth.margin:
                    continue
                result = penalized_value_at(truth, spec, order, n, m, delta)
                per_model = min(per_model,
                                result.approx_term + result.box_term)
            best_single = min(best_single,
                              per_model - float(log_prior[m - 1]) / n)
        worst_gap = max(worst_gap, mixture - best_single)
    ok = worst_gap <= 1e-12
    _report(capsys, 11, ok, f"worst mixture minus best single-model candidate "
                    f"{worst_gap:.2e} over 50 random configurations")


def test_12_normal_prior_contraction_rate(capsys):
    # the bands of the dense check, under the normal(1.5) log-odds prior
    start = time.perf_counter()
    result = run_rate_study(parse_config_text(LOGODDS_STUDY))
    elapsed = time.perf_counter() - start
    fit = result.summary.fit
    worst_exceed = max(row.exceedance for row in result.rows)
    ok = (-0.9 <= fit.slope <= -0.45 and fit.r_squared >= 0.9
          and worst_exceed <= 0.05 and elapsed < 600.0)
    _report(capsys, 12, ok, f"slope {fit.slope:.4f}, r2 {fit.r_squared:.4f}, "
                    f"max exceedance {worst_exceed:.3f}, {elapsed:.1f}s")
