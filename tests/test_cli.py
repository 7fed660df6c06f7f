"""Exit codes, output schemas, and determinism of the CLI."""

import math
import shutil
import signal
import subprocess
import warnings

import numpy as np
import pytest

import ratelab.cli as cli
import ratelab.models as models
import ratelab.study as study
from ratelab import QuadratureError, load_config, variant_bounds_for_n
from ratelab.models import NormalPrior, UniformPrior

CONFIG = """
[truth]
kind = constant
level = 0.4

[prior]
m_max = 3

[run]
n_grid = 50, 100, 200
draws = 4
seed = 9
"""


# uniform within prior up to n = 4000, where per-model grid cell counts
# to the power m once overflowed a float
UNIFORM_TRIANGLE = """
[truth]
kind = triangle
amplitude = 0.22
peak = 0.45

[prior]
within = uniform

[run]
n_grid = 500, 4000
variants = prop3, prop7, remark8, remark10
"""


# a log-odds prior whose per-coordinate grid sums are exact at both n,
# about a million cells per side at n = 500
NORMAL_TRIANGLE = """
[truth]
kind = triangle
amplitude = 0.22
peak = 0.45

[prior]
within = normal
scale = 1.5

[run]
n_grid = 500, 1000
"""


# the complete example config of the README
README_TRIANGLE = """
[truth]
kind = triangle
amplitude = 0.22
peak = 0.45

[prior]
within = uniform
k_model = 3

[run]
n_grid = 500, 1000, 2000, 4000, 8000, 16000, 32000
draws = 50
replicates = 5
seed = 1
variants = prop7

[output]
csv = rates.csv
"""


# a prior so wide that a one-success bin cannot be certified
WIDE_LAPLACE = """
[truth]
kind = triangle
amplitude = 0.22
peak = 0.45

[prior]
within = laplace
scale = 3000

[run]
n_grid = 2, 3, 4
replicates = 2
draws = 5
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "study.cfg"
    path.write_text(CONFIG, encoding="utf-8")
    return str(path)


@pytest.fixture()
def triangle_path(tmp_path):
    path = tmp_path / "triangle.cfg"
    path.write_text(UNIFORM_TRIANGLE, encoding="utf-8")
    return str(path)


def _run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDivergence:
    def test_chi_square_row(self, capsys):
        code, out, _ = _run(["divergence", "--p", "0.3,0.7",
                             "--q", "0.5,0.5", "--t", "1"], capsys)
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "t,d_t2"
        t_val, d_val = lines[1].split(",")
        assert float(t_val) == 1.0
        assert float(d_val) == pytest.approx(0.16, rel=1e-12)

    def test_multiple_orders(self, capsys):
        code, out, _ = _run(["divergence", "--p", "0.3,0.7",
                             "--q", "0.5,0.5", "--t=-0.5,1,2"], capsys)
        assert code == 0
        assert len(out.splitlines()) == 4

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "d.csv"
        code, out, _ = _run(["divergence", "--p", "0.3,0.7", "--q", "0.5,0.5",
                             "--out", str(target)], capsys)
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8").startswith("t,d_t2\n")

    @pytest.mark.parametrize("argv", [
        ["divergence", "--p", "0.3,0.7", "--q", "0.5"],
        ["divergence", "--p", "0.3,0.6", "--q", "0.5,0.5"],
        ["divergence", "--p", "0.3,0.7", "--q", "0.5,0.5", "--t", "abc"],
        ["divergence", "--p", "0.3,0.7", "--q", "0.5,0.5", "--bogus"],
    ])
    def test_invalid_inputs_exit_one(self, argv, capsys):
        code, _, err = _run(argv, capsys)
        assert code == 1
        assert "error" in err


class TestBound:
    def test_breakdown_rows(self, config_path, capsys):
        code, out, _ = _run(["bound", "--config", config_path], capsys)
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == ("variant,u,t,n,m,delta,approx_term,box_term,"
                            "model_term,penalized_div,complexity_term,"
                            "epsilon_n,log_richness")
        assert len(lines) == 4
        assert all(line.startswith("prop7,") for line in lines[1:])

    def test_variant_restriction(self, config_path, capsys):
        code, out, _ = _run(["bound", "--config", config_path,
                             "--variant", "remark8"], capsys)
        assert code == 0
        assert all(line.startswith("remark8,")
                   for line in out.splitlines()[1:])

    def test_norm_variants_finite_at_large_n(self, triangle_path, capsys):
        code, out, err = _run(["bound", "--config", triangle_path,
                               "--variant", "remark8"], capsys)
        assert code == 0, err
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [row[3] for row in rows] == ["500", "4000"]
        assert all(math.isfinite(float(row[11])) for row in rows)

    def test_penalized_bound_computed_once_per_n(self, triangle_path,
                                                 monkeypatch, capsys):
        calls = []
        original = study.penalized_divergence_upper

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(study, "penalized_divergence_upper", counted)
        code, out, _ = _run(["bound", "--config", triangle_path], capsys)
        assert code == 0
        assert len(calls) == 2
        monkeypatch.undo()
        config = load_config(triangle_path)
        expected = []
        for n in config.n_grid:
            for vb in variant_bounds_for_n(config, n):
                pen = vb.penalized
                expected.append([str(pen.m)] + [repr(float(v)) for v in (
                    pen.delta, pen.approx_term, pen.box_term,
                    pen.model_term, pen.value)])
        got = [[row[4]] + [repr(float(v)) for v in row[5:10]]
               for row in (line.split(",") for line in out.splitlines()[1:])]
        assert got == expected

    def test_underflowing_box_mass_exits_two(self, tmp_path, monkeypatch, capsys):
        # the triangle's first bin sits at log odds -0.944, 47 prior scales
        # out, where the float normal tail is 0; the log tail carries its
        # mass, so it is cut here where the float tail turns subnormal
        log_tail = NormalPrior.log_tail
        monkeypatch.setattr(NormalPrior, "log_tail", lambda self, w: np.where(
            np.asarray(w) / self.scale > 37.5, -np.inf, log_tail(self, w)))
        path = tmp_path / "narrow.cfg"
        path.write_text(NORMAL_TRIANGLE.replace("scale = 1.5", "scale = 0.02"),
                        encoding="utf-8")
        code, out, err = _run(["bound", "--config", str(path)], capsys)
        assert code == 2 and out == ""
        assert err == ("numerical failure: n=500, prior mass of bin 1's "
                       "log-odds box [-0.946462, -0.942462] underflows float64 "
                       "at m=1, delta=0.002 (normal prior, scale=0.02)\n")

    def test_tiny_u_runs_or_names_its_cell(self, tmp_path, capsys):
        # at u = 1e-8 the cover counts are (2000^(10^8))^m and the norm
        # variants' cell width 4 n^(-1/u) underflows: both logs come without
        # the integer; the alarm cannot interrupt a running integer power,
        # so a regression hangs rather than fails
        path = tmp_path / "tiny_u.cfg"
        path.write_text(UNIFORM_TRIANGLE.replace("n_grid = 500, 4000",
                                                 "n_grid = 500, 2000\nu = 1e-8"),
                        encoding="utf-8")

        def timeout(signum, frame):
            raise TimeoutError("bound took more than 5 s")

        previous = signal.signal(signal.SIGALRM, timeout)
        try:
            for variant in ("prop3", "prop7", "remark10"):
                signal.alarm(5)
                code, out, err = _run(["bound", "--config", str(path),
                                       "--variant", variant], capsys)
                signal.alarm(0)
                assert code == 0, err
                rows = [line.split(",") for line in out.splitlines()[1:]]
                assert [row[3] for row in rows] == ["500", "2000"]
                assert all(math.isfinite(float(row[11])) for row in rows)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_unknown_variant_exits_one(self, config_path, capsys):
        code, _, err = _run(["bound", "--config", config_path,
                             "--variant", "prop9"], capsys)
        assert code == 1 and "invalid choice" in err

    def test_missing_config_flag(self, capsys):
        code, _, err = _run(["bound"], capsys)
        assert code == 1 and "requires --config" in err

    def test_missing_config_file(self, capsys):
        code, _, err = _run(["bound", "--config", "/absent.cfg"], capsys)
        assert code == 1 and "cannot read config" in err


class TestComplexity:
    def test_rows_and_grid_vs_analytic(self, config_path, capsys):
        code, out, _ = _run(["complexity", "--config", config_path], capsys)
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == ("m,u,n,log_grid_sum,log_analytic_bound,"
                            "log_mixture_total")
        assert len(lines) == 1 + 3 * 3
        for line in lines[1:]:
            _, _, _, log_grid, log_analytic, _ = line.split(",")
            assert float(log_grid) <= float(log_analytic) + 1e-12

    def test_uniform_prior_finite_at_large_n(self, triangle_path, capsys):
        code, out, err = _run(["complexity", "--config", triangle_path],
                              capsys)
        assert code == 0, err
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert {row[2] for row in rows} == {"500", "4000"}
        assert all(math.isfinite(float(row[5])) for row in rows)

    def test_log_odds_cell_sum_computed_once_per_n(self, tmp_path, monkeypatch,
                                                   capsys):
        path = tmp_path / "normal.cfg"
        path.write_text(NORMAL_TRIANGLE, encoding="utf-8")
        calls = []
        log_cell_sum = NormalPrior.log_cell_sum

        def counted(within, n, u):
            calls.append(n)
            return log_cell_sum(within, n, u)

        monkeypatch.setattr(NormalPrior, "log_cell_sum", counted)
        code, out, err = _run(["complexity", "--config", str(path)], capsys)
        assert code == 0, err
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 23 + 32
        assert calls == [500, 1000]
        # the m = 1 rows against the sum called afresh, ln S^(1/u)
        within = load_config(str(path)).prior_for(500).within
        for row in (rows[0], rows[23]):
            n = int(row[2])
            assert float(row[3]) == pytest.approx(2.0 * log_cell_sum(within, n, 0.5),
                                                  rel=1e-12)

    def test_readme_config_prints_no_inf(self, tmp_path, capsys):
        # S^(m/u) leaves the float range from n = 8000 on; its log does not
        path = tmp_path / "readme.cfg"
        path.write_text(README_TRIANGLE, encoding="utf-8")
        code, out, err = _run(["complexity", "--config", str(path)], capsys)
        assert code == 0, err
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == sum(math.ceil(math.sqrt(n)) for n in
                                (500, 1000, 2000, 4000, 8000, 16000, 32000))
        assert not any(math.isinf(float(field)) for row in rows for field in row)

    def test_subnormal_scale_exits_one(self, tmp_path, capsys):
        # the peak 1/(2b) of a subnormal Laplace scale overflows to inf
        path = tmp_path / "subnormal.cfg"
        path.write_text(WIDE_LAPLACE.replace("3000", "1e-310"), encoding="utf-8")
        code, out, err = _run(["complexity", "--config", str(path)], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: line 9: scale must be positive")
        assert "not subnormal: 1e-310" in err

    def test_deterministic(self, config_path, capsys):
        first = _run(["complexity", "--config", config_path], capsys)[1]
        second = _run(["complexity", "--config", config_path], capsys)[1]
        assert first == second


class TestSimulate:
    def test_schema_and_row_count(self, config_path, capsys):
        code, out, _ = _run(["simulate", "--config", config_path], capsys)
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "# ratelab simulate schema v1"
        assert lines[1] == "n,replicate,draw,d2"
        assert len(lines) == 2 + 3 * 4
        n, rep, draw, d2 = lines[2].split(",")
        assert (n, rep, draw) == ("50", "0", "0")
        assert float(d2) >= 0.0

    def test_seed_override_changes_draws(self, config_path, capsys):
        base = _run(["simulate", "--config", config_path], capsys)[1]
        same = _run(["simulate", "--config", config_path, "--seed", "9"],
                    capsys)[1]
        other = _run(["simulate", "--config", config_path, "--seed", "10"],
                     capsys)[1]
        assert base == same
        assert base != other


    def test_uncertified_bin_names_its_cell(self, tmp_path, capsys):
        # under a Laplace prior of scale 3000 a bin with one success has
        # mass beyond the span the evidence certifies; at n = 2 the model
        # of two bins carries weight and holds such a bin
        path = tmp_path / "wide.cfg"
        path.write_text(WIDE_LAPLACE, encoding="utf-8")
        for command in ("simulate", "rate-study"):
            code, _, err = _run([command, "--config", str(path),
                                 "--out", str(tmp_path / "out.csv")], capsys)
            assert code == 2
            assert err == ("numerical failure: n=2, replicate=0, model size m=2, "
                           "bin 1: log-odds evidence of the bin with 1 successes "
                           "and 0 failures missed tolerance 1e-10\n")

    def test_vanishing_evidence_names_its_cell(self, tmp_path, capsys):
        # under a Laplace prior of scale 1e-10 every panel mass of a nonempty
        # bin is 0, which once passed as certified and left NaN weights
        path = tmp_path / "narrow.cfg"
        path.write_text(WIDE_LAPLACE.replace("scale = 3000", "scale = 1e-10")
                        .replace("n_grid = 2, 3, 4", "n_grid = 2"), encoding="utf-8")
        code, _, err = _run(["simulate", "--config", str(path)], capsys)
        assert code == 2
        assert err == ("numerical failure: n=2, replicate=0, model size m=1, bin 1: "
                       "log-odds evidence of the bin with 1 successes and 1 failures "
                       "missed tolerance 1e-10\n")

    def test_overflowing_evidence_fails_without_warnings(self, tmp_path, capsys):
        # under a normal prior of scale 1e-30 the framed density and the tail
        # bound overflow; the +inf mass fails certification, and only the
        # error that names the cell is printed
        path = tmp_path / "narrow.cfg"
        path.write_text(WIDE_LAPLACE.replace("laplace\nscale = 3000", "normal\nscale = 1e-30")
                        .replace("n_grid = 2, 3, 4", "n_grid = 2"), encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = _run(["simulate", "--config", str(path)], capsys)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert code == 2
        assert err.startswith("numerical failure: n=2, replicate=0, model size m=1, bin 1: ")

    def test_nan_weights_name_their_cell(self, config_path, monkeypatch, capsys):
        # a NaN evidence makes NaN weights, whose sum fails the normalization check
        monkeypatch.setattr(UniformPrior, "bin_log_evidence",
                            lambda self, s, f: np.full(s.shape, np.nan))
        code, _, err = _run(["simulate", "--config", config_path], capsys)
        assert code == 2
        assert err == ("numerical failure: n=50, replicate=0, "
                       "posterior weights failed to normalize\n")

    def test_unsolved_quantile_names_its_cell(self, tmp_path, monkeypatch, capsys):
        # one Newton step leaves a draw's bin quantile short of 1e-12
        path = tmp_path / "laplace.cfg"
        path.write_text(WIDE_LAPLACE.replace("scale = 3000", "scale = 0.7\nk_model = 0.5")
                        .replace("n_grid = 2, 3, 4", "n_grid = 4000"), encoding="utf-8")
        monkeypatch.setattr(models, "_NEWTON_STEPS", 1)
        code, _, err = _run(["simulate", "--config", str(path)], capsys)
        assert code == 2
        assert err == ("numerical failure: n=4000, replicate=0, model size m=5, bin 1: "
                       "log-odds quantile missed tolerance 1e-12 in 1 Newton steps\n")

    def test_bounds_failure_names_n_and_m(self, tmp_path, monkeypatch, capsys):
        # the per-coordinate sum at n = 500 fails by force: the analytic one
        # in the mixture that `bound` and `complexity` read, then the grid
        # one of `complexity`'s rows; every model reads the same sum, so the
        # failure names n and no m
        def failing_at_500(log_sum):
            def patched(within, n, u):
                if n == 500:
                    raise ZeroDivisionError("float division by zero")
                return log_sum(within, n, u)
            return patched

        path = tmp_path / "uniform.cfg"
        path.write_text(UNIFORM_TRIANGLE, encoding="utf-8")
        message = "numerical failure: n=500, float division by zero\n"
        with monkeypatch.context() as patch:
            patch.setattr(UniformPrior, "log_analytic_sum",
                          failing_at_500(UniformPrior.log_analytic_sum))
            for command in ("bound", "complexity"):
                assert _run([command, "--config", str(path)], capsys) == (2, "", message)
        monkeypatch.setattr(UniformPrior, "log_cell_sum",
                            failing_at_500(UniformPrior.log_cell_sum))
        assert _run(["complexity", "--config", str(path)], capsys) == (2, "", message)


class TestVerifyProp2:
    def test_all_configs_hold(self, capsys):
        code, out, err = _run(["verify-prop2", "--count", "5", "--seed", "0"],
                              capsys)
        lines = out.splitlines()
        assert code == 0 and err == ""
        assert lines[0] == "config,n,u,t,lhs,lhs_power,rhs,holds"
        assert len(lines) == 6
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields[0]) == 12
            assert int(fields[1]) in range(1, 7)
            assert fields[-1] == "true"

    def test_default_seed_is_zero(self, capsys):
        explicit = _run(["verify-prop2", "--count", "3", "--seed", "0"],
                        capsys)[1]
        default = _run(["verify-prop2", "--count", "3"], capsys)[1]
        assert explicit == default

    def test_bad_arguments(self, capsys):
        assert _run(["verify-prop2", "--count", "0"], capsys)[0] == 1
        assert _run(["verify-prop2", "--seed", "-4"], capsys)[0] == 1


class TestRateStudy:
    def test_full_run(self, config_path, tmp_path, capsys):
        csv = tmp_path / "out.csv"
        code, out, _ = _run(["rate-study", "--config", config_path,
                             "--out", str(csv)], capsys)
        assert code == 0
        assert f"csv: {csv}" in out
        assert "rows: 3" in out
        assert "slope: " in out and "r2: " in out
        assert "exceedance[prop7]: " in out and "(n >= 50)" in out
        text = csv.read_text(encoding="utf-8")
        assert text.startswith("# ratelab rate-study schema v1\n")
        assert len(text.splitlines()) == 2 + 3

    def test_plot_flag_writes_svgs(self, config_path, tmp_path, capsys):
        csv = tmp_path / "fig.csv"
        code, out, _ = _run(["rate-study", "--config", config_path,
                             "--out", str(csv), "--plot"], capsys)
        assert code == 0
        assert "plots: " in out
        assert (tmp_path / "fig_rates.svg").exists()
        assert (tmp_path / "fig_exceedance.svg").exists()

    def test_numerical_failure_exits_two(self, config_path, monkeypatch,
                                         capsys):
        def boom(config):
            raise QuadratureError("tolerance missed")

        monkeypatch.setattr(cli, "run_rate_study", boom)
        code, _, err = _run(["rate-study", "--config", config_path], capsys)
        assert code == 2
        assert "numerical failure" in err


@pytest.mark.parametrize("command", ["bound", "rate-study"])
def test_unwritable_output_exits_one(command, config_path, tmp_path, capsys):
    out = tmp_path / "missing" / "b.txt"
    code, _, err = _run([command, "--config", config_path, "--out", str(out)], capsys)
    assert code == 1
    assert err == f"error: [Errno 2] No such file or directory: '{out}'\n"


def test_no_arguments_exits_one(capsys):
    code, _, err = _run([], capsys)
    assert code == 1 and "error" in err


def test_console_script_is_installed():
    exe = shutil.which("ratelab")
    assert exe is not None
    proc = subprocess.run([exe, "divergence", "--p", "0.3,0.7",
                           "--q", "0.5,0.5"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("t,d_t2")
