"""Config parsing, defaults, and line-numbered diagnostics."""

import pytest

import ratelab.cli as cli
from ratelab import (ConfigError, WithinModelPrior, load_config,
                     parse_config_text)

MINIMAL = """
[truth]
kind = constant
level = 0.4

[run]
n_grid = 10, 20, 40
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config_text(MINIMAL)
    assert cfg.truth.kind == "smooth"
    assert cfg.truth.margin == 0.25
    assert cfg.within == WithinModelPrior.uniform_box()
    assert cfg.k_model == 3.0
    assert cfg.m_max == 0
    assert cfg.n_grid == (10, 20, 40)
    assert cfg.draws == 50
    assert cfg.replicates == 1
    assert cfg.u == 0.5
    assert cfg.t == 1.0
    assert cfg.seed == 17
    assert cfg.variants == ("prop7",)
    assert cfg.burn_in == 0
    assert cfg.csv_path == "rate_study.csv"
    assert cfg.plot is False


def test_full_config_round_trip():
    cfg = parse_config_text("""
# study description
; alt comment style
[truth]
kind = sparse
levels = 0.3, 0.7, 0.45
margin = 0.2

[prior]
within = normal
scale = 0.8
k_model = 1.5
m_max = 12

[run]
n_grid = 100, 200
draws = 9
replicates = 2
u = 0.34
t = 2.0
seed = 99
variants = prop3, prop7, prop3
burn_in = 1
workers = 2

[output]
csv = out.csv
plot = yes
""")
    assert cfg.truth.kind == "sparse"
    assert cfg.truth.m0 == 3
    assert cfg.truth.margin == 0.2
    assert cfg.within == WithinModelPrior.log_odds("normal", 0.8)
    assert cfg.k_model == 1.5
    assert cfg.m_max == 12
    assert cfg.u == pytest.approx(1.0 / 3.0)
    assert cfg.t == 2.0
    assert cfg.seed == 99
    assert cfg.variants == ("prop3", "prop7")
    assert cfg.burn_in == 1
    assert not hasattr(cfg, "workers")  # the workers = 2 line is read and dropped
    assert cfg.csv_path == "out.csv"
    assert cfg.plot is True


def test_u_is_floored_to_a_unit_fraction():
    cfg = parse_config_text(MINIMAL + "\nu = 0.4\n")
    assert cfg.u == pytest.approx(1.0 / 3.0)


def test_prior_for_auto_sizes_the_model_list():
    cfg = parse_config_text(MINIMAL)
    assert cfg.prior_for(100).m_max == 10
    explicit = parse_config_text(MINIMAL + "\n[prior]\nm_max = 7\n")
    assert explicit.prior_for(100).m_max == 7


def test_with_overrides_replaces_only_named_fields():
    cfg = parse_config_text(MINIMAL)
    out = cfg.with_overrides(seed=5, csv_path="x.csv", plot=True)
    assert (out.seed, out.csv_path, out.plot) == (5, "x.csv", True)
    assert out.n_grid == cfg.n_grid and out.u == cfg.u
    assert (cfg.seed, cfg.csv_path, cfg.plot) == (17, "rate_study.csv", False)
    assert cfg.with_overrides() == cfg


def _error(text):
    with pytest.raises(ConfigError) as info:
        parse_config_text(text)
    return info.value


def test_unknown_section_is_rejected_with_line():
    err = _error("[bogus]\nx = 1\n")
    assert err.line == 1
    assert "unknown section" in str(err)


def test_unknown_key_is_rejected_with_line():
    err = _error("[truth]\nkind = constant\nlevel = 0.4\namplitude = 0.3\n"
                 "\n[run]\nn_grid = 10, 20\n")
    assert err.line == 4
    assert "unknown key 'amplitude' in [truth]" in str(err)


def test_duplicate_section_is_rejected():
    err = _error("[truth]\nkind = constant\nlevel = 0.4\n[truth]\n")
    assert err.line == 4
    assert "duplicate section" in str(err)


def test_duplicate_key_is_rejected():
    err = _error("[truth]\nkind = constant\nkind = sparse\n")
    assert err.line == 3
    assert "duplicate key 'kind'" in str(err)


def test_key_outside_section_is_rejected():
    err = _error("kind = constant\n")
    assert err.line == 1
    assert "outside any [section]" in str(err)


def test_line_without_assignment_is_rejected():
    err = _error("[truth]\nkind constant\n")
    assert err.line == 2
    assert "expected 'key = value'" in str(err)


def test_empty_key_is_rejected():
    err = _error("[truth]\n= 0.4\n")
    assert err.line == 2
    assert "empty key" in str(err)


def test_missing_required_keys():
    assert "missing required key 'kind'" in str(_error("[run]\nn_grid = 10, 20\n"))
    assert "missing required key 'n_grid'" in str(
        _error("[truth]\nkind = constant\nlevel = 0.4\n"))


@pytest.mark.parametrize("snippet,fragment", [
    ("draws = 2.5", "'draws' expects an integer"),
    ("draws = 0", "draws must be >= 1"),
    ("replicates = 0", "replicates must be >= 1"),
    ("u = 1.2", "u must lie in (0, 1)"),
    ("u = abc", "'u' expects a number"),
    ("t = 0", "t must be positive"),
    ("t = nan", "t must be positive"),
    ("t = inf", "t must be positive"),
    ("seed = -1", "seed must be >= 0"),
    ("variants = prop3, prop9", "variant must be one of"),
    ("burn_in = 5", "burn_in must index into n_grid"),
    ("workers = -2", "workers must be >= 0"),
])
def test_run_section_validation(snippet, fragment):
    err = _error(MINIMAL + "\n" + snippet + "\n")
    assert fragment in str(err)
    assert err.line == 9


@pytest.mark.parametrize("grid,fragment", [
    ("1, 5", "entries must be >= 2"),
    ("10, 10", "strictly increasing"),
    ("40, 20", "strictly increasing"),
    ("10,,20", "comma-separated integer list"),
    ("10, abc", "comma-separated integer list"),
])
def test_n_grid_validation(grid, fragment):
    text = f"[truth]\nkind = constant\nlevel = 0.4\n\n[run]\nn_grid = {grid}\n"
    err = _error(text)
    assert fragment in str(err)
    assert err.line == 6


def test_truth_validation():
    base = "\n[run]\nn_grid = 10, 20\n"
    assert "kind must be" in str(_error("[truth]\nkind = wiggle" + base))
    assert "margin must lie in (0, 0.5)" in str(
        _error("[truth]\nkind = constant\nlevel = 0.4\nmargin = 0.6" + base))
    assert "peak must lie in (0, 1)" in str(
        _error("[truth]\nkind = triangle\npeak = 1.5" + base))
    # the levels give m0; a config that sets it is refused with its line
    err = _error("[truth]\nkind = sparse\nlevels = 0.3, 0.7, 0.45\nm0 = 3" + base)
    assert "unknown key 'm0' in [truth]" in str(err)
    assert err.line == 4
    assert "inside (margin, 1 - margin)" in str(
        _error("[truth]\nkind = sparse\nlevels = 0.2, 0.7, 0.45" + base))
    assert "d_bound applies only to smooth" in str(
        _error("[truth]\nkind = sparse\nlevels = 0.3, 0.7, 0.45\nd_bound = 1.0"
               + base))


def test_d_bound_override_on_smooth_truth():
    base = "\n[run]\nn_grid = 10, 20\n"
    cfg = parse_config_text(
        "[truth]\nkind = sine\namplitude = 0.1\nd_bound = 2.0" + base)
    assert cfg.truth.d_bound == 2.0
    # 0.1 amplitude sine has slope up to 0.2*pi, so 0.1 understates it
    err = _error("[truth]\nkind = sine\namplitude = 0.1\nd_bound = 0.1" + base)
    assert "exceeds declared bound" in str(err)
    assert err.line == 4
    # the override keeps the triangle's declared kink
    cfg = parse_config_text(
        "[truth]\nkind = triangle\npeak = 0.45\nd_bound = 3.0" + base)
    assert cfg.truth.d_bound == 3.0
    assert cfg.truth.mean.breakpoints == (0.45,)


def test_prior_section_validation(tmp_path):
    head = "[truth]\nkind = constant\nlevel = 0.4\n\n[prior]\n"
    tail = "\n[run]\nn_grid = 10, 20\n"
    assert "scale requires a log-odds prior" in str(
        _error(head + "scale = 0.5" + tail))
    assert "within must be uniform|normal|laplace" in str(
        _error(head + "within = cauchy" + tail))
    assert "scale must be positive" in str(
        _error(head + "within = normal\nscale = -1" + tail))
    # a scale that is not a finite positive number, or a normal one whose
    # square overflows float64 or falls below the normal floats, names its
    # own line, 6, and the CLI exits with the validation code 1
    for scale, within, fragment in (("nan", "laplace", "scale must be positive"),
                                    ("inf", "laplace", "scale must be positive"),
                                    ("1e200", "normal", "scale must be at most"),
                                    ("1e-200", "normal", "scale must be at least")):
        text = head + f"scale = {scale}\nwithin = {within}" + tail
        err = _error(text)
        assert err.line == 6 and fragment in str(err)
        path = tmp_path / f"{scale}.cfg"
        path.write_text(text, encoding="utf-8")
        assert cli.main(["bound", "--config", str(path)]) == 1
    assert "k_model must be positive" in str(
        _error(head + "k_model = 0" + tail))
    assert "m_max must be >= 0" in str(_error(head + "m_max = -1" + tail))


def test_m_max_must_reach_the_step_count():
    err = _error("[truth]\nkind = sparse\nlevels = 0.3, 0.7, 0.45\n"
                 "\n[prior]\nm_max = 2\n\n[run]\nn_grid = 10, 20\n")
    assert "cannot reach the sparse truth's m0 = 3" in str(err)
    assert err.line == 6


RUN = "\n[run]\nn_grid = 10, 20\n"


@pytest.mark.parametrize("text,line,fragment", [
    # non-finite numbers ([run] t is a case of test_run_section_validation):
    # the key's line, or the kind line of a smooth truth
    (MINIMAL + "\n[prior]\nk_model = nan\n", 10, "k_model must be positive"),
    (MINIMAL + "\n[prior]\nk_model = inf\n", 10, "k_model must be positive"),
    ("[truth]\nkind = sine\namplitude = nan" + RUN, 2, "mean leaves"),
    ("[truth]\nkind = triangle\ncenter = nan" + RUN, 2, "mean leaves"),
    ("[truth]\nkind = constant\nlevel = nan" + RUN, 2, "mean leaves"),
    ("[truth]\nkind = linear\nintercept = 0.4\nslope = nan" + RUN, 2, "mean leaves"),
    ("[truth]\nkind = sine\nd_bound = nan" + RUN, 3, "derivative bound"),
    ("[truth]\nkind = sine\nd_bound = inf" + RUN, 3, "derivative bound"),
    ("[truth]\nkind = sparse\nlevels = 0.3, nan" + RUN, 3, "inside (margin, 1 - margin)"),
    # a smooth truth's own refusals name its kind line
    ("[truth]\nkind = constant\nlevel = 0.9" + RUN, 2, "mean leaves"),
    ("[truth]\nkind = sine\namplitude = 0.5" + RUN, 2, "mean leaves"),
    ("[truth]\nmargin = 0.2\nkind = triangle\ncenter = 0.9" + RUN, 3, "mean leaves"),
], ids=["k_model_nan", "k_model_inf", "amplitude_nan",
        "center_nan", "level_nan", "slope_nan", "d_bound_nan", "d_bound_inf",
        "levels_nan", "constant_0.9", "sine_0.5", "triangle_0.9"])
def test_refusals_name_their_line(text, line, fragment):
    err = _error(text)
    assert fragment in str(err)
    assert err.line == line


def test_cli_refusal_names_its_line(tmp_path, capsys):
    path = tmp_path / "study.cfg"
    path.write_text(MINIMAL + "\nt = inf\n", encoding="utf-8")
    assert cli.main(["bound", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: line 9: t must be positive")


def test_output_section_validation():
    assert "'plot' expects true/false" in str(
        _error(MINIMAL + "\n[output]\nplot = maybe\n"))


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "study.cfg"
    path.write_text(MINIMAL, encoding="utf-8")
    assert load_config(str(path)).n_grid == (10, 20, 40)
    with pytest.raises(ConfigError) as info:
        load_config(str(tmp_path / "absent.cfg"))
    assert "cannot read config" in str(info.value)
