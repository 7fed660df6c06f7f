"""Config smoke test: every truth kind × within prior runs end to end."""

import importlib.util
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import ratelab
import ratelab.cli as cli
from ratelab import VARIANTS, parse_config_text, run_rate_study

TRUTHS = {
    "sine": "kind = sine",
    "triangle": "kind = triangle\npeak = 0.45",
    "linear": "kind = linear\nintercept = 0.35\nslope = 0.3",
    "constant": "kind = constant\nlevel = 0.4",
    "sparse": "kind = sparse\nlevels = 0.3, 0.7, 0.45",
}

WITHINS = ("uniform", "normal", "laplace")

# (within, scale): each prior at its default scale, then the log-odds
# priors far narrower and far wider than the truths' log-odds range
PRIORS = [pytest.param(within, None, id=within) for within in WITHINS] + [
    pytest.param(within, scale, id=f"{within}-{scale:g}")
    for within in ("normal", "laplace") for scale in (0.1, 100.0)]


def _config_text(truth: str, within: str, scale=None) -> str:
    scale_line = "" if scale is None else f"\nscale = {scale}"
    return f"""
[truth]
{TRUTHS[truth]}

[prior]
within = {within}{scale_line}

[run]
n_grid = 20, 40
draws = 3
variants = {", ".join(VARIANTS)}
"""


@pytest.mark.parametrize("within,scale", PRIORS)
@pytest.mark.parametrize("truth", sorted(TRUTHS))
def test_config_runs_end_to_end(truth, within, scale, tmp_path, capsys):
    text = _config_text(truth, within, scale)
    result = run_rate_study(parse_config_text(text))
    assert len(result.rows) == 2 * len(VARIANTS)
    for row in result.rows:
        values = (row.epsilon_n, row.d2_min, row.d2_median, row.d2_q95,
                  row.d2_max)
        assert all(math.isfinite(v) for v in values), row

    path = tmp_path / "smoke.cfg"
    path.write_text(text, encoding="utf-8")
    for command in ("bound", "complexity"):
        code = cli.main([command, "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 0, (command, err)


LARGE_N_TEXT = """
[truth]
kind = triangle
amplitude = 0.22
peak = 0.45

[prior]
within = {within}
scale = {scale}

[run]
n_grid = 32000
draws = 3
replicates = 1
"""


@pytest.mark.parametrize("within,scale", [("normal", 1.5), ("laplace", 1)])
def test_log_odds_simulate_at_largest_n(within, scale, tmp_path, capsys):
    # the README's largest n: the evidence of every bin must certify
    path = tmp_path / "large.cfg"
    path.write_text(LARGE_N_TEXT.format(within=within, scale=scale),
                    encoding="utf-8")
    code = cli.main(["simulate", "--config", str(path), "--seed", "3"])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert len(out.splitlines()) == 2 + 3


@pytest.mark.parametrize("scale", [0.1, 1.5, 1000, 3000])
@pytest.mark.parametrize("within", ["normal", "laplace"])
def test_log_odds_complexity_finishes(within, scale, tmp_path, capsys):
    # exact cell sums where their cut fits the cell cap, the lower end of
    # the enclosure past it; the README's largest n included
    path = tmp_path / "complexity.cfg"
    path.write_text(LARGE_N_TEXT.format(within=within, scale=scale).replace(
        "n_grid = 32000", "n_grid = 500, 4000, 32000"), encoding="utf-8")
    code = cli.main(["complexity", "--config", str(path)])
    out, err = capsys.readouterr()
    assert code == 0, err
    rows = [[float(v) for v in line.split(",")] for line in out.splitlines()[1:]]
    assert len(rows) == 23 + 64 + 179
    for *_, log_grid, log_analytic, log_mixture in rows:
        assert all(map(math.isfinite, (log_grid, log_analytic, log_mixture)))
        assert log_grid <= log_analytic


# every within prior, the log-odds ones narrow enough that the triangle's
# bins sit up to 82 scales out, at u down to where the cell width
# 4 n^(-1/u) and its powers leave the float range
ITEM4_PRIORS = [pytest.param("uniform", None, id="uniform")] + [
    pytest.param(within, scale, id=f"{within}-{scale:g}")
    for within in ("normal", "laplace") for scale in (0.0127, 0.02, 0.1, 1.5)]


# 7.099830066629974e-08 floors to 1/14084845, where 1/u is more than 1e-9
# from its integer
@pytest.mark.parametrize("u", [0.5, 0.1, 0.01, 1e-8, 7.099830066629974e-08],
                         ids=lambda u: f"u{u:g}")
@pytest.mark.parametrize("within,scale", ITEM4_PRIORS)
def test_bound_runs_at_small_u_and_narrow_priors(within, scale, u, tmp_path, capsys):
    path = tmp_path / "limits.cfg"
    path.write_text(_config_text("triangle", within, scale).replace(
        "n_grid = 20, 40", f"n_grid = 500, 2000\nu = {u}"), encoding="utf-8")

    def timeout(signum, frame):
        raise TimeoutError("bound took more than 5 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    try:
        signal.alarm(5)
        code = cli.main(["bound", "--config", str(path)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    out, err = capsys.readouterr()
    assert code == 0, err
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 2 * len(VARIANTS)
    assert all(math.isfinite(float(row[11])) for row in rows)


# Runs in a fresh interpreter: every study path and CLI command, then the
# names of the scipy modules it loaded.
NO_SCIPY_SCRIPT = """
import json, sys
from ratelab import parse_config_text, run_rate_study
from ratelab.cli import main

texts, config_path, csv_path = json.loads(sys.argv[1])
for text in texts:
    run_rate_study(parse_config_text(text))
for args in (["divergence", "--p", "0.3,0.7", "--q", "0.5,0.5", "--t=-0.5,0,1"],
             ["bound", "--config", config_path],
             ["complexity", "--config", config_path],
             ["simulate", "--config", config_path],
             ["verify-prop2", "--count", "5"],
             ["rate-study", "--config", config_path, "--out", csv_path, "--plot"]):
    assert main(args) == 0, args
print(json.dumps(sorted(k for k in sys.modules if k.split(".")[0] == "scipy")))
"""


def test_no_scipy_module_is_loaded(tmp_path):
    texts = [_config_text(truth, within) for truth in sorted(TRUTHS)
             for within in WITHINS]
    config = tmp_path / "study.cfg"
    config.write_text(_config_text("triangle", "normal"), encoding="utf-8")
    src = str(Path(ratelab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    args = json.dumps([texts, str(config), str(tmp_path / "rates.csv")])
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, args],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def _modules_loaded_by_cli_import() -> set:
    src = str(Path(ratelab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys, ratelab.cli; "
         "print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_cli_import_loads_no_network_modules():
    # the SVG writer's escape once came from xml.sax.saxutils, which
    # pulls urllib.request, http.client, email and ssl into every start
    assert not _modules_loaded_by_cli_import() & {"urllib.request", "ssl", "xml.sax"}


def test_study_loads_no_masked_array_module():
    # numpy's median and quantile import numpy.ma on first use; a study
    # takes its order statistics from ratelab.special instead
    src = str(Path(ratelab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from ratelab import parse_config_text, "
         "run_rate_study; run_rate_study(parse_config_text(sys.argv[1])); "
         "print('numpy.ma' in sys.modules)", _config_text("triangle", "normal")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_bound_loads_no_random_module(tmp_path):
    # bound draws nothing, so numpy.random (and the secrets and hmac modules
    # it brings) stays unloaded until a stream is asked for; nor does it
    # digest anything, so _hashlib waits for verify-prop2
    config = tmp_path / "bound.cfg"
    config.write_text(_config_text("triangle", "uniform"), encoding="utf-8")
    src = str(Path(ratelab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, ratelab.cli; "
         "code = ratelab.cli.main(['bound', '--config', sys.argv[1]]); "
         "print(code, 'numpy.random' in sys.modules, '_hashlib' in sys.modules)",
         str(config)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-3:] == ["0", "False", "False"]


def test_cli_import_loads_no_polynomial_or_thread_pool_modules():
    # the quadrature nodes are literals, and cells run in a serial loop
    assert not _modules_loaded_by_cli_import() & {"numpy.polynomial",
                                                  "concurrent.futures"}


def test_benchmark_wrapped_names_resolve():
    # bench/layers.py wraps each (module, attribute) of TARGETS where the
    # study looks it up; a name deleted from ratelab would crash the
    # benchmark's traced runs, which tier-1 does not run
    path = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    resolved = layers.originals()  # getattr on every target
    assert set(resolved) == {(mod, attr) for mod, attr, _ in layers.TARGETS}
    assert all(map(callable, resolved.values()))
