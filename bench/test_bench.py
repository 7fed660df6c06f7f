"""Smoke test of the benchmark itself, on tiny versions of its workloads.

    python3 -m pytest bench/test_bench.py -q

Each workload keeps its truth, prior, variants and worker count but
runs a two-point n grid with a few draws, so the whole file takes
seconds.  It checks that every declared metric is printed with its
unit, that the output checks pass and catch a wrong bound, and that
the layer wrappers are gone after a traced run.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
from make_reference import reference_rows  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

ratelab = run.import_ratelab()


def _tiny(workload: Workload) -> Workload:
    text = re.sub(r"n_grid = .*", "n_grid = 60, 120", workload.config_text)
    text = re.sub(r"draws = \d+", "draws = 4", text)
    text = re.sub(r"replicates = \d+", "replicates = 2", text)
    return Workload(workload.name, text, workload.reference,
                    workload.same_bytes_as)


TINY = {name: _tiny(w) for name, w in WORKLOADS.items()}


def _reference(workload: Workload) -> dict:
    return run.reference_by_cell(reference_rows(workload.config_text))


@pytest.fixture
def tiny_workloads(monkeypatch):
    monkeypatch.setattr(run, "WORKLOADS", TINY)
    monkeypatch.setattr(run, "load_reference",
                        lambda key: _reference(next(
                            w for w in TINY.values() if w.reference == key)))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(name, trace, tiny_workloads,
                                               capsys):
    before = layers.originals()
    assert run.main(["--workload", name, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    assert layers.originals() == before

    out = capsys.readouterr().out.splitlines()
    result = json.loads(out[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"])
        assert f"{name} {metric['value']} {metric['unit']}" in out


def test_a_wrong_bound_fails_the_output_check(tmp_path):
    workload = TINY["sparse_levels"]
    reference = _reference(workload)
    key = next(iter(reference))
    reference[key] = [value * (1 + 1e-6) for value in reference[key]]
    bench = run.Bench(reference, str(tmp_path))
    config = ratelab.parse_config_text(workload.config_text)
    assert bench.study(config) is None
    assert bench.failed == 1 and bench.attempted == 1
    assert any("differs from reference" in p for p in bench.problems)


def test_wrappers_are_removed_when_a_traced_study_raises():
    before = layers.originals()
    with pytest.raises(ZeroDivisionError):
        with layers.traced(layers.LayerTrace()):
            assert ratelab.study.model_posterior is not before[
                ("ratelab.study", "model_posterior")]
            1 / 0
    assert layers.originals() == before


def test_uncovered_time_merges_spans_across_threads():
    trace = layers.LayerTrace()
    trace.spans = [("posterior.draws", 1.0, 3.0),
                   ("posterior.evidence", 2.0, 4.0),
                   ("divergence", 4.0, 6.0),
                   ("bounds", 7.0, 11.0)]
    # covered: [1, 4] and [7, 10] within the window [0, 10]
    assert trace.uncovered(0.0, 10.0) == pytest.approx(4.0)


def test_exits_without_a_result_when_src_is_missing(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "sparse_levels",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
