"""Study benchmark: whole-study wall time, and per-layer times from outside.

    python3 bench/run.py --workload dense_triangle --seed 3 --seconds 40 --trace 0

Runs the named workload (see workloads.py) with its config's seed
replaced by --seed, the way a user runs a study: parse the config, run
the study, format the CSV and render the SVG plots (into a temporary
directory inside the checkout).  Studies repeat, one after the other,
as long as the next one is due to end within --seconds; at least one
always runs.

--trace 0 measures the end-to-end metrics with nothing wrapped: the
median wall time of a study, the set-up time of a fresh process, the
peak resident memory and the share of studies that passed their output
checks.  --trace 1 runs one plain study, then traced studies whose
calls into each ratelab module are timed by wrappers from layers.py,
and reports the per-layer medians and the tracing overhead.

Every study's CSV is checked (schema, row count, finite values, ordered
quantiles, bounds against reference.json, exceedance), and the CSVs of
one seed must have the same bytes: repeated, traced and plain, and, in
traced runs, with and without the worker pool.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.

ratelab is imported from src/ next to this directory, never from an
installed copy; without src/ the script exits with status 1 and prints
no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

from layers import LayerTrace, originals, traced  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

END_TO_END = {
    "study_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
}
PER_LAYER = {
    "study.traced_s": "s",
    "trace_overhead_s": "s",
    "study.self_s": "s",
    "bounds.busy_s": "s",
    "bounds.self_s": "s",
    "penalized.busy_s": "s",
    "penalized.candidates": "count",
    "complexity.busy_s": "s",
    "complexity.calls": "count",
    "models.simulate_busy_s": "s",
    "posterior.evidence_busy_s": "s",
    "posterior.binning_self_s": "s",
    "posterior.log_evidence_busy_s": "s",
    "posterior.log_evidence_calls": "count",
    "posterior.live_model_share": "share",
    "posterior.draws_busy_s": "s",
    "posterior.sample_busy_s": "s",
    "posterior.sample_calls": "count",
    "divergence.busy_s": "s",
    "divergence.calls": "count",
    "divergence.ms_per_call": "ms",
    "output.csv_s": "s",
    "output.plot_s": "s",
}

SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
# a fresh process pays the interpreter start, the numpy and scipy
# imports and the config parse before its first study
SETUP_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import ratelab; "
               "ratelab.parse_config_text(sys.argv[2])")

REFERENCE_RTOL = 1e-9
MAX_EXCEEDANCE = 0.05


def import_ratelab():
    sys.path.insert(0, str(SRC))
    try:
        import ratelab
    except ImportError as exc:
        sys.exit(f"bench: cannot import ratelab from {SRC}: {exc}")
    if Path(ratelab.__file__).resolve().parent.parent != SRC:
        sys.exit(f"bench: ratelab came from {ratelab.__file__}, not {SRC}")
    return ratelab


def load_reference(key: str) -> dict:
    """epsilon_n pieces per (n, variant), taken at a known-good commit.
    They depend on the config but not on its seed."""
    with open(BENCH / "reference.json", encoding="utf-8") as handle:
        return reference_by_cell(json.load(handle)[key])


def reference_by_cell(rows: list) -> dict:
    return {(n, variant): values for n, variant, *values in rows}


@dataclass
class Study:
    csv: str
    result: object
    run_start: float
    run_end: float
    csv_s: float
    plot_s: float

    @property
    def study_s(self) -> float:
        return self.run_end - self.run_start + self.csv_s + self.plot_s


def check_study(study: Study, reference: dict) -> list:
    """Problems with one study's output; empty when it is correct."""
    from ratelab.study import CSV_COLUMNS, CSV_SCHEMA_HEADER

    config = study.result.config
    lines = study.csv.splitlines()
    if lines[:2] != [CSV_SCHEMA_HEADER, ",".join(CSV_COLUMNS)]:
        return ["CSV schema header or columns differ"]
    rows = [dict(zip(CSV_COLUMNS, line.split(","))) for line in lines[2:]]
    expected = len(config.n_grid) * config.replicates * len(config.variants)
    problems = []
    if len(rows) != expected:
        problems.append(f"{len(rows)} CSV rows, expected {expected}")
    for row in rows:
        cell = f"n={row['n']} replicate={row['replicate']} {row['variant']}"
        values = {col: float(row[col]) for col in CSV_COLUMNS[3:]}
        if not all(math.isfinite(v) for v in values.values()):
            problems.append(f"{cell}: non-finite value")
            continue
        if not (values["d2_min"] <= values["d2_median"] <= values["d2_q95"]
                <= values["d2_max"]):
            problems.append(f"{cell}: divergence quantiles out of order")
        ref = reference.get((int(row["n"]), row["variant"]))
        if ref is None:
            problems.append(f"{cell}: no reference bounds")
            continue
        for col, want in zip(("penalized_div", "complexity_term",
                              "epsilon_n"), ref):
            if abs(values[col] - want) > REFERENCE_RTOL * abs(want):
                problems.append(f"{cell}: {col} {values[col]!r} differs "
                                f"from reference {want!r}")
    for variant, worst in study.result.summary.max_exceedance:
        if worst > MAX_EXCEEDANCE:
            problems.append(f"{variant}: max exceedance {worst} above "
                            f"{MAX_EXCEEDANCE}")
    return problems


class Bench:
    """Runs and checks the studies of one benchmark run, counting failures."""

    def __init__(self, reference: dict, out_dir: str):
        self.reference = reference
        self.plot_prefix = os.path.join(out_dir, "study")
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, message: str):
        self.problems.append(message)
        print(f"bench: FAIL {message}", file=sys.stderr)

    def study(self, config):
        """One study from config to CSV bytes and plots, or None if it
        raised or failed an output check."""
        from ratelab.plots import render_plots
        from ratelab.study import format_study_csv, run_rate_study

        self.attempted += 1
        try:
            run_start = time.perf_counter()
            result = run_rate_study(config)
            run_end = time.perf_counter()
            csv = format_study_csv(result)
            csv_end = time.perf_counter()
            render_plots(result, self.plot_prefix)
            plot_end = time.perf_counter()
        except Exception:
            self.failed += 1
            self.fail(f"study raised\n{traceback.format_exc()}")
            return None
        study = Study(csv, result, run_start, run_end, csv_end - run_end,
                      plot_end - csv_end)
        problems = check_study(study, self.reference)
        if problems:
            self.failed += 1
            for problem in problems:
                self.fail(problem)
            return None
        return study

    def same_bytes(self, what: str, studies, expected: str):
        if any(study.csv != expected for study in studies):
            self.fail(f"CSV bytes differ: {what}")


def repeat(seconds: float, run) -> list:
    """Call run() once, then again while the last call's time still fits
    in what is left of seconds; return the studies that passed.  A run
    thus ends within seconds unless its first study takes longer."""
    studies = []
    start = time.perf_counter()
    while True:
        last = time.perf_counter()
        study = run()
        if study is not None:
            studies.append(study)
        now = time.perf_counter()
        if now + (now - last) - start > seconds:
            return studies


def setup_seconds(config_text: str) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), config_text],
                   cwd=ROOT, check=True, timeout=PROBE_TIMEOUT_S)
    return time.perf_counter() - start


def layer_metrics(trace: LayerTrace, study: Study, plain_s: float) -> dict:
    bounds = trace.busy("bounds")
    penalized = trace.busy("penalized")
    complexity = trace.busy("complexity")
    evidence = trace.busy("posterior.evidence")
    log_evidence = trace.busy("posterior.log_evidence")
    divergence = trace.busy("divergence")
    divergence_calls = trace.calls("divergence")
    live, evaluated = (sum(col) for col in zip(*trace.models))
    return {
        "study.traced_s": study.study_s,
        "trace_overhead_s": study.study_s - plain_s,
        "study.self_s": trace.uncovered(study.run_start, study.run_end),
        "bounds.busy_s": bounds,
        "bounds.self_s": bounds - penalized - complexity,
        "penalized.busy_s": penalized,
        "penalized.candidates": trace.calls("penalized.candidate"),
        "complexity.busy_s": complexity,
        "complexity.calls": trace.calls("complexity"),
        "models.simulate_busy_s": trace.busy("models.simulate"),
        "posterior.evidence_busy_s": evidence,
        "posterior.binning_self_s": evidence - log_evidence,
        "posterior.log_evidence_busy_s": log_evidence,
        "posterior.log_evidence_calls": trace.calls("posterior.log_evidence"),
        "posterior.live_model_share": live / evaluated,
        "posterior.draws_busy_s": trace.busy("posterior.draws"),
        "posterior.sample_busy_s": trace.busy("posterior.sample"),
        "posterior.sample_calls": trace.calls("posterior.sample"),
        "divergence.busy_s": divergence,
        "divergence.calls": divergence_calls,
        "divergence.ms_per_call": 1e3 * divergence / divergence_calls,
        "output.csv_s": study.csv_s,
        "output.plot_s": study.plot_s,
    }


# shares of the traced study time printed for the record; nested layers
# (penalized and complexity in bounds, log_evidence in evidence, sample
# and divergence in draws) are also inside their parent's share
SHARE_LAYERS = ("bounds.busy_s", "penalized.busy_s", "complexity.busy_s",
                "models.simulate_busy_s", "posterior.evidence_busy_s",
                "posterior.log_evidence_busy_s", "posterior.draws_busy_s",
                "posterior.sample_busy_s", "divergence.busy_s", "study.self_s")


def median_of(rows: list) -> dict:
    """Per-key median over per-study metric dicts; counts stay integers."""
    out = {}
    for key in rows[0]:
        value = statistics.median(row[key] for row in rows)
        if isinstance(rows[0][key], int) and value == int(value):
            value = int(value)
        out[key] = value
    return out


def measure(ratelab, workload: Workload, seed: int, seconds: float,
            trace: bool, bench: Bench) -> dict:
    config = ratelab.parse_config_text(workload.config_text).with_overrides(
        seed=seed)
    if trace:
        return per_layer(ratelab, workload, config, seconds, bench)
    return end_to_end(workload, config, seconds, bench)


def end_to_end(workload: Workload, config, seconds: float,
               bench: Bench) -> dict:
    setup = [setup_seconds(workload.config_text) for _ in range(SETUP_PROBES)]
    studies = repeat(seconds, lambda: bench.study(config))
    if not studies:
        sys.exit("bench: every study failed")
    bench.same_bytes(f"repeats of {workload.name}", studies, studies[0].csv)
    report_studies(studies, bench)
    return {
        "study_s": statistics.median(study.study_s for study in studies),
        "setup_s": statistics.median(setup),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": (bench.attempted - bench.failed) / bench.attempted,
    }


def per_layer(ratelab, workload: Workload, config, seconds: float,
              bench: Bench) -> dict:
    plain = bench.study(config)
    if plain is None:
        sys.exit("bench: the untraced study failed")
    if workload.same_bytes_as:
        # a full study of the other workload: checked here and not in
        # every untraced run, whose time it would double
        other = bench.study(ratelab.parse_config_text(
            WORKLOADS[workload.same_bytes_as].config_text).with_overrides(
                seed=config.seed))
        if other is not None:
            bench.same_bytes(
                f"{workload.name} against {workload.same_bytes_as}",
                [plain], other.csv)
    unwrapped = originals()
    rows = []

    def traced_study():
        trace = LayerTrace()
        with traced(trace):
            study = bench.study(config)
        if study is not None:
            rows.append(layer_metrics(trace, study, plain.study_s))
        return study

    studies = repeat(seconds, traced_study)
    if originals() != unwrapped:
        bench.fail("layer wrappers left installed after the traced run")
    if not studies:
        sys.exit("bench: every traced study failed")
    bench.same_bytes("traced against untraced", studies, plain.csv)
    metrics = median_of(rows)
    report_studies(studies, bench)
    print("share of traced study_s: " + ", ".join(
        f"{key} {metrics[key] / metrics['study.traced_s']:.3f}"
        for key in SHARE_LAYERS))
    return metrics


def report_studies(studies: list, bench: Bench):
    times = [study.study_s for study in studies]
    print(f"studies: {bench.attempted} attempted, {bench.failed} failed, "
          f"failed_share {bench.failed / bench.attempted:.3f}")
    # the highest percentile with at least ten timed studies beyond it
    tail = "too few studies for a tail percentile"
    if len(times) >= 20:
        pct = math.floor(100 * (1 - 10 / len(times)))
        tail = f"p{pct} {statistics.quantiles(times, n=100)[pct - 1]:.4f} s"
    print(f"study_s: median {statistics.median(times):.4f} s, max "
          f"{max(times):.4f} s, {tail}, over {len(times)} timed studies")
    fit = studies[0].result.summary.fit
    print(f"fit (information only): slope {fit.slope:.4f}, "
          f"r2 {fit.r_squared:.4f}")


def environment() -> str:
    import numpy
    import scipy
    return (f"nproc {os.cpu_count()}, python {platform.python_version()}, "
            f"numpy {numpy.__version__}, scipy {scipy.__version__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    ratelab = import_ratelab()
    workload = WORKLOADS[args.workload]
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}; "
          f"{environment()}")
    with tempfile.TemporaryDirectory(prefix=".bench_out_", dir=ROOT) as out:
        bench = Bench(load_reference(workload.reference), out)
        metrics = measure(ratelab, workload, args.seed, args.seconds,
                          bool(args.trace), bench)
    units = PER_LAYER if args.trace else END_TO_END
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
