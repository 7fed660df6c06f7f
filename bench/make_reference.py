"""Rewrite reference.json: the epsilon_n pieces of every workload config.

    python3 bench/make_reference.py

penalized_div, complexity_term and epsilon_n do not depend on the
study's seed, so one table per config checks every benchmark run.  Run
this only at a commit whose bounds are known to be right; the benchmark
compares later commits against the table to a relative 1e-9.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from ratelab import parse_config_text, variant_bounds_for_n  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def reference_rows(config_text: str) -> list:
    """[n, variant, penalized_div, complexity_term, epsilon_n] per row."""
    config = parse_config_text(config_text)
    return [[vb.n, vb.variant, vb.penalized_div, vb.complexity_term,
             vb.epsilon_n]
            for n in config.n_grid for vb in variant_bounds_for_n(config, n)]


def main():
    table = {}
    for workload in WORKLOADS.values():
        if workload.reference not in table:
            table[workload.reference] = reference_rows(workload.config_text)
    # one row per line, so a diff of the table shows which cells moved
    body = ",\n".join(
        f" {json.dumps(key)}: [\n" + ",\n".join(
            "  " + json.dumps(row) for row in rows) + "\n ]"
        for key, rows in table.items())
    with open(BENCH / "reference.json", "w", encoding="utf-8") as handle:
        handle.write("{\n" + body + "\n}\n")


if __name__ == "__main__":
    main()
