"""Time one ratelab study at a git revision against the working tree, in pairs.

    python tools/ab_time.py [REV] --config FILE --pairs N --processes K

Unpacks REV (default HEAD) as tools/same_outputs.py does, then runs K
process pairs one after the other.  A process pair is one long-lived child
per tree: it imports ratelab from that tree, loads FILE once and runs one
warm-up study; then, on each request, it runs one `run_rate_study` and
reports that study's own `perf_counter` seconds, so that neither process
start nor the parent's waiting enters a time.  The two children take N
turns, and the side that runs first alternates, so each ratio compares two
studies run back to back, in the same phase of a drifting host.

It prints, per process pair, the median of the paired log-ratios
100 ln(tree / REV), positive where the working tree is slower; then the
median of all N * K ratios with a 95% bootstrap interval, which resamples
process pairs and the ratios within each, since one process pair carries
a bias of its own; and how many process pairs agree with that median in
sign.  An A/A run (the working tree equal to REV) shows the spread that
alone gives.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from same_outputs import ROOT, unpack

CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
import ratelab
config = ratelab.load_config(sys.argv[2])
ratelab.run_rate_study(config)
print(ratelab.__file__, flush=True)
for _ in sys.stdin:
    start = time.perf_counter()
    ratelab.run_rate_study(config)
    print(time.perf_counter() - start, flush=True)
"""

BOOTSTRAP_ROUNDS = 2000


def timed(child: subprocess.Popen) -> float:
    child.stdin.write("\n")
    child.stdin.flush()
    line = child.stdout.readline()
    if not line:
        sys.exit(f"ab_time: a child exited with status {child.wait()}")
    return float(line)


def process_pair(old: Path, new: Path, config: Path, cwd: Path, pairs: int,
                 first: int) -> np.ndarray:
    """100 ln(new / old) of each of `pairs` back-to-back studies; the side that
    runs first alternates, starting with the new one when `first` is odd."""
    trees, names = {"old": old, "new": new}, ("new", "old") if first % 2 else ("old", "new")
    children = {}
    try:
        for side in names:
            children[side] = child = subprocess.Popen(
                [sys.executable, "-c", CHILD, str(trees[side] / "src"), str(config)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=cwd)
            imported = child.stdout.readline().strip()
            if not imported or not Path(imported).resolve().is_relative_to(trees[side].resolve()):
                sys.exit(f"ab_time: the child for {trees[side]} did not run a study from "
                         f"that tree's ratelab (it printed {imported!r})")
        ratios = []
        for turn in range(pairs):
            order = names if turn % 2 == 0 else names[::-1]
            seconds = {side: timed(children[side]) for side in order}
            ratios.append(100.0 * np.log(seconds["new"] / seconds["old"]))
        return np.array(ratios)
    finally:
        for child in children.values():
            child.stdin.close()
            child.stdout.close()
            child.wait()


def bootstrap_interval(groups: list, rounds: int = BOOTSTRAP_ROUNDS) -> tuple:
    """95% interval of the pooled median, resampling groups, then within each."""
    rng = np.random.default_rng(0)
    medians = []
    for _ in range(rounds):
        picked = [groups[i] for i in rng.integers(len(groups), size=len(groups))]
        medians.append(np.median(np.concatenate(
            [group[rng.integers(group.size, size=group.size)] for group in picked])))
    return tuple(np.percentile(medians, [2.5, 97.5]))


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", default="HEAD")
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--pairs", type=int, default=40)
    parser.add_argument("--processes", type=int, default=5)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.processes < 1:
        parser.error("--pairs and --processes must be >= 1")
    config = args.config.resolve()
    with tempfile.TemporaryDirectory(prefix="ab_time_") as scratch:
        scratch = Path(scratch)
        unpack(args.rev, scratch / "rev")
        groups = []
        for index in range(args.processes):
            ratios = process_pair(scratch / "rev", ROOT, config, scratch, args.pairs, index)
            groups.append(ratios)
            print(f"process pair {index + 1}: median {np.median(ratios):+.2f}% "
                  f"over {ratios.size} pairs", flush=True)
    overall = float(np.median(np.concatenate(groups)))
    low, high = bootstrap_interval(groups)
    agree = sum(np.sign(np.median(group)) == np.sign(overall) for group in groups)
    print(f"overall: median {overall:+.2f}%, 95% bootstrap interval "
          f"[{low:+.2f}%, {high:+.2f}%], {agree} of {len(groups)} process pairs "
          f"agree in sign (positive: the working tree is slower than {args.rev})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
