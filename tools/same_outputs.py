"""Check that fixed-seed outputs are the same at a git revision and in the working tree.

    python tools/same_outputs.py [REV]

Unpacks REV (default HEAD) with `git archive` into a temporary directory
and runs one matrix of ratelab commands on that copy and then on the
working tree, one process at a time.  The matrix is the DENSE, SPARSE and
LOGODDS acceptance studies (LOGODDS on one replicate), DENSE at t = 0.5,
DENSE at u = 1e-9 on n = 500 and 2000 with two replicates, where the
draws take the KL limit of the divergence, a sine truth under the Laplace
prior of scale 0.7 on n = 500, 4000 and 32000, and the README's narrow
normal prior (scale 0.02) on n = 500 and 2000, these two on one
replicate; every bound variant, seeds 3, 5 and 11.  Per config and seed
it keeps the `rate-study --plot` CSV and SVG files and the `bound`,
`complexity` and `simulate` stdout.  Once per tree it keeps the stdout of
the README's `divergence` and `verify-prop2` lines: 128 files in all.  It
prints one line per file, `identical`, or `moved` with the largest
relative move per CSV column, then a summary, and exits 1 unless every
file is identical.  Everything it writes goes to the temporary directory.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRIANGLE = "[truth]\nkind = triangle\namplitude = 0.22\npeak = 0.45\n"
RUN = ("\n[run]\nn_grid = {n_grid}\ndraws = 50\nreplicates = {replicates}\nseed = 1\n"
       "variants = prop3, prop7, remark8, remark10\n")
FULL_GRID = "500, 1000, 2000, 4000, 8000, 16000, 32000"
CONFIGS = {
    "dense": TRIANGLE + RUN.format(n_grid=FULL_GRID, replicates=5),
    "sparse": "[truth]\nkind = sparse\nlevels = 0.3, 0.7, 0.45\n\n[prior]\nk_model = 1\n"
              + RUN.format(n_grid=FULL_GRID, replicates=5),
    "logodds": TRIANGLE + "\n[prior]\nwithin = normal\nscale = 1.5\n"
               + RUN.format(n_grid=FULL_GRID, replicates=1),
    "dense_t05": TRIANGLE + RUN.format(n_grid=FULL_GRID, replicates=5) + "t = 0.5\n",
    "small_u": TRIANGLE + RUN.format(n_grid="500, 2000", replicates=2) + "u = 1e-9\n",
    "laplace_sine": "[truth]\nkind = sine\n\n[prior]\nwithin = laplace\nscale = 0.7\n"
                    + RUN.format(n_grid="500, 4000, 32000", replicates=1),
    "narrow_normal": TRIANGLE + "\n[prior]\nwithin = normal\nscale = 0.02\n"
                     + RUN.format(n_grid="500, 2000", replicates=1),
}
SEEDS = (3, 5, 11)
# the commands that take no config, run once per tree: the README's lines
ONCE = {
    "divergence": ("divergence", "--p", "0.3,0.7", "--q", "0.5,0.5", "--t=-0.5,0,1"),
    "verify_prop2": ("verify-prop2", "--count", "100", "--seed", "0"),
}


def unpack(rev: str, into: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def run_matrix(tree: Path, out: Path) -> None:
    """Write every output file of the matrix, as run from tree's source, into out."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")

    def ratelab(*args):
        done = subprocess.run([sys.executable, "-m", "ratelab.cli", *args], cwd=out,
                              env=env, capture_output=True, text=True)
        if done.returncode:
            sys.exit(f"ratelab {' '.join(args)} exited {done.returncode} in {tree}:\n"
                     f"{done.stderr}")
        return done.stdout

    out.mkdir()
    probe = subprocess.run([sys.executable, "-c", "import ratelab; print(ratelab.__file__)"],
                           env=env, capture_output=True, text=True, check=True).stdout.strip()
    if not Path(probe).resolve().is_relative_to(tree.resolve()):  # an installed copy
        sys.exit(f"ratelab is imported from {probe}, not from {tree}")
    for name, text in CONFIGS.items():
        config = out / f"{name}.cfg"
        config.write_text(text, encoding="utf-8")
        for seed in SEEDS:
            stem, common = f"{name}_seed{seed}", ("--config", config.name, "--seed", str(seed))
            ratelab("rate-study", *common, "--out", f"{stem}.csv", "--plot")
            for command in ("bound", "complexity", "simulate"):
                (out / f"{stem}_{command}.txt").write_text(ratelab(command, *common),
                                                           encoding="utf-8")
        config.unlink()
    for name, args in ONCE.items():
        (out / f"{name}.txt").write_text(ratelab(*args), encoding="utf-8")


def column_moves(old: str, new: str) -> str:
    """The largest relative move per column of two CSV texts, '#' lines skipped."""
    rows = [[line.split(",") for line in text.splitlines() if not line.startswith("#")]
            for text in (old, new)]
    if len(rows[0]) != len(rows[1]) or rows[0][:1] != rows[1][:1]:
        return f"rows or header differ ({len(rows[0])} -> {len(rows[1])} lines)"
    moves = {}
    for a_row, b_row in zip(rows[0][1:], rows[1][1:]):
        for column, a, b in zip(rows[0][0], a_row, b_row):
            if a != b:
                try:
                    x, y = float(a), float(b)
                    move = abs(x - y) / max(abs(x), abs(y))
                except (ValueError, ZeroDivisionError):
                    move = math.inf
                moves[column] = max(moves.get(column, 0.0), math.inf if math.isnan(move) else move)
    return ", ".join(f"{column} {move:.3g}" for column, move in moves.items())


def main(argv) -> int:
    rev = argv[1] if len(argv) > 1 else "HEAD"
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as scratch:
        scratch = Path(scratch)
        unpack(rev, scratch / "rev")
        run_matrix(scratch / "rev", scratch / "old")
        run_matrix(ROOT, scratch / "new")
        names = sorted(path.name for path in (scratch / "old").iterdir())
        moved = 0
        for name in names:
            old, new = ((scratch / side / name).read_text(encoding="utf-8")
                        for side in ("old", "new"))
            if old == new:
                print(f"{name}: identical")
                continue
            moved += 1
            detail = "" if name.endswith(".svg") else f": {column_moves(old, new)}"
            print(f"{name}: moved{detail}")
    print(f"{len(names) - moved} of {len(names)} files identical to {rev}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
