"""Smoke test of tools/ab_time.py, the paired study timer."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ONE_N = """
[truth]
kind = triangle
amplitude = 0.22
peak = 0.45

[run]
n_grid = 500
draws = 50
replicates = 1
"""

PERCENT = r"[+-]\d+\.\d\d%"


def test_three_pairs_against_head(tmp_path):
    config = tmp_path / "one_n.cfg"
    config.write_text(ONE_N, encoding="utf-8")
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "ab_time.py"), "HEAD",
                           "--config", str(config), "--pairs", "3", "--processes", "2"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3, proc.stdout
    for index, line in enumerate(lines[:2], start=1):
        assert re.fullmatch(rf"process pair {index}: median {PERCENT} over 3 pairs", line)
    match = re.fullmatch(rf"overall: median ({PERCENT}), 95% bootstrap interval "
                         rf"\[({PERCENT}), ({PERCENT})\], [0-2] of 2 process pairs agree in "
                         r"sign \(positive: the working tree is slower than HEAD\)", lines[2])
    assert match, lines[2]
    median, low, high = (float(value.rstrip("%")) for value in match.groups())
    assert low <= median <= high
