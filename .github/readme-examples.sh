#!/usr/bin/env bash
# The README's example commands, run from the working directory with the
# installed `ratelab` script; they write study.cfg, logodds.cfg,
# laplace.cfg, narrow.cfg, small_u.cfg, normal.cfg, rates.csv, normal.csv
# and the SVGs.
set -euo pipefail

ratelab divergence --p 0.3,0.7 --q 0.5,0.5 --t=-0.5,0,1
ratelab verify-prop2 --count 100 --seed 0
cat > study.cfg <<'CFG'
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
CFG
ratelab bound --config study.cfg --variant prop7
ratelab rate-study --config study.cfg --out rates.csv --plot
cat > logodds.cfg <<'CFG'
[truth]
kind = triangle
amplitude = 0.22
peak = 0.45

[prior]
within = normal
scale = 0.1

[run]
n_grid = 500, 1000
CFG
ratelab bound --config logodds.cfg
ratelab simulate --config logodds.cfg
ratelab complexity --config logodds.cfg
cat > laplace.cfg <<'CFG'
[truth]
kind = triangle
amplitude = 0.22
peak = 0.45

[prior]
within = laplace
scale = 0.7

[run]
n_grid = 500, 4000, 32000
CFG
ratelab complexity --config laplace.cfg
ratelab simulate --config laplace.cfg
cat > narrow.cfg <<'CFG'
[truth]
kind = triangle
amplitude = 0.22
peak = 0.45

[prior]
within = normal
scale = 0.02

[run]
n_grid = 500, 2000
CFG
ratelab bound --config narrow.cfg
for within in uniform normal laplace; do
  cat > small_u.cfg <<CFG
[truth]
kind = triangle
amplitude = 0.22
peak = 0.45

[prior]
within = $within

[run]
n_grid = 500, 2000
u = 0.01
CFG
  ratelab bound --config small_u.cfg --variant remark10
done
cat > normal.cfg <<'CFG'
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
variants = prop7, remark10
CFG
ratelab bound --config normal.cfg
ratelab complexity --config normal.cfg
ratelab rate-study --config normal.cfg --out normal.csv
