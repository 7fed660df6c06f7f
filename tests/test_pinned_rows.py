"""Fixed-seed study rows, pinned across commits.

Short versions of the DENSE, SPARSE and LOGODDS acceptance studies, and
of DENSE at t = 0.5, run at seed 3 with every bound variant.  A few rows
of each are pinned in every CSV column, the posterior draws' d2_*
columns included.  The 1e-12 relative tolerance absorbs differences
between numpy builds (SIMD summation order), not a change of algorithm:
a change that moves these rows on purpose re-pins them and says so.
"""

import pytest

from ratelab import parse_config_text, run_rate_study
from ratelab.study import CSV_COLUMNS, format_study_csv

TRIANGLE = "[truth]\nkind = triangle\namplitude = 0.22\npeak = 0.45\n"
RUN = ("\n[run]\nn_grid = {grid}\ndraws = 50\nreplicates = {replicates}\nseed = 3\n"
       "variants = prop3, prop7, remark8, remark10\n")
SHORT = RUN.format(grid="500, 1000, 2000", replicates=2)

CONFIGS = {
    "dense": TRIANGLE + SHORT,
    "sparse": "[truth]\nkind = sparse\nlevels = 0.3, 0.7, 0.45\n\n[prior]\nk_model = 1\n"
              + SHORT,
    "logodds": TRIANGLE + "\n[prior]\nwithin = normal\nscale = 1.5\n"
               + RUN.format(grid="500, 1000", replicates=1),
    "dense_t05": TRIANGLE + RUN.format(grid="500, 1000, 2000", replicates=1) + "t = 0.5\n",
}

# CSV rows of format_study_csv, columns as in CSV_COLUMNS
PINNED = {
    "dense": [
        "500,0,prop3,0.016767080787100319,0.01702854577824553,0.018619997322184587,"
        "0.020240335623315175,0.39426139585640285,1.2180632032907814,1.6123245991471844,0",
        "1000,1,prop7,0.016766282774016039,0.0170474421807284,0.018498881835585068,"
        "0.019466389734303924,0.26942798500795107,0.28328223358531385,0.55271021859326486,0",
        "2000,0,remark10,0.016766146375078339,0.016859045998707023,0.017310320212642383,"
        "0.017592095347031211,0.18126827525856309,0.02972170596722239,0.21098998122578549,0",
    ],
    "sparse": [
        "500,1,prop7,7.9495808227081355e-05,0.0023715549160225891,0.006560929548708903,"
        "0.0079524055297630625,0.04635487642773016,0.94461678474170885,0.99097166116943902,0",
        "1000,0,remark8,9.7167869136161045e-05,0.0014645532378595449,0.0042462188965088684,"
        "0.0058457921970951343,0.025570661348282911,0.22517070401267769,0.25074136536096059,0",
        "2000,1,prop3,5.5319794489694374e-05,0.00041357835589983516,0.0008827973758130268,"
        "0.0011946651342920056,0.013992450560599411,0.7068839289874137,0.72087637954801309,0",
    ],
    "logodds": [
        "500,0,remark8,0.016766178129566711,0.016975448374454527,0.019108424639088871,"
        "0.020033472446018052,0.39427446881185246,0.10094938375951316,0.49522385257136564,0",
        "1000,0,prop7,0.016771104270493886,0.016966949124354369,0.017864275996136623,"
        "0.019874955868674826,0.26944800515161577,0.28328223358531385,0.55273023873692961,0",
    ],
    "dense_t05": [
        "500,0,remark10,0.016767080787100319,0.01702854577824553,0.018619997322184587,"
        "0.020240335623315175,0.1749209485882843,0.12161003111098098,0.29653097969926528,0",
        "1000,0,prop3,0.016766145610820793,0.016891659076936905,0.017839580402033272,"
        "0.019361937779893479,0.12812045453046678,0.93945471994157159,1.0675751744720383,0",
        "2000,0,prop7,0.016766146375078339,0.016859045998707023,0.017310320212642383,"
        "0.017592095347031211,0.087684916858512124,0.21284788333731,0.30053280019582213,0",
    ],
}

KEY = 3  # n, replicate and variant name a row


@pytest.mark.parametrize("name", PINNED)
def test_pinned_rows(name):
    rows = {}
    for line in format_study_csv(run_rate_study(parse_config_text(CONFIGS[name]))).splitlines()[2:]:
        fields = line.split(",")
        rows[tuple(fields[:KEY])] = fields[KEY:]
    for line in PINNED[name]:
        fields = line.split(",")
        got = rows[tuple(fields[:KEY])]
        for column, value, want in zip(CSV_COLUMNS[KEY:], got, fields[KEY:]):
            assert float(value) == pytest.approx(float(want), rel=1e-12, abs=0.0), column
