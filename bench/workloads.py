"""The benchmark's workloads: one rate-study config each, plus why it is here.

The seed inside each config is replaced by the benchmark's --seed.
DENSE_STUDY and SPARSE_STUDY are copies of the acceptance studies in
tests/test_acceptance.py, kept here so that a later change to the tests
cannot silently change what the benchmark measures.
"""

from __future__ import annotations

from dataclasses import dataclass

DENSE_STUDY = """
[truth]
kind = triangle
amplitude = 0.22
peak = 0.45

[run]
n_grid = 500, 1000, 2000, 4000, 8000, 16000, 32000
draws = 50
replicates = 5
seed = 1
"""

SPARSE_STUDY = """
[truth]
kind = sparse
levels = 0.3, 0.7, 0.45

[prior]
k_model = 1

[run]
n_grid = 500, 1000, 2000, 4000, 8000, 16000, 32000
draws = 50
replicates = 5
seed = 1
"""

# The dense truth under a normal log-odds prior: the only study through
# per-bin quadrature evidence, tabulated log-odds sampling and the
# analytic complexity envelope.  n stops at 1000 because the evidence
# costs about n/2 quadratures per n (n = 2000 alone takes 8 s, 32000
# takes 138 s), and a run must repeat the study within its time.
LOGODDS_STUDY = """
[truth]
kind = triangle
amplitude = 0.22
peak = 0.45

[prior]
within = normal
scale = 1.5

[run]
n_grid = 500, 1000
draws = 50
replicates = 1
seed = 1
variants = prop3, prop7, remark8, remark10
"""


@dataclass(frozen=True)
class Workload:
    name: str
    config_text: str
    # key of the bounds reference in reference.json; workloads that
    # differ only in scheduling share one
    reference: str
    # the workload whose CSV bytes this one must reproduce, same seed
    same_bytes_as: str = ""


WORKLOADS = {
    w.name: w for w in (
        Workload("dense_triangle", DENSE_STUDY, "dense"),
        Workload("sparse_levels", SPARSE_STUDY, "sparse"),
        Workload("logodds_normal", LOGODDS_STUDY, "logodds"),
        Workload("dense_triangle_pool2",
                 DENSE_STUDY.replace("[run]\n", "[run]\nworkers = 2\n"),
                 "dense", same_bytes_as="dense_triangle"),
    )
}
