"""Layer spans recorded from outside ratelab, around the calls into its modules.

`from .x import y` binds y into the importing module, so each name is
wrapped where the caller looks it up: the harness calls
`ratelab.study.model_posterior`, and that attribute is the one wrapped,
not `ratelab.posterior.model_posterior`.  `traced` installs the
wrappers for the length of a `with` block and puts the originals back
on the way out, also when the study raises.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

# (module, attribute, layer): the functions a study runs through, named
# by the module whose globals the caller reads them from
TARGETS = (
    ("ratelab.study", "variant_bounds_for_n", "bounds"),
    ("ratelab.study", "penalized_divergence_upper", "penalized"),
    ("ratelab.penalized", "penalized_value_at", "penalized.candidate"),
    ("ratelab.study", "log_covering_number_uniform", "complexity"),
    ("ratelab.study", "norm_complexity_grid", "complexity"),
    ("ratelab.study", "log_norm_complexity_analytic", "complexity"),
    ("ratelab.study", "log_norm_complexity_mixture", "complexity"),
    ("ratelab.study", "simulate_data", "models.simulate"),
    ("ratelab.study", "model_posterior", "posterior.evidence"),
    ("ratelab.posterior", "log_evidence", "posterior.log_evidence"),
    ("ratelab.study", "empirical_divergence_quantiles", "posterior.draws"),
    ("ratelab.posterior", "sample_posterior_density", "posterior.sample"),
    ("ratelab.posterior", "d_t_squared", "divergence"),
)

# the layers run_rate_study calls directly; the rest nest inside them
TOP_LAYERS = ("bounds", "models.simulate", "posterior.evidence",
              "posterior.draws")

# a model is live when its posterior weight exceeds this
LIVE_WEIGHT = 1e-12


class LayerTrace:
    """Spans (layer, start, end) of one traced study, kept in memory.

    list.append is atomic under the interpreter lock, so threads of the
    study's worker pool record into the same lists without a lock.
    """

    def __init__(self):
        self.spans = []
        # (live models, models evaluated) of each posterior built
        self.models = []

    def wrap(self, layer: str, fn):
        spans = self.spans

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((layer, start, time.perf_counter()))

        if layer != "posterior.evidence":
            return timed

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            state = timed(*args, **kwargs)
            weights = state.weights
            self.models.append((int((weights > LIVE_WEIGHT).sum()),
                                int(weights.size)))
            return state

        return counted

    def busy(self, layer: str) -> float:
        """Seconds inside the layer, summed over calls and threads."""
        return sum(end - start for name, start, end in self.spans
                   if name == layer)

    def calls(self, layer: str) -> int:
        return sum(1 for span in self.spans if span[0] == layer)

    def uncovered(self, start: float, end: float) -> float:
        """Seconds of [start, end] during which no thread was inside a
        top layer: the harness's own time, pool overhead and waiting."""
        covered = 0.0
        reach = start
        for lo, hi in sorted((max(s, start), min(e, end))
                             for name, s, e in self.spans
                             if name in TOP_LAYERS):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return (end - start) - covered


def originals() -> dict:
    """The functions the wrappers replace, keyed by (module, attribute)."""
    return {(mod, attr): getattr(importlib.import_module(mod), attr)
            for mod, attr, _ in TARGETS}


@contextlib.contextmanager
def traced(trace: LayerTrace):
    saved = originals()
    try:
        for mod, attr, layer in TARGETS:
            setattr(importlib.import_module(mod), attr,
                    trace.wrap(layer, saved[(mod, attr)]))
        yield trace
    finally:
        for (mod, attr), fn in saved.items():
            setattr(importlib.import_module(mod), attr, fn)
