"""Deterministic counter-based random streams."""

from __future__ import annotations

import numpy as np


def stream(*key: int) -> np.random.Generator:
    """Return the Philox generator addressed by an integer key tuple.

    Streams with distinct keys are statistically independent, and the
    key -> stream mapping does not depend on creation order, so work
    items can be assigned their streams up front and then executed
    under any schedule without changing the draws.  The key length is
    part of the address: the seed words are prefixed with the arity,
    otherwise trailing zero parts would collide under the seed
    sequence's zero padding.
    """
    if not key:
        raise ValueError("stream key must not be empty")
    parts = [int(k) for k in key]
    if any(k < 0 for k in parts):
        raise ValueError(f"stream key parts must be nonnegative, got {key}")
    seed = np.random.SeedSequence([len(parts), *parts])
    return np.random.Generator(np.random.Philox(seed=seed))
