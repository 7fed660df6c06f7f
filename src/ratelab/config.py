"""Sectioned key-value experiment configs with line-level diagnostics.

The format is deliberately small: `[section]` headers, `key = value`
lines, full-line comments starting with `#` or `;`.  Each section's
keys are removed as they are read, so the keys left over are unknown.
Unknown sections and keys are hard errors, because a silently ignored
knob would invalidate a study.  Every refusal but a missing required
key names the offending line.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

from .models import (LaplacePrior, LogOddsPrior, NormalPrior, PriorSpec, TrueModel,
                     UniformPrior, WithinModelPrior)
from .rate_bounds import VARIANTS, floor_to_unit_fraction

__all__ = ["ConfigError", "ExperimentConfig", "parse_config_text", "load_config"]

_SECTIONS = ("truth", "prior", "run")


class ConfigError(ValueError):
    """Config validation failure, optionally tied to a source line."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated study description.

    u is stored already floored to the largest unit fraction 1/k below
    the configured value, so the divergence being measured matches the
    one the bounds control.

    The [run] key ``workers`` is read, refused below 0 and dropped: cells
    run in one serial loop.  The benchmark's ``dense_triangle_pool2`` in
    ``bench/workloads.py`` sets it, and ROADMAP item 1 deletes both.
    """

    truth: TrueModel
    within: WithinModelPrior
    k_model: float
    m_max: int
    n_grid: tuple
    draws: int
    replicates: int
    u: float
    t: float
    seed: int
    variants: tuple
    burn_in: int

    def prior_for(self, n: int) -> PriorSpec:
        return PriorSpec(n=n, k_model=self.k_model, m_max=self.m_max,
                         within=self.within)

    def with_overrides(self, seed: Optional[int] = None) -> "ExperimentConfig":
        return self if seed is None else replace(self, seed=int(seed))


def _tokenize(text: str) -> dict:
    """{section: {key: (value, line)}}, sections and keys in file order."""
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError(f"unknown section [{name}]", lineno)
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", lineno)
            current = sections[name] = {}
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", lineno)
        if current is None:
            raise ConfigError("key outside any [section]", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError("empty key", lineno)
        if key in current:
            raise ConfigError(f"duplicate key '{key}'", lineno)
        current[key] = (value.strip(), lineno)
    return sections


def _strict_int(value: str) -> int:
    value = value.strip()
    body = value[1:] if value.startswith(("+", "-")) else value
    if not body.isdigit():
        raise ValueError(value)
    return int(value)


def _split_list(value: str, caster: Callable) -> tuple:
    parts = [p.strip() for p in value.split(",")]
    if any(not p for p in parts):
        raise ValueError(value)
    return tuple(caster(p) for p in parts)


_FLOATS = functools.partial(_split_list, caster=float)
_INTS = functools.partial(_split_list, caster=_strict_int)
_STRS = functools.partial(_split_list, caster=str)
_EXPECTS = {float: "a number", _strict_int: "an integer", str: "a string",
            _FLOATS: "a comma-separated number list",
            _INTS: "a comma-separated integer list", _STRS: "a comma-separated list"}


def _taker(sections: dict, name: str) -> Callable:
    """take(key, default, cast) -> (value, line) over one section, popping
    the key; line is None for a default, and a None default is required."""
    entries = sections.get(name, {})

    def take(key: str, default=None, cast: Callable = float):
        if key not in entries:
            if default is None:
                raise ConfigError(f"[{name}] is missing required key '{key}'")
            return default, None
        value, line = entries.pop(key)
        try:
            return cast(value), line
        except ValueError:
            raise ConfigError(f"'{key}' expects {_EXPECTS[cast]}, got {value!r}", line)
    return take


def _at(line: Optional[int], build: Callable, *args, **kwargs):
    """build(*args, **kwargs), with a ValueError raised as a ConfigError at line."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc), line)


# each truth kind's factory: its parameters are the kind's [truth] keys, with
# the factory's defaults, and one without a default is required
_KINDS = {"sine": TrueModel.sine, "triangle": TrueModel.triangle,
          "linear": TrueModel.linear, "constant": TrueModel.constant,
          "sparse": TrueModel.sparse}
_WITHIN = {prior.name: prior for prior in (UniformPrior, NormalPrior, LaplacePrior)}


def _build_truth(take: Callable) -> TrueModel:
    """The truth; a factory's refusal names the line of the key it starts
    with (a triangle's peak), else a sparse truth's levels line, else the
    kind line."""
    kind, kind_line = take("kind", None, str)
    if kind not in _KINDS:
        raise ConfigError(f"kind must be {'|'.join(_KINDS)}, got {kind!r}", kind_line)
    params = inspect.signature(_KINDS[kind]).parameters
    margin, margin_line = take("margin", params["margin"].default)
    if not 0.0 < margin < 0.5:
        raise ConfigError(f"margin must lie in (0, 0.5), got {margin}",
                          margin_line)
    args, lines = {}, {}
    for key, param in params.items():
        if key != "margin":
            default = None if param.default is param.empty else param.default
            args[key], lines[key] = take(key, default, _FLOATS if key == "levels" else float)
    try:
        return _KINDS[kind](margin=margin, **args)
    except ValueError as exc:
        line = lines.get(str(exc).partition(" ")[0]) or lines.get("levels") or kind_line
        raise ConfigError(str(exc), line)


def _build_within(take: Callable) -> WithinModelPrior:
    within, within_line = take("within", PriorSpec.within.name, str)
    scale, scale_line = take("scale", LogOddsPrior.scale)
    if within not in _WITHIN:
        raise ConfigError(
            f"within must be {'|'.join(_WITHIN)}, got {within!r}", within_line)
    if not issubclass(_WITHIN[within], LogOddsPrior):
        if scale_line is not None:
            raise ConfigError("scale requires a log-odds prior", scale_line)
        return _WITHIN[within]()
    return _at(scale_line, _WITHIN[within], scale)


def parse_config_text(text: str) -> ExperimentConfig:
    sections = _tokenize(text)
    truth = _build_truth(_taker(sections, "truth"))

    take = _taker(sections, "prior")
    within = _build_within(take)
    k_model, k_line = take("k_model", PriorSpec.k_model)
    if not 0 < k_model < math.inf:
        raise ConfigError(f"k_model must be positive and finite, got {k_model}",
                          k_line)
    m_max, m_line = take("m_max", PriorSpec.m_max, _strict_int)
    if m_max < 0:
        raise ConfigError(f"m_max must be >= 0 (0 means auto), got {m_max}",
                          m_line)

    take = _taker(sections, "run")
    n_grid, n_line = take("n_grid", None, _INTS)
    if any(n < 2 for n in n_grid):
        raise ConfigError("n_grid entries must be >= 2", n_line)
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ConfigError("n_grid must be strictly increasing", n_line)
    draws, draws_line = take("draws", 50, _strict_int)
    if draws < 1:
        raise ConfigError(f"draws must be >= 1, got {draws}", draws_line)
    replicates, rep_line = take("replicates", 1, _strict_int)
    if replicates < 1:
        raise ConfigError(f"replicates must be >= 1, got {replicates}", rep_line)
    u_raw, u_line = take("u", 0.5)
    u = _at(u_line, floor_to_unit_fraction, u_raw)
    t, t_line = take("t", 1.0)
    if not 0 < t < math.inf:
        raise ConfigError(f"t must be positive and finite, got {t}", t_line)
    seed, seed_line = take("seed", 17, _strict_int)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}", seed_line)
    variants, var_line = take("variants", ("prop7",), _STRS)
    for v in variants:
        if v not in VARIANTS:
            raise ConfigError(
                f"variant must be one of {', '.join(VARIANTS)}, got {v!r}",
                var_line)
    burn_in, burn_line = take("burn_in", 0, _strict_int)
    if not 0 <= burn_in < len(n_grid):
        raise ConfigError(
            f"burn_in must index into n_grid (0..{len(n_grid) - 1})", burn_line)
    workers, workers_line = take("workers", 0, _strict_int)  # read, then dropped
    if workers < 0:
        raise ConfigError(f"workers must be >= 0, got {workers}", workers_line)

    for name, entries in sections.items():  # what no take popped
        for key, (_, line) in entries.items():
            raise ConfigError(f"unknown key '{key}' in [{name}]", line)

    if m_max and truth.m0 and m_max < truth.m0:
        raise ConfigError(
            f"m_max = {m_max} cannot reach the sparse truth's m0 = {truth.m0}", m_line)

    return ExperimentConfig(
        truth=truth, within=within, k_model=k_model, m_max=m_max,
        n_grid=n_grid, draws=draws, replicates=replicates,
        u=u, t=t, seed=seed,
        variants=tuple(dict.fromkeys(variants)), burn_in=burn_in,
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc.strerror}")
    return parse_config_text(text)
