"""Sectioned key-value experiment configs with line-level diagnostics.

The format is deliberately small: `[section]` headers, `key = value`
lines, full-line comments starting with `#` or `;`.  Unknown sections
and unknown keys are hard errors carrying the offending line number,
because a silently ignored knob would invalidate a study.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from .models import PriorSpec, TrueModel, WithinModelPrior
from .rate_bounds import VARIANTS, floor_to_unit_fraction

__all__ = ["ConfigError", "ExperimentConfig", "parse_config_text", "load_config"]

_SECTIONS = ("truth", "prior", "run", "output")


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
    workers: int
    csv_path: str
    plot: bool

    def prior_for(self, n: int) -> PriorSpec:
        return PriorSpec(n=n, k_model=self.k_model, m_max=self.m_max,
                         within=self.within)

    def with_overrides(self, seed: Optional[int] = None,
                       csv_path: Optional[str] = None,
                       plot: Optional[bool] = None) -> "ExperimentConfig":
        out = self
        if seed is not None:
            out = replace(out, seed=int(seed))
        if csv_path is not None:
            out = replace(out, csv_path=csv_path)
        if plot is not None:
            out = replace(out, plot=bool(plot))
        return out


@dataclass
class _Entry:
    value: str
    line: int
    used: bool = False


@dataclass
class _Section:
    name: str
    line: int
    entries: dict = field(default_factory=dict)


def _tokenize(text: str) -> dict:
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
            current = _Section(name=name, line=lineno)
            sections[name] = current
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", lineno)
        if current is None:
            raise ConfigError("key outside any [section]", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("empty key", lineno)
        if key in current.entries:
            raise ConfigError(f"duplicate key '{key}'", lineno)
        current.entries[key] = _Entry(value=value, line=lineno)
    return sections


class _Reader:
    """Typed accessors over one tokenized section; tracks key usage."""

    def __init__(self, sections: dict, name: str):
        self._section = sections.get(name)
        self.name = name

    def _take(self, key: str) -> Optional[_Entry]:
        if self._section is None:
            return None
        entry = self._section.entries.get(key)
        if entry is not None:
            entry.used = True
        return entry

    def _parse(self, key: str, default, caster: Callable, kind: str):
        entry = self._take(key)
        if entry is None:
            if default is None:
                raise ConfigError(f"[{self.name}] is missing required key '{key}'")
            return default, None
        try:
            return caster(entry.value), entry.line
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(
                f"'{key}' expects {kind}, got {entry.value!r}", entry.line)

    def floatv(self, key, default=None):
        return self._parse(key, default, float, "a number")

    def intv(self, key, default=None):
        return self._parse(key, default, _strict_int, "an integer")

    def strv(self, key, default=None):
        return self._parse(key, default, str, "a string")

    def boolv(self, key, default=None):
        return self._parse(key, default, _parse_bool, "true/false")

    def float_list(self, key, default=None):
        return self._parse(key, default, lambda v: _split_list(v, float),
                           "a comma-separated number list")

    def int_list(self, key, default=None):
        return self._parse(key, default, lambda v: _split_list(v, _strict_int),
                           "a comma-separated integer list")

    def str_list(self, key, default=None):
        return self._parse(key, default, lambda v: _split_list(v, str),
                           "a comma-separated list")


def _strict_int(value: str) -> int:
    value = value.strip()
    body = value[1:] if value.startswith(("+", "-")) else value
    if not body.isdigit():
        raise ValueError(value)
    return int(value)


def _parse_bool(value: str) -> bool:
    low = value.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(value)


def _split_list(value: str, caster: Callable) -> tuple:
    parts = [p.strip() for p in value.split(",")]
    if any(not p for p in parts):
        raise ValueError(value)
    return tuple(caster(p) for p in parts)


def _build_truth(reader: _Reader) -> TrueModel:
    kind, kind_line = reader.strv("kind")
    margin, margin_line = reader.floatv("margin", 0.25)
    if not 0.0 < margin < 0.5:
        raise ConfigError(f"margin must lie in (0, 0.5), got {margin}",
                          margin_line)
    if kind == "sine":
        center, _ = reader.floatv("center", 0.5)
        amplitude, _ = reader.floatv("amplitude", 0.15)
        truth = TrueModel.sine(center=center, amplitude=amplitude, margin=margin)
    elif kind == "triangle":
        center, _ = reader.floatv("center", 0.5)
        amplitude, _ = reader.floatv("amplitude", 0.24)
        peak, peak_line = reader.floatv("peak", 0.5)
        if not 0.0 < peak < 1.0:
            raise ConfigError(f"peak must lie in (0, 1), got {peak}", peak_line)
        truth = TrueModel.triangle(center=center, amplitude=amplitude,
                                   peak=peak, margin=margin)
    elif kind == "linear":
        intercept, _ = reader.floatv("intercept")
        slope, _ = reader.floatv("slope")
        truth = TrueModel.linear(intercept=intercept, slope=slope, margin=margin)
    elif kind == "constant":
        level, _ = reader.floatv("level")
        truth = TrueModel.constant(level=level, margin=margin)
    elif kind == "sparse":
        levels, levels_line = reader.float_list("levels")
        try:
            truth = TrueModel.sparse(levels, margin=margin)
        except ValueError as exc:
            raise ConfigError(str(exc), levels_line)
    else:
        raise ConfigError(
            "kind must be sine|triangle|linear|constant|sparse, "
            f"got {kind!r}", kind_line)
    d_bound, d_line = reader.floatv("d_bound", -1.0)
    if d_line is not None:
        if truth.kind != "smooth":
            raise ConfigError("d_bound applies only to smooth truths", d_line)
        try:
            truth = TrueModel.smooth(truth.mean.fn, d_bound=d_bound,
                                     margin=margin,
                                     breakpoints=truth.mean.breakpoints)
        except ValueError as exc:
            raise ConfigError(str(exc), d_line)
    return truth


def _build_within(reader: _Reader) -> WithinModelPrior:
    within, within_line = reader.strv("within", "uniform")
    scale, scale_line = reader.floatv("scale", 1.0)
    if within == "uniform":
        if scale_line is not None:
            raise ConfigError("scale requires a log-odds prior", scale_line)
        return WithinModelPrior.uniform_box()
    if within in ("normal", "laplace"):
        try:
            return WithinModelPrior.log_odds(density=within, scale=scale)
        except ValueError as exc:
            raise ConfigError(str(exc), scale_line)
    raise ConfigError(
        f"within must be uniform|normal|laplace, got {within!r}", within_line)


def parse_config_text(text: str) -> ExperimentConfig:
    sections = _tokenize(text)
    truth = _build_truth(_Reader(sections, "truth"))

    prior = _Reader(sections, "prior")
    within = _build_within(prior)
    k_model, k_line = prior.floatv("k_model", 3.0)
    if k_model <= 0:
        raise ConfigError(f"k_model must be positive, got {k_model}", k_line)
    m_max, m_line = prior.intv("m_max", 0)
    if m_max < 0:
        raise ConfigError(f"m_max must be >= 0 (0 means auto), got {m_max}",
                          m_line)

    run = _Reader(sections, "run")
    n_grid, n_line = run.int_list("n_grid")
    if any(n < 2 for n in n_grid):
        raise ConfigError("n_grid entries must be >= 2", n_line)
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ConfigError("n_grid must be strictly increasing", n_line)
    draws, draws_line = run.intv("draws", 50)
    if draws < 1:
        raise ConfigError(f"draws must be >= 1, got {draws}", draws_line)
    replicates, rep_line = run.intv("replicates", 1)
    if replicates < 1:
        raise ConfigError(f"replicates must be >= 1, got {replicates}", rep_line)
    u_raw, u_line = run.floatv("u", 0.5)
    if not 0.0 < u_raw < 1.0:
        raise ConfigError(f"u must lie in (0, 1), got {u_raw}", u_line)
    t, t_line = run.floatv("t", 1.0)
    if t <= 0:
        raise ConfigError(f"t must be positive, got {t}", t_line)
    seed, seed_line = run.intv("seed", 17)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}", seed_line)
    variants, var_line = run.str_list("variants", ("prop7",))
    for v in variants:
        if v not in VARIANTS:
            raise ConfigError(
                f"variant must be one of {', '.join(VARIANTS)}, got {v!r}",
                var_line)
    burn_in, burn_line = run.intv("burn_in", 0)
    if not 0 <= burn_in < len(n_grid):
        raise ConfigError(
            f"burn_in must index into n_grid (0..{len(n_grid) - 1})", burn_line)
    workers, workers_line = run.intv("workers", 0)
    if workers < 0:
        raise ConfigError(f"workers must be >= 0, got {workers}", workers_line)

    out = _Reader(sections, "output")
    csv_path, _ = out.strv("csv", "rate_study.csv")
    plot, _ = out.boolv("plot", False)

    for section in sections.values():
        for key, entry in section.entries.items():
            if not entry.used:
                raise ConfigError(
                    f"unknown key '{key}' in [{section.name}]", entry.line)

    if m_max:
        needed = max(1, truth.m0 or 1)
        if m_max < needed:
            raise ConfigError(
                f"m_max = {m_max} cannot reach the sparse truth's m0 = {needed}")

    return ExperimentConfig(
        truth=truth,
        within=within,
        k_model=float(k_model),
        m_max=int(m_max),
        n_grid=tuple(int(n) for n in n_grid),
        draws=int(draws),
        replicates=int(replicates),
        u=floor_to_unit_fraction(u_raw),
        t=float(t),
        seed=int(seed),
        variants=tuple(dict.fromkeys(variants)),
        burn_in=int(burn_in),
        workers=int(workers),
        csv_path=str(csv_path),
        plot=bool(plot),
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc.strerror}")
    return parse_config_text(text)
