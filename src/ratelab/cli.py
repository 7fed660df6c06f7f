"""Command-line entry point.

Subcommands: divergence, bound, complexity, simulate, verify-prop2,
rate-study.  Exit codes: 0 success, 1 validation error, 2 numerical
failure (including a failed bound verification).
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from dataclasses import replace
from typing import Optional

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config
from .divergence import DiscreteDensity, QuadratureError, d_t_squared
from .plots import render_plots
from .posterior import exact_enumeration_oracle, random_oracle_config
from .rate_bounds import VARIANTS
from .rng import stream
from .study import (cell_divergences, log_mixture_norm_complexity, naming,
                    run_rate_study, variant_bounds_for_n, write_study_csv)

__all__ = ["main"]

_TAG_ORACLE = 3


class _Parser(argparse.ArgumentParser):
    """argparse ends bad invocations with status 2; remap to the
    validation exit code by channeling errors through ConfigError."""

    def error(self, message):
        raise ConfigError(message)


def _float_list(text: str):
    try:
        return tuple(float(p.strip()) for p in text.split(",") if p.strip())
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}")


def _emit(lines, out_path: Optional[str]):
    body = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(body)
    else:
        sys.stdout.write(body)


def _check_directory(path: Optional[str]) -> None:
    # the error open() would raise after the work, raised before it
    if path and not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _g17(value: float) -> str:
    return format(float(value), ".17g")


def _load_study_config(args) -> ExperimentConfig:
    if not args.config:
        raise ConfigError("this subcommand requires --config")
    config = load_config(args.config)
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        raise ConfigError("--seed must be >= 0")
    return config.with_overrides(seed=seed)


def _cmd_divergence(args) -> int:
    masses_p = _float_list(args.p)
    masses_q = _float_list(args.q)
    if len(masses_p) != len(masses_q) or len(masses_p) < 2:
        raise ConfigError("--p and --q need matching lists of >= 2 masses")
    p = DiscreteDensity(np.array(masses_p))
    q = DiscreteDensity(np.array(masses_q))
    lines = ["t,d_t2"]
    for t in _float_list(args.t):
        lines.append(f"{_g17(t)},{_g17(d_t_squared(p, q, t))}")
    _emit(lines, args.out)
    return 0


def _cmd_bound(args) -> int:
    config = _load_study_config(args)
    if args.variant:
        config = replace(config, variants=(args.variant,))
    lines = ["variant,u,t,n,m,delta,approx_term,box_term,model_term,"
             "penalized_div,complexity_term,epsilon_n,log_richness"]
    for n in config.n_grid:
        for vb in variant_bounds_for_n(config, n):
            pen = vb.penalized
            lines.append(",".join([
                vb.variant, _g17(config.u), _g17(config.t), str(n),
                str(pen.m), _g17(pen.delta), _g17(pen.approx_term),
                _g17(pen.box_term), _g17(pen.model_term),
                _g17(vb.penalized_div), _g17(vb.complexity_term),
                _g17(vb.epsilon_n), _g17(vb.log_richness)]))
    _emit(lines, args.out)
    return 0


def _cmd_complexity(args) -> int:
    config = _load_study_config(args)
    lines = ["m,u,n,log_grid_sum,log_analytic_bound,log_mixture_total"]
    u = config.u
    for n in config.n_grid:
        spec = config.prior_for(n)
        with naming(n=n):  # model m's logs are m times the per-coordinate ones, over u
            log_mixture = log_mixture_norm_complexity(spec, u)
            log_sum = spec.within.log_cell_sum(n, u)
            log_analytic = spec.within.log_analytic_sum(n, u)
        lines.extend(",".join([str(m), _g17(u), str(n), _g17(m * log_sum / u),
                               _g17(m * log_analytic / u), _g17(log_mixture)])
                     for m in range(1, spec.m_max + 1))
    _emit(lines, args.out)
    return 0


def _cmd_simulate(args) -> int:
    config = _load_study_config(args)
    lines = ["# ratelab simulate schema v1", "n,replicate,draw,d2"]
    for n in config.n_grid:
        for r in range(config.replicates):
            summary = cell_divergences(config, n, r)
            for d, value in enumerate(summary.values):
                lines.append(f"{n},{r},{d},{_g17(value)}")
    _emit(lines, args.out)
    return 0


def _oracle_digest(cfg: dict) -> str:
    # imported here: only verify-prop2 digests, and at the top of the module
    # hashlib adds ~4 MB of peak RSS to every command
    import hashlib

    parts = [
        " ".join(_g17(v) for v in cfg["p0"].mass),
        "|".join(" ".join(_g17(v) for v in a.mass) for a in cfg["atoms"]),
        " ".join(_g17(v) for v in cfg["prior_masses"]),
        str(cfg["n"]),
        " ".join(str(i) for i in cfg["event"]),
        " ".join(str(i) for i in cfg["anchor"]),
        _g17(cfg["u"]), _g17(cfg["t"]),
    ]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:12]


def _cmd_verify_prop2(args) -> int:
    seed = args.seed if args.seed is not None else 0
    if seed < 0:
        raise ConfigError("--seed must be >= 0")
    count = args.count
    if count < 1:
        raise ConfigError("--count must be >= 1")
    lines = ["config,n,u,t,lhs,lhs_power,rhs,holds"]
    failures = 0
    for i in range(count):
        cfg = random_oracle_config(stream(seed, _TAG_ORACLE, i))
        result = exact_enumeration_oracle(**cfg)
        failures += 0 if result.holds else 1
        lines.append(",".join([
            _oracle_digest(cfg), str(result.n), _g17(result.u),
            _g17(result.t), _g17(result.lhs), _g17(result.lhs_power),
            _g17(result.rhs), "true" if result.holds else "false"]))
    _emit(lines, args.out)
    if failures:
        print(f"error: posterior-mass bound violated in {failures}/{count} "
              "configurations", file=sys.stderr)
        return 2
    return 0


def _cmd_rate_study(args) -> int:
    if not args.out:
        raise ConfigError(f"--out must name the CSV file, got {args.out!r}")
    result = run_rate_study(_load_study_config(args))
    write_study_csv(result, args.out)
    print(f"rows: {len(result.rows)}")
    print(f"csv: {args.out}")
    fit = result.summary.fit
    print(f"slope: {fit.slope:.6g} intercept: {fit.intercept:.6g} "
          f"r2: {fit.r_squared:.6g}")
    for variant, worst in result.summary.max_exceedance:
        print(f"exceedance[{variant}]: {worst:.6g} "
              f"(n >= {result.summary.burn_in_n})")
    if args.plot:
        prefix = args.out
        if prefix.endswith(".csv"):
            prefix = prefix[:-4]
        paths = render_plots(result, prefix)
        print("plots: " + " ".join(paths))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="ratelab",
                     description="divergence bounds and rate studies for "
                                 "binned binary regression")
    sub = parser.add_subparsers(dest="command", required=True)

    def _common(p, config_cmd=True):
        if config_cmd:
            p.add_argument("--config", help="experiment config file")
            p.add_argument("--seed", type=int, default=None,
                           help="override the config seed")
        p.add_argument("--out", default=None, help="write output here "
                       "instead of stdout")

    p = sub.add_parser("divergence", help="evaluate d_t2 between two "
                       "discrete densities")
    p.add_argument("--p", required=True, help="comma-separated masses")
    p.add_argument("--q", required=True, help="comma-separated masses")
    p.add_argument("--t", default="1", help="comma-separated t values")
    _common(p, config_cmd=False)
    p.set_defaults(func=_cmd_divergence)

    p = sub.add_parser("bound", help="epsilon_n breakdown per n and variant")
    p.add_argument("--variant", choices=list(VARIANTS), default=None,
                   help="restrict to one bound variant")
    _common(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("complexity", help="natural logs of the norm "
                       "complexities per model size")
    _common(p)
    p.set_defaults(func=_cmd_complexity)

    p = sub.add_parser("simulate", help="per-draw posterior divergences")
    _common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify-prop2", help="randomized exact check of the "
                       "posterior-mass bound")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify_prop2)

    p = sub.add_parser("rate-study", help="full study: simulate, bound, "
                       "fit the rate, write CSV (--out, default rate_study.csv)")
    p.add_argument("--plot", action="store_true",
                   help="also write SVG plots next to the CSV")
    _common(p)
    p.set_defaults(func=_cmd_rate_study, out="rate_study.csv")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _check_directory(args.out)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (QuadratureError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
