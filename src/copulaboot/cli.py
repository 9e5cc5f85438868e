"""Command-line interface for the bootstrap combination pipeline.

Results go to standard output (JSON or CSV), logs to standard error.
Exit codes: 0 success, 2 invalid arguments, 3 numerical failure.

All probabilities are decimals in [0, 1]; percentages are never used in
input or output. Correlation matrices are written row-major with ``,``
between entries and ``;`` between rows, e.g. "1,0.5;0.5,1".
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
import time
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .copula import CorrelationMatrix, validate_correlation_matrix
from .coverage import CoverageScenario, run_coverage
from .engine import BootstrapConfig, Combiner, CombinedEstimate, boot_comb
from .errors import (
    CopulabootError,
    DomainError,
    FitError,
    InvalidCorrelationError,
    ParseError,
)
from .fitting import QuantileConstraint, fit_from_quantiles
from .prevalence import (
    PrevAdjustRequest,
    adjust_prevalence,
    rho_sweep,
    scatter_draws,
    sens_spec_sigma,
)

log = logging.getLogger("copulaboot")

EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_EXPR_HELP = """\
Expression grammar for --expr:
  literals        1.5, 2e-3
  variables       [a-zA-Z][a-zA-Z0-9_]*  (bound to marginals in first-appearance order)
  operators       + - * / ^  (usual precedence; ^ is right-associative)
  functions       log(x), exp(x), sqrt(x), min(a,b), max(a,b)
  parentheses     (...)

Scenario files for the coverage command are JSON objects with fields:
  trueParams  list of true parameter values
  dataSizes   list of binomial experiment sizes (one per parameter)
  combiner    {"expr": "x1*x2"} or {"builtin": "product"}
  sigma       nested row-major list, e.g. [[1,0],[0,1]]
  n           bootstrap draws per trial
  method      "percentile" or "hdi"
  level       confidence level in (0,1)
  trials      number of Monte-Carlo trials (overridable with --trials)
"""


class UsageError(Exception):
    """Invalid command-line input; maps to exit code 2."""


def _fit_dist(text: str):
    parts = text.split(":")
    if len(parts) not in (3, 5):
        raise UsageError(
            f"--dist expects family:qLow:qUpp[:aLow:aUpp], got {text!r}"
        )
    family = parts[0]
    try:
        nums = [float(p) for p in parts[1:]]
    except ValueError as exc:
        raise UsageError(f"--dist {text!r}: {exc}") from None
    try:  # an unknown family or quantiles off its support are usage errors
        return fit_from_quantiles(family, QuantileConstraint(*nums))
    except DomainError as exc:
        raise UsageError(f"--dist {text!r}: {exc}") from None
    except FitError as exc:
        raise FitError(f"--dist {text!r}: {exc}", exc.best_residual) from None


def _parse_sigma(text: str) -> CorrelationMatrix:
    try:
        rows = [
            [float(v) for v in row.split(",")] for row in text.split(";") if row.strip()
        ]
    except ValueError as exc:
        raise UsageError(f"--sigma {text!r}: {exc}") from None
    try:
        return validate_correlation_matrix(rows)
    except InvalidCorrelationError as exc:
        raise UsageError(f"--sigma {text!r}: {exc}") from None


def _parse_ci(flag: str, text: str) -> tuple[float, float]:
    try:
        low, upp = (float(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"{flag} expects 'low,upp', got {text!r}") from None
    if not (0.0 < low < upp < 1.0):
        raise UsageError(f"{flag}: need 0 < low < upp < 1, got ({low}, {upp})")
    return low, upp


def _add_common_config(p: argparse.ArgumentParser):
    p.add_argument("--n", type=int, default=1_000_000, help="bootstrap draw count")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument(
        "--method",
        choices=["percentile", "hdi"],
        default="percentile",
        help="interval method",
    )
    p.add_argument("--level", type=float, default=0.95, help="confidence level")
    p.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker threads (default: all cores; results do not depend on it)",
    )
    p.add_argument(
        "--chunk-size", type=int, default=65_536, help="draws per work chunk"
    )


def _add_prev_args(p: argparse.ArgumentParser):
    p.add_argument("--prev-ci", required=True, metavar="L,U")
    p.add_argument("--sens-ci", required=True, metavar="L,U")
    p.add_argument("--spec-ci", required=True, metavar="L,U")
    p.add_argument("--prev", type=float, help="apparent prevalence point estimate")
    p.add_argument("--sens", type=float, help="sensitivity point estimate")
    p.add_argument("--spec", type=float, help="specificity point estimate")


def _make_config(args, return_boot_vals=False) -> BootstrapConfig:
    threads = args.threads if args.threads is not None else (os.cpu_count() or 1)
    try:
        return BootstrapConfig(
            n=args.n,
            seed=args.seed,
            method=args.method,
            level=args.level,
            return_boot_vals=return_boot_vals,
            chunk_size=args.chunk_size,
            threads=threads,
        )
    except DomainError as exc:
        raise UsageError(str(exc)) from None


def _manifest(args, config: BootstrapConfig, **extra) -> dict:
    m = {
        "tool": "copulaboot",
        "version": __version__,
        "command": args.command,
        "n": config.n,
        "seed": config.seed,
        "method": config.method,
        "level": config.level,
        "chunkSize": config.chunk_size,
    }
    m.update(extra)
    return m


def _estimate_json(est: CombinedEstimate, manifest: dict, **extra) -> dict:
    out = {
        "low": est.low,
        "upp": est.upp,
        "point": est.point_estimate,
        "method": est.method,
        "level": est.level,
        "n": est.n,
        "seed": manifest["seed"],
        "diagnostics": est.diagnostics,
        "manifest": manifest,
    }
    out.update(extra)
    return out


def _emit(obj: dict, out_format: str):
    if out_format == "json":
        print(json.dumps(obj, indent=2))
    else:
        flat = {
            k: v for k, v in obj.items() if not isinstance(v, dict)
        }
        writer = csv.writer(sys.stdout)
        writer.writerow(flat.keys())
        writer.writerow(repr(v) if isinstance(v, float) else v for v in flat.values())


def _dump_boot_vals(path: str, est: CombinedEstimate):
    sample = est.sample
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        d = sample.input_draws.shape[1]
        writer.writerow([f"x{i + 1}" for i in range(d)] + ["combined"])
        for row, v in zip(sample.input_draws, sample.values):
            writer.writerow([repr(float(c)) for c in row] + [repr(float(v))])


def _cmd_combine(args) -> int:
    if not args.dist:
        raise UsageError("at least one --dist is required")
    if (args.expr is None) == (args.combiner is None):
        raise UsageError("exactly one of --expr or --combiner is required")
    marginals = [_fit_dist(text) for text in args.dist]
    d = len(marginals)
    if args.sigma is not None:
        sigma = _parse_sigma(args.sigma)
    else:
        sigma = validate_correlation_matrix(np.eye(d))
    if sigma.d != d:
        raise UsageError(
            f"--sigma is {sigma.d}x{sigma.d} but {d} --dist flags were given"
        )
    if args.expr is not None:
        try:
            combiner = Combiner.from_expression(args.expr)
        except ParseError as exc:
            raise UsageError(f"--expr: {exc}") from None
    else:
        try:
            combiner = Combiner.from_name(args.combiner, arity=d)
        except DomainError as exc:
            raise UsageError(f"--combiner: {exc}") from None
    if combiner.arity != d:
        raise UsageError(
            f"combiner has arity {combiner.arity} but {d} --dist flags were given"
        )

    config = _make_config(args, return_boot_vals=args.boot_vals is not None)
    est = boot_comb(marginals, sigma, combiner, config)
    if args.boot_vals is not None:
        _dump_boot_vals(args.boot_vals, est)

    manifest = _manifest(
        args,
        config,
        marginals=[
            {
                "family": m.spec.family.value,
                "params": list(m.spec.params),
                "qLow": m.constraint.q_low,
                "qUpp": m.constraint.q_upp,
                "alphaLow": m.constraint.alpha_low,
                "alphaUpp": m.constraint.alpha_upp,
            }
            for m in marginals
        ],
        sigma=sigma.entries.tolist(),
        combiner=combiner.label,
    )
    _emit(_estimate_json(est, manifest), args.out)
    return 0


def _prev_request(args, return_boot_vals=False) -> PrevAdjustRequest:
    prev_ci = _parse_ci("--prev-ci", args.prev_ci)
    sens_ci = _parse_ci("--sens-ci", args.sens_ci)
    spec_ci = _parse_ci("--spec-ci", args.spec_ci)
    points = None
    if any(v is not None for v in (args.prev, args.sens, args.spec)):
        if None in (args.prev, args.sens, args.spec):
            raise UsageError("--prev, --sens and --spec must be given together")
        points = (args.prev, args.sens, args.spec)
    sigma = _prev_sigma(args)
    config = _make_config(args, return_boot_vals=return_boot_vals)
    try:
        return PrevAdjustRequest(
            prev_ci=prev_ci,
            sens_ci=sens_ci,
            spec_ci=spec_ci,
            sigma=sigma,
            config=config,
            point_estimates=points,
        )
    except DomainError as exc:
        raise UsageError(str(exc)) from None


def _prev_sigma(args) -> CorrelationMatrix:
    if getattr(args, "sigma", None) is not None:
        return _parse_sigma(args.sigma)
    rho = getattr(args, "rho_sens_spec", None)
    if rho is None:
        rho = 0.0
    if not -1.0 <= rho <= 1.0:
        raise UsageError(f"--rho-sens-spec must be in [-1, 1], got {rho}")
    return sens_spec_sigma(rho)


def _cmd_adjust_prev(args) -> int:
    req = _prev_request(args)
    est = adjust_prevalence(req)
    manifest = _manifest(
        args,
        req.config,
        prevCI=list(req.prev_ci),
        sensCI=list(req.sens_ci),
        specCI=list(req.spec_ci),
        pointEstimates=list(req.point_estimates) if req.point_estimates else None,
        sigma=req.sigma.entries.tolist(),
        combiner="roganGladen",
    )
    _emit(
        _estimate_json(
            est,
            manifest,
            pointEstimates=list(req.point_estimates) if req.point_estimates else None,
        ),
        args.out,
    )
    return 0


def _cmd_sweep(args) -> int:
    if args.steps < 0:
        raise UsageError(f"--steps must be >= 0, got {args.steps}")
    for v in (args.rho_from, args.rho_to):
        if not -1.0 <= v <= 1.0:
            raise UsageError(f"correlation must be in [-1, 1], got {v}")
    req = _prev_request(args)
    grid = np.linspace(args.rho_from, args.rho_to, args.steps + 1)
    rows = rho_sweep(req, [float(r) for r in grid])
    print("rho,low,upp,width")
    for row in rows:
        print(
            f"{row.rho:.10g},{row.low:.10g},{row.upp:.10g},{row.width:.10g}"
        )
    return 0


def _cmd_scatter(args) -> int:
    if args.m < 1:
        raise UsageError(f"--m must be >= 1, got {args.m}")
    if not -1.0 <= args.rho <= 1.0:
        raise UsageError(f"--rho must be in [-1, 1], got {args.rho}")
    sens_ci = _parse_ci("--sens-ci", args.sens_ci)
    spec_ci = _parse_ci("--spec-ci", args.spec_ci)
    draws = scatter_draws(sens_ci, spec_ci, args.rho, args.m, args.seed)
    print("sens,spec")
    for s, c in draws:
        print(f"{float(s)!r},{float(c)!r}")
    return 0


def _scenario_field(data: dict, name: str, typ):
    if not isinstance(data, dict) or name not in data:
        raise UsageError(f"scenario file: missing field {name!r}")
    value = data[name]
    if typ is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, typ):
        raise UsageError(
            f"scenario file: field {name!r} must be {typ.__name__}, "
            f"got {type(value).__name__}"
        )
    return value


def _load_scenario(path: str, args) -> CoverageScenario:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read scenario file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"scenario file is not valid JSON: {exc}") from None

    true_params = tuple(float(v) for v in _scenario_field(data, "trueParams", list))
    data_sizes = tuple(int(v) for v in _scenario_field(data, "dataSizes", list))
    comb_spec = _scenario_field(data, "combiner", dict)
    if "expr" in comb_spec:
        try:
            combiner = Combiner.from_expression(comb_spec["expr"])
        except ParseError as exc:
            raise UsageError(f"scenario file: field 'combiner.expr': {exc}") from None
    elif "builtin" in comb_spec:
        try:
            combiner = Combiner.from_name(
                comb_spec["builtin"], arity=len(true_params)
            )
        except DomainError as exc:
            raise UsageError(
                f"scenario file: field 'combiner.builtin': {exc}"
            ) from None
    else:
        raise UsageError("scenario file: field 'combiner' needs 'expr' or 'builtin'")
    try:
        sigma = validate_correlation_matrix(_scenario_field(data, "sigma", list))
    except InvalidCorrelationError as exc:
        raise UsageError(f"scenario file: field 'sigma': {exc}") from None

    trials = args.trials if args.trials is not None else data.get("trials")
    if trials is None:
        raise UsageError("scenario file: missing field 'trials' (or pass --trials)")
    if trials < 1:
        raise UsageError(f"trials must be >= 1, got {trials}")
    if args.threads < 1:
        raise UsageError(f"threads must be >= 1, got {args.threads}")
    try:
        config = BootstrapConfig(
            n=int(_scenario_field(data, "n", int)),
            seed=args.seed,
            method=_scenario_field(data, "method", str),
            level=_scenario_field(data, "level", float),
            threads=args.threads,
        )
        true_combined = float(
            combiner(np.asarray(true_params, dtype=float)[None, :])[0]
        )
        return CoverageScenario(
            true_params=true_params,
            data_sizes=data_sizes,
            combiner=combiner,
            true_combined=true_combined,
            sigma=sigma,
            config=config,
            trials=int(trials),
        )
    except DomainError as exc:
        raise UsageError(f"scenario file: {exc}") from None


def _cmd_coverage(args) -> int:
    scenario = _load_scenario(args.scenario, args)
    result = run_coverage(scenario, args.seed)
    out = {
        "coverage": result.coverage,
        "meanWidth": result.mean_width,
        "mcStdErr": result.mc_std_err,
        "excludedTrials": result.excluded_trials,
        "trials": result.trials,
        "manifest": {
            "tool": "copulaboot",
            "version": __version__,
            "command": "coverage",
            "scenario": args.scenario,
            "seed": args.seed,
            "trials": scenario.trials,
        },
    }
    print(json.dumps(out, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copulaboot",
        description=(
            "Confidence intervals for combinations of estimated parameters "
            "via Gaussian-copula parametric bootstrap."
        ),
        epilog=_EXPR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "combine", help="combine fitted marginals with an expression or builtin"
    )
    p.add_argument(
        "--dist",
        action="append",
        default=[],
        metavar="FAMILY:QLOW:QUPP[:ALOW:AUPP]",
        help="marginal spec, repeatable, ordered",
    )
    p.add_argument("--expr", help="combination expression, e.g. 'x1*x2'")
    p.add_argument(
        "--combiner", help="builtin combiner: product, sum, identity, roganGladen"
    )
    p.add_argument("--sigma", help="correlation matrix, e.g. '1,0.5;0.5,1'")
    p.add_argument("--boot-vals", metavar="PATH", help="dump draws to CSV")
    p.add_argument("--out", choices=["json", "csv"], default="json")
    _add_common_config(p)
    p.set_defaults(func=_cmd_combine)

    p = sub.add_parser(
        "adjust-prev", help="adjust a prevalence for test sensitivity/specificity"
    )
    _add_prev_args(p)
    p.add_argument(
        "--rho-sens-spec",
        type=float,
        help="sensitivity/specificity correlation (builds the 3x3 matrix)",
    )
    p.add_argument("--sigma", help="full 3x3 correlation matrix (order prev,sens,spec)")
    p.add_argument("--out", choices=["json", "csv"], default="json")
    _add_common_config(p)
    p.set_defaults(func=_cmd_adjust_prev)

    p = sub.add_parser(
        "sweep", help="interval width as a function of sens/spec correlation"
    )
    _add_prev_args(p)
    p.add_argument("--rho-from", type=float, required=True)
    p.add_argument("--rho-to", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    _add_common_config(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "scatter", help="copula-coupled sensitivity/specificity draws"
    )
    p.add_argument("--sens-ci", required=True, metavar="L,U")
    p.add_argument("--spec-ci", required=True, metavar="L,U")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--m", type=int, default=10_000, help="number of draws")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.set_defaults(func=_cmd_scatter)

    p = sub.add_parser("coverage", help="Monte-Carlo coverage experiment")
    p.add_argument("--scenario", required=True, metavar="PATH", help="JSON scenario file")
    p.add_argument("--trials", type=int, help="override scenario trial count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_coverage)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.time()
    try:
        code = args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CopulabootError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    log.info("completed in %.2fs", time.time() - started)
    return code


def main_entry():  # console-script wrapper
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
