"""Command-line interface for the bootstrap combination pipeline.

Results go to standard output (JSON or CSV), logs to standard error.
Exit codes: 0 success, 2 invalid input, 3 numerical failure. The library
decides what is valid: its ``ValueError`` subclasses (``DomainError``,
``InvalidCorrelationError``, ``ParseError``) and this module's
``UsageError`` exit 2; every other ``CopulabootError`` exits 3.

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
from contextlib import contextmanager, nullcontext
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .copula import CorrelationMatrix, validate_correlation_matrix
from .coverage import CoverageScenario, run_coverage
from .engine import BootstrapConfig, Combiner, CombinedEstimate, _allocate, boot_comb
from .errors import CopulabootError
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
  combiner    exactly one of {"expr": "x1*x2"} or {"builtin": "product"}
  sigma       nested row-major list, e.g. [[1,0],[0,1]]
  n           bootstrap draws per trial
  method      "percentile" or "hdi"
  level       bootstrap interval level in (0,1); simulated input CIs are 95%
  trials      number of Monte-Carlo trials (overridable with --trials)
"""


class UsageError(CopulabootError, ValueError):
    """Command-line input the library never sees, such as a missing flag."""


@contextmanager
def _naming(name: str):
    """Prefix an error raised inside with the flag or field it came from.

    A library error keeps its type, and with it its exit code; a plain
    ``ValueError`` (a number or JSON that does not parse) or an ``OSError``
    (a file that cannot be opened) becomes a ``UsageError``.
    """
    try:
        yield
    except CopulabootError as exc:
        exc.args = (f"{name}: {exc}",)
        raise
    except (OSError, ValueError) as exc:
        raise UsageError(f"{name}: {exc}") from None


def _fit_dist(text: str):
    parts = text.split(":")
    if len(parts) not in (3, 5):
        raise UsageError(
            f"--dist expects family:qLow:qUpp[:aLow:aUpp], got {text!r}"
        )
    with _naming(f"--dist {text!r}"):
        constraint = QuantileConstraint(*(float(p) for p in parts[1:]))
        return fit_from_quantiles(parts[0], constraint)


def _parse_sigma(text: str) -> CorrelationMatrix:
    with _naming(f"--sigma {text!r}"):
        rows = [row.split(",") for row in text.split(";") if row.strip()]
        return validate_correlation_matrix([[float(v) for v in r] for r in rows])


def _parse_ci(flag: str, text: str) -> tuple[float, float]:
    try:
        low, upp = (float(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"{flag} expects 'low,upp', got {text!r}") from None
    return low, upp


def _combiner(expr, builtin, arity: int, names: tuple[str, str]) -> Combiner:
    """The combiner given by exactly one of expression text ``expr`` and a
    builtin name ``builtin`` (None when not given); ``names`` say where each
    comes from."""
    if (expr is None) == (builtin is None):
        raise UsageError(f"exactly one of {names[0]} or {names[1]} is required")
    name, text = (names[0], expr) if expr is not None else (names[1], builtin)
    if not isinstance(text, str):
        raise UsageError(f"{name} must be a string, got {type(text).__name__}")
    with _naming(name):
        if expr is not None:
            return Combiner.from_expression(text)
        return Combiner.from_name(text, arity=arity)


def _add_common_config(p: argparse.ArgumentParser):
    defaults = BootstrapConfig  # the dataclass's fields hold its defaults
    p.add_argument("--n", type=int, default=defaults.n, help="bootstrap draw count")
    p.add_argument("--seed", type=int, default=defaults.seed, help="random seed")
    p.add_argument(
        "--method",
        choices=["percentile", "hdi"],
        default=defaults.method,
        help="interval method",
    )
    p.add_argument(
        "--level", type=float, default=defaults.level, help="confidence level"
    )
    p.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker threads (default: the CPUs this process may use; "
        "results do not depend on it)",
    )
    p.add_argument(
        "--chunk-size", type=int, default=defaults.chunk_size, help="draws per work chunk"
    )


def _add_prev_cis(p: argparse.ArgumentParser):
    p.add_argument("--prev-ci", required=True, metavar="L,U")
    p.add_argument("--sens-ci", required=True, metavar="L,U")
    p.add_argument("--spec-ci", required=True, metavar="L,U")


def _make_config(args, return_boot_vals=False) -> BootstrapConfig:
    # the CPUs this process may use: under `taskset` fewer than cpu_count()
    affinity = getattr(os, "sched_getaffinity", None)
    usable = len(affinity(0)) if affinity else os.cpu_count() or 1
    threads = args.threads if args.threads is not None else usable
    return BootstrapConfig(
        n=args.n,
        seed=args.seed,
        method=args.method,
        level=args.level,
        return_boot_vals=return_boot_vals,
        chunk_size=args.chunk_size,
        threads=threads,
    )


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


def _dump_boot_vals(fh, est: CombinedEstimate):
    sample = est.sample
    writer = csv.writer(fh)
    d = sample.input_draws.shape[1]
    writer.writerow([f"x{i + 1}" for i in range(d)] + ["combined"])
    for row, v in zip(sample.input_draws, sample.values):
        writer.writerow([repr(float(c)) for c in row] + [repr(float(v))])


def _cmd_combine(args) -> int:
    if not args.dist:
        raise UsageError("at least one --dist is required")
    marginals = [_fit_dist(text) for text in args.dist]
    d = len(marginals)
    if args.sigma is not None:
        sigma = _parse_sigma(args.sigma)
    else:
        sigma = validate_correlation_matrix(np.eye(d))
    combiner = _combiner(args.expr, args.combiner, d, ("--expr", "--combiner"))

    config = _make_config(args, return_boot_vals=args.boot_vals is not None)
    fh = nullcontext()
    if args.boot_vals is not None:
        with _naming("--boot-vals"):  # opened before any draw is sampled
            fh = open(args.boot_vals, "w", newline="")
    with fh:
        est = boot_comb(marginals, sigma, combiner, config)
        if args.boot_vals is not None:
            _dump_boot_vals(fh, est)

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


def _prev_request(args, sigma: CorrelationMatrix, points=None) -> PrevAdjustRequest:
    return PrevAdjustRequest(
        prev_ci=_parse_ci("--prev-ci", args.prev_ci),
        sens_ci=_parse_ci("--sens-ci", args.sens_ci),
        spec_ci=_parse_ci("--spec-ci", args.spec_ci),
        sigma=sigma,
        config=_make_config(args),
        point_estimates=points,
    )


def _prev_sigma(args) -> CorrelationMatrix:
    if args.sigma is not None:
        return _parse_sigma(args.sigma)
    with _naming("--rho-sens-spec"):
        return sens_spec_sigma(args.rho_sens_spec)


def _cmd_adjust_prev(args) -> int:
    points = (args.prev, args.sens, args.spec)
    if points.count(None) not in (0, 3):
        raise UsageError("--prev, --sens and --spec must be given together")
    req = _prev_request(args, _prev_sigma(args), None if None in points else points)
    est = adjust_prevalence(req)
    points = list(req.point_estimates) if req.point_estimates else None
    manifest = _manifest(
        args,
        req.config,
        prevCI=list(req.prev_ci),
        sensCI=list(req.sens_ci),
        specCI=list(req.spec_ci),
        pointEstimates=points,
        sigma=req.sigma.entries.tolist(),
        combiner="roganGladen",
    )
    _emit(_estimate_json(est, manifest, pointEstimates=points), args.out)
    return 0


def _cmd_sweep(args) -> int:
    if args.steps < 0:
        raise UsageError(f"--steps must be >= 0, got {args.steps}")
    req = _prev_request(args, sens_spec_sigma(0.0))  # rows take rho from the grid
    with _naming("--steps"):  # a grid too big to hold is refused before any fit
        _allocate(args.steps + 1, (args.steps + 1,))
    grid = np.linspace(args.rho_from, args.rho_to, args.steps + 1)
    rows = rho_sweep(req, [float(r) for r in grid])
    print("rho,low,upp,width")
    for row in rows:
        print(
            f"{row.rho:.10g},{row.low:.10g},{row.upp:.10g},{row.width:.10g}"
        )
    return 0


def _cmd_scatter(args) -> int:
    sens_ci = _parse_ci("--sens-ci", args.sens_ci)
    spec_ci = _parse_ci("--spec-ci", args.spec_ci)
    draws = scatter_draws(sens_ci, spec_ci, args.rho, args.m, args.seed)
    print("sens,spec")
    for s, c in draws:
        print(f"{float(s)!r},{float(c)!r}")
    return 0


def _scenario_value(value, typ, name: str):
    if typ is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    # bool is an int subclass, but a JSON true is no number
    if isinstance(value, bool) or not isinstance(value, typ):
        raise UsageError(
            f"scenario file: field {name!r} must be {typ.__name__}, "
            f"got {type(value).__name__}"
        )
    return value


def _scenario_field(data: dict, name: str, typ, item=None):
    """Field ``name`` checked to be a ``typ``; with ``item``, a list whose
    elements are each checked to be an ``item``, returned as a tuple."""
    if not isinstance(data, dict) or name not in data:
        raise UsageError(f"scenario file: missing field {name!r}")
    value = _scenario_value(data[name], typ, name)
    if item is None:
        return value
    return tuple(_scenario_value(v, item, f"{name}[{i}]") for i, v in enumerate(value))


def _load_scenario(path: str, args) -> CoverageScenario:
    with _naming("scenario file"), open(path) as fh:
        data = json.load(fh)

    true_params = _scenario_field(data, "trueParams", list, float)
    data_sizes = _scenario_field(data, "dataSizes", list, int)
    comb_spec = _scenario_field(data, "combiner", dict)
    with _naming("scenario file"):
        combiner = _combiner(
            comb_spec.get("expr"),
            comb_spec.get("builtin"),
            len(true_params),
            ("field 'combiner.expr'", "field 'combiner.builtin'"),
        )
    raw_sigma = _scenario_field(data, "sigma", list)
    with _naming("scenario file: field 'sigma'"):
        sigma = validate_correlation_matrix(raw_sigma)
    trials = args.trials
    if trials is None:
        trials = _scenario_field(data, "trials", int)

    config = BootstrapConfig(
        n=_scenario_field(data, "n", int),
        seed=args.seed,
        method=_scenario_field(data, "method", str),
        level=_scenario_field(data, "level", float),
        threads=args.threads,
    )
    return CoverageScenario(
        true_params=true_params,
        data_sizes=data_sizes,
        combiner=combiner,
        true_combined=float(combiner(np.asarray(true_params)[None, :])[0]),
        sigma=sigma,
        config=config,
        trials=trials,
    )


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

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        # a prefix of a flag is refused, not taken as the flag
        return sub.add_parser(name, help=summary, allow_abbrev=False)

    p = command("combine", "combine fitted marginals with an expression or builtin")
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

    p = command("adjust-prev", "adjust a prevalence for test sensitivity/specificity")
    _add_prev_cis(p)
    p.add_argument("--prev", type=float, help="apparent prevalence point estimate")
    p.add_argument("--sens", type=float, help="sensitivity point estimate")
    p.add_argument("--spec", type=float, help="specificity point estimate")
    dependence = p.add_mutually_exclusive_group()
    dependence.add_argument(
        "--rho-sens-spec",
        type=float,
        default=0.0,
        help="sensitivity/specificity correlation (builds the 3x3 matrix)",
    )
    dependence.add_argument(
        "--sigma", help="full 3x3 correlation matrix (order prev,sens,spec)"
    )
    p.add_argument("--out", choices=["json", "csv"], default="json")
    _add_common_config(p)
    p.set_defaults(func=_cmd_adjust_prev)

    p = command("sweep", "interval width as a function of sens/spec correlation")
    _add_prev_cis(p)
    p.add_argument("--rho-from", type=float, required=True)
    p.add_argument("--rho-to", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    _add_common_config(p)
    p.set_defaults(func=_cmd_sweep)

    p = command("scatter", "copula-coupled sensitivity/specificity draws")
    p.add_argument("--sens-ci", required=True, metavar="L,U")
    p.add_argument("--spec-ci", required=True, metavar="L,U")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--m", type=int, default=10_000, help="number of draws")
    p.add_argument(
        "--seed", type=int, default=BootstrapConfig.seed, help="random seed"
    )
    p.set_defaults(func=_cmd_scatter)

    p = command("coverage", "Monte-Carlo coverage experiment")
    p.add_argument("--scenario", required=True, metavar="PATH", help="JSON scenario file")
    p.add_argument("--trials", type=int, help="override scenario trial count")
    p.add_argument("--seed", type=int, default=BootstrapConfig.seed)
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
    except CopulabootError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, ValueError) else EXIT_NUMERICAL
    log.info("completed in %.2fs", time.time() - started)
    return code


def main_entry():  # console-script wrapper
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
