"""Command-line interface.

Subcommands mirror the library stages: ``stability`` measures replace-one
argument stability for one config at one n, ``complexity`` estimates the
confidence-ball Rademacher complexity and ``concentrate center`` runs the
center-concentration tail (all three through the stage functions that
``experiment run`` calls, so they print the record's numbers at the same
n and seed), ``bounds`` evaluates one bound family from a constants file,
``concentrate`` also runs the Pinelis and Doob experiments, ``experiment
run`` executes a full config, ``experiment validate`` re-checks a written
report, and ``losscheck`` certifies loss gradients and constants.

``--seed`` replaces a config's seed before the config is read, so the
config echo and the digest name the run that was measured.

Each subcommand takes only the flags its handler reads (see
:func:`build_parser`); any other flag is a usage error, exit code 2.

Exit codes: 0 on success, 1 when inputs or reports fail validation, 2 on
runtime errors (fit failures, missing files, and similar).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys

from .bounds import BOUND_FAMILIES
from .concentration import (
    center_concentration_experiment,
    doob_decomposition,
    pinelis_tail_experiment,
)
from .lab import (
    MAX_CENTER_REPLICATES,
    MAX_DIM,
    MAX_N,
    ExperimentConfig,
    build_algorithm,
    check_report,
    complexity_stage,
    record_fits,
    report_digest,
    run_experiment,
    sample_stage,
    stage_seeds,
    write_csv,
    write_json,
)
from .learners import _as_list, _count, _integral, _real, _tagged
from .losses import certify_loss, make_loss
from .stability import CELL_HEADER, measure_argument_stability, theoretical_alpha


def _finite(literal: str) -> float:
    """A JSON real: ``NaN``, ``Infinity``, ``-Infinity`` and numerals beyond
    the float range (``1e400``) raise ValueError naming the literal."""
    value = float(literal)
    if not math.isfinite(value):
        raise ValueError(f"{literal} is not a finite number")
    return value


def _load_json(path) -> dict:
    """The JSON file at ``path``, every real in it finite (see :func:`_finite`)."""
    try:
        with open(path) as fh:
            return json.load(fh, parse_constant=_finite, parse_float=_finite)
    except ValueError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc


def _load_config(raw, seed) -> ExperimentConfig:
    """The config of ``raw``, its seed replaced by ``--seed`` when one is given,
    so that the fields, the config echo and the digest name the same run."""
    if seed is not None and isinstance(raw, dict):
        raw = {**raw, "seed": seed}
    return ExperimentConfig.from_dict(raw)


def _pick_n(args, config: ExperimentConfig) -> int:
    return _count(args.n if args.n is not None else config.n_grid[-1], "n", 1, MAX_N)


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))


def _print_csv(header, rows) -> None:
    writer = csv.writer(sys.stdout)
    writer.writerow(header)
    writer.writerows(rows)


def _write_outputs(args, name: str, payload, header, rows) -> None:
    if not args.out_dir:
        return
    os.makedirs(args.out_dir, exist_ok=True)
    write_json(os.path.join(args.out_dir, f"{name}.json"), payload)
    write_csv(os.path.join(args.out_dir, f"{name}.csv"), header, rows)


def _emit(args, name: str, payload, header, rows) -> None:
    if args.format == "csv":
        _print_csv(header, rows)
    else:
        _print_json(payload)
    _write_outputs(args, name, payload, header, rows)


def cmd_stability(args) -> int:
    config = _load_config(_load_json(args.config), args.seed)
    n = _pick_n(args, config)
    seed = stage_seeds(config, n)["stability"]
    sample = sample_stage(config, n)
    report = measure_argument_stability(
        build_algorithm(config), sample, config.distribution, config.replacements, seed=seed
    )
    _emit(args, "stability", report.to_dict(), CELL_HEADER, report.rows())
    return 0


def cmd_complexity(args) -> int:
    config = _load_config(_load_json(args.config), args.seed)
    n = _pick_n(args, config)
    algorithm = build_algorithm(config)
    alpha = theoretical_alpha(algorithm, n)
    seeds = stage_seeds(config, n)
    center = record_fits(config, algorithm, n, ["center"], seeds)["center"]
    ball = complexity_stage(config, sample_stage(config, n), alpha, center, seeds["sigma"])
    payload = {"n": n, "delta": config.delta, "alpha_theory": alpha, **ball}
    estimate = ball["rademacher"]
    header = ["n", "delta", "alpha_theory", "radius", "rademacher_mean", "rademacher_std_error"]
    rows = [[n, config.delta, alpha, ball["radius"], estimate["mean"], estimate["std_error"]]]
    _emit(args, "complexity", payload, header, rows)
    return 0


def cmd_bounds(args) -> int:
    spec = _load_json(args.constants)
    table = {name: (family.required, family.optional) for name, family in BOUND_FAMILIES.items()}
    breakdown = BOUND_FAMILIES[_tagged(spec, "family", table, "constants file")].evaluate(spec)
    payload = breakdown.to_dict()
    header = ["name", "term", "value"]
    rows = [[breakdown.name, label, value] for label, value in breakdown.terms]
    rows.append([breakdown.name, "total", breakdown.total])
    if args.format is not None:
        _emit(args, "bounds", payload, header, rows)
        return 0
    width = max(len(label) for label, _ in breakdown.terms) + 2
    print(f"bound: {breakdown.name}   confidence: {breakdown.confidence:g}")
    for label, value in breakdown.terms:
        print(f"  {label:<{width}} {value:.6g}")
    print(f"  {'total':<{width}} {breakdown.total:.6g}")
    if breakdown.vacuous:
        print("  (vacuous: total exceeds the loss bound)")
    for note in breakdown.notes:
        print(f"  note: {note}")
    _write_outputs(args, "bounds", payload, header, rows)
    return 0


def _emit_tail(args, experiment) -> int:
    payload = experiment.to_dict()
    header = ["threshold", "trials", "violations", "empirical_rate", "theoretical_rate"]
    _emit(args, "concentrate", payload, header, [[payload[k] for k in header]])
    return 0


# Per concentrate kind: the keys its spec needs beside 'kind', and the optional ones.
# center and doob run their nested config at n, on its seed and sizes.
_CONCENTRATE_KEYS = {
    "pinelis": ({"increment_bounds", "dim", "trials", "epsilon"}, {"smooth_constant", "seed"}),
    "center": ({"config", "n"}, ()),
    "doob": ({"config", "n"}, {"suffix_draws"}),
}


def cmd_concentrate(args) -> int:
    spec = _load_json(args.spec)
    kind = _tagged(spec, "kind", _CONCENTRATE_KEYS, "spec")
    if kind == "pinelis":
        # One increment per example; the trials run in blocks of a fixed budget.
        bounds = _as_list(spec["increment_bounds"], "increment_bounds")
        _count(len(bounds), "increment_bounds length", 1, MAX_N)
        experiment = pinelis_tail_experiment(
            [_real(v, "increment bound") for v in bounds],
            _count(spec["dim"], "dim", 1, MAX_DIM),
            _integral(spec["trials"], "trials"),
            _real(spec["epsilon"], "epsilon"),
            smooth_constant=_real(spec.get("smooth_constant", 1.0), "smooth_constant"),
            seed=args.seed if args.seed is not None else _integral(spec.get("seed", 0), "seed"),
        )
        return _emit_tail(args, experiment)
    config = _load_config(spec["config"], args.seed)
    algorithm = build_algorithm(config)
    n = _count(spec["n"], "n", 1, MAX_N)
    if kind == "center":
        # The record's tail at n: the same groups on the same streams.
        alpha, seed = theoretical_alpha(algorithm, n), stage_seeds(config, n)["tail"]
        experiment = center_concentration_experiment(
            algorithm, config.distribution, n, config.trials, config.delta, alpha, seed
        )
        return _emit_tail(args, experiment)
    suffix_draws = _count(spec.get("suffix_draws", 512), "suffix_draws", 256, MAX_CENTER_REPLICATES)
    sample = sample_stage(config, n)
    decomposition = doob_decomposition(
        algorithm, sample, config.distribution, suffix_draws, config.seed
    )
    norms = decomposition.increment_norms()
    errors = decomposition.std_errors
    payload = {
        "n": n,
        "suffix_draws": decomposition.suffix_draws,
        "increment_norms": [float(v) for v in norms],
        "std_errors": [float(v) for v in errors],
        "telescoping_residual": decomposition.telescoping_residual(),
    }
    header = ["t", "increment_norm", "std_error"]
    rows = [[t + 1, float(norms[t]), float(errors[t])] for t in range(len(norms))]
    _emit(args, "concentrate", payload, header, rows)
    return 0


def cmd_experiment_run(args) -> int:
    config = _load_config(_load_json(args.config), args.seed)
    if args.out_dir:
        config = dataclasses.replace(config, out_dir=args.out_dir)
    report = run_experiment(config)
    summary = {
        "name": config.name,
        "n_grid": list(config.n_grid),
        "records": len(report.records),
        "rate": report.rate,
        "digest": report_digest(report),
        "wall_time": report.wall_time,
    }
    if config.out_dir:
        summary["out_dir"] = config.out_dir
    _print_json(summary)
    return 0


def cmd_experiment_validate(args) -> int:
    payload = _load_json(args.report)
    problems = check_report(payload)
    for problem in problems:
        print(f"invalid: {problem}")
    if problems:
        return 1
    print(f"report valid; digest {payload['digest']}")
    return 0


def cmd_losscheck(args) -> int:
    kinds = ("hinge", "logistic", "squared") if args.kind == "all" else (args.kind,)
    checks = []
    for kind in kinds:
        loss = make_loss(kind, 1.0, 1.0, 1.0, ridge_term=args.ridge)
        checks.append(certify_loss(loss, seed=args.seed if args.seed is not None else 0))
    payload = {"checks": checks, "ok": all(c["ok"] for c in checks)}
    header = ["kind", "ridge_term", "fd_max_rel_error", "lipschitz_ok", "bound_ok", "smoothness_ok", "ok"]
    rows = [
        [
            c["kind"],
            c["ridge_term"],
            c["finite_difference"]["max_rel_error"],
            c["lipschitz"]["ok"],
            c["bound"]["ok"],
            "" if c["smoothness"] is None else c["smoothness"]["ok"],
            c["ok"],
        ]
        for c in checks
    ]
    _emit(args, "losscheck", payload, header, rows)
    return 0 if payload["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    # One parent per flag: a subcommand takes only the flags its handler reads.
    seed, out_dir, fmt = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    seed.add_argument("--seed", type=int, default=None, help="override the master seed")
    out_dir.add_argument("--out-dir", default=None, help="directory for JSON/CSV outputs")
    fmt.add_argument("--format", choices=("json", "csv"), default=None, help="stdout format")
    every = [seed, out_dir, fmt]

    parser = argparse.ArgumentParser(
        prog="stabilab",
        description="Replace-one stability measurements and the bounds they certify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stability", parents=every, help="measure replace-one stability at one n")
    p.add_argument("config", help="experiment config JSON")
    p.add_argument("--n", type=int, default=None, help="sample size (default: last of n_grid)")
    p.set_defaults(handler=cmd_stability)

    p = sub.add_parser(
        "complexity",
        parents=every,
        help="estimate the confidence-ball Rademacher complexity",
    )
    p.add_argument("config", help="experiment config JSON")
    p.add_argument("--n", type=int, default=None, help="sample size (default: last of n_grid)")
    p.set_defaults(handler=cmd_complexity)

    p = sub.add_parser(
        "bounds", parents=[out_dir, fmt], help="evaluate one bound family from a constants file"
    )
    p.add_argument("constants", help="JSON file of constants with a 'family' key")
    p.set_defaults(handler=cmd_bounds)

    p = sub.add_parser("concentrate", parents=every, help="run a tail/concentration experiment")
    p.add_argument("spec", help="JSON experiment description with a 'kind' key")
    p.set_defaults(handler=cmd_concentrate)

    p = sub.add_parser("experiment", help="run or validate a full experiment")
    esub = p.add_subparsers(dest="subcommand", required=True)
    run_p = esub.add_parser("run", parents=[seed, out_dir], help="execute a config end to end")
    run_p.add_argument("config", help="experiment config JSON")
    run_p.set_defaults(handler=cmd_experiment_run)
    val_p = esub.add_parser("validate", help="re-check a written report")
    val_p.add_argument("report", help="report.json produced by 'experiment run'")
    val_p.set_defaults(handler=cmd_experiment_validate)

    p = sub.add_parser("losscheck", parents=every, help="certify loss gradients and constants")
    p.add_argument(
        "--kind",
        choices=("hinge", "logistic", "squared", "all"),
        default="all",
        help="which loss to certify",
    )
    p.add_argument(
        "--ridge", type=float, default=0.0, help="ridge augmentation strength"
    )
    p.set_defaults(handler=cmd_losscheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # fit failures, numerical blowups
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
