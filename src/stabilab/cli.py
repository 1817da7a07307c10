"""Command-line interface.

Subcommands mirror the library stages: ``stability`` measures replace-one
argument stability for one config at one n, ``complexity`` estimates the
confidence-ball Rademacher complexity, ``bounds`` evaluates one bound
family from a constants file, ``concentrate`` runs a tail experiment,
``experiment run`` executes a full config, ``experiment validate``
re-checks a written report, and ``losscheck`` certifies loss gradients
and constants.

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
from .complexity import AlgorithmicBall, ball_rademacher, ball_radius, estimate_center
from .concentration import (
    center_concentration_experiment,
    doob_decomposition,
    pinelis_tail_experiment,
)
from .datagen import draw_sample
from .lab import (
    MAX_N,
    ExperimentConfig,
    build_algorithm,
    report_digest,
    run_experiment,
    validate_bound_coverage,
)
from .losses import certify_loss, make_loss
from .seeding import child_seed
from .stability import measure_argument_stability, theoretical_alpha


def _load_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc


def _load_config(args) -> ExperimentConfig:
    config = ExperimentConfig.from_dict(_load_json(args.config))
    if getattr(args, "seed", None) is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config

def _pick_n(args, config: ExperimentConfig) -> int:
    n = args.n if args.n is not None else config.n_grid[-1]
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must lie in [1, {MAX_N}]")
    return n


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _print_csv(header, rows) -> None:
    writer = csv.writer(sys.stdout)
    writer.writerow(header)
    writer.writerows(rows)


def _write_outputs(args, name: str, payload, header=None, rows=None) -> None:
    if not args.out_dir:
        return
    os.makedirs(args.out_dir, exist_ok=True)
    with open(os.path.join(args.out_dir, f"{name}.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if header is not None:
        with open(os.path.join(args.out_dir, f"{name}.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)


def _emit(args, name: str, payload, header=None, rows=None) -> None:
    if args.format == "csv":
        if header is None:
            raise ValueError(f"{name} has no CSV form; use --format json")
        _print_csv(header, rows)
    else:
        _print_json(payload)
    _write_outputs(args, name, payload, header, rows)


def cmd_stability(args) -> int:
    config = _load_config(args)
    n = _pick_n(args, config)
    algorithm = build_algorithm(config)
    dist = config.distribution
    sample = draw_sample(dist, n, child_seed(config.seed, "sample", n))
    report = measure_argument_stability(
        algorithm,
        sample,
        dist,
        config.replacements,
        eval_loss=algorithm.loss_for(n),
        seed=child_seed(config.seed, "stability", n),
    )
    rows = list(report.csv_rows())
    _emit(args, "stability", report.to_dict(), ["i", "replacement", "distance", "loss_gap"], rows)
    return 0


def cmd_complexity(args) -> int:
    config = _load_config(args)
    n = _pick_n(args, config)
    algorithm = build_algorithm(config)
    dist = config.distribution
    alpha = theoretical_alpha(algorithm, n)
    radius = ball_radius(1.0, alpha, n, config.delta)
    center = estimate_center(
        algorithm, dist, n, m=config.center_replicates, seed=child_seed(config.seed, "center", n)
    )
    ball = AlgorithmicBall(center.vector, radius, n, config.delta)
    sample = draw_sample(dist, n, child_seed(config.seed, "sample", n))
    estimate = ball_rademacher(
        ball, sample.features, config.draws, seed=child_seed(config.seed, "sigma", n)
    )
    payload = {
        "n": n,
        "delta": config.delta,
        "alpha_theory": alpha,
        "radius": radius,
        "center_std_error": center.std_error_norm(),
        "rademacher": estimate.to_dict(),
    }
    header = ["n", "delta", "alpha_theory", "radius", "rademacher_mean", "rademacher_std_error"]
    rows = [[n, config.delta, alpha, radius, estimate.mean, estimate.std_error]]
    _emit(args, "complexity", payload, header, rows)
    return 0


def _evaluate_bound_family(spec: dict):
    if "family" not in spec:
        raise ValueError("constants file needs a 'family' key")
    name = spec["family"]
    if name not in BOUND_FAMILIES:
        raise ValueError(f"unknown bound family {name!r}")
    family = BOUND_FAMILIES[name]
    constants = {key: value for key, value in spec.items() if key != "family"}
    unknown = set(constants) - family.required - set(family.optional)
    if unknown:
        raise ValueError(f"unknown {name} constants: {sorted(unknown)}")
    return family.evaluate(constants)


def cmd_bounds(args) -> int:
    breakdown = _evaluate_bound_family(_load_json(args.constants))
    payload = breakdown.to_dict()
    header = ["name", "term", "value"]
    rows = [[breakdown.name, label, value] for label, value in breakdown.terms]
    rows.append([breakdown.name, "total", breakdown.total])
    if args.format == "json":
        _print_json(payload)
    elif args.format == "csv":
        _print_csv(header, rows)
    else:
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


def cmd_concentrate(args) -> int:
    spec = _load_json(args.spec)
    if "kind" not in spec:
        raise ValueError("concentrate spec needs a 'kind' key")
    kind = spec["kind"]
    seed = args.seed if args.seed is not None else int(spec.get("seed", 0))
    if kind == "pinelis":
        experiment = pinelis_tail_experiment(
            spec["increment_bounds"],
            int(spec["dim"]),
            int(spec["trials"]),
            spec["epsilon"],
            smooth_constant=spec.get("smooth_constant", 1.0),
            seed=seed,
        )
        payload = experiment.to_dict()
        header = ["threshold", "trials", "violations", "empirical_rate", "theoretical_rate"]
        rows = [[payload[k] for k in header]]
        _emit(args, "concentrate", payload, header, rows)
        return 0
    if kind not in ("center", "doob"):
        raise ValueError(f"unknown concentrate kind {kind!r}")
    if "config" not in spec or "n" not in spec:
        raise ValueError(f"{kind} spec needs 'config' and 'n' keys")
    config = ExperimentConfig.from_dict(spec["config"])
    algorithm = build_algorithm(config)
    dist = config.distribution
    n = int(spec["n"])
    if kind == "center":
        alpha = theoretical_alpha(algorithm, n)
        experiment = center_concentration_experiment(
            algorithm,
            dist,
            n,
            trials=config.trials,
            delta=config.delta,
            alpha=alpha,
            seed=seed,
            center_replicates=spec.get("center_replicates"),
        )
        payload = experiment.to_dict()
        header = ["threshold", "trials", "violations", "empirical_rate", "theoretical_rate"]
        rows = [[payload[k] for k in header]]
        _emit(args, "concentrate", payload, header, rows)
        return 0
    sample = draw_sample(dist, n, child_seed(seed, "sample", n))
    decomposition = doob_decomposition(
        algorithm, sample, dist, int(spec.get("suffix_draws", 512)), seed
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
    config = _load_config(args)
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


def _check_report(payload: dict) -> list:
    problems = []
    stored = payload.get("digest")
    if stored is not None:
        recomputed = report_digest(payload)
        if stored != recomputed:
            problems.append(f"digest mismatch: stored {stored[:12]}.. != {recomputed[:12]}..")
    for record in payload.get("records", []):
        n = record["n"]
        theory = record["stability"].get("theory_alpha")
        for bound in record["bounds"]:
            total = math.fsum(term["value"] for term in bound["terms"])
            if not math.isclose(total, bound["total"], rel_tol=1e-12, abs_tol=1e-15):
                problems.append(f"n={n} {bound['name']}: total != sum of terms")
            used = bound["constants_used"].get("alpha")
            if theory is not None and used is not None:
                if not math.isclose(used, theory, rel_tol=1e-12, abs_tol=1e-15):
                    problems.append(
                        f"n={n} {bound['name']}: alpha {used:.6g} != theoretical {theory:.6g}"
                    )
    coverage = payload.get("coverage")
    if coverage and coverage.get("replications", 0) >= 100:
        for which in ("plain-gap", "fast-rate"):
            outcome = validate_bound_coverage(payload, which)
            runs, nominal = outcome["runs"], outcome["nominal"]
            envelope = runs * nominal + 3.0 * math.sqrt(runs * nominal * (1.0 - nominal))
            if outcome["violations"] > envelope:
                problems.append(
                    f"coverage {which}: {outcome['violations']} violations exceed "
                    f"envelope {envelope:.1f} at nominal {nominal:g}"
                )
    if payload.get("failed"):
        problems.append(f"report carries a failure marker: {payload['failed']}")
    return problems


def cmd_experiment_validate(args) -> int:
    payload = _load_json(args.report)
    problems = _check_report(payload)
    if problems:
        for problem in problems:
            print(f"invalid: {problem}")
        return 1
    digest = payload.get("digest", report_digest(payload))
    print(f"report valid; digest {digest}")
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="override the master seed")
    common.add_argument("--out-dir", default=None, help="directory for JSON/CSV outputs")
    common.add_argument(
        "--format", choices=("json", "csv"), default=None, help="stdout format"
    )

    parser = argparse.ArgumentParser(
        prog="stabilab",
        description="Replace-one stability measurements and the bounds they certify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "stability", parents=[common], help="measure replace-one stability at one n"
    )
    p.add_argument("config", help="experiment config JSON")
    p.add_argument("--n", type=int, default=None, help="sample size (default: last of n_grid)")
    p.set_defaults(handler=cmd_stability)

    p = sub.add_parser(
        "complexity",
        parents=[common],
        help="estimate the confidence-ball Rademacher complexity",
    )
    p.add_argument("config", help="experiment config JSON")
    p.add_argument("--n", type=int, default=None, help="sample size (default: last of n_grid)")
    p.set_defaults(handler=cmd_complexity)

    p = sub.add_parser(
        "bounds", parents=[common], help="evaluate one bound family from a constants file"
    )
    p.add_argument("constants", help="JSON file of constants with a 'family' key")
    p.set_defaults(handler=cmd_bounds)

    p = sub.add_parser(
        "concentrate", parents=[common], help="run a tail/concentration experiment"
    )
    p.add_argument("spec", help="JSON experiment description with a 'kind' key")
    p.set_defaults(handler=cmd_concentrate)

    p = sub.add_parser("experiment", help="run or validate a full experiment")
    esub = p.add_subparsers(dest="subcommand", required=True)
    run_p = esub.add_parser("run", parents=[common], help="execute a config end to end")
    run_p.add_argument("config", help="experiment config JSON")
    run_p.set_defaults(handler=cmd_experiment_run)
    val_p = esub.add_parser("validate", parents=[common], help="re-check a written report")
    val_p.add_argument("report", help="report.json produced by 'experiment run'")
    val_p.set_defaults(handler=cmd_experiment_validate)

    p = sub.add_parser(
        "losscheck", parents=[common], help="certify loss gradients and constants"
    )
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
