"""Experiment harness: config ingestion, orchestration, and report files.

A JSON config names an algorithm preset, a data distribution, an n grid
and the randomness/precision budgets. :func:`run_experiment` then, for
each n: draws a sample, measures replace-one stability, estimates the
confidence ball and its Rademacher complexity, evaluates every applicable
bound, and records the realized plain and deformed generalization gaps.
Optional sections add bound-coverage replications at one fixed n and a
center-concentration tail experiment per n.

Reports are plain dictionaries serialized as JSON plus tidy CSV tables.
All randomness is pre-split from the master seed by (stage, n, index)
labels, so reruns of the same config are bitwise identical; the digest
over the wall-time-stripped report makes that checkable.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from dataclasses import dataclass

import numpy as np

from .bounds import BOUND_FAMILIES, deformed_gap
from .complexity import AlgorithmicBall, ball_radius, ball_rademacher, estimate_center
from .datagen import (
    DistributionSpec,
    LinearNoise,
    LogisticTeacher,
    SignFlip,
    draw_sample,
    fit_replicates,
    true_risk,
)
from .learners import Sample, _check_examples, make_algorithm
from .seeding import child_seed
from .stability import StabilityReport, closed_form, measure_argument_stability
from .concentration import center_concentration_experiment

ARTIFACT_VERSION = "report-2"

# Desk-scale budget caps; configs beyond these are refused up front.
MAX_N = 400
MAX_DIM = 16
MAX_TRIALS = 500
MAX_DRAWS = 4096
MAX_REPLACEMENTS = 64
MAX_CENTER_REPLICATES = 4000

_TOP_KEYS = {
    "name",
    "algorithm",
    "loss",
    "distribution",
    "n_grid",
    "delta",
    "a",
    "replacements",
    "trials",
    "draws",
    "center_replicates",
    "seed",
    "coverage_n",
    "tail",
    "out_dir",
}
_DIST_KEYS = {"dim", "feature_bound", "feature_law", "teacher", "mechanism", "label_bound"}
_MECHANISMS = {
    "linear_noise": ({"noise_sd"}, lambda p: LinearNoise(noise_sd=p["noise_sd"])),
    "logistic_teacher": (set(), lambda p: LogisticTeacher()),
    "sign_flip": ({"flip_prob"}, lambda p: SignFlip(flip_prob=p.get("flip_prob", 0.0))),
}


def _reject_unknown(mapping: dict, allowed: set, where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ValueError(f"unknown {where} keys: {sorted(unknown)}")


def _build_mechanism(raw: dict):
    if not isinstance(raw, dict) or "type" not in raw:
        raise ValueError("mechanism must be a dict with a 'type' key")
    kind = raw["type"]
    if kind not in _MECHANISMS:
        raise ValueError(f"unknown mechanism type {kind!r}")
    allowed, build = _MECHANISMS[kind]
    _reject_unknown(raw, allowed | {"type"}, f"mechanism[{kind}]")
    return build(raw)


def _build_distribution(raw: dict) -> DistributionSpec:
    if not isinstance(raw, dict):
        raise ValueError("distribution must be a dict")
    _reject_unknown(raw, _DIST_KEYS, "distribution")
    for key in ("dim", "feature_bound", "teacher", "mechanism"):
        if key not in raw:
            raise ValueError(f"distribution is missing {key!r}")
    return DistributionSpec(
        dim=int(raw["dim"]),
        feature_bound=float(raw["feature_bound"]),
        teacher=np.asarray(raw["teacher"], dtype=np.float64),
        mechanism=_build_mechanism(raw["mechanism"]),
        label_bound=float(raw.get("label_bound", 1.0)),
        feature_law=raw.get("feature_law", "sphere"),
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; build with :meth:`from_dict`."""

    name: str
    algorithm: dict
    loss: str
    distribution: DistributionSpec
    n_grid: tuple
    delta: float
    a: float
    replacements: int
    trials: int
    draws: int
    center_replicates: int
    seed: int
    coverage_n: int | None
    tail: bool
    out_dir: str | None
    echo: dict

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ValueError("config must be a dict")
        _reject_unknown(raw, _TOP_KEYS, "config")
        for key in ("name", "algorithm", "loss", "distribution", "n_grid", "seed"):
            if key not in raw:
                raise ValueError(f"config is missing {key!r}")
        dist = _build_distribution(raw["distribution"])
        if dist.dim > MAX_DIM:
            raise ValueError(f"dim exceeds the desk-scale cap {MAX_DIM}")
        n_grid = tuple(int(v) for v in raw["n_grid"])
        if not n_grid or any(v < 1 for v in n_grid):
            raise ValueError("n_grid must be a non-empty list of positive counts")
        if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
            raise ValueError("n_grid must be strictly increasing")
        if n_grid[-1] > MAX_N:
            raise ValueError(f"n exceeds the desk-scale cap {MAX_N}")
        algorithm = dict(raw["algorithm"])
        if "preset" not in algorithm:
            raise ValueError("algorithm needs a 'preset' key")
        loss = raw["loss"]
        if loss in ("hinge", "logistic") and not dist.mechanism.classification():
            raise ValueError("classification losses need a classification mechanism")
        delta = float(raw.get("delta", 0.1))
        if not 0.0 < delta < 0.5:
            raise ValueError("delta must lie in (0, 0.5) so 1 - 2*delta is a confidence")
        a = float(raw.get("a", 2.0))
        if a <= 1.0:
            raise ValueError("a must be > 1")
        replacements = int(raw.get("replacements", 5))
        if not 1 <= replacements <= MAX_REPLACEMENTS:
            raise ValueError(f"replacements must lie in [1, {MAX_REPLACEMENTS}]")
        trials = int(raw.get("trials", 100))
        if not 1 <= trials <= MAX_TRIALS:
            raise ValueError(f"trials must lie in [1, {MAX_TRIALS}]")
        draws = int(raw.get("draws", 1024))
        if not (2 <= draws <= MAX_DRAWS and draws % 2 == 0):
            raise ValueError(f"draws must be even and lie in [2, {MAX_DRAWS}]")
        center_replicates = int(raw.get("center_replicates", 64))
        if not 1 <= center_replicates <= MAX_CENTER_REPLICATES:
            raise ValueError(
                f"center_replicates must lie in [1, {MAX_CENTER_REPLICATES}]"
            )
        coverage_n = raw.get("coverage_n")
        if coverage_n is not None:
            coverage_n = int(coverage_n)
            if not 1 <= coverage_n <= MAX_N:
                raise ValueError("coverage_n outside the desk-scale budget")
        config = cls(
            name=str(raw["name"]),
            algorithm=algorithm,
            loss=loss,
            distribution=dist,
            n_grid=n_grid,
            delta=delta,
            a=a,
            replacements=replacements,
            trials=trials,
            draws=draws,
            center_replicates=center_replicates,
            seed=int(raw["seed"]),
            coverage_n=coverage_n,
            tail=bool(raw.get("tail", False)),
            out_dir=raw.get("out_dir"),
            echo=json.loads(json.dumps(raw, sort_keys=True)),
        )
        build_algorithm(config)  # fail fast on unresolvable presets
        return config

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def build_algorithm(config: ExperimentConfig):
    params = dict(config.algorithm)
    preset = params.pop("preset")
    return make_algorithm(
        preset,
        config.loss,
        config.distribution.feature_bound,
        config.distribution.label_bound,
        **params,
    )


@dataclass(frozen=True)
class ExperimentReport:
    """Results of one config run; serializable via :meth:`to_dict`."""

    config: dict
    records: tuple
    coverage: dict | None
    rate: dict | None
    wall_time: float
    version: str
    stability_reports: tuple = ()

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "config": self.config,
            "records": [dict(r) for r in self.records],
            "coverage": self.coverage,
            "rate": self.rate,
            "wall_time": self.wall_time,
        }

    def to_json(self, indent: int = 2) -> str:
        payload = self.to_dict()
        payload["digest"] = report_digest(self)
        return json.dumps(payload, indent=indent, sort_keys=True)


def report_digest(report) -> str:
    """sha256 over the canonical report JSON, excluding volatile fields."""
    payload = report.to_dict() if isinstance(report, ExperimentReport) else dict(report)
    payload.pop("wall_time", None)
    payload.pop("digest", None)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _gaps(config: ExperimentConfig, loss, fits, features, labels, risk_seeds, draws):
    """Plain and deformed gap of each fitted row on its own sample, its true
    risk from ``draws`` Monte-Carlo points on its risk seed."""
    _check_examples(loss, features, labels)
    gaps = []
    for h, X, y, risk_seed in zip(fits, features, labels, risk_seeds):
        emp = float(loss.values_raw(loss.check_hypothesis(h), X, y).mean())
        true = true_risk(loss, h, config.distribution, draws=draws, seed=risk_seed).value
        gaps.append({"plain": true - emp, "deformed": deformed_gap(true, emp, config.a)})
    return gaps


def _bound_constants(config: ExperimentConfig, algorithm, n: int):
    """The preset's closed form at n, and the constants its bound families read.

    Beside the constants every family shares, the table holds the composed
    family's own; a family ignores the names it does not read.
    """
    form = closed_form(algorithm, n)
    loss = algorithm.loss_for(n)
    consts = loss.constants()
    return form, {
        "lipschitz": consts.lipschitz,
        "feature_bound": loss.feature_bound,
        "loss_bound": consts.bound,
        "smoothness": consts.smoothness,
        "delta": config.delta,
        "alpha": form.alpha,
        "n": n,
        "deformation": config.a,
        **form.constants,
    }


def _bound_set(config: ExperimentConfig, algorithm, n: int):
    """Every applicable bound at n, and the preset's coefficient table."""
    form, constants = _bound_constants(config, algorithm, n)
    names = ["complexity", "plain-gap", "fast-rate"]
    if form.family is not None:
        names.append(form.family)
    return [BOUND_FAMILIES[name].evaluate(constants) for name in names], form.coefficients


# The per-n stages below are shared by run_experiment and the CLI's
# ``stability`` and ``complexity`` subcommands, so both read the same streams.


def sample_stage(config: ExperimentConfig, n: int) -> Sample:
    """The training sample at n that every per-n stage reads."""
    return draw_sample(config.distribution, n, child_seed(config.seed, "sample", n))


def stability_stage(config: ExperimentConfig, algorithm, sample: Sample) -> StabilityReport:
    """Replace-one stability of the algorithm on the stage sample."""
    n = sample.n
    return measure_argument_stability(
        algorithm,
        sample,
        config.distribution,
        config.replacements,
        eval_loss=algorithm.loss_for(n),
        seed=child_seed(config.seed, "stability", n),
    )


def complexity_stage(config: ExperimentConfig, algorithm, sample: Sample, alpha: float):
    """(radius, center, Rademacher estimate) of the confidence ball at the sample's n."""
    n = sample.n
    radius = ball_radius(1.0, alpha, n, config.delta)
    center = estimate_center(
        algorithm,
        config.distribution,
        n,
        m=config.center_replicates,
        seed=child_seed(config.seed, "center", n),
    )
    ball = AlgorithmicBall(center.vector, radius, n, config.delta)
    rademacher = ball_rademacher(
        ball, sample.features, config.draws, seed=child_seed(config.seed, "sigma", n)
    )
    return radius, center, rademacher


def _run_record(config: ExperimentConfig, algorithm, n: int):
    seed = config.seed
    stage = "sample"
    try:
        sample = sample_stage(config, n)
        loss = algorithm.loss_for(n)
        stage = "stability"
        stability = stability_stage(config, algorithm, sample)
        alpha = stability.theory_alpha
        if alpha is None:
            raise ValueError("no theoretical alpha for this preset")
        stage = "complexity"
        radius, center, rademacher = complexity_stage(config, algorithm, sample, alpha)
        stage = "bounds"
        breakdowns, coefficients = _bound_set(config, algorithm, n)
        stage = "gaps"
        X, y = sample.features[None], sample.labels[None]
        fit = algorithm.fit_many(X, y, [child_seed(seed, "record-fit", n)])
        (gaps,) = _gaps(config, loss, fit, X, y, [child_seed(seed, "risk", n)], draws=4096)
        stage = "tail"
        tail = None
        if config.tail:
            tail = center_concentration_experiment(
                algorithm,
                config.distribution,
                n,
                trials=config.trials,
                delta=config.delta,
                alpha=alpha,
                seed=child_seed(seed, "tail", n),
            ).to_dict()
    except Exception as exc:
        raise RuntimeError(f"stage {stage!r} failed at n={n}: {exc}") from exc
    record = {
        "n": n,
        "stability": stability.to_dict(),
        "radius": radius,
        "center": [float(v) for v in center.vector],
        "center_std_error": center.std_error_norm(),
        "rademacher": {
            **rademacher.to_dict(),
            "radius": radius,
            "delta": config.delta,
        },
        "bounds": [b.to_dict() for b in breakdowns],
        "coefficients": coefficients,
        "gaps": gaps,
        "tail": tail,
    }
    return record, stability


def _run_coverage(config: ExperimentConfig, algorithm) -> dict:
    n = config.coverage_n
    seed = config.seed
    loss = algorithm.loss_for(n)
    _, constants = _bound_constants(config, algorithm, n)
    bounds = {
        name: BOUND_FAMILIES[name].evaluate(constants).to_dict()
        for name in ("plain-gap", "fast-rate")
    }
    fits, X, y = fit_replicates(algorithm, config.distribution, n, config.trials, seed, "coverage")
    risk_seeds = [child_seed(seed, "coverage-risk", rep) for rep in range(config.trials)]
    rows = [
        {"plain_gap": gaps["plain"], "deformed_gap": gaps["deformed"]}
        for gaps in _gaps(config, loss, fits, X, y, risk_seeds, draws=2048)
    ]
    return {
        "n": n,
        "replications": config.trials,
        "delta": config.delta,
        "a": config.a,
        "bounds": bounds,
        "rows": rows,
    }


def fitted_rate_slope(report, field: str = "alpha_hat") -> float:
    """Least-squares slope of log(stability value) against log(n)."""
    payload = report.to_dict() if isinstance(report, ExperimentReport) else report
    points = []
    for record in payload["records"]:
        value = record["stability"][field]
        if value is not None and value > 0.0:
            points.append((np.log(record["n"]), np.log(value)))
    if len(points) < 2:
        raise ValueError("need at least two positive values to fit a rate slope")
    xs, ys = zip(*points)
    return float(np.polyfit(np.asarray(xs), np.asarray(ys), 1)[0])


def _rate_summary(records) -> dict | None:
    if len(records) < 2:
        return None
    payload = {"records": list(records)}
    summary = {}
    for field, key in (("alpha_hat", "slope_alpha_hat"), ("theory_alpha", "slope_alpha_theory")):
        try:
            summary[key] = fitted_rate_slope(payload, field)
        except ValueError:
            summary[key] = None
    return summary


def _persist_failure(config: ExperimentConfig, records, error: str) -> None:
    if not config.out_dir:
        return
    os.makedirs(config.out_dir, exist_ok=True)
    payload = {
        "version": ARTIFACT_VERSION,
        "config": config.echo,
        "records": list(records),
        "failed": error,
    }
    with open(os.path.join(config.out_dir, "report.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Execute the config and return (and optionally persist) the report."""
    start = time.perf_counter()
    algorithm = build_algorithm(config)
    records = []
    stability_reports = []
    for n in config.n_grid:
        try:
            record, stab = _run_record(config, algorithm, n)
        except Exception as exc:
            _persist_failure(config, records, str(exc))
            raise
        records.append(record)
        stability_reports.append(stab)
    coverage = None
    if config.coverage_n is not None:
        try:
            coverage = _run_coverage(config, algorithm)
        except Exception as exc:
            message = f"stage 'coverage' failed at n={config.coverage_n}: {exc}"
            _persist_failure(config, records, message)
            raise RuntimeError(message) from exc
    report = ExperimentReport(
        config=config.echo,
        records=tuple(records),
        coverage=coverage,
        rate=_rate_summary(records),
        wall_time=time.perf_counter() - start,
        version=ARTIFACT_VERSION,
        stability_reports=tuple(stability_reports),
    )
    if config.out_dir:
        write_report_files(report, config.out_dir)
    return report


def validate_bound_coverage(report, which: str) -> dict:
    """Count coverage replications whose realized gap exceeds the bound."""
    if which not in ("plain-gap", "fast-rate"):
        raise ValueError(f"unknown bound name {which!r}")
    payload = report.to_dict() if isinstance(report, ExperimentReport) else report
    coverage = payload.get("coverage")
    if not coverage or coverage["replications"] < 100:
        raise ValueError("report needs a coverage section with >= 100 replications")
    total = coverage["bounds"][which]["total"]
    key = "plain_gap" if which == "plain-gap" else "deformed_gap"
    violations = sum(1 for row in coverage["rows"] if row[key] > total)
    return {
        "runs": coverage["replications"],
        "violations": violations,
        "nominal": 2.0 * coverage["delta"],
    }


def _write_csv(path, comment: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def emit_plot_data(report, kind: str, path) -> str:
    """Write one tidy CSV (rate, coverage, or bound-vs-gap) and return its path."""
    payload = report.to_dict() if isinstance(report, ExperimentReport) else report
    if kind == "rate":
        rows = [
            (r["n"], r["stability"]["alpha_hat"], r["stability"]["theory_alpha"])
            for r in payload["records"]
        ]
        _write_csv(
            path,
            "measured vs theoretical stability coefficient by sample size",
            ["n", "alpha_hat", "alpha_theory"],
            rows,
        )
    elif kind == "coverage":
        coverage = payload.get("coverage")
        if not coverage:
            raise ValueError("report has no coverage section")
        rows = []
        for which in ("plain-gap", "fast-rate"):
            outcome = validate_bound_coverage(payload, which)
            rows.append(
                (
                    coverage["delta"],
                    outcome["nominal"],
                    outcome["violations"] / outcome["runs"],
                )
            )
        _write_csv(
            path,
            "bound coverage: nominal vs empirical violation rate",
            ["delta", "nominal", "empirical"],
            rows,
        )
    elif kind == "bound-vs-gap":
        rows = []
        for r in payload["records"]:
            plain = next(b for b in r["bounds"] if b["name"] == "plain-gap")
            rows.append(
                (r["n"], r["gaps"]["plain"], plain["total"], plain["vacuous"])
            )
        _write_csv(
            path,
            "realized plain gap vs its bound by sample size",
            ["n", "gap", "bound_total", "vacuous_flag"],
            rows,
        )
    else:
        raise ValueError(f"unknown plot kind {kind!r}")
    return str(path)


def write_report_files(report: ExperimentReport, out_dir) -> dict:
    """Persist report.json plus the standard CSV tables; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    report_path = os.path.join(out_dir, "report.json")
    with open(report_path, "w") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    paths["report"] = report_path
    paths["rate"] = emit_plot_data(report, "rate", os.path.join(out_dir, "rate.csv"))
    paths["bound_vs_gap"] = emit_plot_data(
        report, "bound-vs-gap", os.path.join(out_dir, "bound_vs_gap.csv")
    )
    if report.coverage:
        paths["coverage"] = emit_plot_data(
            report, "coverage", os.path.join(out_dir, "coverage.csv")
        )
    for stab in report.stability_reports:
        cells_path = os.path.join(out_dir, f"stability_cells_n{stab.n}.csv")
        stab.write_csv(cells_path)
        paths[f"stability_n{stab.n}"] = cells_path
    return paths
