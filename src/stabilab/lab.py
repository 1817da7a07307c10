"""Experiment harness: config ingestion, orchestration, and report files.

A JSON config names an algorithm preset, a data distribution, an n grid
and the randomness/precision budgets. :func:`run_experiment` then, for
each n: draws a sample, measures replace-one stability, estimates the
confidence ball and its Rademacher complexity, evaluates every applicable
bound, and records the realized plain and deformed generalization gaps.
Optional sections add bound-coverage replications at one fixed n and a
center-concentration tail experiment per n.

Reports are plain dictionaries serialized as JSON plus tidy CSV tables,
and :func:`check_report` re-checks a written one. All randomness is
pre-split from the master seed by (stage, n, index) labels, so reruns of
the same config are bitwise identical; the digest over the
wall-time-stripped report makes that checkable.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
import os
import time
from dataclasses import dataclass, fields

import numpy as np

from .bounds import BOUND_FAMILIES, BoundBreakdown, deformed_gap
from .complexity import AlgorithmicBall, ball_radius, ball_rademacher, center_of
from .datagen import (
    DistributionSpec,
    FitGroup,
    LinearNoise,
    LogisticTeacher,
    SignFlip,
    draw_sample,
    fit_plan,
    plan_blocks,
    true_risks,
)
from .learners import (
    _PRESET_KEYS,
    Sample,
    _as_list,
    _count,
    _integral,
    _keys,
    _real,
    _tagged,
    make_algorithm,
)
from .seeding import child_seed
from .stability import (
    CELL_HEADER,
    StabilityReport,
    base_fit_group,
    closed_form,
    measure_argument_stability,
)
from .concentration import TailExperiment, tail_groups, tail_of

ARTIFACT_VERSION = "report-8"

# Desk-scale budget caps; configs beyond these are refused up front.
MAX_N = 400
MAX_DIM = 16
MAX_TRIALS = 500
MAX_DRAWS = 4096
MAX_REPLACEMENTS = 64
MAX_CENTER_REPLICATES = 4000

# Coverage replications below which the violation rate is not checked or tabled.
MIN_COVERAGE_REPLICATIONS = 100

# The (required, optional) keys of a config and of its distribution.
_CONFIG_KEYS = (
    {"name", "algorithm", "loss", "distribution", "n_grid", "seed"},
    {"delta", "a", "replacements", "trials", "draws", "center_replicates", "coverage_n", "tail"},
)
_DISTRIBUTION_KEYS = (
    {"dim", "feature_bound", "teacher", "mechanism"},
    {"feature_law", "label_bound"},
)
# Per mechanism type: its class, and the (required, optional) keys of its real parameters.
_MECHANISMS = {
    "linear_noise": (LinearNoise, ({"noise_sd"}, ())),
    "logistic_teacher": (LogisticTeacher, ((), ())),
    "sign_flip": (SignFlip, ((), {"flip_prob"})),
}
_MECHANISM_KEYS = {kind: keys for kind, (_, keys) in _MECHANISMS.items()}


def _build_distribution(raw) -> DistributionSpec:
    _keys(raw, "distribution", *_DISTRIBUTION_KEYS)
    mechanism = raw["mechanism"]
    kind = _tagged(mechanism, "type", _MECHANISM_KEYS, "mechanism")
    params = {key: _real(value, key) for key, value in mechanism.items() if key != "type"}
    return DistributionSpec(
        dim=_count(raw["dim"], "dim", 1, MAX_DIM),
        feature_bound=_real(raw["feature_bound"], "feature_bound"),
        teacher=[_real(v, "teacher entry") for v in _as_list(raw["teacher"], "teacher")],
        mechanism=_MECHANISMS[kind][0](**params),
        label_bound=_real(raw.get("label_bound", 1.0), "label_bound"),
        feature_law=raw.get("feature_law", "sphere"),
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; build with :meth:`from_dict`.

    ``out_dir``, where :func:`run_experiment` writes the report files, is
    not a config key: set it with ``dataclasses.replace``, so that it stays
    out of the config echo and the digest.
    """

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
    echo: dict
    out_dir: str | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        _keys(raw, "config", *_CONFIG_KEYS)
        dist = _build_distribution(raw["distribution"])
        n_grid = tuple(
            _count(v, "n_grid entry", 1, MAX_N) for v in _as_list(raw["n_grid"], "n_grid")
        )
        if not n_grid:
            raise ValueError("n_grid must be a non-empty list of positive counts")
        if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
            raise ValueError("n_grid must be strictly increasing")
        algorithm = raw["algorithm"]
        _tagged(algorithm, "preset", _PRESET_KEYS, "algorithm")
        loss = raw["loss"]
        if loss in ("hinge", "logistic") and not dist.mechanism.classification():
            raise ValueError("classification losses need a classification mechanism")
        delta = _real(raw.get("delta", 0.1), "delta")
        if not 0.0 < delta < 0.5:
            raise ValueError("delta must lie in (0, 0.5) so 1 - 2*delta is a confidence")
        a = _real(raw.get("a", 2.0), "a")
        if not 1.0 < a < math.inf:
            raise ValueError(f"a must be > 1 and finite, got {a!r}")
        replacements = _count(raw.get("replacements", 5), "replacements", 1, MAX_REPLACEMENTS)
        trials = _count(raw.get("trials", 100), "trials", 1, MAX_TRIALS)
        draws = _count(raw.get("draws", 1024), "draws", 2, MAX_DRAWS)
        if draws % 2:
            raise ValueError(f"draws must be even, got {draws}")
        center_replicates = _count(
            raw.get("center_replicates", 64), "center_replicates", 2, MAX_CENTER_REPLICATES
        )
        tail = raw.get("tail", False)
        if not isinstance(tail, bool):
            raise ValueError(f"tail must be true or false, got {tail!r}")
        coverage_n = raw.get("coverage_n")
        if coverage_n is not None:
            coverage_n = _count(coverage_n, "coverage_n", 1, MAX_N)
        config = cls(
            name=str(raw["name"]),
            algorithm=dict(algorithm),
            loss=loss,
            distribution=dist,
            n_grid=n_grid,
            delta=delta,
            a=a,
            replacements=replacements,
            trials=trials,
            draws=draws,
            center_replicates=center_replicates,
            seed=_integral(raw["seed"], "seed"),
            coverage_n=coverage_n,
            tail=tail,
            echo=json.loads(json.dumps(raw, sort_keys=True)),
        )
        # Resolve the preset and its closed form at every n the run reads, so
        # that an n-dependent failure is an input error, not a failed stage.
        algorithm = build_algorithm(config)
        if algorithm.name == "constant" and algorithm.output.size != dist.dim:
            size = algorithm.output.size
            raise ValueError(f"vector must have distribution.dim = {dist.dim} entries, got {size}")
        for n in n_grid + (() if coverage_n is None else (coverage_n,)):
            try:
                closed_form(algorithm, n)
            except ValueError as exc:
                raise ValueError(f"algorithm fails at n={n}: {exc}") from exc
        return config


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


# The (required, optional) keys of a written report, and the keys of each
# of its records, of their stability entries and bound entries (the fields
# their ``to_dict`` writes) and of a written coverage section.
_REPORT_KEYS = (
    {"version", "config", "records"},
    {"coverage", "rate", "wall_time", "digest", "failed"},
)
_RECORD_KEYS = (
    {"n", "stability", "radius", "center", "center_std_error", "rademacher", "bounds"}
    | {"coefficients", "gaps", "tail"}
)
_STABILITY_KEYS = {f.name for f in fields(StabilityReport)} - {"cells"}
_BOUND_KEYS = {f.name for f in fields(BoundBreakdown)}
_COVERAGE_KEYS = {"n", "replications", "delta", "a", "bounds", "rows"}
_GAP_KEYS = {"plain-gap": "plain_gap", "fast-rate": "deformed_gap"}


def _read_bound(entry, where: str) -> dict:
    """A written bound entry, checked by the keyed reader down to its terms."""
    _keys(entry, where, _BOUND_KEYS)
    for term in _as_list(entry["terms"], f"{where} terms"):
        _real(_keys(term, f"{where} term", {"label", "value"})["value"], f"{where} term value")
    _real(entry["total"], f"{where} total")
    _keys(entry["constants_used"], f"{where} constants_used", (), entry["constants_used"])
    return entry


def _read_coverage(coverage) -> dict:
    """A written coverage section, checked by the keyed reader down to its rows."""
    _keys(coverage, "report coverage", _COVERAGE_KEYS)
    _count(coverage["replications"], "coverage replications", 1, MAX_TRIALS)
    bounds = _keys(coverage["bounds"], "report coverage bounds", set(_GAP_KEYS))
    for name, entry in bounds.items():
        _read_bound(entry, f"coverage bound {name}")
    for row in _as_list(coverage["rows"], "coverage rows"):
        _keys(row, "coverage row", set(_GAP_KEYS.values()))
    return coverage


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


def report_digest(report) -> str:
    """sha256 over the canonical report JSON, excluding volatile fields."""
    payload = report.to_dict() if isinstance(report, ExperimentReport) else dict(report)
    payload.pop("wall_time", None)
    payload.pop("digest", None)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _gaps(config: ExperimentConfig, loss, fits, features, labels):
    """Plain and deformed gap of each fitted row on its own sample, against
    its exact population risk."""
    loss.check_examples(features, labels)
    emp = loss.values_raw(loss.check_hypothesis(fits), features, labels).mean(axis=1)
    true = true_risks(loss, fits, config.distribution)
    plain, deformed = true - emp, deformed_gap(true, emp, config.a)
    return [{"plain": p, "deformed": q} for p, q in zip(plain.tolist(), deformed.tolist())]


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


def _bound_set(form, constants: dict) -> list:
    """Every bound that applies to a closed form, at the constants
    :func:`_bound_constants` gives with it."""
    names = ["complexity", "plain-gap", "fast-rate"]
    if form.family is not None:
        names.append(form.family)
    return [BOUND_FAMILIES[name].evaluate(constants) for name in names]


# The per-n stages below are shared by run_experiment and the CLI's
# ``stability``, ``complexity`` and ``concentrate`` subcommands, so both read
# the same streams. Each takes the fits of its groups and its seed from the
# record's fit plan, or runs the same plan on its own groups.


def sample_stage(config: ExperimentConfig, n: int) -> Sample:
    """The training sample at n that every per-n stage reads."""
    return draw_sample(config.distribution, n, child_seed(config.seed, "sample", n))


def record_fits(config: ExperimentConfig, algorithm, n: int, names, sample=None) -> dict:
    """The fits of the named record groups at n, by name, through one fit
    plan, and under ``"seeds"`` the stability, center and tail stage seeds
    at n, each derived once. The groups are the base and record fits on the
    sample S, the complexity center's replicates, and the tail's center and
    trials."""
    seeds = {stage: child_seed(config.seed, stage, n) for stage in ("stability", "center", "tail")}
    groups = {
        "base": base_fit_group(seeds["stability"]),
        "record": FitGroup("record", child_seed(config.seed, "record-fit", n)),
        "center": FitGroup("center", seeds["center"], config.center_replicates),
        **dict(zip(["tail-center", "trial"], tail_groups(config.trials, seeds["tail"]))),
    }
    fits = fit_plan(algorithm, config.distribution, n, [groups[name] for name in names], sample)
    return {"seeds": seeds, **dict(zip(names, fits))}


def stability_stage(
    config: ExperimentConfig, algorithm, sample: Sample, fits=None
) -> StabilityReport:
    """Replace-one stability of the algorithm on the stage sample."""
    fits = fits or record_fits(config, algorithm, sample.n, ["base"], sample)
    return measure_argument_stability(
        algorithm,
        sample,
        config.distribution,
        config.replacements,
        seed=fits["seeds"]["stability"],
        base=fits["base"][0],
    )


def complexity_stage(
    config: ExperimentConfig, algorithm, sample: Sample, alpha: float, fits=None
) -> dict:
    """The record's radius, center and Rademacher estimate of the confidence ball at n."""
    n = sample.n
    fits = fits or record_fits(config, algorithm, n, ["center"])
    radius = ball_radius(1.0, alpha, n, config.delta)
    center = center_of(fits["center"], fits["seeds"]["center"])
    ball = AlgorithmicBall(center.vector, radius, n, config.delta)
    rademacher = ball_rademacher(
        ball, sample.features, config.draws, seed=child_seed(config.seed, "sigma", n)
    )
    return {
        "radius": radius,
        "center": [float(v) for v in center.vector],
        "center_std_error": center.std_error_norm(),
        "rademacher": {**rademacher.to_dict(), "radius": radius, "delta": config.delta},
    }


def tail_stage(
    config: ExperimentConfig, algorithm, n: int, alpha: float, fits=None
) -> TailExperiment:
    """The center-concentration tail experiment at n, at the closed form's alpha."""
    fits = fits or record_fits(config, algorithm, n, ["tail-center", "trial"])
    seed = fits["seeds"]["tail"]
    return tail_of(fits["tail-center"], fits["trial"], n, config.delta, alpha, seed)


def _run_record(config: ExperimentConfig, algorithm, n: int):
    stage = "sample"
    try:
        sample = sample_stage(config, n)
        loss = algorithm.loss_for(n)
        stage = "fits"
        names = ["base", "record", "center"] + (["tail-center", "trial"] if config.tail else [])
        fits = record_fits(config, algorithm, n, names, sample)
        stage = "stability"
        stability = stability_stage(config, algorithm, sample, fits)
        alpha = stability.theory_alpha
        stage = "complexity"
        complexity = complexity_stage(config, algorithm, sample, alpha, fits)
        stage = "bounds"
        form, constants = _bound_constants(config, algorithm, n)
        breakdowns = _bound_set(form, constants)
        stage = "gaps"
        X, y = sample.features[None], sample.labels[None]
        (gaps,) = _gaps(config, loss, fits["record"], X, y)
        stage = "tail"
        tail = tail_stage(config, algorithm, n, alpha, fits).to_dict() if config.tail else None
    except Exception as exc:
        raise RuntimeError(f"stage {stage!r} failed at n={n}: {exc}") from exc
    record = {
        "n": n,
        "stability": stability.to_dict(),
        **complexity,
        "bounds": [b.to_dict() for b in breakdowns],
        "coefficients": form.coefficients,
        "gaps": gaps,
        "tail": tail,
    }
    return record, stability


def _run_coverage(config: ExperimentConfig, algorithm) -> dict:
    n, seed, trials = config.coverage_n, config.seed, config.trials
    try:
        loss = algorithm.loss_for(n)
        _, constants = _bound_constants(config, algorithm, n)
        bounds = {name: BOUND_FAMILIES[name].evaluate(constants).to_dict() for name in _GAP_KEYS}
        # Each call's rows are scored before the next call redraws its stack.
        gaps = []
        group = FitGroup("coverage", seed, trials)
        for _, X, y, fits in plan_blocks(algorithm, config.distribution, n, [group]):
            gaps += _gaps(config, loss, fits, X, y)
    except Exception as exc:
        raise RuntimeError(f"stage 'coverage' failed at n={n}: {exc}") from exc
    return {
        "n": n,
        "replications": trials,
        "delta": config.delta,
        "a": config.a,
        "bounds": bounds,
        "rows": [{"plain_gap": g["plain"], "deformed_gap": g["deformed"]} for g in gaps],
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
    summary = {}
    for field, key in (("alpha_hat", "slope_alpha_hat"), ("theory_alpha", "slope_alpha_theory")):
        try:
            summary[key] = fitted_rate_slope({"records": records}, field)
        except ValueError:
            summary[key] = None
    return summary


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Execute the config and return (and optionally persist) the report.

    When a stage fails, the records finished before it are persisted as a
    partial report with a ``failed`` marker, and the stage's error is raised.
    """
    start = time.perf_counter()
    algorithm = build_algorithm(config)
    records, stability_reports = [], []
    try:
        for n in config.n_grid:
            record, stab = _run_record(config, algorithm, n)
            records.append(record)
            stability_reports.append(stab)
        coverage = None if config.coverage_n is None else _run_coverage(config, algorithm)
    except Exception as exc:
        if config.out_dir:
            os.makedirs(config.out_dir, exist_ok=True)
            partial = {"version": ARTIFACT_VERSION, "config": config.echo, "records": records}
            write_json(os.path.join(config.out_dir, "report.json"), {**partial, "failed": str(exc)})
        raise
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
    if which not in _GAP_KEYS:
        raise ValueError(f"unknown bound name {which!r}")
    payload = report.to_dict() if isinstance(report, ExperimentReport) else report
    coverage = payload.get("coverage")
    if coverage is None or len(_read_coverage(coverage)["rows"]) < MIN_COVERAGE_REPLICATIONS:
        raise ValueError(
            f"report needs a coverage section with >= {MIN_COVERAGE_REPLICATIONS} replications"
        )
    total = coverage["bounds"][which]["total"]
    key = _GAP_KEYS[which]
    gaps = [_real(row[key], f"coverage row {key}") for row in coverage["rows"]]
    violations = sum(not gap <= total for gap in gaps)  # a NaN gap counts
    return {
        "runs": len(gaps),
        "violations": violations,
        "nominal": 2.0 * _real(coverage["delta"], "coverage delta"),
    }


def _measured_stability(stability: dict, stochastic: bool, n: int):
    """(label, values) of the measured stability a record's closed form bounds.

    Ridge and penalized ERM bound every replace-one distance, so their
    ``alpha_hat`` is checked. The SGD closed forms bound the coupled-twin
    distance in expectation over the shared index stream, so stochastic
    presets check each index's mean distance over its replacements instead.
    """
    if not stochastic:
        return "alpha_hat", [_real(stability["alpha_hat"], f"n={n} alpha_hat")]
    entries = _as_list(stability["per_index"], f"n={n} per_index")
    if len(entries) != n:
        raise ValueError(f"n={n} per_index must have {n} entries, got {len(entries)}")
    means = [_keys(e, f"n={n} per_index entry", {"mean"}, e)["mean"] for e in entries]
    return "largest per-index mean distance", [_real(m, f"n={n} per_index mean") for m in means]


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _agrees(stated, expected) -> bool:
    """Numbers agree to a relative 1e-12, so a one-ulp difference passes; other values are equal."""
    if not _is_real(expected):
        return stated == expected
    return _is_real(stated) and math.isclose(stated, expected, rel_tol=1e-12, abs_tol=1e-15)


def _mismatches(where: str, stated: dict, expected: dict, source: str | None = None) -> list:
    """A line for each value ``stated`` shares with ``expected`` and gives
    otherwise, the expected value called ``source``: by default
    "theoretical" for an alpha and "config" for any other key."""
    def shown(value):
        return f"{value:.6g}" if _is_real(value) else repr(value)

    return [
        f"{where}: {key} {shown(value)} != "
        f"{source or ('theoretical' if 'alpha' in key else 'config')} {shown(expected[key])}"
        for key, value in stated.items()
        if key in expected and not _agrees(value, expected[key])
    ]


def _bound_problems(where: str, bound: dict, constants: dict, expected: BoundBreakdown) -> list:
    """The problems of a read bound entry: its constants, term labels, total
    and term values against ``expected``, its family evaluated on the
    rebuilt ``constants``."""
    problems = _mismatches(where, bound["constants_used"], constants)
    stated = {"total": bound["total"], **{t["label"]: t["value"] for t in bound["terms"]}}
    evaluated = {"total": expected.total, **dict(expected.terms)}
    if stated.keys() != evaluated.keys():
        problems.append(f"{where}: terms {list(stated)[1:]} != evaluated {list(evaluated)[1:]}")
    return problems + _mismatches(where, stated, evaluated, "evaluated")


def check_report(payload) -> list:
    """The problems of a written report, one line each; empty when it checks out.

    The report's config is read as :func:`run_experiment` reads it and its
    preset built; every theoretical alpha, ball radius, bound constant and
    bound value (each term and total) is recomputed from them, never taken
    from the report, and the records' n grid and the coverage section's
    settings and row count must be the config's. A malformed report raises
    ValueError naming the key or field. A report must carry its digest
    unless it is a partial one, which carries a failure marker instead and
    may hold a prefix of the n grid. Every comparison is written as "within
    the limit", so a NaN fails it.
    """
    _keys(payload, "report", *_REPORT_KEYS)
    try:
        config = ExperimentConfig.from_dict(payload["config"])
    except ValueError as exc:
        raise ValueError(f"report config {str(exc).removeprefix('config ')}") from exc
    algorithm = build_algorithm(config)
    records = _as_list(payload["records"], "records")
    failed = payload.get("failed")
    problems = []
    stored = payload.get("digest")
    if stored is not None:
        recomputed = report_digest(payload)
        if stored != recomputed:
            problems.append(f"digest mismatch: stored {str(stored)[:12]}.. != {recomputed[:12]}..")
    elif not failed:
        problems.append("report has no digest")
    grid = [_integral(_keys(r, "report record", _RECORD_KEYS)["n"], "record n") for r in records]
    expected = config.n_grid[: len(grid)] if failed else config.n_grid
    if grid != list(expected):
        problems.append(f"records hold n = {grid}, not the config n_grid {list(config.n_grid)}")
    for n, record in zip(grid, records):
        if n not in config.n_grid:
            continue
        form, constants = _bound_constants(config, algorithm, n)
        stability = _keys(record["stability"], f"n={n} stability", _STABILITY_KEYS)
        stated = {"theory_alpha": _real(stability["theory_alpha"], f"n={n} theory_alpha")}
        problems += _mismatches(f"n={n} stability", stated, {"theory_alpha": form.alpha})
        label, measured = _measured_stability(stability, algorithm.stochastic, n)
        over = [value for value in measured if not value <= form.alpha + 1e-8]
        if over:
            problems.append(
                f"n={n} stability: {label} {max(over):.6g} exceeds theory_alpha {form.alpha:.6g}"
            )
        rademacher = record["rademacher"]
        _keys(rademacher, f"n={n} rademacher", {"radius"}, rademacher)  # its other keys are free
        radii = {"radius": record["radius"], "rademacher radius": rademacher["radius"]}
        radius = ball_radius(1.0, form.alpha, n, config.delta)
        problems += _mismatches(f"n={n}", radii, dict.fromkeys(radii, radius), "theoretical")
        bounds = _as_list(record["bounds"], "record bounds")
        bounds = [_read_bound(bound, f"n={n} bound") for bound in bounds]
        expected = _bound_set(form, constants)
        names, evaluated = [b["name"] for b in bounds], [b.name for b in expected]
        if names != evaluated:
            problems.append(f"n={n} bounds {names} != evaluated {evaluated}")
        for bound, want in zip(bounds, expected):
            if bound["name"] == want.name:
                problems += _bound_problems(f"n={n} {want.name}", bound, constants, want)
    coverage = payload.get("coverage")
    if coverage is not None:
        problems += _coverage_problems(config, algorithm, _read_coverage(coverage))
    elif config.coverage_n is not None and not failed:
        problems.append(f"report has no coverage section for coverage_n={config.coverage_n}")
    if failed:
        problems.append(f"report carries a failure marker: {failed}")
    return problems


def _coverage_problems(config: ExperimentConfig, algorithm, coverage: dict) -> list:
    """The problems of a read coverage section, against the config it was run from."""
    # Rows are counted as replications, so both must number the config's trials.
    stated = {**coverage, "rows": len(coverage["rows"])}
    counts = {"n": config.coverage_n, "replications": config.trials, "rows": config.trials}
    problems = _mismatches("coverage", stated, {**counts, "delta": config.delta, "a": config.a})
    if config.coverage_n is not None:
        _, constants = _bound_constants(config, algorithm, config.coverage_n)
        for name, bound in coverage["bounds"].items():
            want = BOUND_FAMILIES[name].evaluate(constants)
            problems += _bound_problems(f"coverage {name}", bound, constants, want)
    if stated["rows"] >= MIN_COVERAGE_REPLICATIONS:
        for which in _GAP_KEYS:
            outcome = validate_bound_coverage({"coverage": coverage}, which)
            runs, nominal = outcome["runs"], outcome["nominal"]
            envelope = runs * nominal + 3.0 * math.sqrt(runs * nominal * (1.0 - nominal))
            if not outcome["violations"] <= envelope:
                problems.append(
                    f"coverage {which}: {outcome['violations']} violations exceed "
                    f"envelope {envelope:.1f} at nominal {nominal:g}"
                )
    return problems


def write_json(path, payload) -> None:
    """Write ``payload`` as JSON with sorted keys, indent 2 and a trailing newline.

    A non-finite number raises ValueError, so no file holds ``Infinity`` or ``NaN``.
    """
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def write_csv(path, header, rows, comment: str | None = None) -> None:
    """Write a CSV table, after a ``# comment`` line when given, streaming ``rows``."""
    with open(path, "w", newline="") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_report_files(report: ExperimentReport, out_dir) -> dict:
    """Persist report.json, the rate, bound-vs-gap and (at enough
    replications) coverage tables, and each n's stability cells; returns
    the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {"report": os.path.join(out_dir, "report.json")}
    write_json(paths["report"], {**report.to_dict(), "digest": report_digest(report)})
    records, coverage = report.records, report.coverage
    stability = [r["stability"] for r in records]
    plain = [next(b for b in r["bounds"] if b["name"] == "plain-gap") for r in records]
    tables = {
        "rate": (
            ["n", "alpha_hat", "alpha_theory"],
            [(r["n"], s["alpha_hat"], s["theory_alpha"]) for r, s in zip(records, stability)],
            "measured vs theoretical stability coefficient by sample size",
        ),
        "bound_vs_gap": (
            ["n", "gap", "bound_total", "vacuous_flag"],
            [
                (r["n"], r["gaps"]["plain"], b["total"], b["vacuous"])
                for r, b in zip(records, plain)
            ],
            "realized plain gap vs its bound by sample size",
        ),
    }
    if coverage and coverage["replications"] >= MIN_COVERAGE_REPLICATIONS:
        outcomes = [validate_bound_coverage(report, which) for which in _GAP_KEYS]
        tables["coverage"] = (
            ["delta", "nominal", "empirical"],
            [(coverage["delta"], o["nominal"], o["violations"] / o["runs"]) for o in outcomes],
            "bound coverage: nominal vs empirical violation rate",
        )
    for name, (header, rows, comment) in tables.items():
        paths[name] = os.path.join(out_dir, f"{name}.csv")
        write_csv(paths[name], header, rows, comment)
    for stab in report.stability_reports:
        paths[f"stability_n{stab.n}"] = os.path.join(out_dir, f"stability_cells_n{stab.n}.csv")
        write_csv(paths[f"stability_n{stab.n}"], CELL_HEADER, stab.cells)
    return paths
