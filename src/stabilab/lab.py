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
from .complexity import AlgorithmicBall, ball_radius, ball_rademacher
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
_PER_INDEX_KEYS = {"max_over_replacements", "mean"}
_TAIL_KEYS = {f.name for f in fields(TailExperiment)}


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


def _expected_record(config: ExperimentConfig, algorithm, n: int, seeds: dict) -> dict:
    """The part of the record at n that the config fixes, at the stage seeds
    ``seeds`` (:func:`stage_seeds`): the document :func:`run_experiment`
    takes its bounds and coefficients from, and :func:`check_report` walks a
    written record against."""
    form, constants = _bound_constants(config, algorithm, n)
    names = ["complexity", "plain-gap", "fast-rate"] + ([form.family] if form.family else [])
    radius = ball_radius(1.0, form.alpha, n, config.delta)
    ball = {"radius": radius, "delta": config.delta}
    tail = {"threshold": radius, "trials": config.trials, "theoretical_rate": config.delta}
    return {
        "stability": {"n": n, "seed": seeds["stability"], "theory_alpha": form.alpha},
        "radius": radius,
        "rademacher": {**ball, "draws": config.draws, "seed": seeds["sigma"]},
        "bounds": [BOUND_FAMILIES[name].evaluate(constants).to_dict() for name in names],
        "coefficients": form.coefficients,
        "tail": {**tail, "seed": seeds["tail"]} if config.tail else None,
    }


def _expected_coverage(config: ExperimentConfig, algorithm) -> dict | None:
    """The coverage section the config fixes, its rows counted: all of it
    but the gaps, or None without ``coverage_n``."""
    n = config.coverage_n
    if n is None:
        return None
    _, constants = _bound_constants(config, algorithm, n)
    bounds = {name: BOUND_FAMILIES[name].evaluate(constants).to_dict() for name in _GAP_KEYS}
    counts = {"n": n, "replications": config.trials, "rows": config.trials}
    return {**counts, "delta": config.delta, "a": config.a, "bounds": bounds}


# The per-n helpers below are shared by run_experiment and the CLI's
# ``stability``, ``complexity`` and ``concentrate center`` subcommands, so
# both read the same sample, stage seeds and record groups at n.


def sample_stage(config: ExperimentConfig, n: int) -> Sample:
    """The training sample at n that every per-n stage reads."""
    return draw_sample(config.distribution, n, child_seed(config.seed, "sample", n))


def stage_seeds(config: ExperimentConfig, n: int) -> dict:
    """The stability, center, sigma and tail stage seeds at n, each derived once."""
    stages = ("stability", "center", "sigma", "tail")
    return {stage: child_seed(config.seed, stage, n) for stage in stages}


def record_fits(config: ExperimentConfig, algorithm, n: int, names, seeds, sample=None) -> dict:
    """The fits of the named record groups at n, by name, through one fit
    plan at the stage seeds ``seeds`` (:func:`stage_seeds`). The groups are
    the base and record fits on the sample S, the complexity center's
    replicates, and the tail's center and trials."""
    groups = {
        "base": base_fit_group(seeds["stability"]),
        "record": FitGroup("record", child_seed(config.seed, "record-fit", n)),
        "center": FitGroup("center", seeds["center"], config.center_replicates),
        **dict(zip(["tail-center", "trial"], tail_groups(config.trials, seeds["tail"]))),
    }
    fits = fit_plan(algorithm, config.distribution, n, [groups[name] for name in names], sample)
    return dict(zip(names, fits))


def complexity_stage(
    config: ExperimentConfig, sample: Sample, alpha: float, replicates: np.ndarray, seed: int
) -> dict:
    """The record's radius, center and Rademacher estimate of the confidence
    ball at n: the center is the mean of the center ``replicates``, and the
    estimate draws its signs on ``seed``."""
    n = sample.n
    radius = ball_radius(1.0, alpha, n, config.delta)
    center = replicates.mean(axis=0)
    std_error = replicates.std(axis=0, ddof=1) / math.sqrt(len(replicates))
    ball = AlgorithmicBall(center, radius, n, config.delta)
    rademacher = ball_rademacher(ball, sample.features, config.draws, seed=seed)
    return {
        "radius": radius,
        "center": [float(v) for v in center],
        "center_std_error": float(np.linalg.norm(std_error)),
        "rademacher": {**rademacher.to_dict(), "radius": radius, "delta": config.delta},
    }


def _run_record(config: ExperimentConfig, algorithm, n: int):
    stage = "sample"
    try:
        sample = sample_stage(config, n)
        seeds = stage_seeds(config, n)
        loss = algorithm.loss_for(n)
        stage = "fits"
        names = ["base", "record", "center"] + (["tail-center", "trial"] if config.tail else [])
        fits = record_fits(config, algorithm, n, names, seeds, sample)
        stage = "stability"
        seed, base = seeds["stability"], fits["base"][0]
        stability = measure_argument_stability(
            algorithm, sample, config.distribution, config.replacements, seed=seed, base=base
        )
        alpha = stability.theory_alpha
        stage = "complexity"
        complexity = complexity_stage(config, sample, alpha, fits["center"], seeds["sigma"])
        stage = "bounds"
        expected = _expected_record(config, algorithm, n, seeds)
        stage = "gaps"
        X, y = sample.features[None], sample.labels[None]
        (gaps,) = _gaps(config, loss, fits["record"], X, y)
        stage = "tail"
        tail = None
        if config.tail:
            center_fits, trial_fits = fits["tail-center"], fits["trial"]
            tail = tail_of(center_fits, trial_fits, n, config.delta, alpha, seeds["tail"]).to_dict()
    except Exception as exc:
        raise RuntimeError(f"stage {stage!r} failed at n={n}: {exc}") from exc
    record = {
        "n": n,
        "stability": stability.to_dict(),
        **complexity,
        "bounds": expected["bounds"],
        "coefficients": expected["coefficients"],
        "gaps": gaps,
        "tail": tail,
    }
    return record, stability


def _run_coverage(config: ExperimentConfig, algorithm) -> dict:
    n = config.coverage_n
    try:
        loss = algorithm.loss_for(n)
        coverage = _expected_coverage(config, algorithm)
        # Each call's rows are scored before the next call redraws its stack.
        gaps = []
        group = FitGroup("coverage", config.seed, config.trials)
        for _, X, y, fits in plan_blocks(algorithm, config.distribution, n, [group]):
            gaps += _gaps(config, loss, fits, X, y)
    except Exception as exc:
        raise RuntimeError(f"stage 'coverage' failed at n={n}: {exc}") from exc
    rows = [{"plain_gap": g["plain"], "deformed_gap": g["deformed"]} for g in gaps]
    return {**coverage, "rows": rows}


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


def _per_index(stability: dict, n: int):
    """A record's n per-index maxima and means, each entry checked by the keyed reader."""
    entries = _as_list(stability["per_index"], f"n={n} per_index")
    if len(entries) != n:
        raise ValueError(f"n={n} per_index must have {n} entries, got {len(entries)}")
    entries = [_keys(entry, f"n={n} per_index entry", _PER_INDEX_KEYS) for entry in entries]
    maxima = [_real(entry["max_over_replacements"], f"n={n} per_index max") for entry in entries]
    return maxima, [_real(entry["mean"], f"n={n} per_index mean") for entry in entries]


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _agrees(stated, expected) -> bool:
    """Integers agree when equal and other numbers to a relative 1e-12, so a
    one-ulp difference passes; any other value must be equal and of its type."""
    if not (_is_real(expected) and _is_real(stated)):
        return type(stated) is type(expected) and stated == expected
    if isinstance(expected, numbers.Integral):
        return stated == expected
    return math.isclose(stated, expected, rel_tol=1e-12, abs_tol=1e-15)


def _named(entry, default):
    """A list entry's name in a problem line: a bound's family or a term's label."""
    return entry.get("name", entry.get("label", default)) if isinstance(entry, dict) else default


def _shown(value) -> str:
    if isinstance(value, list):
        return repr([_named(entry, entry) for entry in value])
    return "a dict" if isinstance(value, dict) else repr(value)


def _differences(where: str, stated, expected) -> list:
    """A line for each place where ``stated`` differs from ``expected``,
    named by its path from ``where``: dicts are walked by the expected keys,
    lists of one length entry by entry, and every other value compared by
    :func:`_agrees`."""
    if isinstance(stated, dict) and isinstance(expected, dict):
        pairs = [(key, stated.get(key), value) for key, value in expected.items()]
    elif isinstance(stated, list) and isinstance(expected, list) and len(stated) == len(expected):
        pairs = [(_named(e, i), s, e) for i, (s, e) in enumerate(zip(stated, expected))]
    elif _agrees(stated, expected):
        return []
    else:
        return [f"{where}: {_shown(stated)} != expected {_shown(expected)}"]
    return [line for key, s, e in pairs for line in _differences(f"{where} {key}", s, e)]


def _beyond_envelope(where: str, violations, runs: int, nominal: float) -> list:
    """A line when ``violations`` of ``runs`` lie more than three binomial
    standard deviations above the nominal rate."""
    limit = runs * nominal + 3.0 * math.sqrt(runs * nominal * (1.0 - nominal))
    if violations <= limit:
        return []
    return [f"{where}: {violations} violations exceed envelope {limit:.1f} at nominal {nominal:g}"]


def check_report(payload) -> list:
    """The problems of a written report, one line each; empty when it checks out.

    The report's config is read as :func:`run_experiment` reads it and its
    preset built, and the part of each record and of the coverage section
    that they fix is rebuilt (:func:`_expected_record`,
    :func:`_expected_coverage`). One walk compares the report with them and
    with the fields its numbers derive: each ``alpha_hat`` is the largest
    per-index maximum, a tail's ``empirical_rate`` its violations over its
    trials, and the ``rate`` is refitted from the records. The measured
    stability must stay under its closed form, and at 100 or more runs the
    tail and coverage violations within three binomial standard deviations
    of their nominal counts. A malformed report raises ValueError naming
    the key or field. A report must carry its digest unless it is a partial
    one, which carries a failure marker instead and may hold a prefix of
    the n grid. Every comparison is written as "within the limit", so a NaN
    fails it.
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
    expected_grid = list(config.n_grid[: len(grid)] if failed else config.n_grid)
    if grid != expected_grid:
        problems.append(f"records hold n = {grid}, not the config n_grid {list(config.n_grid)}")
    for n, record in zip(grid, records):
        if n not in config.n_grid:
            continue
        expected = _expected_record(config, algorithm, n, stage_seeds(config, n))
        for bound in _as_list(record["bounds"], "record bounds"):
            _read_bound(bound, f"n={n} bound")
        stability = _keys(record["stability"], f"n={n} stability", _STABILITY_KEYS)
        theory = expected["stability"]["theory_alpha"]
        _real(stability["theory_alpha"], f"n={n} theory_alpha")
        alpha_hat = _real(stability["alpha_hat"], f"n={n} alpha_hat")
        maxima, means = _per_index(stability, n)
        expected["stability"]["alpha_hat"] = max(maxima)
        # Each index has its replacements and, unless the base fit is zero,
        # two anchors; the report does not show the base fit, so either count holds.
        cells = n * config.replacements
        expected["stability"]["trials"] = cells if stability["trials"] == cells else cells + 2 * n
        # A mean of equal distances may round one ulp above them.
        above = [i for i, m in enumerate(means) if not m <= maxima[i] + 1e-12 * abs(maxima[i])]
        if above:
            i = above[0]
            where = f"n={n} stability per_index {i} mean"
            problems.append(f"{where}: {means[i]!r} exceeds max_over_replacements {maxima[i]!r}")
        # Ridge and penalized ERM bound every replace-one distance; the SGD closed
        # forms bound the coupled-twin distance in expectation over the shared
        # index stream, so stochastic presets check each index's mean distance.
        label, measured = "alpha_hat", [alpha_hat]
        if algorithm.stochastic:
            label, measured = "largest per-index mean distance", means
        over = [value for value in measured if not value <= theory + 1e-8]
        if over:
            problems.append(
                f"n={n} stability: {label} {max(over):.6g} exceeds theory_alpha {theory:.6g}"
            )
        tail = record["tail"]
        if tail is not None and config.tail:
            _keys(tail, f"n={n} tail", _TAIL_KEYS)
            violations = _count(tail["violations"], f"n={n} tail violations", 0, config.trials)
            expected["tail"]["empirical_rate"] = violations / config.trials
            if config.trials >= MIN_COVERAGE_REPLICATIONS:
                problems += _beyond_envelope(f"n={n} tail", violations, config.trials, config.delta)
        problems += _differences(f"n={n}", record, expected)
    if grid == expected_grid and not failed:
        problems += _differences("rate", payload.get("rate"), _rate_summary(records))
    coverage = payload.get("coverage")
    stated = coverage
    if coverage is not None:
        stated = {**_read_coverage(coverage), "rows": len(coverage["rows"])}
    if stated is not None or not failed:
        problems += _differences("coverage", stated, _expected_coverage(config, algorithm))
    if stated is not None and stated["rows"] >= MIN_COVERAGE_REPLICATIONS:
        for which in _GAP_KEYS:
            outcome = validate_bound_coverage({"coverage": coverage}, which)
            args = outcome["violations"], outcome["runs"], outcome["nominal"]
            problems += _beyond_envelope(f"coverage {which}", *args)
    if failed:
        problems.append(f"report carries a failure marker: {failed}")
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
