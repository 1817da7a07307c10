"""The four benchmark workloads, built from a seed through the public API.

Each workload has a set-up, which validates its configs and algorithms, and
a pass, which produces the workload's reports and checks them. A pass
returns the digest of what it produced and the list of checks it failed;
an empty list means the pass is correct.

Importing this module imports numpy and stabilab, so the benchmark times
the import as part of set-up. The caller must pin the BLAS threads and put
``src/`` on ``sys.path`` first.

The benchmark calls every library function through its module attribute
(``stabilab.run_experiment``, not a name bound at import), so the traced
run's rebinding of those attributes sees every call.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np

import stabilab
from stabilab.seeding import child_seed

# tests/test_acceptance.py::ACCEPTANCE_CONFIG, the config ROADMAP gates on.
ACCEPTANCE_CONFIG = {
    "name": "acceptance",
    "algorithm": {"preset": "ridge", "lam": 1.0},
    "loss": "squared",
    "distribution": {
        "dim": 8,
        "feature_bound": 1.0,
        "teacher": [0.075, 0, 0, 0, 0, 0, 0, 0],
        "mechanism": {"type": "linear_noise", "noise_sd": 0.02},
        "label_bound": 0.25,
    },
    "n_grid": [25, 50, 100, 200, 400],
    "delta": 0.25,
    "a": 2.0,
    "replacements": 8,
    "trials": 200,
    "draws": 1024,
    "center_replicates": 64,
    "coverage_n": 100,
}

LOGISTIC_DISTRIBUTION = {
    "dim": 8,
    "feature_bound": 1.0,
    "teacher": [1.0, 0, 0, 0, 0, 0, 0, 0],
    "mechanism": {"type": "logistic_teacher"},
}

# The strongly convex SGD preset of acceptance criterion c03.
SGD_TAIL_CONFIG = {
    "name": "sgd-tail",
    "algorithm": {
        "preset": "sgd-strongly-convex",
        "steps": {"mode": "multiple_of_n", "factor": 2},
        "step": "inverse_gamma_n",
        "projection_radius": 1.0,
        "gamma": 1.0,
    },
    "loss": "logistic",
    "distribution": LOGISTIC_DISTRIBUTION,
    "n_grid": [25, 50, 100, 200],
    "delta": 0.25,
    "replacements": 4,
    "trials": 200,
    "coverage_n": 100,
    "tail": True,
}

RERM_LP_CONFIG = {
    "name": "rerm-lp",
    "algorithm": {"preset": "rerm-lp", "p": 1.5, "lam": 0.5},
    "loss": "logistic",
    "distribution": LOGISTIC_DISTRIBUTION,
    "n_grid": [25, 50, 100],
    "delta": 0.25,
    "replacements": 2,
    "center_replicates": 32,
}

# Acceptance criteria c06 (martingale tail grid) and c04 (ball complexity of
# the ridge preset on its own samples).
PINELIS_STEPS = (10, 100)
PINELIS_EPSILONS = (0.5, 1.0, 2.0, 3.0)
PINELIS_TRIALS = 10000
PINELIS_DIM = 8
BALL_GRID = (25, 50, 100, 200, 400)
BALL_DELTAS = (0.1, 0.2)
BALL_DRAWS = 4096


def envelope(rate: float, trials: int) -> float:
    """Three binomial standard deviations above a nominal rate."""
    return rate + 3.0 * math.sqrt(rate * (1.0 - rate) / trials)


def _bound_problems(where: str, bound: dict) -> list:
    total = math.fsum(term["value"] for term in bound["terms"])
    if math.isclose(total, bound["total"], rel_tol=1e-12, abs_tol=1e-15):
        return []
    return [f"{where} {bound['name']}: total {bound['total']!r} != fsum {total!r}"]


def _stability_problems(n: int, stab: dict, stochastic: bool) -> list:
    """The measured stability must stay under the closed form it tests.

    For ridge and penalized ERM the closed form bounds every replace-one
    distance, so ``alpha_hat`` (the largest) must stay under it. For SGD it
    bounds the distance between coupled twins in expectation over their
    shared index stream (Hardt, Recht and Singer 2016, Theorems 3.8-3.12),
    and one realization may exceed it: a stream that draws the replaced
    index several times late in the run moves the twins apart each time.
    There each index's mean distance over its replacements, the estimate of
    that expectation, must stay under it.
    """
    theory = stab["theory_alpha"]
    if stochastic:
        measured = max(entry["mean"] for entry in stab["per_index"])
        what = "largest per-index mean distance"
    else:
        measured, what = stab["alpha_hat"], "alpha_hat"
    if theory is None or not measured <= theory + 1e-8:
        return [f"n={n}: {what} {measured!r} > theory {theory!r}"]
    return []


def check_report(report, config) -> list:
    """Failed checks of one experiment report, empty when it is correct."""
    payload = report.to_dict()
    stochastic = config.algorithm["preset"].startswith("sgd")
    problems = []
    for record in payload["records"]:
        n = record["n"]
        problems += _stability_problems(n, record["stability"], stochastic)
        for bound in record["bounds"]:
            problems += _bound_problems(f"n={n}", bound)
        tail = record["tail"]
        if config.tail:
            limit = envelope(config.delta, config.trials)
            if tail is None or tail["empirical_rate"] > limit:
                problems.append(f"n={n}: tail {tail} above envelope {limit:.4f}")
    coverage = payload["coverage"]
    if config.coverage_n is not None:
        for bound in coverage["bounds"].values():
            problems += _bound_problems("coverage", bound)
        for which in ("plain-gap", "fast-rate"):
            outcome = stabilab.validate_bound_coverage(report, which)
            runs, nominal = outcome["runs"], outcome["nominal"]
            limit = runs * envelope(nominal, runs)
            if outcome["violations"] > limit:
                problems.append(
                    f"coverage {which}: {outcome['violations']} violations > {limit:.1f}"
                )
    return problems


def check_written_report(out_dir: str, digest: str) -> list:
    """The report.json on disk must carry, and hash to, the pass digest."""
    with open(os.path.join(out_dir, "report.json")) as fh:
        payload = json.load(fh)
    if payload.get("digest") == digest and stabilab.report_digest(payload) == digest:
        return []
    return [f"report.json in {out_dir} does not reproduce digest {digest[:16]}.."]


def _experiment(raw: dict, seed: int, out_dir: str | None):
    config = stabilab.ExperimentConfig.from_dict({**raw, "seed": seed})
    if out_dir is not None:
        # As `experiment run --out-dir` does: the directory stays out of the
        # config echo, so it does not enter the digest.
        config = dataclasses.replace(config, out_dir=out_dir)

    def run_pass():
        report = stabilab.run_experiment(config)
        digest = stabilab.report_digest(report)
        problems = check_report(report, config)
        if out_dir is not None:
            problems += check_written_report(out_dir, digest)
        return digest, problems

    return run_pass


def _mc_tail(seed: int, out_dir: str):
    c04 = ACCEPTANCE_CONFIG["distribution"]
    dist = stabilab.DistributionSpec(
        dim=c04["dim"],
        feature_bound=c04["feature_bound"],
        teacher=np.asarray(c04["teacher"], dtype=np.float64),
        mechanism=stabilab.LinearNoise(noise_sd=c04["mechanism"]["noise_sd"]),
        label_bound=c04["label_bound"],
    )
    algorithm = stabilab.make_algorithm(
        "ridge", "squared", dist.feature_bound, dist.label_bound, lam=1.0
    )
    alphas = {n: stabilab.theoretical_alpha(algorithm, n) for n in BALL_GRID}

    def run_pass():
        problems = []
        results = {"pinelis": [], "rademacher": []}
        for steps in PINELIS_STEPS:
            for eps in PINELIS_EPSILONS:
                experiment = stabilab.pinelis_tail_experiment(
                    [1.0] * steps,
                    PINELIS_DIM,
                    PINELIS_TRIALS,
                    eps,
                    seed=child_seed(seed, "c6", steps, str(eps)),
                )
                limit = envelope(experiment.theoretical_rate, PINELIS_TRIALS)
                if experiment.empirical_rate > limit:
                    problems.append(f"c06 steps={steps} eps={eps}: rate above {limit:.4f}")
                results["pinelis"].append(experiment.to_dict())
        for n in BALL_GRID:
            X = stabilab.draw_sample(dist, n, child_seed(seed, "c4-sample", "ridge", n)).features
            for delta in BALL_DELTAS:
                alpha = alphas[n]
                ball = stabilab.AlgorithmicBall(
                    np.zeros(dist.dim), stabilab.ball_radius(1.0, alpha, n, delta), n, delta
                )
                estimate = stabilab.ball_rademacher(
                    ball, X, BALL_DRAWS, seed=child_seed(seed, "c4", "ridge", n, str(delta))
                )
                limit = dist.feature_bound * math.sqrt(2.0 * math.log(2.0 / delta)) * alpha
                if estimate.mean > limit + 3.0 * estimate.std_error:
                    problems.append(f"c04 n={n} delta={delta}: mean above {limit:.3g}")
                results["rademacher"].append(estimate.to_dict())
        return stabilab.report_digest(results), problems

    return run_pass


WORKLOADS = {
    "ridge-tail": lambda seed, out_dir: _experiment(
        {**ACCEPTANCE_CONFIG, "name": "ridge-tail", "tail": True}, seed, out_dir
    ),
    "sgd-tail": lambda seed, out_dir: _experiment(SGD_TAIL_CONFIG, seed, None),
    "rerm-lp": lambda seed, out_dir: _experiment(RERM_LP_CONFIG, seed, None),
    "mc-tail": _mc_tail,
}


def setup(name: str, seed: int, out_dir: str):
    """Validate the workload's configs and algorithms; return its pass.

    Only ridge-tail writes report files, into a directory under ``out_dir``.
    """
    return WORKLOADS[name](seed, os.path.join(out_dir, f"{name}-reports"))
