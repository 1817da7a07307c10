"""Acceptance gate: ten seeded end-to-end checks, one pass/fail line each.

Each test prints a single verdict line (criterion id, PASS or FAIL, and the
measured margin) before asserting, so the suite output doubles as the
acceptance report. Every computation is seeded; reruns print identical
numbers.
"""

import math
import time

import numpy as np
import pytest

from stabilab import (
    AlgorithmicBall,
    DistributionSpec,
    ExperimentConfig,
    LinearNoise,
    LogisticTeacher,
    ball_radius,
    ball_rademacher,
    brute_force_rademacher,
    center_concentration_experiment,
    certify_loss,
    check_penalty_condition,
    draw_sample,
    make_loss,
    measure_argument_stability,
    parallelogram_defect,
    pinelis_tail_experiment,
    report_digest,
    run_experiment,
    theoretical_alpha,
    validate_bound_coverage,
)
from stabilab.complexity import ball_draw_values, finite_class_draw_values
from stabilab.learners import make_algorithm
from stabilab.seeding import child_seed

SEED = 20250815
GRID = (25, 50, 100, 200, 400)

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
    "n_grid": list(GRID),
    "delta": 0.25,
    "a": 2.0,
    "replacements": 8,
    "trials": 200,
    "draws": 1024,
    "center_replicates": 64,
    "coverage_n": 100,
    "seed": SEED,
}


def verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{tag} failed: {detail}"


def regression_dist(d: int = 8) -> DistributionSpec:
    teacher = np.zeros(d)
    teacher[0] = 0.075
    return DistributionSpec(
        dim=d,
        feature_bound=1.0,
        teacher=teacher,
        mechanism=LinearNoise(noise_sd=0.02),
        label_bound=0.25,
    )


def classification_dist(d: int = 8) -> DistributionSpec:
    teacher = np.zeros(d)
    teacher[0] = 1.0
    return DistributionSpec(
        dim=d, feature_bound=1.0, teacher=teacher, mechanism=LogisticTeacher()
    )


def sc_sgd_rate_algorithm():
    """Strongly convex projected SGD with the classical 1/(gamma*n) step."""
    return make_algorithm(
        "sgd-strongly-convex",
        "logistic",
        1.0,
        1.0,
        steps={"mode": "multiple_of_n", "factor": 2},
        step="inverse_gamma_n",
        projection_radius=1.0,
        gamma=1.0,
    )


@pytest.fixture(scope="module")
def ridge_reports():
    """Replace-one measurements for ridge at both penalties over the n grid."""
    dist = regression_dist()
    start = time.perf_counter()
    reports = {}
    for lam in (0.1, 1.0):
        algorithm = make_algorithm("ridge", "squared", 1.0, 0.25, lam=lam)
        for n in GRID:
            sample = draw_sample(dist, n, child_seed(SEED, "c1-sample", str(lam), n))
            reports[(lam, n)] = measure_argument_stability(
                algorithm,
                sample,
                dist,
                20,
                seed=child_seed(SEED, "c1-stab", str(lam), n),
            )
    return reports, time.perf_counter() - start


@pytest.fixture(scope="module")
def sc_rate_reports():
    """Replace-one measurements for strongly convex SGD over the n grid."""
    dist = classification_dist()
    algorithm = sc_sgd_rate_algorithm()
    reports = {}
    for n in GRID:
        sample = draw_sample(dist, n, child_seed(SEED, "c3-sample", n))
        reports[n] = measure_argument_stability(
            algorithm, sample, dist, 4, seed=child_seed(SEED, "c3-stab", n)
        )
    return reports


@pytest.fixture(scope="module")
def acceptance_report():
    return run_experiment(ExperimentConfig.from_dict(ACCEPTANCE_CONFIG))


def test_c01_ridge_replace_one_domination(ridge_reports):
    reports, elapsed = ridge_reports
    worst = max(rep.alpha_hat / rep.theory_alpha for rep in reports.values())
    violations = sum(
        rep.alpha_hat > rep.theory_alpha + 1e-8 for rep in reports.values()
    )
    ok = violations == 0 and elapsed < 120.0
    verdict(
        "C1 ridge replace-one domination",
        ok,
        f"max measured/theory {worst:.3f}, {violations} violations, {elapsed:.1f}s",
    )


def test_c02_sgd_twin_trajectory_domination():
    dist = classification_dist()
    algorithms = {
        "strongly_convex": make_algorithm(
            "sgd-strongly-convex",
            "logistic",
            1.0,
            1.0,
            steps={"mode": "multiple_of_n", "factor": 2},
            step="inverse_smoothness",
            projection_radius=250.0,
            gamma=1.0,
        ),
        "convex": make_algorithm(
            "sgd-convex",
            "logistic",
            1.0,
            1.0,
            steps={"mode": "multiple_of_n", "factor": 2},
            step="inverse_smoothness",
            projection_radius=1.0,
        ),
        "nonconvex": make_algorithm(
            "sgd-nonconvex",
            "logistic",
            1.0,
            1.0,
            steps={"mode": "multiple_of_n", "factor": 2},
            c="inverse_smoothness",
            projection_radius=0.25,
        ),
    }
    start = time.perf_counter()
    worst = 0.0
    bad = 0
    for regime, algorithm in algorithms.items():
        for n in (50, 100, 200):
            sample = draw_sample(dist, n, child_seed(SEED, "c2-sample", regime, n))
            repl = draw_sample(dist, 100, child_seed(SEED, "c2-repl", regime, n))
            idx = np.arange(100) % n
            seeds = [child_seed(SEED, "c2-cell", regime, n, k) for k in range(100)]
            HA, HB = algorithm.fit_twins(sample, idx, repl.features, repl.labels, seeds, None)
            distances = np.linalg.norm(HA - HB, axis=1)
            theory = theoretical_alpha(algorithm, n)
            worst = max(worst, float(distances.max()) / theory)
            bad += int(np.sum(distances > theory + 1e-9))
    elapsed = time.perf_counter() - start
    ok = bad == 0 and elapsed < 300.0
    verdict(
        "C2 sgd twin-trajectory domination",
        ok,
        f"3 regimes x 3 n x 100 trials, max measured/theory {worst:.3f}, "
        f"{bad} violations, {elapsed:.1f}s",
    )


def log_log_slope(points) -> float:
    logn = np.log([n for n, _ in points])
    logv = np.log([v for _, v in points])
    return float(np.polyfit(logn, logv, 1)[0])


def test_c03_decay_rate_slopes(ridge_reports, sc_rate_reports):
    reports, _ = ridge_reports
    ridge_slope = log_log_slope([(n, reports[(1.0, n)].alpha_hat) for n in GRID])
    sc_slope = log_log_slope([(n, sc_rate_reports[n].alpha_hat) for n in GRID])
    ok = -1.15 <= ridge_slope <= -0.85 and -1.15 <= sc_slope <= -0.85
    verdict(
        "C3 decay-rate slopes",
        ok,
        f"ridge {ridge_slope:.3f}, strongly convex sgd {sc_slope:.3f}, "
        f"window [-1.15, -0.85]",
    )


def test_c04_ball_complexity_domination():
    cases = (
        ("ridge", make_algorithm("ridge", "squared", 1.0, 0.25, lam=1.0), regression_dist()),
        ("sc-sgd", sc_sgd_rate_algorithm(), classification_dist()),
    )
    worst = 0.0
    bad = 0
    for label, algorithm, dist in cases:
        for n in GRID:
            for delta in (0.1, 0.2):
                alpha = theoretical_alpha(algorithm, n)
                ball = AlgorithmicBall(
                    np.zeros(dist.dim), ball_radius(1.0, alpha, n, delta), n, delta
                )
                X = draw_sample(
                    dist, n, child_seed(SEED, "c4-sample", label, n)
                ).features
                estimate = ball_rademacher(
                    ball, X, 4096, seed=child_seed(SEED, "c4", label, n, str(delta))
                )
                limit = (
                    dist.feature_bound * math.sqrt(2.0 * math.log(2.0 / delta)) * alpha
                )
                worst = max(worst, estimate.mean / limit)
                bad += int(estimate.mean > limit + 3.0 * estimate.std_error)
    ok = bad == 0
    verdict(
        "C4 ball complexity domination",
        ok,
        f"2 algorithms x 5 n x 2 delta, 4096 draws, max mean/limit {worst:.4f}, "
        f"{bad} violations",
    )


def test_c05_center_concentration_coverage():
    dist = regression_dist()
    algorithm = make_algorithm("ridge", "squared", 1.0, 0.25, lam=1.0)
    start = time.perf_counter()
    worst_excess = -math.inf
    bad = 0
    for n in (50, 100):
        for delta in (0.05, 0.1):
            alpha = theoretical_alpha(algorithm, n)
            experiment = center_concentration_experiment(
                algorithm,
                dist,
                n,
                trials=500,
                delta=delta,
                alpha=alpha,
                seed=child_seed(SEED, "c5", n, str(delta)),
            )
            envelope = delta + 3.0 * math.sqrt(delta * (1.0 - delta) / 500.0)
            worst_excess = max(worst_excess, experiment.empirical_rate - envelope)
            bad += int(experiment.empirical_rate > envelope)
    elapsed = time.perf_counter() - start
    ok = bad == 0 and elapsed < 300.0
    verdict(
        "C5 center concentration coverage",
        ok,
        f"500 trials, 2000-replicate centers, worst rate-envelope gap "
        f"{worst_excess:.4f}, {bad} violations, {elapsed:.1f}s",
    )


def test_c06_martingale_tail_envelope():
    worst_excess = -math.inf
    bad = 0
    for steps in (10, 100):
        for eps in (0.5, 1.0, 2.0, 3.0):
            experiment = pinelis_tail_experiment(
                [1.0] * steps,
                8,
                10000,
                eps,
                seed=child_seed(SEED, "c6", steps, str(eps)),
            )
            p = experiment.theoretical_rate
            envelope = p + 3.0 * math.sqrt(p * (1.0 - p) / 10000.0)
            worst_excess = max(worst_excess, experiment.empirical_rate - envelope)
            bad += int(experiment.empirical_rate > envelope)
    ok = bad == 0
    verdict(
        "C6 martingale tail envelope",
        ok,
        f"eps in {{0.5,1,2,3}} x steps in {{10,100}}, 10000 trials, "
        f"worst rate-envelope gap {worst_excess:.4f}, {bad} violations",
    )


def test_c07_bound_coverage_envelope(acceptance_report):
    rates = {}
    bad = 0
    for which in ("plain-gap", "fast-rate"):
        outcome = validate_bound_coverage(acceptance_report, which)
        runs, nominal = outcome["runs"], outcome["nominal"]
        envelope = runs * nominal + 3.0 * math.sqrt(runs * nominal * (1.0 - nominal))
        rates[which] = outcome["violations"]
        bad += int(outcome["violations"] > envelope)
    ok = bad == 0
    verdict(
        "C7 bound coverage envelope",
        ok,
        f"200 replications at n=100, nominal 0.5: plain-gap "
        f"{rates['plain-gap']} violations, fast-rate {rates['fast-rate']} "
        f"violations, envelope 121.2",
    )


def test_c08_oracle_equivalences():
    dist = regression_dist()
    sample = draw_sample(dist, 50, child_seed(SEED, "c8-sample"))
    ridge = make_algorithm("ridge", "squared", 1.0, 0.25, lam=0.5)
    rerm = make_algorithm("rerm-lp", "squared", 1.0, 0.25, p=2.0, lam=0.5)
    fit_gap = float(np.linalg.norm(ridge.fit(sample) - rerm.fit(sample)))

    n = 12
    X = draw_sample(regression_dist(d=4), n, child_seed(SEED, "c8-x")).features
    rng = np.random.default_rng(child_seed(SEED, "c8-ball"))
    center = rng.normal(size=4) * 0.1
    ball = AlgorithmicBall(center, 0.3, n, 0.1)
    directions = rng.normal(size=(64, 4))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = 0.3 * rng.random(64) ** 0.5
    radii[:8] = 0.3
    hypotheses = center[None, :] + directions * radii[:, None]
    codes = np.arange(2**n, dtype=np.int64)
    signs = ((codes[:, None] >> np.arange(n)) & 1).astype(np.float64) * 2.0 - 1.0
    ball_values = ball_draw_values(ball, X, signs)
    finite_values = finite_class_draw_values(hypotheses, X, signs)
    draw_excess = float(np.max(finite_values - ball_values))
    exhaustive = brute_force_rademacher(hypotheses, X, exhaustive=True)

    rng = np.random.default_rng(child_seed(SEED, "c8-pairs"))
    equality_gap = 0.0
    all_hold = True
    for _ in range(10000):
        h = rng.normal(size=6)
        g = rng.normal(size=6)
        res = check_penalty_condition("ridge", h, g, 2.0, 0.5)
        gap = abs(res["lhs"] - res["rhs"]) / max(1.0, abs(res["rhs"]))
        equality_gap = max(equality_gap, gap)
        all_hold = all_hold and res["holds"]

    ok = (
        fit_gap <= 1e-6
        and draw_excess <= 1e-12
        and exhaustive.mean <= float(ball_values.mean()) + 1e-12
        and exhaustive.std_error == 0.0
        and equality_gap <= 1e-9
        and all_hold
    )
    verdict(
        "C8 oracle equivalences",
        ok,
        f"p=2 vs ridge fit gap {fit_gap:.2e}, worst per-draw excess over the "
        f"ball {draw_excess:.2e} across 4096 exhaustive sign vectors, squared-"
        f"norm midpoint equality gap {equality_gap:.2e} on 10000 pairs",
    )


def test_c09_numerical_certificates():
    fd_worst = 0.0
    all_ok = True
    for kind in ("hinge", "logistic", "squared"):
        loss = make_loss(kind, 1.0, 1.0, 1.0)
        result = certify_loss(loss, seed=child_seed(SEED, "c9", kind))
        fd_worst = max(fd_worst, result["finite_difference"]["max_rel_error"])
        all_ok = all_ok and result["ok"]
    rng = np.random.default_rng(child_seed(SEED, "c9-pairs"))
    defect = 0.0
    for _ in range(10000):
        defect = max(defect, parallelogram_defect(rng.normal(size=8), rng.normal(size=8)))
    ok = all_ok and fd_worst <= 1e-5 and defect < 1e-9
    verdict(
        "C9 numerical certificates",
        ok,
        f"gradient fd max rel error {fd_worst:.2e} (tol 1e-5), constants hold "
        f"on 10000 triples per loss, parallelogram defect {defect:.2e}",
    )


def test_c10_reproducible_digests(acceptance_report):
    first = report_digest(acceptance_report)
    second = report_digest(run_experiment(ExperimentConfig.from_dict(ACCEPTANCE_CONFIG)))
    ok = first == second
    verdict(
        "C10 reproducible digests",
        ok,
        f"two full runs, digest {first[:16]}.. {'==' if ok else '!='} {second[:16]}..",
    )
