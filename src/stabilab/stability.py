"""Replace-one stability: empirical measurement and closed-form coefficients.

The central quantity is the argument stability coefficient alpha(n): the
largest distance ||h_S - h_S'|| between hypotheses trained on samples that
differ in a single example. :func:`measure_argument_stability` estimates it
by replaying an algorithm on systematically perturbed samples, and the
``*_alpha`` functions evaluate the matching closed forms for penalized ERM
and for SGD in its three step-size regimes. Loss stability follows through
the Lipschitz link beta = L * B * alpha.

Measurement conventions:

* the supremum over replacement examples is approximated by i.i.d. draws
  plus two adversarial anchors at the extreme-margin points
  ``+/- B * h_S / ||h_S||`` with flipped labels;
* every preset fits the whole cell list through its ``fit_twins``, which
  returns the fits on S and on each replaced sample; stochastic algorithms
  are compared as coupled twins, both runs consuming the same
  example-index stream in one stacked SGD kernel, so a replacement that
  the stream never touches yields distance exactly zero;
* every (index, replacement) cell derives its own seed from the master
  seed, making reports independent of evaluation order.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .datagen import DistributionSpec, draw_sample
from .learners import (
    ConstantAlgorithm,
    LpRermAlgorithm,
    PenaltySpec,
    RidgeAlgorithm,
    Sample,
    SgdAlgorithm,
    SgdSpec,
)
from .losses import LabeledExample, LossModel, margin_values
from .seeding import child_seed

# Replacement-column codes used in CSV rows: non-negative values are i.i.d.
# replacement draws, the anchors carry negative codes.
ANCHOR_PLUS = -1
ANCHOR_MINUS = -2


# ---------------------------------------------------------------------------
# closed-form coefficients


def rerm_alpha(
    lipschitz: float,
    feature_bound: float,
    curvature: float,
    lam: float,
    n: int,
    exponent: float,
) -> float:
    """Argument stability of penalized ERM: (L*B / (C*lam*n))^(1/(xi-1)).

    ``curvature`` is the constant C of the penalty's convexity lower bound
    N(h) + N(g) - 2N((h+g)/2) >= C * ||h-g||^xi on the reachable set.
    """
    if exponent <= 1.0:
        raise ValueError("penalty convexity exponent must be > 1")
    if curvature <= 0:
        raise ValueError("curvature constant must be positive")
    if lam <= 0:
        raise ValueError("lam must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    if lipschitz < 0 or feature_bound <= 0:
        raise ValueError("need lipschitz >= 0 and feature_bound > 0")
    base = lipschitz * feature_bound / (curvature * lam * n)
    return base ** (1.0 / (exponent - 1.0))


def lp_penalty_constant(p: float, bound: float, lam: float) -> dict:
    """Convexity constants of N(h) = ||h||_p^p on the set RERM can reach.

    Returns {"exponent": 2, "curvature": p*(p-1)/4 * (M/lam)^((p-1)/p)} for
    p in (1, 2], where M bounds the loss values (so the minimizer's penalty
    is at most M/lam).
    """
    if not 1.0 < p <= 2.0:
        raise ValueError("p must lie in (1, 2]")
    if bound <= 0 or lam <= 0:
        raise ValueError("bound and lam must be positive")
    curvature = 0.25 * p * (p - 1.0) * (bound / lam) ** ((p - 1.0) / p)
    return {"exponent": 2.0, "curvature": curvature}


def ridge_curvature(bound: float, lam: float, convention: str = "reported") -> float:
    """Convexity constant for the squared-norm penalty N(h) = ||h||^2.

    Two conventions coexist: "reported" gives (1/2)*sqrt(M/lam), which is
    the p = 2 case of :func:`lp_penalty_constant`; "exact" gives the
    radius-free 1/2 that direct expansion of the condition yields (the
    squared norm satisfies it with equality at C = 1/2). They agree only
    at M = lam. Callers present the "reported" value by default and may
    surface both.
    """
    if convention == "exact":
        return 0.5
    if convention == "reported":
        return lp_penalty_constant(2.0, bound, lam)["curvature"]
    raise ValueError(f"unknown convention {convention!r}")


def sgd_alpha(
    spec: SgdSpec,
    lipschitz: float,
    feature_bound: float,
    n: int,
    smoothness: float | None = None,
    gamma: float | None = None,
) -> float:
    """Argument stability of coupled-stream SGD for the requested regime.

    nonconvex (steps c/t):   (1 + 1/(s*c)) / (n-1) * (2cBL)^(1/(sc+1)) * T^(sc/(sc+1))
    convex (constant step):  (2BL/n) * sum of steps, requiring step <= 2/s
    strongly convex:         2BL / (gamma*n), requiring step <= 1/s
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if lipschitz < 0 or feature_bound <= 0:
        raise ValueError("need lipschitz >= 0 and feature_bound > 0")
    BL = feature_bound * lipschitz
    if spec.regime == "nonconvex":
        if smoothness is None or smoothness <= 0:
            raise ValueError("nonconvex regime needs the smoothness constant")
        if n < 2:
            raise ValueError("nonconvex regime needs n >= 2")
        sc = smoothness * spec.step_constant
        if spec.steps == 0:
            return 0.0
        return (
            (1.0 + 1.0 / sc)
            / (n - 1.0)
            * (2.0 * spec.step_constant * BL) ** (1.0 / (sc + 1.0))
            * spec.steps ** (sc / (sc + 1.0))
        )
    if smoothness is None or smoothness <= 0:
        raise ValueError(f"{spec.regime} regime needs the smoothness constant")
    spec.check_step_cap(smoothness)
    if spec.regime == "convex":
        return 2.0 * BL / n * float(np.sum(spec.step_sizes()))
    if gamma is None or gamma <= 0:
        raise ValueError("strongly_convex regime needs gamma > 0")
    return 2.0 * BL / (gamma * n)


def beta_from_alpha(lipschitz: float, feature_bound: float, alpha: float) -> float:
    """Loss stability from argument stability: beta = L * B * alpha."""
    return lipschitz * feature_bound * alpha


def check_penalty_condition(penalty, h, g, exponent: float, curvature: float) -> dict:
    """Evaluate the convexity condition N(h)+N(g)-2N((h+g)/2) >= C*||h-g||^xi.

    ``penalty`` is a PenaltySpec (N = sum |h_j|^p) or the string "ridge"
    (N = squared norm). Returns lhs, rhs and whether the inequality holds
    up to a 1e-12 slack.
    """
    h = np.asarray(h, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if h.shape != g.shape or h.ndim != 1:
        raise ValueError("h and g must be vectors of equal length")
    if penalty == "ridge":
        def value(v):
            return float(v @ v)
    elif isinstance(penalty, PenaltySpec):
        value = penalty.value
    else:
        raise ValueError("penalty must be a PenaltySpec or the string 'ridge'")
    lhs = value(h) + value(g) - 2.0 * value((h + g) / 2.0)
    rhs = curvature * float(np.linalg.norm(h - g)) ** exponent
    return {"lhs": lhs, "rhs": rhs, "holds": bool(lhs >= rhs - 1e-12)}


def theoretical_alpha(algorithm, n: int) -> float:
    """Closed-form alpha(n) for a preset, from its own certified constants."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(algorithm, ConstantAlgorithm):
        return 0.0
    if not hasattr(algorithm, "loss_for"):
        raise ValueError("algorithm does not expose loss_for(n)")
    loss = algorithm.loss_for(n)
    if loss is None:
        raise ValueError("algorithm has no certified loss model")
    consts = loss.constants()
    if isinstance(algorithm, RidgeAlgorithm):
        curv = ridge_curvature(consts.bound, algorithm.lam)
        return rerm_alpha(
            consts.lipschitz, loss.feature_bound, curv, algorithm.lam, n, 2.0
        )
    if isinstance(algorithm, LpRermAlgorithm):
        pen = algorithm.penalty
        cond = lp_penalty_constant(pen.p, consts.bound, pen.lam)
        return rerm_alpha(
            consts.lipschitz,
            loss.feature_bound,
            cond["curvature"],
            pen.lam,
            n,
            cond["exponent"],
        )
    if isinstance(algorithm, SgdAlgorithm):
        spec = algorithm.spec_for(n, 0)
        gamma = algorithm.gamma if algorithm.regime == "strongly_convex" else None
        return sgd_alpha(
            spec,
            consts.lipschitz,
            loss.feature_bound,
            n,
            smoothness=consts.smoothness,
            gamma=gamma,
        )
    raise ValueError(f"no closed-form alpha for algorithm {algorithm!r}")


# ---------------------------------------------------------------------------
# empirical measurement


@dataclass(frozen=True)
class StabilityReport:
    """Replace-one measurement over every index of one sample.

    ``per_index[i]`` summarizes the distances observed when example i was
    replaced; ``alpha_hat`` is the maximum over all cells, ``beta_hat`` the
    matching maximum loss gap over the evaluation grid (None when no
    evaluation loss was supplied). ``cells`` holds one (i, replacement
    code, distance, loss gap) tuple per fit pair, ``trials`` their count.
    """

    per_index: tuple
    alpha_hat: float
    beta_hat: float | None
    n: int
    trials: int
    seed: int
    theory_alpha: float | None
    cells: tuple

    def to_dict(self) -> dict:
        return {
            "per_index": [dict(entry) for entry in self.per_index],
            "alpha_hat": self.alpha_hat,
            "beta_hat": self.beta_hat,
            "n": self.n,
            "trials": self.trials,
            "seed": self.seed,
            "theory_alpha": self.theory_alpha,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def csv_rows(self):
        """Rows (i, replacement, distance, loss_gap); anchors use codes -1, -2."""
        for i, code, distance, gap in self.cells:
            yield (i, code, distance, "" if gap is None else gap)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["i", "replacement", "distance", "loss_gap"])
            writer.writerows(self.csv_rows())


def adversarial_anchors(h: np.ndarray, dist: DistributionSpec) -> list:
    """Extreme-margin replacement examples +/- B*h/||h|| with flipped labels.

    Classification anchors get the label opposite to the prediction sign;
    regression anchors get the farthest admissible label. Returns an empty
    list when h is (numerically) zero, since no margin direction exists.
    """
    norm = float(np.linalg.norm(h))
    if norm < 1e-12:
        return []
    direction = h / norm * dist.feature_bound
    if dist.mechanism.classification():
        far_plus, far_minus = -1.0, 1.0
    else:
        far_plus, far_minus = -dist.label_bound, dist.label_bound
    return [
        (ANCHOR_PLUS, LabeledExample(direction, far_plus)),
        (ANCHOR_MINUS, LabeledExample(-direction, far_minus)),
    ]


def _cell_replacements(dist, i, replacements, anchors, seed):
    """Replacement examples for index i: seeded i.i.d. draws, then anchors."""
    out = []
    for k in range(replacements):
        z = draw_sample(dist, 1, child_seed(seed, "replacement", i, k)).example(0)
        out.append((k, z))
    out.extend(anchors)
    return out


def _loss_gap_grid(dist: DistributionSpec, eval_loss, anchors, seed):
    if eval_loss is None:
        return None, None
    grid = draw_sample(dist, 1024, child_seed(seed, "loss-grid"))
    X = [grid.features]
    y = [grid.labels]
    for _, z in anchors:
        X.append(z.x[None, :])
        y.append(np.array([z.y]))
    return np.concatenate(X), np.concatenate(y)


def measure_argument_stability(
    algorithm,
    sample: Sample,
    dist: DistributionSpec,
    replacements: int,
    eval_loss: LossModel | None = None,
    seed: int = 0,
    use_anchors: bool = True,
) -> StabilityReport:
    """Estimate alpha(n) (and beta(n)) by replacing each example in turn.

    For every index i, ``replacements`` fresh examples are drawn from the
    distribution (plus two adversarial anchors when the base fit is
    nonzero), the algorithm is refit on the perturbed sample, and the
    hypothesis distance is recorded. Stochastic presets are evaluated as
    coupled twins sharing the per-cell index stream. ``beta_hat`` is the
    maximum loss gap over a fixed grid of 1024 held-out points plus the
    anchors, computed only when ``eval_loss`` is given.
    """
    if replacements < 1:
        raise ValueError("replacements must be >= 1")
    if sample.dim != dist.dim:
        raise ValueError("sample dimension does not match the distribution")
    n = sample.n
    base_seed = child_seed(seed, "base-fit")
    try:
        h_base = algorithm.fit(sample, seed=base_seed)
    except Exception as exc:
        raise RuntimeError(f"base fit failed: {exc}") from exc
    anchors = adversarial_anchors(h_base, dist) if use_anchors else []
    grid_X, grid_y = _loss_gap_grid(dist, eval_loss, anchors, seed)

    cell_index, codes, rep_x, rep_y, seeds = [], [], [], [], []
    for i in range(n):
        for code, z in _cell_replacements(dist, i, replacements, anchors, seed):
            cell_index.append(i)
            codes.append(code)
            rep_x.append(z.x)
            rep_y.append(z.y)
            seeds.append(child_seed(seed, i, code))
    try:
        HA, HB = algorithm.fit_twins(
            sample, cell_index, np.stack(rep_x), np.array(rep_y), seeds, h_base
        )
    except Exception as exc:
        raise RuntimeError(f"replace-one fits failed: {exc}") from exc

    distances = [float(np.linalg.norm(a - b)) for a, b in zip(HA, HB)]
    if eval_loss is None:
        gaps = [None] * len(distances)
    else:
        gaps = [_loss_gap(eval_loss, a, b, grid_X, grid_y) for a, b in zip(HA, HB)]
    cells = list(zip(cell_index, codes, distances, gaps))
    by_index = np.array(distances).reshape(n, -1)
    per_index = [
        (("max_over_replacements", float(top)), ("mean", float(mean)))
        for top, mean in zip(by_index.max(axis=1), by_index.mean(axis=1))
    ]
    alpha_hat = max(distances)
    beta_hat = None if eval_loss is None else max(gaps)
    try:
        theory = theoretical_alpha(algorithm, n)
    except ValueError:
        theory = None
    return StabilityReport(
        per_index=tuple(per_index),
        alpha_hat=alpha_hat,
        beta_hat=beta_hat,
        n=n,
        trials=len(cells),
        seed=seed,
        theory_alpha=theory,
        cells=tuple(cells),
    )


def _grid_values(loss: LossModel, h: np.ndarray, grid_X: np.ndarray, grid_y: np.ndarray):
    """Loss values of one hypothesis on each grid point, as a (points, 1) column."""
    H = h[None, :]
    margins = grid_X @ H.T
    vals = margin_values(loss.kind, margins, grid_y[:, None])
    if loss.ridge_term:
        vals = vals + loss.ridge_term * np.sum(H * H, axis=1)[None, :]
    return vals


def _loss_gap(loss: LossModel, a: np.ndarray, b: np.ndarray, grid_X, grid_y) -> float:
    """Largest loss difference between two hypotheses over the grid."""
    va = _grid_values(loss, a, grid_X, grid_y)
    vb = _grid_values(loss, b, grid_X, grid_y)
    return float(np.abs(va - vb).max())
