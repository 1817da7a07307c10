"""Replace-one stability: empirical measurement and closed-form coefficients.

The central quantity is the argument stability coefficient alpha(n): the
largest distance ||h_S - h_S'|| between hypotheses trained on samples that
differ in a single example. :func:`measure_argument_stability` estimates it
by replaying an algorithm on systematically perturbed samples, and the
``*_alpha`` functions evaluate the matching closed forms for penalized ERM
and for SGD in its three step-size regimes. :func:`closed_form` is the one
place that picks a preset's closed form, together with the bound family
that composes it. Loss stability follows through the Lipschitz link
beta = L * B * alpha.

Measurement conventions:

* the supremum over replacement examples is approximated by i.i.d. draws
  plus two adversarial anchors at the extreme-margin points
  ``+/- B * h_S / ||h_S||`` with flipped labels;
* every preset fits the whole cell table as one stack through its
  ``fit_twins``, which checks every cell (index in range, finite
  replacement, one seed) before any fit and returns the fits on S and on
  each replaced sample; stochastic algorithms are compared as coupled
  twins, both runs consuming the same example-index stream in the stacked
  SGD kernel, so a replacement that the stream never touches yields
  distance exactly zero;
* a record's n * R i.i.d. replacements are one sample drawn on
  ``(seed, "replacement")``, cell (i, k) taking row i * R + k, so a
  replacement depends on (seed, n, R, i, k); a stochastic preset's cell
  derives its own fit seed from the master seed, making reports
  independent of evaluation order;
* a cell's loss gap is its largest loss difference over one shared grid,
  with the grid values taken by ``LossModel.values_raw`` on blocks of
  cells; a deterministic fit on S is evaluated on the grid once.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .datagen import DistributionSpec, FitGroup, draw_sample, fit_plan
from .learners import (
    ConstantAlgorithm,
    LpRermAlgorithm,
    PenaltySpec,
    RidgeAlgorithm,
    Sample,
    SgdAlgorithm,
    SgdSpec,
    _row_norms,
)
from .seeding import child_seed

# Replacement-column codes used in CSV rows: non-negative values are i.i.d.
# replacement draws, the anchors carry negative codes.
ANCHOR_PLUS = -1
ANCHOR_MINUS = -2

# The columns of a stability cell table, :attr:`StabilityReport.cells`.
CELL_HEADER = ("i", "replacement", "distance", "loss_gap")
_CELL_TYPES = np.dtype(list(zip(CELL_HEADER, ("i8", "i8", "f8", "f8"))))

# Cells whose grid loss values are evaluated at once: a (cells, grid) block.
_GAP_BLOCK = 64


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


@dataclass(frozen=True)
class ClosedForm:
    """A preset's closed form at one n and the bound family that composes it.

    ``alpha`` is the argument-stability coefficient; ``family`` names the
    bound family that restates it as a gap bound (None for the constant
    preset); ``constants`` holds that family's own constants, beside the
    shared ones every family reads; ``coefficients`` is the report's
    coefficient table.
    """

    alpha: float
    family: str | None
    constants: dict
    coefficients: dict


def closed_form(algorithm, n: int) -> ClosedForm:
    """The closed form of a preset at n, from its own certified constants."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(algorithm, ConstantAlgorithm):
        return ClosedForm(0.0, None, {}, {})
    if not isinstance(algorithm, (RidgeAlgorithm, LpRermAlgorithm, SgdAlgorithm)):
        raise ValueError(f"no closed-form alpha for algorithm {algorithm!r}")
    loss = algorithm.loss_for(n)
    consts = loss.constants()
    if isinstance(algorithm, (RidgeAlgorithm, LpRermAlgorithm)):
        # Ridge is the p = 2 case of the l_p^p penalty.
        ridge = isinstance(algorithm, RidgeAlgorithm)
        p, lam = (2.0, algorithm.lam) if ridge else (algorithm.penalty.p, algorithm.penalty.lam)
        cond = lp_penalty_constant(p, consts.bound, lam)
        curvature, exponent = cond["curvature"], cond["exponent"]
        alpha = rerm_alpha(consts.lipschitz, loss.feature_bound, curvature, lam, n, exponent)
        if ridge:
            # The squared norm meets the convexity condition with equality at
            # C = 1/2, whatever the radius; the reported curvature is the p = 2
            # case of the l_p^p constant, and the two agree only at M = lam.
            exact = 0.5
            coefficients = {
                "curvature_reported": curvature,
                "curvature_exact": exact,
                "alpha_reported": alpha,
                "alpha_exact": alpha * curvature / exact,
            }
        else:
            coefficients = {"curvature": curvature, "exponent": exponent}
        constants = {"curvature": curvature, "lam": lam, "exponent": exponent}
        return ClosedForm(alpha, "rerm-fast-rate", constants, coefficients)
    spec = algorithm.spec_for(n)
    gamma = algorithm.gamma if algorithm.regime == "strongly_convex" else None
    alpha = sgd_alpha(
        spec,
        consts.lipschitz,
        loss.feature_bound,
        n,
        smoothness=consts.smoothness,
        gamma=gamma,
    )
    # The family rebuilds the run's plan from these SgdSpec fields.
    plan = ("regime", "steps", "step", "step_constant", "projection_radius")
    constants = {name: getattr(spec, name) for name in plan} | {"gamma": gamma}
    return ClosedForm(alpha, "sgd-fast-rate", constants, {})


def theoretical_alpha(algorithm, n: int) -> float:
    """Closed-form alpha(n) for a preset, from its own certified constants."""
    return closed_form(algorithm, n).alpha


# ---------------------------------------------------------------------------
# empirical measurement


@dataclass(frozen=True, eq=False)
class StabilityReport:
    """Replace-one measurement over every index of one sample.

    ``cells`` is the cell table, one row per fit pair and one column per
    ``CELL_HEADER`` name; the other measured fields are read off it.
    ``per_index[i]`` summarizes the distances when example i was replaced;
    ``alpha_hat`` is the maximum distance, ``beta_hat`` the maximum loss gap
    over the evaluation grid, ``trials`` the number of cells.
    """

    per_index: list
    alpha_hat: float
    beta_hat: float
    n: int
    trials: int
    seed: int
    theory_alpha: float | None
    cells: np.ndarray

    def to_dict(self) -> dict:
        """Every field but ``cells``, which a report writes as its own table."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "cells"}

    def rows(self) -> list:
        """The cell table as ``CELL_HEADER`` rows of Python numbers, one per cell."""
        return self.cells.tolist()


def adversarial_anchors(h: np.ndarray, dist: DistributionSpec):
    """(codes, X (k, d), y (k,)): the extreme-margin replacement examples
    +/- B*h/||h|| with flipped labels.

    The anchor at +B*h/||h|| takes the label -Y and its mirror +Y, with Y
    the label bound (1 for classification mechanisms). k is 0 when h is
    (numerically) zero, since no margin direction exists.
    """
    norm = float(np.linalg.norm(h))
    if norm < 1e-12:
        return [], np.empty((0, dist.dim)), np.empty(0)
    direction = h / norm * dist.feature_bound
    far = dist.label_bound
    return [ANCHOR_PLUS, ANCHOR_MINUS], np.stack([direction, -direction]), np.array([-far, far])


def base_fit_group(seed: int) -> FitGroup:
    """The base fit on S of :func:`measure_argument_stability` at ``seed``."""
    return FitGroup("base", child_seed(seed, "base-fit"))


def measure_argument_stability(
    algorithm,
    sample: Sample,
    dist: DistributionSpec,
    replacements: int,
    seed: int = 0,
    base: np.ndarray | None = None,
) -> StabilityReport:
    """Estimate alpha(n) (and beta(n)) by replacing each example in turn.

    The base fit h_S on ``sample`` is the fit of ``base_fit_group(seed)``:
    ``base`` when given (a record's fit plan fits it beside its other
    groups), else fitted here. For every index i, ``replacements`` fresh
    examples are drawn from the distribution (plus two adversarial anchors
    when the base fit is nonzero), the algorithm is refit on the perturbed
    sample, and the hypothesis distance is recorded. The n * replacements
    draws are one sample on ``(seed, "replacement")``, example
    i * replacements + k replacing index i in cell k; so a cell's
    replacement depends on (seed, n, replacements), not on its (i, k) alone. Stochastic presets
    are evaluated as coupled twins sharing the per-cell index stream.
    ``beta_hat`` is the maximum gap of the preset's loss at n,
    ``algorithm.loss_for(n)``, over a fixed grid of 1024 held-out points plus
    the anchors.
    """
    if replacements < 1:
        raise ValueError("replacements must be >= 1")
    if sample.dim != dist.dim:
        raise ValueError("sample dimension does not match the distribution")
    n = sample.n
    if base is None:
        base = fit_plan(algorithm, dist, n, [base_fit_group(seed)], sample)[0][0]
    anchor_codes, anchor_x, anchor_y = adversarial_anchors(base, dist)
    grid = draw_sample(dist, 1024, child_seed(seed, "loss-grid"))
    grid_X = np.concatenate([grid.features, anchor_x])
    grid_y = np.concatenate([grid.labels, anchor_y])

    # Index i's cells: i.i.d. draws k = 0 .. replacements - 1, then the anchors.
    codes = list(range(replacements)) + anchor_codes
    pool = draw_sample(dist, n * replacements, child_seed(seed, "replacement"))
    rep_x = np.empty((n, len(codes), dist.dim))
    rep_y = np.empty((n, len(codes)))
    rep_x[:, :replacements] = pool.features.reshape(n, replacements, dist.dim)
    rep_y[:, :replacements] = pool.labels.reshape(n, replacements)
    rep_x[:, replacements:], rep_y[:, replacements:] = anchor_x, anchor_y
    cells = np.empty(n * len(codes), _CELL_TYPES)
    cells["i"], cells["replacement"] = np.repeat(np.arange(n), len(codes)), np.tile(codes, n)
    seeds = None
    if algorithm.stochastic:
        seeds = [child_seed(seed, i, code) for i in range(n) for code in codes]
    try:
        HA, HB = algorithm.fit_twins(
            sample, cells["i"], rep_x.reshape(-1, dist.dim), rep_y.ravel(), seeds, base
        )
    except Exception as exc:
        raise RuntimeError(f"replace-one fits failed: {exc}") from exc

    cells["distance"] = _row_norms(HA - HB)
    loss = algorithm.loss_for(n)
    # A deterministic fit on S is the same in every cell: evaluate it once.
    base_values = None if algorithm.stochastic else loss.values_raw(base, grid_X, grid_y)
    for start in range(0, len(HB), _GAP_BLOCK):
        block = slice(start, start + _GAP_BLOCK)
        va = loss.values_raw(HA[block], grid_X, grid_y) if base_values is None else base_values
        vb = loss.values_raw(HB[block], grid_X, grid_y)
        cells["loss_gap"][block] = np.abs(va - vb).max(axis=1)
    by_index = cells["distance"].reshape(n, -1)
    per_index = [
        {"max_over_replacements": top, "mean": mean}
        for top, mean in zip(by_index.max(axis=1).tolist(), by_index.mean(axis=1).tolist())
    ]
    try:
        theory = theoretical_alpha(algorithm, n)
    except ValueError:
        theory = None
    return StabilityReport(
        per_index=per_index,
        alpha_hat=float(cells["distance"].max()),
        beta_hat=float(cells["loss_gap"].max()),
        n=n,
        trials=len(cells),
        seed=seed,
        theory_alpha=theory,
        cells=cells,
    )
