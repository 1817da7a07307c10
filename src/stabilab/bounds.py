"""Closed-form generalization bounds driven by a stability coefficient.

Every calculator returns a :class:`BoundBreakdown` whose total is exactly
the sum of its labeled terms, so reports stay auditable term by term.
The families:

* :func:`complexity_bound` - Rademacher complexity of the confidence ball,
  ``D * C_p * B * sqrt(2 log(2/delta)) * alpha * n^(1/p - 1/2)``.
* :func:`plain_gap_bound` - risk-minus-empirical-risk bound
  ``2LB sqrt(2 log(2/delta)) alpha + M sqrt(log(1/delta) / (2n))`` at
  confidence ``1 - 2 delta``.
* :func:`fast_rate_bound` - bound on the deformed gap
  ``R - a/(a-1) * R_emp``:
  ``8LB sqrt(2 log(2/delta)) alpha + (6a+8) M log(1/delta) / (3n)``.
* :func:`rerm_gap_bound` / :func:`sgd_gap_bound` - the fast-rate bound with
  alpha composed from the matching closed form, term-for-term identical to
  calling :func:`fast_rate_bound` directly.

Totals are never clipped; a ``vacuous`` flag marks totals above the loss
bound M instead. :data:`BOUND_FAMILIES` maps each family's name to the
constants it reads and its calculator; the experiment harness and the CLI
both evaluate bounds through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace as _dc_replace
from typing import Callable

from .learners import SgdSpec, _integral, _keys, _real
from .stability import rerm_alpha, sgd_alpha


@dataclass(frozen=True)
class BoundBreakdown:
    """A named bound split into labeled additive terms."""

    name: str
    terms: tuple
    total: float
    constants_used: dict
    confidence: float
    deformation: float | None = None
    vacuous: bool = False
    notes: tuple = ()

    def __post_init__(self):
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie in (0, 1)")
        if self.deformation is not None:
            _check_deformation(self.deformation)

    def term(self, label: str) -> float:
        for name, value in self.terms:
            if name == label:
                return value
        raise KeyError(label)

    def to_dict(self) -> dict:
        """Every field, the terms as ``{"label", "value"}`` entries."""
        return {
            **{f.name: getattr(self, f.name) for f in fields(self)},
            "terms": [{"label": label, "value": value} for label, value in self.terms],
            "constants_used": dict(self.constants_used),
            "notes": list(self.notes),
        }


def _assemble(name, terms, constants, confidence, deformation=None, loss_bound=None, notes=()):
    total = sum(value for _, value in terms)
    vacuous = bool(loss_bound is not None and total > loss_bound)
    return BoundBreakdown(
        name=name,
        terms=tuple(terms),
        total=total,
        constants_used=constants,
        confidence=confidence,
        deformation=deformation,
        vacuous=vacuous,
        notes=tuple(notes),
    )


def _check_deformation(deformation: float) -> None:
    """The deformation a of the gap R - a/(a-1) * R_emp must satisfy 1 < a < inf.

    NaN fails the test, so it is refused with the infinities.
    """
    if not 1.0 < deformation < math.inf:
        raise ValueError(f"deformation must be > 1 and finite, got {deformation!r}")


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")


def _gap_constants(lipschitz, feature_bound, loss_bound, delta, alpha, n) -> dict:
    """The checked constants the plain and fast-rate gap bounds share."""
    _check_delta(delta)
    if n < 1:
        raise ValueError("n must be >= 1")
    if alpha < 0 or lipschitz < 0 or feature_bound <= 0 or loss_bound <= 0:
        raise ValueError("constants must be non-negative (B, M positive)")
    return {
        "lipschitz": lipschitz,
        "feature_bound": feature_bound,
        "loss_bound": loss_bound,
        "delta": delta,
        "alpha": alpha,
        "n": n,
    }


def complexity_bound(
    smooth_constant: float,
    type_constant: float,
    feature_bound: float,
    delta: float,
    alpha: float,
    n: int,
    type_exponent: float = 2.0,
) -> BoundBreakdown:
    """Rademacher-complexity bound for the stability ball.

    In the Hilbert setting (D = C_p = 1, p = 2) the n-exponent vanishes and
    the value reduces to B * sqrt(2 log(2/delta)) * alpha.
    """
    _check_delta(delta)
    if type_exponent < 1.0:
        raise ValueError("type exponent must be >= 1")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if smooth_constant <= 0 or type_constant <= 0 or feature_bound <= 0:
        raise ValueError("space and feature constants must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    exponent = -0.5 + 1.0 / type_exponent
    value = (
        smooth_constant
        * type_constant
        * feature_bound
        * math.sqrt(2.0 * math.log(2.0 / delta))
        * alpha
        * n**exponent
    )
    constants = {
        "smooth_constant": smooth_constant,
        "type_constant": type_constant,
        "feature_bound": feature_bound,
        "delta": delta,
        "alpha": alpha,
        "n": n,
        "type_exponent": type_exponent,
    }
    return _assemble("complexity", [("complexity", value)], constants, 1.0 - delta)


def plain_gap_bound(
    lipschitz: float,
    feature_bound: float,
    loss_bound: float,
    delta: float,
    alpha: float,
    n: int,
) -> BoundBreakdown:
    """Bound on the plain gap R - R_emp holding with probability 1 - 2*delta."""
    constants = _gap_constants(lipschitz, feature_bound, loss_bound, delta, alpha, n)
    stability = 2.0 * lipschitz * feature_bound * math.sqrt(2.0 * math.log(2.0 / delta)) * alpha
    differences = loss_bound * math.sqrt(math.log(1.0 / delta) / (2.0 * n))
    return _assemble(
        "plain-gap",
        [("stability", stability), ("bounded-differences", differences)],
        constants,
        confidence=1.0 - 2.0 * delta,
        loss_bound=loss_bound,
    )


def fast_rate_bound(
    lipschitz: float,
    feature_bound: float,
    loss_bound: float,
    delta: float,
    alpha: float,
    n: int,
    deformation: float = 2.0,
) -> BoundBreakdown:
    """Bound on the deformed gap R - a/(a-1) * R_emp at confidence 1 - 2*delta."""
    _check_deformation(deformation)
    constants = _gap_constants(lipschitz, feature_bound, loss_bound, delta, alpha, n)
    constants["deformation"] = deformation
    stability = 8.0 * lipschitz * feature_bound * math.sqrt(2.0 * math.log(2.0 / delta)) * alpha
    fast = (6.0 * deformation + 8.0) * loss_bound * math.log(1.0 / delta) / (3.0 * n)
    return _assemble(
        "fast-rate",
        [("stability", stability), ("fast-rate", fast)],
        constants,
        confidence=1.0 - 2.0 * delta,
        deformation=deformation,
        loss_bound=loss_bound,
    )


def rerm_gap_bound(
    lipschitz: float,
    feature_bound: float,
    loss_bound: float,
    curvature: float,
    lam: float,
    exponent: float,
    delta: float,
    n: int,
    deformation: float = 2.0,
) -> BoundBreakdown:
    """Fast-rate bound with alpha composed from the penalized-ERM closed form.

    By construction the terms agree bitwise with
    fast_rate_bound(..., alpha=rerm_alpha(...)).
    """
    alpha = rerm_alpha(lipschitz, feature_bound, curvature, lam, n, exponent)
    base = fast_rate_bound(
        lipschitz, feature_bound, loss_bound, delta, alpha, n, deformation
    )
    constants = dict(base.constants_used)
    constants.update({"curvature": curvature, "lam": lam, "exponent": exponent})
    return _dc_replace(base, name="rerm-fast-rate", constants_used=constants)


def sgd_gap_bound(
    spec: SgdSpec,
    lipschitz: float,
    feature_bound: float,
    loss_bound: float,
    delta: float,
    n: int,
    deformation: float = 2.0,
    smoothness: float | None = None,
    gamma: float | None = None,
    smooth_constant: float = 1.0,
) -> BoundBreakdown:
    """Fast-rate bound with alpha composed from the SGD closed form.

    The strongly convex coefficient is often quoted with an explicit
    smooth-space factor D as 16*D*B^2*L^2/(gamma*n); the composed form
    corresponds to D = 1, so a nonunit ``smooth_constant`` is recorded as
    a coefficient mismatch in the notes rather than folded into the total.
    """
    alpha = sgd_alpha(
        spec, lipschitz, feature_bound, n, smoothness=smoothness, gamma=gamma
    )
    base = fast_rate_bound(
        lipschitz, feature_bound, loss_bound, delta, alpha, n, deformation
    )
    constants = dict(base.constants_used)
    constants.update(
        {
            "regime": spec.regime,
            "steps": spec.steps,
            "step": spec.step,
            "step_constant": spec.step_constant,
            "smoothness": smoothness,
            "gamma": gamma,
            "smooth_constant": smooth_constant,
        }
    )
    notes = []
    if spec.regime == "strongly_convex":
        root = math.sqrt(2.0 * math.log(2.0 / delta))
        printed = (
            16.0
            * smooth_constant
            * feature_bound**2
            * lipschitz**2
            / (gamma * n)
            * root
        )
        constants["printed_stability_term"] = printed
        composed = base.term("stability")
        if not math.isclose(printed, composed, rel_tol=1e-9, abs_tol=1e-15):
            notes.append(
                "printed stability coefficient 16*D*B^2*L^2/(gamma*n) differs "
                f"from the composed term by factor {printed / composed:.6g} "
                "(composed form takes D = 1)"
            )
    return _dc_replace(
        base, name="sgd-fast-rate", constants_used=constants, notes=tuple(notes)
    )


def deformed_gap(risk_true: float, risk_emp: float, deformation: float) -> float:
    """The deformed generalization gap R - a/(a-1) * R_emp."""
    _check_deformation(deformation)
    return risk_true - deformation / (deformation - 1.0) * risk_emp


@dataclass(frozen=True)
class BoundFamily:
    """A bound family: its calculator and the constants it reads by name.

    The calculator takes the constants as keyword arguments; ``optional``
    maps each constant a table may leave out to the value used then.
    """

    name: str
    calculate: Callable[..., BoundBreakdown]
    required: frozenset
    optional: dict

    def evaluate(self, constants: dict) -> BoundBreakdown:
        """The bound at the given constants, each read as a real number bar the SGD regime,
        the counts and an optional None; names the family does not read are ignored."""
        accepted = self.required | set(self.optional)
        given = {k: v for k, v in constants.items() if k in accepted}
        _keys(given, f"{self.name} family", self.required, self.optional)
        for key, value in given.items():
            default_none = key in self.optional and self.optional[key] is None
            if key not in ("regime", "n", "steps") and not (value is None and default_none):
                given[key] = _real(value, key)
        kwargs = {**self.optional, **given}
        kwargs["n"] = _integral(kwargs["n"], "n", "an integer sample size")
        return self.calculate(**kwargs)


def _sgd_plan_gap_bound(
    regime, steps, step, step_constant, projection_radius, **constants
) -> BoundBreakdown:
    spec = SgdSpec(regime, steps, step, step_constant, projection_radius)
    return sgd_gap_bound(spec, **constants)


_GAP = frozenset({"lipschitz", "feature_bound", "loss_bound", "delta", "n"})

# The calculators are looked up when called, so a rebinding of this
# module's attributes (a profiler's wrapper, say) reaches registry calls too.
BOUND_FAMILIES = {
    family.name: family
    for family in (
        BoundFamily(
            "complexity",
            lambda **c: complexity_bound(**c),
            frozenset({"feature_bound", "delta", "alpha", "n"}),
            {"smooth_constant": 1.0, "type_constant": 1.0, "type_exponent": 2.0},
        ),
        BoundFamily(
            "plain-gap", lambda **c: plain_gap_bound(**c), _GAP | {"alpha"}, {}
        ),
        BoundFamily(
            "fast-rate",
            lambda **c: fast_rate_bound(**c),
            _GAP | {"alpha"},
            {"deformation": 2.0},
        ),
        BoundFamily(
            "rerm-fast-rate",
            lambda **c: rerm_gap_bound(**c),
            _GAP | {"curvature", "lam"},
            {"exponent": 2.0, "deformation": 2.0},
        ),
        BoundFamily(
            "sgd-fast-rate",
            lambda **c: _sgd_plan_gap_bound(**c),
            _GAP | {"regime", "steps"},
            {
                "step": None,
                "step_constant": None,
                "projection_radius": None,
                "deformation": 2.0,
                "smoothness": None,
                "gamma": None,
                "smooth_constant": 1.0,
            },
        ),
    )
}
