"""The preset closed forms as two separate chains, kept as a test oracle.

Before :func:`stabilab.stability.closed_form` existed, two modules decided
each preset's closed form on their own: ``theoretical_alpha`` chose the
stability coefficient, and the experiment harness chose the composed bound
family, its constants and the report's coefficient table. These are those
two chains, with the ridge curvature's two conventions written out (the
p = 2 case of the l_p^p constant, and the exact 1/2), so tests can check
that the one dispatch gives the same numbers bit for bit.
"""

from stabilab.learners import (
    ConstantAlgorithm,
    LpRermAlgorithm,
    RidgeAlgorithm,
    SgdAlgorithm,
)
from stabilab.stability import (
    lp_penalty_constant,
    rerm_alpha,
    sgd_alpha,
)


def oracle_alpha(algorithm, n: int) -> float:
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
        curv = lp_penalty_constant(2.0, consts.bound, algorithm.lam)["curvature"]
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
        spec = algorithm.spec_for(n)
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


def oracle_family(algorithm, n: int, alpha: float):
    """(family or None, the family's own constants, coefficients) at n.

    ``alpha`` is the coefficient the record reports, which the ridge
    coefficient table restates.
    """
    M = algorithm.loss_for(n).constants().bound
    if isinstance(algorithm, RidgeAlgorithm):
        reported = lp_penalty_constant(2.0, M, algorithm.lam)["curvature"]
        exact = 0.5
        coefficients = {
            "curvature_reported": reported,
            "curvature_exact": exact,
            "alpha_reported": alpha,
            "alpha_exact": alpha * reported / exact,
        }
        constants = {"curvature": reported, "lam": algorithm.lam, "exponent": 2.0}
        return "rerm-fast-rate", constants, coefficients
    if isinstance(algorithm, LpRermAlgorithm):
        pen = algorithm.penalty
        cond = lp_penalty_constant(pen.p, M, pen.lam)
        coefficients = {"curvature": cond["curvature"], "exponent": cond["exponent"]}
        constants = {
            "curvature": cond["curvature"],
            "lam": pen.lam,
            "exponent": cond["exponent"],
        }
        return "rerm-fast-rate", constants, coefficients
    if isinstance(algorithm, SgdAlgorithm):
        spec = algorithm.spec_for(n)
        constants = {
            "regime": spec.regime,
            "steps": spec.steps,
            "step": spec.step,
            "step_constant": spec.step_constant,
            "projection_radius": spec.projection_radius,
            "gamma": algorithm.gamma if algorithm.regime == "strongly_convex" else None,
        }
        return "sgd-fast-rate", constants, {}
    return None, {}, {}
