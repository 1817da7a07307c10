"""Tests for the generalization-bound calculators."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stabilab import (
    BoundBreakdown,
    SgdSpec,
    complexity_bound,
    deformed_gap,
    fast_rate_bound,
    plain_gap_bound,
    rerm_gap_bound,
    sgd_gap_bound,
)
from stabilab.bounds import BOUND_FAMILIES
from stabilab.stability import rerm_alpha, sgd_alpha


class TestBreakdown:
    def test_total_is_exactly_the_term_sum(self):
        for bound in (
            plain_gap_bound(1.0, 1.0, 1.0, 0.1, 0.01, 100),
            fast_rate_bound(2.0, 1.5, 3.0, 0.05, 0.02, 64),
            rerm_gap_bound(2.0, 1.0, 4.0, 1.0, 0.5, 2.0, 0.05, 100),
        ):
            assert bound.total == sum(value for _, value in bound.terms)

    def test_term_lookup(self):
        bound = plain_gap_bound(1.0, 1.0, 1.0, 0.1, 0.01, 100)
        assert bound.term("stability") == bound.terms[0][1]
        with pytest.raises(KeyError):
            bound.term("mystery")

    def test_to_dict_shape(self):
        bound = fast_rate_bound(1.0, 1.0, 1.0, 0.1, 0.01, 100)
        data = bound.to_dict()
        assert data["name"] == "fast-rate"
        assert [t["label"] for t in data["terms"]] == ["stability", "fast-rate"]
        assert data["total"] == bound.total
        assert data["confidence"] == pytest.approx(0.8)
        assert data["deformation"] == 2.0
        assert data["vacuous"] is False
        assert data["notes"] == []

    def test_rejects_bad_confidence_and_deformation(self):
        with pytest.raises(ValueError):
            BoundBreakdown(
                name="x", terms=(), total=0.0, constants_used={}, confidence=0.0
            )
        with pytest.raises(ValueError):
            BoundBreakdown(
                name="x",
                terms=(),
                total=0.0,
                constants_used={},
                confidence=0.5,
                deformation=1.0,
            )


class TestComplexityBound:
    def test_hilbert_case_frozen_value(self):
        bound = complexity_bound(1.0, 1.0, 1.0, 0.2, 0.01, 100)
        assert bound.total == pytest.approx(0.021459660262893473, rel=1e-15)
        assert bound.confidence == pytest.approx(0.8)
        assert [label for label, _ in bound.terms] == ["complexity"]

    def test_hilbert_case_is_independent_of_n(self):
        a = complexity_bound(1.0, 1.0, 1.0, 0.2, 0.01, 100).total
        b = complexity_bound(1.0, 1.0, 1.0, 0.2, 0.01, 400).total
        assert a == pytest.approx(b, rel=1e-15)

    def test_general_type_exponent_frozen_value(self):
        bound = complexity_bound(2.0, 1.5, 1.0, 0.2, 0.01, 256, type_exponent=4.0)
        assert bound.total == pytest.approx(0.016094745197170104, rel=1e-15)

    def test_smaller_type_exponent_decays_faster_in_n(self):
        slow = [
            complexity_bound(1.0, 1.0, 1.0, 0.2, 0.01, n, type_exponent=4.0).total
            for n in (16, 256)
        ]
        assert slow[1] == pytest.approx(slow[0] / 2.0, rel=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(delta=0.0),
            dict(delta=1.0),
            dict(type_exponent=0.5),
            dict(alpha=-0.1),
            dict(smooth_constant=0.0),
            dict(type_constant=-1.0),
            dict(feature_bound=0.0),
            dict(n=0),
        ],
    )
    def test_rejects_bad_arguments(self, kwargs):
        base = dict(
            smooth_constant=1.0,
            type_constant=1.0,
            feature_bound=1.0,
            delta=0.2,
            alpha=0.01,
            n=100,
        )
        base.update(kwargs)
        with pytest.raises(ValueError):
            complexity_bound(**base)


class TestPlainGapBound:
    def test_frozen_terms(self):
        bound = plain_gap_bound(1.0, 1.0, 1.0, 0.1, 0.01, 100)
        assert bound.term("stability") == pytest.approx(0.04895493661361633, rel=1e-15)
        assert bound.term("bounded-differences") == pytest.approx(
            0.10729830131446737, rel=1e-15
        )
        assert bound.total == pytest.approx(0.1562532379280837, rel=1e-15)
        assert bound.confidence == pytest.approx(0.8)
        assert bound.deformation is None
        assert not bound.vacuous

    def test_sampling_term_survives_perfect_stability(self):
        bound = plain_gap_bound(1.0, 1.0, 1.0, 0.1, 0.0, 100)
        assert bound.term("stability") == 0.0
        assert bound.total == bound.term("bounded-differences") > 0.0

    def test_vacuous_totals_are_flagged_not_clipped(self):
        bound = plain_gap_bound(1.0, 1.0, 0.1, 0.1, 1.0, 4)
        assert bound.vacuous
        assert bound.total > 0.1

    @pytest.mark.parametrize(
        "kwargs",
        [dict(delta=0.0), dict(n=0), dict(alpha=-1.0), dict(feature_bound=0.0), dict(loss_bound=0.0)],
    )
    def test_rejects_bad_arguments(self, kwargs):
        base = dict(
            lipschitz=1.0, feature_bound=1.0, loss_bound=1.0, delta=0.1, alpha=0.01, n=100
        )
        base.update(kwargs)
        with pytest.raises(ValueError):
            plain_gap_bound(**base)


class TestFastRateBound:
    def test_frozen_terms(self):
        bound = fast_rate_bound(1.0, 1.0, 1.0, 0.1, 0.01, 100, deformation=2.0)
        assert bound.term("stability") == pytest.approx(0.19581974645446532, rel=1e-15)
        assert bound.term("fast-rate") == pytest.approx(0.15350567286626973, rel=1e-15)
        assert bound.total == pytest.approx(0.349325419320735, rel=1e-15)
        assert bound.deformation == 2.0

    def test_stability_term_is_four_times_the_plain_one(self):
        plain = plain_gap_bound(1.3, 0.8, 2.0, 0.07, 0.03, 50)
        fast = fast_rate_bound(1.3, 0.8, 2.0, 0.07, 0.03, 50)
        assert fast.term("stability") == pytest.approx(
            4.0 * plain.term("stability"), rel=1e-15
        )

    def test_sampling_term_decays_like_one_over_n(self):
        a = fast_rate_bound(1.0, 1.0, 1.0, 0.1, 0.0, 100).term("fast-rate")
        b = fast_rate_bound(1.0, 1.0, 1.0, 0.1, 0.0, 400).term("fast-rate")
        assert a == pytest.approx(4.0 * b, rel=1e-12)

    def test_deformation_enters_only_the_sampling_term(self):
        a = fast_rate_bound(1.0, 1.0, 1.0, 0.1, 0.01, 100, deformation=2.0)
        b = fast_rate_bound(1.0, 1.0, 1.0, 0.1, 0.01, 100, deformation=4.0)
        assert a.term("stability") == b.term("stability")
        assert b.term("fast-rate") == pytest.approx(
            a.term("fast-rate") * (6.0 * 4.0 + 8.0) / (6.0 * 2.0 + 8.0), rel=1e-12
        )

    def test_rejects_unit_deformation(self):
        with pytest.raises(ValueError):
            fast_rate_bound(1.0, 1.0, 1.0, 0.1, 0.01, 100, deformation=1.0)


class TestComposedBounds:
    def test_rerm_terms_match_the_direct_call_bitwise(self):
        alpha = rerm_alpha(2.0, 1.0, 1.0, 0.5, 100, 2.0)
        direct = fast_rate_bound(2.0, 1.0, 4.0, 0.05, alpha, 100)
        composed = rerm_gap_bound(2.0, 1.0, 4.0, 1.0, 0.5, 2.0, 0.05, 100)
        assert composed.name == "rerm-fast-rate"
        assert composed.terms == direct.terms
        assert composed.total == direct.total
        assert composed.constants_used["alpha"] == alpha
        assert composed.constants_used["curvature"] == 1.0
        assert composed.constants_used["exponent"] == 2.0

    def test_rerm_frozen_value(self):
        bound = rerm_gap_bound(2.0, 1.0, 4.0, 1.0, 0.5, 2.0, 0.05, 100)
        assert bound.term("stability") == pytest.approx(1.738369940147993, rel=1e-15)
        assert bound.term("fast-rate") == pytest.approx(0.7988619396143976, rel=1e-15)
        assert bound.constants_used["alpha"] == pytest.approx(0.04)

    def sc_spec(self):
        return SgdSpec(
            regime="strongly_convex", steps=200, step=0.1, projection_radius=1.0
        )

    def test_sgd_terms_match_the_direct_call_bitwise(self):
        spec = self.sc_spec()
        alpha = sgd_alpha(spec, 1.0, 1.0, 100, smoothness=1.0, gamma=1.0)
        direct = fast_rate_bound(1.0, 1.0, 1.0, 0.1, alpha, 100)
        composed = sgd_gap_bound(
            spec, 1.0, 1.0, 1.0, 0.1, 100, smoothness=1.0, gamma=1.0
        )
        assert composed.name == "sgd-fast-rate"
        assert composed.terms == direct.terms
        assert composed.constants_used["regime"] == "strongly_convex"

    def test_printed_coefficient_matches_at_unit_smooth_constant(self):
        composed = sgd_gap_bound(
            self.sc_spec(), 1.0, 1.0, 1.0, 0.1, 100, smoothness=1.0, gamma=1.0
        )
        printed = composed.constants_used["printed_stability_term"]
        assert printed == pytest.approx(composed.term("stability"), rel=1e-12)
        assert composed.notes == ()

    def test_printed_coefficient_mismatch_is_noted(self):
        composed = sgd_gap_bound(
            self.sc_spec(),
            1.0,
            1.0,
            1.0,
            0.1,
            100,
            smoothness=1.0,
            gamma=1.0,
            smooth_constant=2.0,
        )
        assert len(composed.notes) == 1
        assert "factor 2" in composed.notes[0]
        assert composed.constants_used["printed_stability_term"] == pytest.approx(
            2.0 * composed.term("stability"), rel=1e-12
        )

    def test_convex_and_nonconvex_regimes_compose_too(self):
        convex = sgd_gap_bound(
            SgdSpec(regime="convex", steps=100, step=0.01),
            1.0,
            1.0,
            1.0,
            0.1,
            100,
            smoothness=1.0,
        )
        assert convex.constants_used["alpha"] == pytest.approx(0.02)
        assert convex.notes == ()
        noncon = sgd_gap_bound(
            SgdSpec(regime="nonconvex", steps=100, step_constant=1.0),
            1.0,
            1.0,
            1.0,
            0.1,
            101,
            smoothness=1.0,
        )
        assert noncon.constants_used["alpha"] == pytest.approx(0.2 * math.sqrt(2.0))

    def test_composition_surfaces_closed_form_errors(self):
        with pytest.raises(ValueError):
            sgd_gap_bound(
                SgdSpec(regime="convex", steps=100, step=0.01),
                1.0,
                1.0,
                1.0,
                0.1,
                100,
            )
        with pytest.raises(ValueError):
            rerm_gap_bound(1.0, 1.0, 1.0, 0.5, 0.5, 1.0, 0.1, 100)


class TestDeformedGap:
    def test_hand_value(self):
        assert deformed_gap(0.5, 0.2, 2.0) == pytest.approx(0.1, abs=1e-15)
        assert deformed_gap(0.5, 0.2, 3.0) == pytest.approx(0.2, abs=1e-15)

    def test_reduces_toward_the_plain_gap_for_large_deformation(self):
        plain = 0.5 - 0.2
        assert abs(deformed_gap(0.5, 0.2, 1e9) - plain) < 1e-8

    @pytest.mark.parametrize("deformation", [1.0, math.inf, -math.inf, math.nan])
    def test_rejects_deformation_outside_one_to_infinity(self, deformation):
        with pytest.raises(ValueError, match="deformation must be > 1 and finite"):
            deformed_gap(0.5, 0.2, deformation)
        with pytest.raises(ValueError, match="deformation must be > 1 and finite"):
            BoundBreakdown(
                name="x",
                terms=(),
                total=0.0,
                constants_used={},
                confidence=0.5,
                deformation=deformation,
            )

    def test_can_be_negative(self):
        assert deformed_gap(0.1, 0.4, 2.0) == pytest.approx(-0.7, abs=1e-15)


# ---------------------------------------------------------------------------
# every registered family: total = fsum of its terms


def _positive(low=1e-3, high=1e3):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


# The gap bounds hold at confidence 1 - 2 delta.
_DELTA = st.floats(1e-6, 0.499, allow_nan=False)
_GAP_CONSTANTS = {
    "lipschitz": st.floats(0.0, 1e3, allow_nan=False),
    "feature_bound": _positive(),
    "loss_bound": _positive(),
    "delta": _DELTA,
    "alpha": st.floats(0.0, 1e3, allow_nan=False),
    "n": st.integers(2, 10**6),
}
_DEFORMATION = st.floats(1.0 + 1e-6, 1e3, exclude_min=True, allow_nan=False)


@st.composite
def _sgd_constants(draw):
    constants = draw(st.fixed_dictionaries(_GAP_CONSTANTS))
    del constants["alpha"]
    regime = draw(st.sampled_from(["nonconvex", "convex", "strongly_convex"]))
    smoothness = draw(_positive())
    constants.update(
        regime=regime,
        steps=draw(st.integers(0, 10**5)),
        smoothness=smoothness,
        deformation=draw(_DEFORMATION),
    )
    if regime == "nonconvex":
        constants["step_constant"] = draw(_positive())
    else:
        cap = (2.0 if regime == "convex" else 1.0) / smoothness
        constants["step"] = cap * draw(st.floats(1e-6, 1.0, allow_nan=False))
    if regime == "strongly_convex":
        constants["projection_radius"] = draw(_positive())
        constants["gamma"] = draw(_positive())
    return constants


FAMILY_CONSTANTS = {
    "complexity": st.fixed_dictionaries(
        {
            "feature_bound": _positive(),
            "delta": st.floats(1e-6, 0.999, allow_nan=False),
            "alpha": st.floats(0.0, 1e3, allow_nan=False),
            "n": st.integers(1, 10**6),
        },
        optional={
            "smooth_constant": _positive(),
            "type_constant": _positive(),
            "type_exponent": st.floats(1.0, 4.0, allow_nan=False),
        },
    ),
    "plain-gap": st.fixed_dictionaries(_GAP_CONSTANTS),
    "fast-rate": st.fixed_dictionaries(_GAP_CONSTANTS, optional={"deformation": _DEFORMATION}),
    "rerm-fast-rate": st.fixed_dictionaries(
        {k: v for k, v in _GAP_CONSTANTS.items() if k != "alpha"}
        | {"curvature": _positive(), "lam": _positive()},
        optional={"exponent": st.floats(1.5, 4.0, allow_nan=False), "deformation": _DEFORMATION},
    ),
    "sgd-fast-rate": _sgd_constants(),
}


def test_every_bound_family_has_a_constants_strategy():
    assert set(FAMILY_CONSTANTS) == set(BOUND_FAMILIES)


@given(
    st.sampled_from(sorted(FAMILY_CONSTANTS)).flatmap(
        lambda name: st.tuples(st.just(name), FAMILY_CONSTANTS[name])
    )
)
def test_family_total_is_the_fsum_of_its_terms(case):
    name, constants = case
    bound = BOUND_FAMILIES[name].evaluate(constants)
    assert bound.name == name
    assert bound.terms
    assert math.isclose(
        bound.total, math.fsum(value for _, value in bound.terms), rel_tol=1e-12
    )
