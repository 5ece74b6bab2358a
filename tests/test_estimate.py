"""Empirical exponent estimation and counterexample detection."""

import math
from fractions import Fraction

import numpy as np
import pytest

from lojalab.estimate import (
    EstimateError,
    builtin_function,
    compare_with_resolution_bound,
    estimate_theta,
    haraux_counterexample_check,
)
from lojalab.poly import parse

from oracles import monomial_ratio_profile

SNC_CORPUS = {
    "x1*x2": Fraction(1, 2),
    "x^2": Fraction(1, 2),
    "x^2*y^2": Fraction(3, 4),
    "x^6*y^2": Fraction(7, 8),
    "x^6*y": Fraction(6, 7),
    "x^3": Fraction(2, 3),
    "x^5": Fraction(4, 5),
}


def _origin(p):
    return (0.0,) * len(p.variables)


def test_estimate_windows_for_reference_inputs():
    est = estimate_theta(parse("x1*x2"), (0.0, 0.0))
    assert 0.45 <= est.theta_hat <= 0.55
    est = estimate_theta(parse("x^2 - y^3"), (0.0, 0.0))
    assert 0.62 <= est.theta_hat <= 0.72  # exact exponent 2/3
    est = estimate_theta(parse("x^2*y^2"), (0.0, 0.0))
    assert 0.70 <= est.theta_hat <= 0.80


def test_estimate_agrees_with_snc_formula():
    for text, theta in SNC_CORPUS.items():
        p = parse(text)
        est = estimate_theta(p, _origin(p))
        assert abs(est.theta_hat - float(theta)) <= 0.05, text
        assert not est.failure_detected, text


def test_band_brackets_estimate():
    est = estimate_theta(parse("x^2 - y^3"), (0.0, 0.0))
    assert est.band[0] <= est.theta_hat <= est.band[1]


def test_band_contains_closed_form_on_brieskorn_pham():
    # x^a +/- y^b with a < b has exponent 1 - 1/b at the origin, attained
    # along the y-axis, which the plane direction mesh must hit exactly.
    misses = []
    for a in range(2, 10):
        for b in range(a + 1, 10):
            for sign in "+-":
                est = estimate_theta(parse(f"x^{a} {sign} y^{b}"), (0.0, 0.0))
                if not est.band[0] <= 1 - 1 / b <= est.band[1]:
                    misses.append((f"x^{a} {sign} y^{b}", est.band))
    assert misses == []


def test_band_contains_one_half_for_a_three_variable_well():
    # Three variables take the Fibonacci direction mesh.
    est = estimate_theta(parse("x1^2 + x2^2 + x3^2"), (0.0, 0.0, 0.0))
    assert est.band[0] <= 0.5 <= est.band[1]


def test_estimate_scale_invariance():
    p = parse("x^2*y^2")
    a = estimate_theta(p, (0.0, 0.0))
    b = estimate_theta(p.scale(2), (0.0, 0.0))
    assert abs(a.theta_hat - b.theta_hat) <= (a.band[1] - a.band[0])


def test_estimate_seed_determinism():
    p = parse("x^2 - y^3")
    a = estimate_theta(p, (0.0, 0.0))
    b = estimate_theta(p, (0.0, 0.0))
    assert a.theta_hat == b.theta_hat
    assert a.per_radius_ratio == b.per_radius_ratio
    assert a.envelope_points == b.envelope_points


def test_estimate_requires_critical_point():
    with pytest.raises(EstimateError, match="not critical"):
        estimate_theta(parse("x^2"), (0.3,))


@pytest.mark.parametrize("x_star", [(math.nan, 0.0), (0.0, math.inf)])
def test_estimate_rejects_non_finite_point(x_star):
    # A NaN gradient norm is not above the criticality threshold either.
    with pytest.raises(EstimateError, match="not finite"):
        estimate_theta(parse("x^2 + y^2"), x_star)


def test_monomial_profile_is_radius_independent():
    radii = np.geomspace(1e-6, 1e-1, 10)
    for text, theta in (("x1*x2", Fraction(1, 2)), ("x^2*y^2", Fraction(3, 4))):
        profile = monomial_ratio_profile(parse(text), theta, radii)
        assert max(profile) - min(profile) <= 0.02 * max(profile)


def test_value_monotonicity_flag_set_for_regular_inputs():
    est = estimate_theta(parse("x^2*y^2"), (0.0, 0.0))
    assert est.value_monotone_in_radius


# ----------------------------------------------------------------------
# consistency with resolution bounds
# ----------------------------------------------------------------------


def test_cusp_estimate_consistent_with_resolution_interval():
    est = estimate_theta(parse("x^2 - y^3"), (0.0, 0.0))
    verdict = compare_with_resolution_bound(est, (Fraction(1, 2), Fraction(7, 8)))
    assert verdict.consistent
    assert verdict.slack_upper > 0


def test_cross_estimate_consistent_with_tight_interval():
    est = estimate_theta(parse("x1*x2"), (0.0, 0.0))
    verdict = compare_with_resolution_bound(est, (Fraction(1, 2), Fraction(1, 2)))
    assert verdict.consistent


def test_inconsistent_when_band_sits_above_bound():
    est = estimate_theta(parse("x^6*y^2"), (0.0, 0.0))  # theta ~ 7/8
    verdict = compare_with_resolution_bound(est, (Fraction(1, 2), Fraction(1, 2)))
    assert not verdict.consistent


# ----------------------------------------------------------------------
# counterexamples
# ----------------------------------------------------------------------


def test_haraux_failure_detected():
    est = estimate_theta(builtin_function("haraux"), (0.0, 0.0))
    assert est.failure_detected
    assert est.theta_hat >= 0.98


def test_delellis_failure_detected():
    est = estimate_theta(builtin_function("delellis"), (0.0,))
    assert est.failure_detected


def test_failure_evidence_sits_at_one():
    # Detected failures must show per-radius slopes pinned near 1 on the
    # small-radius quartile (for the 1-d example the sequence increases
    # toward 1 as the radius shrinks).
    for name in ("haraux", "delellis"):
        fn = builtin_function(name)
        est = estimate_theta(fn, (0.0,) * fn.dimension)
        with_data = [r for r in est.per_radius_ratio if r is not None]
        quartile = with_data[-max(1, len(with_data) // 4):]
        assert all(r >= 0.98 for r in quartile), name
    est = estimate_theta(builtin_function("delellis"), (0.0,))
    ratios = [r for r in est.per_radius_ratio if r is not None]
    assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] >= 0.99


def test_no_false_positives_on_polynomials():
    for text in SNC_CORPUS:
        p = parse(text)
        est = estimate_theta(p, _origin(p))
        assert not est.failure_detected, text
    est = estimate_theta(parse("x^2 - y^3"), (0.0, 0.0))
    assert not est.failure_detected


def test_counterexample_battery():
    result = haraux_counterexample_check()
    assert result["pass"]
    assert result["haraux"].failure_detected
    assert result["delellis"].failure_detected
    assert not result["control"].failure_detected
    assert abs(result["control"].theta_hat - 0.5) < 0.05


def test_unknown_builtin_rejected():
    with pytest.raises(EstimateError):
        builtin_function("unknown")


def test_haraux_builtin_values():
    fn = builtin_function("haraux")
    # Closed form at y = 0: E = x^2 / e, dE/dx = 2x / e.
    x = np.array([[0.25, 0.0]])
    assert fn.value(x)[0] == pytest.approx(0.0625 / math.e, rel=1e-12)
    grad = fn.gradient(x)[0]
    assert grad[0] == pytest.approx(0.5 / math.e, rel=1e-12)
    assert grad[1] == 0.0
    assert fn.value(np.array([[0.0, 0.3]]))[0] == 0.0
    # Finite-difference oracle for the gradient at a generic point.
    pt = np.array([[0.21, 0.13]])
    step = 1e-7
    for i in range(2):
        e = np.zeros((1, 2))
        e[0, i] = step
        fd = (fn.value(pt + e)[0] - fn.value(pt - e)[0]) / (2 * step)
        assert fn.gradient(pt)[0, i] == pytest.approx(fd, rel=1e-6)


def test_delellis_builtin_values():
    fn = builtin_function("delellis")
    x = np.array([[0.2]])
    assert fn.value(x)[0] == pytest.approx(math.exp(-5.0), rel=1e-12)
    fd = (fn.value(x + 1e-8)[0] - fn.value(x - 1e-8)[0]) / 2e-8
    assert fn.gradient(x)[0, 0] == pytest.approx(fd, rel=1e-6)
    assert fn.log_abs_value(x)[0] == pytest.approx(-5.0, abs=1e-12)


def test_log_domain_consistency_with_plain_values():
    fn = builtin_function("haraux")
    pt = np.array([[0.3, 0.2]])
    assert fn.log_abs_value(pt)[0] == pytest.approx(math.log(fn.value(pt)[0]), rel=1e-12)
    assert fn.log_gradient_norm(pt)[0] == pytest.approx(
        math.log(float(np.linalg.norm(fn.gradient(pt)[0]))), rel=1e-12
    )


def test_envelope_csv(tmp_path):
    est = estimate_theta(parse("x^2"), (0.0,))
    path = tmp_path / "envelope.csv"
    est.write_envelope_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "radius,min_ratio"
    assert len(lines) == len(est.radii) + 1
