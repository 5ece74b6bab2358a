"""Morse-Bott checks, order-N flatness, and the cylinder inequality."""

import math
from fractions import Fraction

import numpy as np
import pytest

from lojalab.morse import (
    MorseBottError,
    _derivatives_by_multi_index,
    _flat_to_order,
    _hessian_exact,
    _vanishes_on,
    check_generalized_morse_bott,
    check_morse_bott,
    gmb_constant,
    verify_gmb_gradient_inequality,
)
from lojalab.poly import Polynomial, parse


def test_round_quadratic_is_morse_bott():
    report = check_morse_bott(parse("x^2 + y^2"), ())
    assert report.verdict
    assert report.hessian_rank == 2
    assert report.hessian_kernel_basis == ()
    assert report.predicted_theta == Fraction(1, 2)


def test_cusp_is_not_morse_bott():
    report = check_morse_bott(parse("x^2 - y^3"), ())
    assert not report.verdict
    # Hessian diag(2, 0): kernel is the y-axis.
    assert report.hessian_rank == 1
    assert report.hessian_kernel_basis == ((Fraction(0), Fraction(1)),)


def test_cylinder_parabola_is_morse_bott_along_axis():
    report = check_morse_bott(parse("x^2", variables=["x", "y"]), (1,))
    assert report.verdict
    assert report.hessian_kernel_basis == ((Fraction(0), Fraction(1)),)


def test_wrong_subspace_rejected_by_kernel_comparison():
    # Kernel is the y-axis, not the x-axis.
    report = check_morse_bott(parse("x^2", variables=["x", "y"]), (0,))
    assert not report.verdict


def test_noncritical_origin_rejected():
    with pytest.raises(MorseBottError):
        check_morse_bott(parse("x + x^2"), ())


def test_pure_power_is_generalized_morse_bott():
    for n in range(2, 6):
        p = parse(f"x^{n}", variables=["x", "y"])
        report = check_generalized_morse_bott(p, (1,), n)
        assert report.verdict, n
        assert report.condition_b_holds
        assert report.coercivity_zeta == pytest.approx(math.factorial(n), abs=1e-9)
        assert report.predicted_theta == Fraction(n - 1, n)


def test_flatness_condition_fails_off_order():
    # x^4 is order 4, so the order-3 check must fail condition (b)? No:
    # derivatives of order <= 2 do vanish on the axis; it is coercivity (c)
    # that fails (the third derivative form is identically zero).
    p = parse("x^4", variables=["x", "y"])
    report = check_generalized_morse_bott(p, (1,), 3)
    assert not report.verdict
    assert report.condition_b_holds
    assert report.coercivity_zeta == pytest.approx(0.0, abs=1e-12)


def test_mixed_term_breaks_order_three_flatness():
    # Second derivative restricted to the declared critical axis is 2*y^5,
    # not identically zero, so condition (b) fails.
    report = check_generalized_morse_bott(parse("x^3 + x^2*y^5"), (1,), 3)
    assert not report.verdict
    assert report.gradient_vanishes_on_subspace
    assert not report.condition_b_holds


def test_vanishing_on_subspace_read_from_exponents():
    # The exponent rule against restricting by substitution.
    rng = np.random.default_rng(3)
    names = ("x", "y", "z", "w")
    for _ in range(400):
        d = int(rng.integers(1, 5))
        terms = {}
        for _ in range(int(rng.integers(0, 6))):
            exponent = tuple(int(v) for v in rng.integers(0, 3, size=d))
            terms[exponent] = int(rng.integers(1, 4))
        q = Polynomial(names[:d], terms)
        subspace = tuple(i for i in range(d) if rng.random() < 0.5)
        zeroed = {v: 0 for i, v in enumerate(q.variables) if i not in subspace}
        restricted = q.shift(zeroed) if zeroed else q
        assert _vanishes_on(q, subspace) == restricted.is_zero, (str(q), subspace)
    # Condition (b) for x^3 + x^2*y^5 at order 3 on the y-axis: the first
    # partial 3*x^2 + 2*x*y^5 vanishes there, the second 6*x + 2*y^5 does not.
    gx = parse("x^3 + x^2*y^5").derivative("x")
    assert _vanishes_on(gx, (1,))
    assert not _vanishes_on(gx.derivative("x"), (1,))


def test_flatness_and_hessian_read_from_exponents():
    # Condition (b) by normal degrees, and the Hessian by degree-two terms,
    # against building every partial.
    rng = np.random.default_rng(5)
    names = ("x", "y", "z", "w")
    for _ in range(500):
        d = int(rng.integers(1, 5))
        order = int(rng.integers(2, 7))
        terms = {}
        for _ in range(int(rng.integers(0, 5))):
            exponent = tuple(int(v) for v in rng.integers(0, 5, size=d))
            terms[exponent] = int(rng.integers(1, 4))
        q = Polynomial(names[:d], terms)
        subspace = tuple(i for i in range(d) if rng.random() < 0.5)
        oracle = all(
            _vanishes_on(partial, subspace)
            for m, partial in _derivatives_by_multi_index(q, order - 1).items()
            if sum(m) >= 1
        )
        assert _flat_to_order(q, subspace, order) == oracle, (str(q), subspace, order)
        hessian = [
            [q.derivative(u).derivative(v).constant_term() for v in q.variables]
            for u in q.variables
        ]
        assert _hessian_exact(q) == hessian, str(q)


def test_round_quadratic_coercivity_value():
    report = check_generalized_morse_bott(parse("x^2 + y^2"), (), 2)
    assert report.verdict
    assert report.coercivity_zeta == pytest.approx(2.0, abs=1e-9)


def test_gmb2_implies_morse_bott_on_corpus():
    corpus = ["x^2 + y^2", "x^2 - y^3", "x^2 + y^4", "x^2*y^2", "x^2 - y^2"]
    for text in corpus:
        p = parse(text)
        for subspace in ((), (0,), (1,)):
            try:
                gmb = check_generalized_morse_bott(p, subspace, 2)
                mb = check_morse_bott(p, subspace)
            except MorseBottError:
                continue
            if gmb.verdict:
                assert mb.verdict, (text, subspace)


def test_verdicts_invariant_under_permutation_and_scaling():
    p = parse("x^2 + y^4")
    swapped = parse("y^2 + x^4")  # same function with coordinates exchanged
    r1 = check_generalized_morse_bott(p, (), 2)
    r2 = check_generalized_morse_bott(swapped, (), 2)
    assert r1.verdict == r2.verdict
    scaled = check_generalized_morse_bott(p.scale(Fraction(3)), (), 2)
    assert scaled.verdict == r1.verdict
    assert scaled.coercivity_zeta == pytest.approx(3 * r1.coercivity_zeta, rel=1e-12)


# ----------------------------------------------------------------------
# cylinder inequality
# ----------------------------------------------------------------------


def test_gmb_constant_for_square():
    # D^2(0) v = 2v on the unit sphere: C = (2/4) * (2/2! * 2)^(1/2).
    assert gmb_constant(parse("x^2"), (), 2) == pytest.approx(math.sqrt(2) / 2, rel=1e-12)


def test_gmb_inequality_square():
    p = parse("x^2")
    report = check_generalized_morse_bott(p, (), 2)
    check = verify_gmb_gradient_inequality(p, report)
    # Exact ratio ||grad|| / |E|^(1/2) = 2 everywhere.
    assert check.measured_constant == pytest.approx(2.0, abs=1e-9)
    assert check.passed


def test_gmb_inequality_quartic():
    p = parse("x^4")
    report = check_generalized_morse_bott(p, (), 4)
    check = verify_gmb_gradient_inequality(p, report)
    # theta = 3/4: ratio 4|x|^3 / |x|^3 = 4 exactly.
    assert check.measured_constant == pytest.approx(4.0, abs=1e-9)
    assert check.passed


@pytest.mark.parametrize(
    "text, variables, subspace, order, options, measured, radii, count",
    [
        ("2*x1^6 + 3*x2^6", ["x1", "x2", "x3"], (2,), 6, {},
         5.540100285859975, (0.5, 0.5), 7200),
        ("x1^4 + 2*x2^4 + x1^4*x3", ["x1", "x2", "x3"], (2,), 4, {},
         3.4402968970677477, (0.25, 0.25), 7200),
        # Starts too wide: the Taylor-remainder conditions force three halvings.
        ("x1^4 + 2*x2^4 + x1^4*x3", ["x1", "x2", "x3"], (2,), 4,
         {"cylinder_radius": 2.0, "samples": 10_000},
         3.575368416905518, (0.25, 0.0625), 18144),
    ],
)
def test_gmb_inequality_pinned_values(
    text, variables, subspace, order, options, measured, radii, count
):
    # Exact values of the deterministic cylinder sample; any change in the
    # sample points or in the arithmetic of the halving loop moves them.
    p = parse(text, variables=variables)
    report = check_generalized_morse_bott(p, subspace, order)
    check = verify_gmb_gradient_inequality(p, report, **options)
    assert check.measured_constant == measured
    assert check.ball_radii == radii
    assert check.sample_count == count
    assert check.passed


def test_gmb_inequality_requires_positive_verdict():
    p = parse("x^3 + x^2*y^5")
    report = check_generalized_morse_bott(p, (1,), 3)
    with pytest.raises(MorseBottError):
        verify_gmb_gradient_inequality(p, report)


def test_gmb_inequality_fails_along_degenerate_curve():
    # The claimed order-3 constant collapses along x = -(2/3) y^5 as y -> 0.
    p = parse("x^3 + x^2*y^5")
    report = check_generalized_morse_bott(p, (1,), 3)
    ys = np.geomspace(1e-3, 0.2, 50)
    curve = np.column_stack([-(2.0 / 3.0) * ys**5, ys])
    check = verify_gmb_gradient_inequality(p, report, force=True, extra_points=curve)
    assert not check.passed
    assert check.measured_constant < 1e-6
    # Oracle: the ratio along the curve decays like y^4.
    grads = np.linalg.norm(p.gradient_numeric()(curve), axis=1)
    values = np.abs(p.numeric()(curve))
    ratios = grads / values ** (2.0 / 3.0)
    assert ratios[0] < ratios[-1] / 100


def test_report_json_shape():
    report = check_generalized_morse_bott(parse("x^2 + y^2"), (), 2)
    payload = report.to_json()
    assert payload["kind"] == "generalized"
    assert payload["N"] == 2
    assert payload["theta"] == "1/2"
    assert set(payload["conditions"]) == {"a", "b", "c"}
    assert payload["pass"] is True
