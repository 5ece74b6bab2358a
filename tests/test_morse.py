"""Morse-Bott checks, order-N flatness, and the cylinder inequality."""

import math
from fractions import Fraction

import numpy as np
import pytest

from lojalab.morse import (
    MorseBottError,
    _amgm_floor,
    _condition_c,
    _flat_to_order,
    _hessian_exact,
    _kernel_basis,
    _nth_derivative_tensor,
    check_generalized_morse_bott,
    check_morse_bott,
    nth_derivative_form,
    verify_gmb_gradient_inequality,
)
from lojalab.poly import Polynomial, parse

from oracles import evaluate_exact, shift, vanishes_on


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


@pytest.mark.parametrize(
    "text",
    [
        "x^2 + 2*x*y + y^2",
        "(x + y - z)^2",
        "x*y + y*z",
        "(x - 2*y)^2 + (y + 3*z)^2",
        "x^2 + 2*x*y + y^2 - 4*y*z + 4*z^2 + 2*x*z",
    ],
)
def test_kernel_basis_with_off_diagonal_entries_matches_sympy(text):
    import sympy

    hessian = _hessian_exact(parse(text))
    expected = [tuple(Fraction(int(v.p), int(v.q)) for v in column)
                for column in sympy.Matrix(hessian).nullspace()]
    assert _kernel_basis(hessian) == expected


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
        restricted = shift(q, zeroed) if zeroed else q
        assert vanishes_on(q, subspace) == restricted.is_zero, (str(q), subspace)
    # Condition (b) for x^3 + x^2*y^5 at order 3 on the y-axis: the first
    # partial 3*x^2 + 2*x*y^5 vanishes there, the second 6*x + 2*y^5 does not.
    gx = parse("x^3 + x^2*y^5").derivative("x")
    assert vanishes_on(gx, (1,))
    assert not vanishes_on(gx.derivative("x"), (1,))


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
        # Every partial of order 1..order-1, one derivative at a time, each
        # multi-index once: (last variable differentiated, partial).
        partials, frontier = [], [(0, q)]
        for _ in range(order - 1):
            frontier = [
                (i, g.derivative(q.variables[i]))
                for last, g in frontier
                for i in range(last, d)
            ]
            partials += [g for _, g in frontier]
        oracle = all(vanishes_on(partial, subspace) for partial in partials)
        # Order 2 is the gradient, which both Morse-Bott checks read this way.
        gradient_vanishes = all(vanishes_on(g, subspace) for g in q.gradient())
        assert _flat_to_order(q, subspace, 2) == gradient_vanishes, (str(q), subspace)
        assert _flat_to_order(q, subspace, order) == oracle, (str(q), subspace, order)
        hessian = [
            [q.derivative(u).derivative(v).constant_term() for v in q.variables]
            for u in q.variables
        ]
        assert _hessian_exact(q) == hessian, str(q)


def test_derivative_tensor_is_taylor_coefficient():
    # T(x, v) against N! [t^N] p(x + t v) expanded by sympy, and T(0, v)
    # against the N-th derivative form at the origin.
    import sympy

    rng = np.random.default_rng(11)
    names = ("x", "y", "z")
    t = sympy.Symbol("t")
    for _ in range(60):
        d = int(rng.integers(1, 4))
        order = int(rng.integers(2, 7))
        terms = {}
        for _ in range(int(rng.integers(1, 6))):
            exponent = tuple(int(k) for k in rng.integers(0, 6, size=d))
            terms[exponent] = Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
        q = Polynomial(names[:d], terms)
        tensor = _nth_derivative_tensor(q, order)

        xs = sympy.symbols(names[:d])
        vs = sympy.symbols(f"v0:{d}")
        shifted = sympy.Poly(0, t, *xs, *vs)
        for e, c in q.terms.items():
            term = sympy.Poly(sympy.Rational(c.numerator, c.denominator), t, *xs, *vs)
            for x, v, k in zip(xs, vs, e):
                term *= sympy.Poly(x + t * v, t, *xs, *vs) ** k
            shifted += term
        expected = {
            e[1:]: math.factorial(order) * Fraction(int(c.p), int(c.q))
            for e, c in shifted.terms() if e[0] == order and c
        }
        assert len(tensor.variables) == 2 * d
        assert tensor.terms == expected, (str(q), order)

        at_zero = shift(tensor, {v: 0 for v in q.variables})
        at_zero = at_zero.rename({f"{v}'": v for v in q.variables})
        assert at_zero == nth_derivative_form(q, order), (str(q), order)


def test_round_quadratic_coercivity_value():
    report = check_generalized_morse_bott(parse("x^2 + y^2"), (), 2)
    assert report.verdict
    assert report.coercivity_zeta == pytest.approx(2.0, abs=1e-9)


def test_gmb2_implies_morse_bott_on_corpus():
    # One rule at order 2: the two checks give the same verdict.
    corpus = ["x^2 + y^2", "x^2 - y^3", "x^2 + y^4", "x^2*y^2", "x^2 - y^2",
              "x^2 - 2*y^2", "x^2 + y^2 - z^2"]
    for text in corpus:
        p = parse(text)
        for subspace in ((), (0,), (1,)):
            try:
                gmb = check_generalized_morse_bott(p, subspace, 2)
                mb = check_morse_bott(p, subspace)
            except MorseBottError:
                continue
            assert gmb.verdict == mb.verdict, (text, subspace)
            assert gmb.condition_c_holds == mb.condition_c_holds, (text, subspace)


@pytest.mark.parametrize("text, order, c", [
    # Zero lines x = +-sqrt(2) y of the contracted form, which the sampled
    # coercivity missed: theta = 3/4 is false for the second.
    ("(x^2 - 2*y^2)^2", 4, False),
    ("x^4 - 4*x^2*y^2 + 4*y^4 + y^6", 4, False),
    # The value form vanishes on rational or irrational lines, the
    # contracted form nowhere; the sampled coercivity split this pair.
    ("x^4 - y^4", 4, True),
    ("x^4 - 3*y^4", 4, True),
    ("2*x^6 + 3*y^6", 6, True),
    ("x^4 + x^2*y^2 + y^4", 4, True),
    ("x^2 - 2*y^2", 2, True),
    ("x^4 + y^4 + z^4", 4, True),  # by the AM-GM certificate
    ("x^4 + y^4 - z^4", 4, None),  # indefinite in three variables: undecided
    ("x^3 + y^3 + z^3", 3, None),  # odd order in three variables: undecided
])
def test_condition_c_on_probe_inputs(text, order, c):
    p = parse(text)
    report = check_generalized_morse_bott(p, (), order)
    assert report.condition_c_holds is c
    assert report.to_json()["conditions"]["c"] is c
    assert report.verdict is (c is True)
    assert report.predicted_theta == (Fraction(order - 1, order) if c else None)
    if not report.verdict:
        with pytest.raises(MorseBottError, match="verdict is negative"):
            verify_gmb_gradient_inequality(p, report)


def test_condition_c_on_binary_forms_against_sympy():
    # (c) in two normal variables fails exactly when the partials of F share
    # a real zero on the circle; sympy's gcd and real roots are the oracle.
    # Planted squared factors put that zero on irrational or rational lines.
    import sympy

    x, y = sympy.symbols("x y")
    rng = np.random.default_rng(23)

    def form(degree):
        coeffs = rng.integers(-3, 4, size=degree + 1)
        return sympy.Poly.from_dict(
            {(i, degree - i): int(c) for i, c in enumerate(coeffs)}, x, y, domain="QQ"
        )

    cases = [(order, form(order)) for order in rng.integers(3, 7, size=150)]
    for order in rng.integers(4, 7, size=40):
        c = sympy.Rational(*[(2, 1), (3, 1), (5, 1), (1, 2), (3, 2), (7, 3)][rng.integers(6)])
        cases.append((order, sympy.Poly(x**2 - c * y**2, x, y) ** 2 * form(order - 4)))
    for order in rng.integers(3, 7, size=20):
        a, b = (int(k) for k in rng.integers(-3, 4, size=2))
        cases.append((order, sympy.Poly(a * x + b * y, x, y) ** 2 * form(order - 2)))
    for order, f in cases:
        gcd = f.diff(x).gcd(f.diff(y))
        shared = gcd.is_zero or (
            gcd.total_degree() > 0
            and (gcd.eval(y, 0).is_zero or len(sympy.real_roots(gcd.eval(y, 1))) > 0)
        )
        terms = {e: Fraction(int(k.p), int(k.q)) for e, k in f.terms()}
        p = Polynomial(("x", "y"), terms)
        assert _condition_c(p, (), int(order)) is (not shared), (f, order)


def test_amgm_floor_bounds_the_form_exactly():
    # F >= sum b_i v_i^N at random rational points, in exact arithmetic.
    rng = np.random.default_rng(29)
    names = ("x", "y", "z", "w")
    for _ in range(60):
        k = int(rng.integers(2, 5))
        order = int(rng.choice([2, 4, 6]))
        terms = {
            tuple(int(n) for n in rng.multinomial(order, [1 / k] * k)):
            Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
            for _ in range(int(rng.integers(1, 7)))
        }
        for i in range(k):
            terms[tuple(order if j == i else 0 for j in range(k))] = int(rng.integers(-2, 20))
        F = Polynomial(names[:k], terms)
        floor = _amgm_floor(F, order)
        for _ in range(10):
            v = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 6))) for _ in range(k)]
            assert evaluate_exact(F, v) >= sum(b * t**order for b, t in zip(floor, v)), (str(F), v)


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
    report = check_generalized_morse_bott(parse("x^2"), (), 2)
    assert report.cylinder_constant == pytest.approx(math.sqrt(2) / 2, rel=1e-12)


@pytest.mark.parametrize(
    "text, variables, subspace, order, constant",
    [
        ("2*x1^6 + 3*x2^6", ["x1", "x2", "x3"], (2,), 6, 1.548899325224234),
        ("x1^4 + 2*x2^4 + x1^4*x3", ["x1", "x2", "x3"], (2,), 4, 1.0745700515095462),
        ("3*x1^6 + x2^6", ["x1", "x2"], (), 6, 1.4463949184887004),
        ("x^2", None, (), 2, 0.7071067811865476),
        ("x^4", None, (), 4, 1.189207115002721),
        # Negative verdict: the constant is still reported for a forced probe.
        ("x^3 + x^2*y^5", None, (1,), 3, 0.9449407874211548),
    ],
)
def test_cylinder_constant_pinned(text, variables, subspace, order, constant):
    # Exact values of the minimum over the 10,000-direction normal mesh; any
    # change in the mesh or in the form's arithmetic moves them.
    report = check_generalized_morse_bott(parse(text, variables=variables), subspace, order)
    assert report.cylinder_constant == constant
    assert report.to_json()["C"] == constant


def test_gmb_inequality_needs_the_order_n_report():
    # The Hessian check reports no cylinder constant, even with a positive
    # verdict; the order-2 check gives it.
    p = parse("x^2 + y^2")
    report = check_morse_bott(p, ())
    assert report.verdict and report.cylinder_constant is None
    with pytest.raises(MorseBottError, match="no cylinder constant"):
        verify_gmb_gradient_inequality(p, report)
    assert verify_gmb_gradient_inequality(p, check_generalized_morse_bott(p, (), 2)).passed


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
        # The shape of analyze-snc's gmb-d2 jobs: order 6, isolated zero.
        ("3*x1^6 + x2^6", ["x1", "x2"], (), 6, {},
         5.176618090805918, (0.5, 0.5), 1200),
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
    # zeta and C are mesh minima, and say so; the critical set is not probed.
    assert payload["constants"] == "sampled"
    assert "critical_set_equality_check" not in payload
    assert check_morse_bott(parse("x^2 + y^2"), ()).to_json()["constants"] is None
    undecided = check_generalized_morse_bott(parse("x^4 + y^4 - z^4"), (), 4).to_json()
    assert undecided["conditions"]["c"] is None
    assert undecided["theta"] is None and undecided["pass"] is False
