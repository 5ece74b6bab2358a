"""Normal-crossing analysis: detection, exponents, constructive constants."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lojalab.poly import Polynomial, parse
from lojalab.reports import InequalityCheckReport
from lojalab.snc import (
    ExponentReport,
    SncError,
    compute_constants,
    detect_snc,
    exponent_from_snc,
    verify_gradient_inequality,
)
from oracles import (
    evaluate_exact,
    generalized_young_gap,
    generalized_young_holds_exact,
    monomial_inequality_holds_exact,
)

# ----------------------------------------------------------------------
# detection
# ----------------------------------------------------------------------


def test_detect_cusp_is_not_snc():
    mf = detect_snc(parse("x^2 - y^3"))
    assert mf.exponents == (0, 0)
    assert mf.residual == parse("x^2 - y^3")
    assert not mf.snc_at_origin


def test_detect_final_chart_is_snc():
    mf = detect_snc(parse("a^6*b^2 - a^6*b^3"))
    assert mf.exponents == (6, 2)
    assert mf.residual == parse("1 - b", variables=["a", "b"])
    assert mf.snc_at_origin


def test_detect_pure_monomial():
    mf = detect_snc(parse("x1*x2"))
    assert mf.exponents == (1, 1)
    assert mf.residual.constant_term() == 1
    assert mf.snc_at_origin


def test_detect_zero_rejected():
    with pytest.raises(SncError):
        detect_snc(parse("0"))


# ----------------------------------------------------------------------
# exponent formulas
# ----------------------------------------------------------------------


def test_exponent_optimal_cross():
    rep = exponent_from_snc(detect_snc(parse("x1*x2")))
    assert rep.theta == Fraction(1, 2)
    assert rep.total_degree == 2
    assert rep.active_count == 2
    assert rep.optimal


def test_exponent_six_two():
    rep = exponent_from_snc(detect_snc(parse("x^6*y^2")))
    assert rep.theta == Fraction(7, 8)
    assert rep.total_degree == 8
    assert not rep.optimal


def test_exponent_six_one():
    rep = exponent_from_snc(detect_snc(parse("x^6*y")))
    assert rep.theta == Fraction(6, 7)
    assert rep.total_degree == 7


def test_exponent_rejects_noncritical_origin():
    # Single exponent 1: the gradient does not vanish at 0.
    with pytest.raises(SncError):
        exponent_from_snc(detect_snc(parse("x - x^2*y")))


def test_exponent_rejects_nonzero_origin():
    with pytest.raises(SncError):
        exponent_from_snc(detect_snc(parse("1 + x")))


def test_exponent_rejects_non_snc():
    with pytest.raises(SncError):
        exponent_from_snc(detect_snc(parse("x^2 - y^3")))


@given(st.permutations([0, 1, 2]), st.fractions(min_value=Fraction(1, 3), max_value=5, max_denominator=7))
@settings(max_examples=50, deadline=None)
def test_exponent_invariant_under_permutation_and_scaling(perm, scale):
    if scale == 0:
        scale = Fraction(1)
    base = parse("x^3*y*z^2 - x^4*y*z^2")
    names = base.variables
    permuted = base.rename({names[i]: names[perm[i]] for i in range(3)})
    rep0 = exponent_from_snc(detect_snc(base))
    rep1 = exponent_from_snc(detect_snc(permuted.scale(scale)))
    assert (rep0.theta, rep0.total_degree, rep0.active_count, rep0.max_active_exponent) == (
        rep1.theta,
        rep1.total_degree,
        rep1.active_count,
        rep1.max_active_exponent,
    )
    assert rep0.optimal == rep1.optimal


# ----------------------------------------------------------------------
# constructive constants
# ----------------------------------------------------------------------


def test_constants_for_pure_cross():
    rep = compute_constants(detect_snc(parse("x1*x2")))
    assert rep.unit_min == 1.0 and rep.unit_max == 1.0
    assert rep.gradient_constant == pytest.approx(math.sqrt(2) / 2, abs=0)
    # Oracle: on any grid, ||grad|| / |f|^(1/2) = sqrt(x^2+y^2)/sqrt|xy| >= sqrt 2.
    grid = np.linspace(-0.5, 0.5, 41)
    xs, ys = np.meshgrid(grid, grid)
    mask = (np.abs(xs) > 1e-9) & (np.abs(ys) > 1e-9)
    ratio = np.sqrt(xs[mask] ** 2 + ys[mask] ** 2) / np.sqrt(np.abs(xs[mask] * ys[mask]))
    assert ratio.min() >= math.sqrt(2) - 1e-12
    assert ratio.min() >= rep.gradient_constant


def test_constants_single_exponent_square():
    rep = compute_constants(detect_snc(parse("x^2")))
    assert rep.active_count == 1
    assert rep.gradient_constant == pytest.approx(0.5, abs=0)
    # True ratio is exactly 2: ||grad|| = 2|x|, |f|^(1/2) = |x|.
    check = verify_gradient_inequality(parse("x^2"), rep)
    assert check.measured_constant == pytest.approx(2.0, abs=1e-12)
    assert check.passed


def test_constants_unit_extrema_on_quarter_ball():
    # Residual 1 - b on the ball of radius 1/4: extremes at b = +/- 1/4.
    rep = compute_constants(detect_snc(parse("a^6*b^2 - a^6*b^3")), sigma=0.25)
    assert rep.ball_radius == 0.25  # shrink condition already holds there
    assert rep.unit_min == 0.75 and rep.unit_max == 1.25
    expected = 0.75 * math.sqrt(8 / 6) / (2 * 1.25 ** (7 / 8))
    assert rep.gradient_constant == pytest.approx(expected, rel=1e-15)
    # Oracle: dense random sampling stays within the certified extrema.
    rng = np.random.default_rng(7)
    pts = rng.uniform(-0.25, 0.25, size=(200_000, 2))
    pts = pts[np.linalg.norm(pts, axis=1) <= 0.25]
    vals = np.abs(1.0 - pts[:, 1])
    assert vals.min() >= rep.unit_min - 1e-9
    assert vals.max() <= rep.unit_max + 1e-9


def test_constants_shrink_condition_halves_sigma():
    # Residual 1 - b vanishes at b = 1; starting from sigma = 2 the radius
    # must shrink below 1 before the pointwise condition can hold.
    rep = compute_constants(detect_snc(parse("a^2*b^2 - a^2*b^3")), sigma=2.0)
    assert rep.ball_radius < 1.0
    assert rep.unit_min > 0.0


@pytest.mark.parametrize("sigma", [0.0, -1.0, math.inf, math.nan])
def test_constants_reject_a_sigma_that_is_not_finite_and_positive(sigma):
    with pytest.raises(ValueError, match="sigma must be finite and positive"):
        compute_constants(detect_snc(parse("x^2")), sigma=sigma)


def test_constants_sample_and_compile_nothing(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("compute_constants sampled or compiled")

    monkeypatch.setattr("lojalab.snc.ball_points", forbidden)
    monkeypatch.setattr(Polynomial, "numeric", forbidden)
    monkeypatch.setattr(Polynomial, "gradient_numeric", forbidden)
    rep = compute_constants(detect_snc(parse("x1^2*x2*(1 + 4*x1 - 2*x2^2)")))
    assert rep.ball_radius == 0.0625


@st.composite
def _monomial_times_unit(draw):
    """A monomial times a unit of one or two terms, as in the benchmark."""
    d = draw(st.integers(1, 4))
    names = [f"x{i + 1}" for i in range(d)]
    monomial = "*".join(f"{v}^{draw(st.integers(2 if d == 1 else 1, 4))}" for v in names)
    unit = "1"
    for _ in range(draw(st.integers(1, 2))):
        term = "*".join(draw(st.sampled_from(names)) for _ in range(draw(st.integers(1, 2))))
        coeff = draw(st.fractions(min_value=-5, max_value=5, max_denominator=8).filter(bool))
        unit += f" + ({coeff})*{term}"
    return parse(f"{monomial}*({unit})")


@given(_monomial_times_unit(), st.data())
@settings(max_examples=60, deadline=None)
def test_certified_constants_hold_on_the_box(p, data):
    # Exact oracle: m <= |f0| <= M and |x_j df0/dx_j| <= (n_j/2)|f0| at
    # every corner of the box |x_i| <= r and at random rational points of it.
    mf = detect_snc(p)
    rep = compute_constants(mf)
    radius = Fraction(rep.ball_radius)
    f0 = mf.residual
    partials = [
        (j, Fraction(n, 2), f0.derivative(v))
        for j, (v, n) in enumerate(zip(f0.variables, mf.exponents))
        if n
    ]
    d = len(f0.variables)
    corners = [[radius * (1 - 2 * (k >> i & 1)) for i in range(d)] for k in range(2**d)]
    inside = st.lists(
        st.fractions(min_value=-radius, max_value=radius, max_denominator=64),
        min_size=d,
        max_size=d,
    )
    for x in corners + [data.draw(inside) for _ in range(8)]:
        value = abs(evaluate_exact(f0, x))
        assert rep.unit_min <= value <= rep.unit_max
        for j, half_n, partial in partials:
            assert abs(x[j] * evaluate_exact(partial, x)) <= half_n * value
    assert verify_gradient_inequality(p, rep, samples=200).passed


def test_gradient_inequality_passes_on_corpus():
    corpus = ["x1*x2", "x^2", "x^2*y^2", "x^6*y^2", "x^6*y"] + [
        f"x^{n}" for n in range(2, 7)
    ]
    for text in corpus:
        p = parse(text)
        rep = compute_constants(detect_snc(p))
        check = verify_gradient_inequality(p, rep)
        assert check.passed, f"{text}: measured {check.measured_constant} < {rep.gradient_constant}"


def test_gradient_inequality_fails_for_wrong_exponent_claim():
    # Claiming theta = 1/2 for the cusp: the measured ratio collapses along
    # the degenerate axis as the ball shrinks (true exponent is larger).
    p = parse("x^2 - y^3")
    claimed = ExponentReport(
        theta=Fraction(1, 2),
        total_degree=2,
        active_count=1,
        max_active_exponent=2,
        optimal=True,
        ball_radius=1.0 / 1024.0,
        unit_min=1.0,
        unit_max=1.0,
        gradient_constant=0.5,
    )
    check = verify_gradient_inequality(p, claimed)
    assert not check.passed
    # Oracle: along x = 0 the ratio is 3|y|^(1/2) -> 0, so the measured
    # minimum must decay as the ball shrinks.
    big = verify_gradient_inequality(p, replace(claimed, ball_radius=0.5)).measured_constant
    small = check.measured_constant
    assert small < big / 4


# ----------------------------------------------------------------------
# elementary inequalities
# ----------------------------------------------------------------------


def test_generalized_young_float_suite():
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        c = int(rng.integers(1, 7))
        a = rng.uniform(1e-2, 10.0, c)
        p = rng.uniform(0.2, 8.0, c)
        r = 1.0 / np.sum(1.0 / p)
        lhs = float(np.prod(a) ** r)
        rhs = float(r * np.sum(a**p / p))
        assert lhs <= rhs * (1 + 1e-12)


def test_generalized_young_exact_spot_checks():
    rng = np.random.default_rng(5)
    for _ in range(100):
        c = int(rng.integers(1, 7))
        a = [
            Fraction(int(rng.integers(1, 40)), int(rng.integers(1, 12)))
            for _ in range(c)
        ]
        powers = [int(rng.integers(1, 7)) for _ in range(c)]
        assert generalized_young_holds_exact(a, powers)


def test_generalized_young_gap_nonnegative():
    assert generalized_young_gap([2.0, 3.0], [2.0, 2.0]) >= -1e-12


def test_monomial_inequality_exact_random():
    rng = np.random.default_rng(11)
    for _ in range(300):
        c = int(rng.integers(1, 5))
        xs = [
            Fraction(int(rng.integers(1, 30)) * int(rng.choice([-1, 1])), int(rng.integers(1, 10)))
            for _ in range(c)
        ]
        ns = [int(rng.integers(1, 5)) for _ in range(c)]
        assert monomial_inequality_holds_exact(xs, ns)


# ----------------------------------------------------------------------
# report serialization
# ----------------------------------------------------------------------


def test_report_json_fields():
    p = parse("x^6*y^2")
    rep = compute_constants(detect_snc(p))
    payload = rep.to_json()
    assert payload["theta"] == "7/8"
    assert payload["N"] == 8
    assert payload["c"] == 2
    assert payload["n"] == 6
    assert payload["optimal"] is False
    assert payload["m"] and payload["M"] and payload["C0"]


def test_inequality_report_pass_rule():
    base = dict(
        inequality_id="gradient",
        exponent=Fraction(1, 2),
        sample_count=10,
        ball_radii=(0.5, 0.5),
    )
    assert InequalityCheckReport(**base, measured_constant=1.0, predicted_constant=None).passed
    assert InequalityCheckReport(**base, measured_constant=0.995, predicted_constant=1.0).passed
    assert not InequalityCheckReport(**base, measured_constant=0.9, predicted_constant=1.0).passed
    assert not InequalityCheckReport(**base, measured_constant=0.0, predicted_constant=None).passed
