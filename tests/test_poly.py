"""Exact polynomial engine: parsing, arithmetic, substitution, content."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lojalab.poly import (
    ParseError,
    Polynomial,
    PolynomialLimitError,
    Substitution,
    parse,
)

from oracles import evaluate_exact


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------


def test_parse_cusp():
    p = parse("x^2 - y^3")
    assert p.variables == ("x", "y")
    assert p.terms == {(2, 0): Fraction(1), (0, 3): Fraction(-1)}


def test_parse_zero():
    assert parse("0").terms == {}


def test_parse_single_term_with_coefficient():
    p = parse("3*x1*x2")
    assert p.variables == ("x1", "x2")
    assert p.terms == {(1, 1): Fraction(3)}


def test_parse_ratio_literal():
    p = parse("1/2*x + 3/4")
    assert p.terms == {(1,): Fraction(1, 2), (0,): Fraction(3, 4)}


def test_parse_parentheses_and_signs():
    assert parse("-(x - 2)*(x + 2)") == parse("4 - x^2")


def test_parse_declared_variables_pin_dimension():
    p = parse("x^2", variables=["x", "y"])
    assert p.variables == ("x", "y")
    assert p.terms == {(2, 0): Fraction(1)}


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse("x + $")
    assert err.value.position == 4


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(ParseError):
        parse("3x")


def test_parse_rejects_non_integer_exponent():
    with pytest.raises(ParseError, match="non-integer exponent"):
        parse("x^1/2")


def test_parse_rejects_undeclared_variable():
    with pytest.raises(ParseError):
        parse("x + z", variables=["x", "y"])


def test_parse_print_parse_is_idempotent():
    for text in ("x^2 - y^3", "3*x1*x2 + 1/2", "0", "x^4 - 2*x^2*y + y^2"):
        once = parse(text)
        twice = parse(str(once))
        assert once == twice
        assert str(once) == str(twice)


def test_degree_cap_enforced():
    with pytest.raises(PolynomialLimitError):
        parse("x^65")
    with pytest.raises(PolynomialLimitError):
        parse("x^33") * parse("x^33")


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------


def test_numeric_batch_matches_pointwise():
    p = parse("x^2*y - 3*y^2 + 1/2")
    pts = np.array([[0.1, 0.2], [-1.0, 2.0], [0.0, 0.0]])
    batch = p.numeric()(pts)
    for row, expected in zip(pts, batch):
        assert float(evaluate_exact(p, row)) == pytest.approx(expected, rel=1e-14)


def _random_polynomial(rng, d):
    terms = {}
    for _ in range(int(rng.integers(1, 9))):
        exponent = tuple(int(v) for v in rng.integers(0, 5, size=d))
        terms[exponent] = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
    return Polynomial([f"x{i}" for i in range(d)], terms)


def test_gradient_numeric_matches_partials_bit_for_bit():
    # The fused evaluator against one numeric() per partial derivative.
    rng = np.random.default_rng(5)
    cases = [
        Polynomial.zero(["x", "y"]),
        parse("5", variables=["x", "y", "z"]),
        # z appears in no term, so its partial has no terms.
        parse("x^3*y - 2*y^2 + 1/3", variables=["x", "y", "z"]),
    ]
    cases += [_random_polynomial(rng, d) for d in range(1, 6) for _ in range(8)]
    for p in cases:
        d = len(p.variables)
        fused = p.gradient_numeric()
        for m in (1, 7, 500):
            pts = rng.uniform(-1.5, 1.5, size=(m, d))
            reference = np.stack([g.numeric()(pts) for g in p.gradient()], axis=1)
            assert np.array_equal(fused(pts), reference), (str(p), m)


# Signed zeros, infinities, nan, subnormals, huge values and exact +-1.
_SPECIAL_COORDINATES = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-320, 1e-310, 1e308, -1e308, 1.0, -1.0]
)


def _same_bits(a, b):
    # Equal shape and bits.  A nan matches any nan: when two nan operands
    # meet, which one a multiply passes on depends on the element's position
    # in numpy's SIMD loop, not on the values.
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    a_nan, b_nan = np.isnan(a), np.isnan(b)
    return (
        a.shape == b.shape
        and np.array_equal(a_nan, b_nan)
        and np.array_equal(a.view(np.int64)[~a_nan], b.view(np.int64)[~b_nan])
    )


def _kernel_points(rng, m, d):
    pts = rng.uniform(-1.5, 1.5, size=(m, d))
    special = rng.random(pts.shape) < 0.15
    pts[special] = rng.choice(_SPECIAL_COORDINATES, size=int(special.sum()))
    return pts


def _in_layout(pts, layout):
    # The same point rows, F-ordered, as C-ordered rows of a wider array, or
    # at decreasing addresses.
    if layout == "F":
        return np.asfortranarray(pts)
    if layout == "rows":
        wider = np.zeros((pts.shape[0], pts.shape[1] + 1))
        wider[:, :-1] = pts
        return wider[:, :-1]
    return pts[::-1].copy()[::-1]


def _kernel_polynomials(rng):
    # Constants, a variable in no term, then random terms with exponents up
    # to 9, so the power chains run up to eight multiplications deep.
    cases = [parse("5", variables=["x", "y"]), parse("x^2", variables=["x", "y", "z"])]
    for d in range(1, 6):
        for _ in range(6):
            terms = {}
            for _ in range(int(rng.integers(1, 13))):
                exponent = tuple(int(e) for e in rng.integers(0, 10, size=d))
                terms[exponent] = Fraction(int(rng.integers(-9, 10)) or 1, int(rng.integers(1, 5)))
            cases.append(Polynomial([f"x{i}" for i in range(d)], terms))
    return cases


def test_one_point_gradient_matches_batch_rows_bit_for_bit():
    # One arithmetic: gradient_at on Python floats gives the bits of the
    # batch row, and a point's value and gradient do not depend on the
    # memory layout or the size of the batch it comes in.
    rng = np.random.default_rng(11)
    for n, p in enumerate(_kernel_polynomials(rng)):
        d = len(p.variables)
        value, gradient, gradient_at = p.numeric(), p.gradient_numeric(), p._gradient_at()
        for m in (1, 5, 40, 4097) if n % 8 == 0 else (1, 5, 40):
            base = _kernel_points(rng, m, d)
            with np.errstate(all="ignore"):
                values, grads = value(base), gradient(base)
                for layout in ("F", "rows", "reversed"):
                    pts = _in_layout(base, layout)
                    assert _same_bits(value(pts), values), (str(p), m, layout)
                    assert _same_bits(gradient(pts), grads), (str(p), m, layout)
                if m == 4097:
                    assert _same_bits(value(base[:4096]), values[:4096]), str(p)
                    assert _same_bits(gradient(base[:4096]), grads[:4096]), str(p)
            assert grads.flags.c_contiguous
            for row, expected in zip(base, grads):
                assert _same_bits(gradient_at(row.tolist()), expected), (str(p), row)


def _rounding_bound(p, point):
    # gamma_n * sum |c_k * m_k| with n = total degree + term count: a term of
    # degree D takes D - 1 chain and product multiplications, one by its
    # coefficient and one rounding of the coefficient; the sum from 0.0
    # rounds K - 1 times.
    u = Fraction(1, 2**53)
    n = p.total_degree() + len(p.terms)
    gamma = n * u / (1 - n * u)
    terms = [Polynomial(p.variables, {e: c}) for e, c in p.terms.items()]
    return gamma * sum(abs(evaluate_exact(term, point)) for term in terms)


def test_evaluators_within_rounding_bound_of_exact_value():
    # An oracle independent of the kernel: on dyadic points, which floats
    # hold exactly, each value and partial lies within the standard
    # forward-error bound of its exact rational value.
    rng = np.random.default_rng(12)
    for p in _kernel_polynomials(rng):
        d = len(p.variables)
        points = [
            [Fraction(int(v), 64) for v in rng.integers(-96, 97, size=d)] for _ in range(10)
        ]
        floats = np.array([[float(v) for v in point] for point in points])
        values, grads = p.numeric()(floats), p.gradient_numeric()(floats)
        for i, point in enumerate(points):
            error = abs(Fraction(float(values[i])) - evaluate_exact(p, point))
            assert error <= _rounding_bound(p, point), (str(p), point)
            for j, partial in enumerate(p.gradient()):
                error = abs(Fraction(float(grads[i, j])) - evaluate_exact(partial, point))
                assert error <= _rounding_bound(partial, point), (str(p), point, j)


# ----------------------------------------------------------------------
# calculus
# ----------------------------------------------------------------------


def test_gradient_power_rule():
    gx, gy = parse("x^2 - y^3").gradient()
    assert gx == parse("2*x", variables=["x", "y"])
    assert gy == parse("0 - 3*y^2", variables=["x", "y"])


def test_gradient_product():
    g1, g2 = parse("x1*x2").gradient()
    assert g1 == parse("x2")
    assert g2 == parse("x1")


def test_gradient_of_constant_is_zero():
    g = parse("5", variables=["x", "y", "z"]).gradient()
    assert all(component.is_zero for component in g)


# ----------------------------------------------------------------------
# substitution
# ----------------------------------------------------------------------


def _chart(u: str, v: str, mapping: dict[str, str]) -> Substitution:
    # mapping: source var -> product expression over (u, v)
    return Substitution({k: parse(e) for k, e in mapping.items()})


def test_substitute_first_blowup_chart():
    p = parse("x^2 - y^3")
    sub = Substitution({"x": parse("u*v"), "y": parse("v", variables=["u", "v"])})
    assert sub.apply(p) == parse("u^2*v^2 - v^3")


def test_substitute_second_blowup_chart():
    p = parse("x^2 - y^3")
    sub = Substitution({"x": parse("a", variables=["a", "b"]), "y": parse("a*b")})
    assert sub.apply(p) == parse("a^2 - a^3*b^3")


def test_substitute_identity():
    p = parse("x^2*y - y + 7")
    sub = Substitution({"x": parse("x"), "y": parse("y")})
    assert sub.apply(p) == p


def test_substitute_unknown_variable_rejected():
    with pytest.raises(ValueError, match="not in"):
        Substitution({"q": parse("x")}).apply(parse("x^2"))


def test_substitute_collision_rejected():
    p = parse("x + y")
    with pytest.raises(ValueError, match="collide"):
        Substitution({"x": parse("y + 1")}).apply(p)


def test_translation_reusing_same_variable_allowed():
    p = parse("x^2")
    shifted = Substitution({"x": parse("x + 1")}).apply(p)
    assert shifted == parse("x^2 + 2*x + 1")


# ----------------------------------------------------------------------
# monomial content
# ----------------------------------------------------------------------


def test_monomial_content_after_blowup():
    content, quotient = parse("u^2*v^2 - v^3").monomial_content()
    assert content == (0, 2)
    assert quotient == parse("u^2 - v")


def test_monomial_content_final_chart():
    content, quotient = parse("a^6*b^2 - a^6*b^3").monomial_content()
    assert content == (6, 2)
    assert quotient == parse("1 - b", variables=["a", "b"])


def test_monomial_content_trivial():
    p = parse("x^2 - y^3")
    content, quotient = p.monomial_content()
    assert content == (0, 0)
    assert quotient == p


def test_monomial_content_zero_rejected():
    with pytest.raises(ValueError):
        parse("0").monomial_content()


# ----------------------------------------------------------------------
# property tests
# ----------------------------------------------------------------------

_coeffs = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)


@st.composite
def polynomials(draw, dim: int | None = None, max_degree: int = 3):
    d = draw(st.integers(1, 3)) if dim is None else dim
    variables = ("x", "y", "z")[:d]
    n_terms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n_terms):
        exponent = tuple(draw(st.integers(0, max_degree)) for _ in range(d))
        terms[exponent] = draw(_coeffs)
    return Polynomial(variables, terms)


_points = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=5), min_size=3, max_size=3
)


@given(polynomials(dim=2), polynomials(dim=2), _points)
@settings(max_examples=100, deadline=None)
def test_product_evaluation_homomorphism(p, q, point):
    pt = point[:2]
    assert evaluate_exact(p * q, pt) == evaluate_exact(p, pt) * evaluate_exact(q, pt)


@given(polynomials(dim=2), polynomials(dim=2), _coeffs, _coeffs)
@settings(max_examples=100, deadline=None)
def test_gradient_is_linear(p, q, a, b):
    combined = (p.scale(a) + q.scale(b)).gradient()
    expected = tuple(
        gp.scale(a) + gq.scale(b) for gp, gq in zip(p.gradient(), q.gradient())
    )
    assert combined == expected


@given(polynomials(dim=2, max_degree=2), _points)
@settings(max_examples=60, deadline=None)
def test_substitution_commutes_with_evaluation(p, point):
    pt = point[:2]
    sub = Substitution({"x": parse("s + t"), "y": parse("s*t")})
    composed = sub.apply(p)
    s, t = Fraction(1, 2), Fraction(-2, 3)
    direct = evaluate_exact(p, [s + t, s * t])
    assert evaluate_exact(composed, [s, t]) == direct


@given(polynomials())
@settings(max_examples=100, deadline=None)
def test_monomial_content_roundtrip(p):
    if p.is_zero:
        return
    content, quotient = p.monomial_content()
    monomial = Polynomial(p.variables, {content: Fraction(1)})
    assert monomial * quotient == p
    again, _ = quotient.monomial_content()
    assert again == (0,) * len(p.variables)
