"""Exact polynomial engine: parsing, arithmetic, substitution, content."""

import itertools
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lojalab.poly import (
    Function,
    ParseError,
    Polynomial,
    PolynomialLimitError,
    Substitution,
    _MonomialKernel,
    parse,
)

from oracles import evaluate_exact, kernel_sums_at_point


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


@pytest.mark.parametrize("text, variables, message", [
    ("x + q", ["x"], "undeclared variable 'q' (at position 4)"),
    ("x*(y + z)", ["x", "y"], "undeclared variable 'z' (at position 7)"),
    ("x + * y", None, "expected number, variable, or '(' (at position 4)"),
    ("", None, "expected number, variable, or '(' (at position 0)"),
    ("x^y", None, "expected integer exponent after '^' (at position 2)"),
    ("x^-1", None, "expected integer exponent after '^' (at position 2)"),
    ("(x + 1", None, "expected ')' (at position 6)"),
    ("x^1/2", None, "non-integer exponent 1/2 (at position 2)"),
    ("x y", None, "unexpected trailing input (at position 2)"),
    ("x + 1)", None, "unexpected trailing input (at position 5)"),
    ("3x", None, "unexpected trailing input (at position 1)"),
    ("x + q $", ["x"], "unknown character '$' (at position 6)"),
])
def test_parse_error_messages_and_positions(text, variables, message):
    with pytest.raises(ParseError) as err:
        parse(text, variables)
    assert str(err.value) == message


# Expressions of the parser's grammar as trees: an expression is a leading
# sign and signed terms, a term a list of factors, a factor a base with an
# optional exponent, a base a number, a name or a parenthesized expression.
# Parentheses nest one level, which keeps degrees under the cap.
_NAMES = ("x", "y", "z1", "w_2")


def _expressions(base):
    factor = st.tuples(base, st.one_of(st.none(), st.integers(0, 3)))
    term = st.lists(factor, min_size=1, max_size=2)
    return st.tuples(
        st.sampled_from(["", "-"]), term,
        st.lists(st.tuples(st.sampled_from("+-"), term), max_size=3),
    )


_leaves = st.one_of(
    st.tuples(st.just("number"), st.sampled_from(["0", "1", "2", "3/4", "12"])),
    st.tuples(st.just("name"), st.sampled_from(_NAMES)),
)
_expression_trees = _expressions(
    st.one_of(_leaves, st.tuples(st.just("paren"), _expressions(_leaves)))
)


def _render(tree):
    lead, first, rest = tree

    def term(factors):
        return " * ".join(
            (f"({_render(base[1])})" if base[0] == "paren" else base[1])
            + ("" if k is None else f"^{k}")
            for base, k in factors
        )

    return lead + term(first) + "".join(f" {sign} {term(t)}" for sign, t in rest)


def _build(tree):
    """The tree by ``Polynomial`` arithmetic, in the parser's order of
    operations; a one-term power by repeated multiplication."""
    lead, first, rest = tree

    def factor(base, k):
        kind, value = base
        if kind == "number":
            b = Polynomial.constant(Fraction(value))
        elif kind == "name":
            b = Polynomial.variable(value)
        else:
            b = _build(value)
        if k is None:
            return b
        if len(b.terms) != 1:
            return b**k
        power = Polynomial.constant(1, b.variables)
        for _ in range(k):
            power = power * b
        return power

    def term(factors):
        total = factor(*factors[0])
        for f in factors[1:]:
            total = total * factor(*f)
        return total

    total = term(first)
    if lead:
        total = -total
    for sign, t in rest:
        next_term = term(t)
        total = total + (-next_term if sign == "-" else next_term)
    return total


@given(_expression_trees)
@settings(max_examples=150, deadline=None)
def test_parse_matches_polynomial_arithmetic_term_for_term(tree):
    # Same variables, and the same terms in the same insertion order, so the
    # compiled kernels sum the same floats.
    text = _render(tree)
    built = _build(tree)
    parsed = parse(text)
    assert parsed.variables == built.variables
    assert list(parsed.terms.items()) == list(built.terms.items())
    pinned = parse(text, variables=_NAMES[::-1])
    rebuilt = built.with_variables(_NAMES[::-1])
    assert pinned.variables == rebuilt.variables
    assert list(pinned.terms.items()) == list(rebuilt.terms.items())


def test_power_of_one_term_is_one_term():
    assert (Polynomial.constant(Fraction(-2, 3)) ** 5).terms == {(): Fraction(-32, 243)}
    assert parse("(-3*x*y^2)^3").terms == {(3, 6): Fraction(-27)}
    assert parse("(x*y)^0").terms == {(0, 0): Fraction(1)}
    # The degree cap is checked before the coefficient is raised.
    with pytest.raises(PolynomialLimitError, match="degree 130"):
        parse("(7*x)^130")


def test_coefficient_cap_is_the_integer_string_limit():
    # 3^9000 has 4,295 digits and 3^9020 has 4,304, against the default 4,300.
    assert sys.get_int_max_str_digits() == 4300
    assert len(str(parse("3^9000*x^2 + y^2").terms[(2, 0)])) == 4295
    for text in ("3^9020*x^2 + y^2", "3^4000000*x^2 + y^2", "(1/3)^9020*x", "3^5000*3^5000*x"):
        start = time.perf_counter()
        with pytest.raises(PolynomialLimitError, match="4300-digit"):
            parse(text)
        # No power past the limit is computed: 3^4000000 alone takes about 0.7 s.
        assert time.perf_counter() - start < 0.1, text


def test_coefficient_cap_is_off_with_the_string_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert parse("3^9020*x^2 + y^2").terms[(2, 0)] == 3**9020
    finally:
        sys.set_int_max_str_digits(limit)


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
        fn = Function.of(p)
        value, gradient, gradient_at = fn.value, fn.gradient, fn.gradient_at
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


def _hex(values):
    # float.hex tells -0.0 from 0.0, which == does not.
    return [float(v).hex() for v in values]


def _at_point_points(rng, d, count):
    # Signed zeros, and magnitudes around 1e+-150 whose products overflow to
    # inf or underflow to subnormals and zeros, among plain coordinates.
    pts = rng.uniform(-1.5, 1.5, size=(count, d))
    special = rng.random(pts.shape) < 0.3
    magnitudes = [0.0, -0.0, 1e150, -3e149, 2e-150, -1e-151, 1e300, 5e-324]
    pts[special] = rng.choice(magnitudes, size=int(special.sum()))
    return [row.tolist() for row in pts]


def test_at_point_matches_the_term_loop_bit_for_bit():
    # The straight-line sums against the loop over the terms, in d = 1..10,
    # on a constant (whose partials are empty groups) and with a variable in
    # no term; value and partials compiled together, as _value_gradient does.
    rng = np.random.default_rng(17)
    cases = [parse("5", variables=["x", "y"]), parse("-x^2", variables=["x", "y", "z"])]
    for d in range(1, 11):
        for _ in range(4):
            terms = {}
            for _ in range(int(rng.integers(1, 13))):
                exponent = tuple(int(e) for e in rng.integers(0, 7, size=d))
                terms[exponent] = Fraction(int(rng.integers(-9, 10)) or 1, int(rng.integers(1, 5)))
            cases.append(Polynomial([f"x{i}" for i in range(d)], terms))
    for p in cases:
        d = len(p.variables)
        kernel = _MonomialKernel([p.terms, *(g.terms for g in p.gradient())], d)
        compiled, reference = kernel.at_point(), kernel_sums_at_point(kernel)
        for point in _at_point_points(rng, d, 25):
            assert _hex(compiled(point)) == _hex(reference(point)), (str(p), point)


def test_at_point_of_a_constant_and_of_signed_zeros():
    constant = parse("5", variables=["x", "y"])._gradient_kernel().at_point()
    assert _hex(constant([1.0, 2.0])) == _hex([0.0, 0.0])
    # -x^3 at -0.0: (-0.0)^3 * -1.0 = 0.0, and 0.0 + 0.0 stays 0.0; the sum
    # from 0.0 turns a lone -0.0 term into 0.0.
    cube = _MonomialKernel([parse("-x^3").terms], 1).at_point()
    assert _hex(cube([-0.0])) == _hex([0.0])
    assert _hex(cube([0.0])) == _hex([0.0])


def test_at_point_compiles_a_kernel_of_thousands_of_terms():
    # One statement per term: a single nested sum of this many terms is
    # deeper than the compiler takes.
    rng = np.random.default_rng(19)
    exponents = set()
    while len(exponents) < 4500:
        exponents.add(tuple(int(e) for e in rng.integers(0, 9, size=4)))
    p = Polynomial(["w", "x", "y", "z"], {
        e: Fraction(int(rng.integers(-99, 100)) or 1, int(rng.integers(1, 9))) for e in exponents
    })
    kernel = _MonomialKernel([p.terms], 4)
    compiled, reference = kernel.at_point(), kernel_sums_at_point(kernel)
    for point in _at_point_points(rng, 4, 20):
        assert _hex(compiled(point)) == _hex(reference(point)), point


def test_value_gradient_matches_numeric_and_gradient_columns_bit_for_bit():
    # One kernel for the value and any subset of the partials gives the
    # bits of numeric() and of the matching gradient_numeric() columns, in
    # every memory layout.
    rng = np.random.default_rng(13)
    for p in _kernel_polynomials(rng):
        d = len(p.variables)
        value, gradient = p.numeric(), p.gradient_numeric()
        base = _kernel_points(rng, 40, d)
        subsets = [s for k in range(d + 1) for s in itertools.combinations(range(d), k)]
        for subset in subsets:
            evaluate = p._value_gradient([p.variables[j] for j in subset])
            for layout in ("C", "F", "rows"):
                pts = base if layout == "C" else _in_layout(base, layout)
                with np.errstate(all="ignore"):
                    values, partials = evaluate(pts)
                    expected_values, expected_grads = value(base), gradient(base)
                assert _same_bits(values, expected_values), (str(p), subset, layout)
                assert _same_bits(partials, expected_grads[:, list(subset)]), (
                    str(p), subset, layout,
                )
        # The default is every variable, in variable order.
        with np.errstate(all="ignore"):
            assert _same_bits(p._value_gradient()(base)[1], gradient(base)), str(p)


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


# ----------------------------------------------------------------------
# the trusted constructor
# ----------------------------------------------------------------------


def assert_equals_validated_rebuild(p):
    """``p`` is what the validating constructor makes of its own terms:
    the same variables, keys and values in the same order, with tuple-of-int
    exponents and ``Fraction`` coefficients."""
    rebuilt = Polynomial(p.variables, dict(p.terms))
    assert p.variables == rebuilt.variables
    assert list(p.terms.items()) == list(rebuilt.terms.items())
    for (e, c), (e_ref, c_ref) in zip(p.terms.items(), rebuilt.terms.items()):
        assert type(e) is tuple and [type(x) for x in e] == [type(x) for x in e_ref]
        assert type(c) is type(c_ref) is Fraction


@given(polynomials(), polynomials(), st.integers(0, 3), _coeffs)
@settings(max_examples=60, deadline=None)
def test_arithmetic_results_equal_their_validated_rebuild(p, q, k, a):
    results = [p + q, p - q, q - p, p * q, -p, p**k, p + 3, 2 - p, a * p, p.scale(a)]
    results += p.gradient()
    if not p.is_zero:
        results.append(p.monomial_content()[1])
    results.append(p.with_variables(tuple(reversed(p.variables)) + ("w",)))
    results.append(p.rename({"x": "u"}))
    for r in results:
        assert_equals_validated_rebuild(r)


def test_trusted_results_keep_the_caps_and_the_name_check():
    with pytest.raises(PolynomialLimitError):
        parse("(x + 1)^65")
    with pytest.raises(PolynomialLimitError):
        parse("x^40 + y") * parse("x^30 + 1")
    p = parse("x*y + 1")
    with pytest.raises(ValueError, match="duplicate variable names"):
        p.with_variables(("x", "x", "y"))
    with pytest.raises(ValueError, match="duplicate variable names"):
        p.rename({"y": "x"})
    with pytest.raises(ValueError, match="duplicate variable names"):
        parse("x", variables=["x", "x"])
