"""Exact univariate root extraction and real-root counting."""

import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lojalab.poly import parse
from lojalab.univar import (
    coeffs_from_poly,
    forms_share_real_zero,
    rational_roots,
)


def _coeffs(text: str):
    return coeffs_from_poly(parse(text))


def _count_distinct_real_roots(c):
    roots, others = rational_roots(c)
    return len(roots) + others


def test_rational_roots_simple():
    assert rational_roots(_coeffs("z^3 - z")) == ([Fraction(0), Fraction(1), Fraction(-1)], 0)


def test_rational_roots_lists_a_repeated_root_once():
    # (z - 1)^2 * (2z + 3)
    roots = rational_roots(_coeffs("(z - 1)*(z - 1)*(2*z + 3)"))
    assert roots == ([Fraction(1), Fraction(-3, 2)], 0)


def test_rational_roots_none_for_irreducible():
    assert rational_roots(_coeffs("z^2 - 2")) == ([], 2)
    assert rational_roots(_coeffs("z^2 + 1")) == ([], 0)


def test_count_distinct_real_roots():
    assert _count_distinct_real_roots(_coeffs("z^2 - 2")) == 2
    assert _count_distinct_real_roots(_coeffs("z^2 + 1")) == 0
    assert _count_distinct_real_roots(_coeffs("z^3 - z")) == 3
    # Multiplicities collapse: (z-1)^2 has one distinct root.
    assert _count_distinct_real_roots(_coeffs("(z - 1)*(z - 1)")) == 1


def test_constant_and_zero_edge_cases():
    assert rational_roots(_coeffs("5")) == ([], 0)
    assert _count_distinct_real_roots(_coeffs("5")) == 0
    assert coeffs_from_poly(parse("0")) == []


def test_multivariate_rejected():
    with pytest.raises(ValueError):
        coeffs_from_poly(parse("x*y"))


def test_rational_roots_of_a_coefficient_with_many_divisors():
    # 720720 has 240 divisors, so 115,200 root candidates, which a
    # list-membership dedupe compares pairwise for minutes.
    roots = rational_roots([Fraction(-720720), Fraction(0), Fraction(720720)])
    assert roots == ([Fraction(1), Fraction(-1)], 0)


@pytest.mark.parametrize("a, b, shared", [
    ([0, 1], [1, 0], False),  # x and y
    ([0, 0, 1], [0, 1, 0], True),  # x^2 and x*y share (0, 1)
    ([1, 0], [2, 0], True),  # y and 2*y share (1, 0)
    ([1, 0, 1], [0, 1, 0], False),  # x^2 + y^2 has no real zero
    ([-2, 0, 1], [0, -2, 0, 1], True),  # x^2 - 2*y^2 and x*(x^2 - 2*y^2)
    ([0, 0, 0], [1, 0, 1], False),  # the zero form and x^2 + y^2
    ([0, 0, 0], [-1, 0, 1], True),  # the zero form and x^2 - y^2
])
def test_forms_share_real_zero(a, b, shared):
    a, b = [Fraction(x) for x in a], [Fraction(x) for x in b]
    assert forms_share_real_zero(a, b) == shared
    assert forms_share_real_zero(b, a) == shared


def _times(c, factor):
    out = [Fraction(0)] * (len(c) + len(factor) - 1)
    for i, a in enumerate(c):
        for j, b in enumerate(factor):
            out[i + j] += a * b
    return out


def _straddled(r, m):
    """(z - r)((z - r)^2 + m(z - r) - 1): the rational root r between two
    irrational ones, about 1/m and m away; for large m the near one lies
    closer to r than the rounding width."""
    return _times([-r, Fraction(1)], [r * r - m * r - 1, m - 2 * r, Fraction(1)])


_small = st.fractions(min_value=-6, max_value=6, max_denominator=5)
# Dyadic roots, which the power-of-two bisection meets as midpoints
# (0, +-1/2, +-bound/2, ...).
_dyadic = st.builds(lambda k, j: k * Fraction(2) ** j, st.integers(-3, 3), st.integers(-3, 5))
# Planted roots: small fractions, dyadic ones, and fractions with
# denominators up to 10^12, which rounding must find below 1/(2L^2).
_planted = st.dictionaries(
    st.one_of(
        _small, _dyadic, st.fractions(min_value=-6, max_value=6, max_denominator=10**12)
    ),
    st.integers(1, 3),
    max_size=3,
)
# The cofactor: a quadratic c0 + c1*z + c2*z^2, or a straddled cubic.
_cofactor = st.one_of(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6).filter(bool)).map(
        lambda quadratic: [Fraction(k) for k in quadratic]
    ),
    st.builds(_straddled, st.one_of(_small, _dyadic), st.integers(-10**6, 10**6)),
)


def _sympy_poly(c, z):
    import sympy

    return sympy.Poly([sympy.Rational(x.numerator, x.denominator) for x in reversed(c)], z)


@given(_planted, _cofactor)
@settings(max_examples=60, deadline=None)
def test_roots_against_sympy_on_planted_polynomials(planted, cofactor):
    # sympy is the oracle: prod (z - r)^m times the cofactor.
    import sympy

    z = sympy.Symbol("z")
    c = cofactor
    for root, mult in planted.items():
        for _ in range(mult):
            c = _times(c, [-root, Fraction(1)])
    expected = set(planted)
    for root in sympy.roots(_sympy_poly(cofactor, z)):
        if root.is_rational:
            expected.add(Fraction(int(root.p), int(root.q)))
    found, others = rational_roots(c)
    assert len(set(found)) == len(found)
    assert set(found) == expected
    # Nonzero roots come in the first-seen order of the candidates +-p/q,
    # p over the divisors of the lowest coefficient, then q of the leading,
    # then the sign.  A value first appears in reduced form, since reducing
    # divides p, so its place is that of its own p, q and sign.
    low = [x for x in c if x][0]
    scale = math.lcm(*(x.denominator for x in c))
    low_divisors = sympy.divisors(abs(int(low * scale)))
    lead_divisors = sympy.divisors(abs(int(c[-1] * scale)))

    def place(root):
        return (
            low_divisors.index(abs(root.numerator)),
            lead_divisors.index(root.denominator),
            root < 0,
        )

    nonzero = [root for root in found if root]
    assert nonzero == sorted(nonzero, key=place)
    assert len(found) + others == len(set(sympy.real_roots(_sympy_poly(c, z))))


# The curves of the resolve-curves benchmark: every x^a +- c*y^b with
# 2 <= a < b <= 9 and c in {1, 2, 3, 1/2}, and every cusp template with
# a, b in {1, 2}.
CUSP_TEMPLATES = (
    "(y^2 - {a}*x^3)*(y^2 - {b}*x^5)",
    "(y^2 - {a}*x^3)*(y^2 - {b}*x^7)",
    "(y^2 - {a}*x^3)^2 - {b}*x^5*y",
    "(y^2 - {a}*x^3)^2 - {b}*x^7*y",
    "(y^2 - {a}*x^3)*(x^2 - {b}*y^3)",
    "(y^3 - {a}*x^4)*(y^2 - {b}*x^3)",
)


def _resolve_curves():
    for a in range(2, 10):
        for b in range(a + 1, 10):
            for sign in "+-":
                for coeff in ("", "2*", "3*", "1/2*"):
                    yield f"x^{a} {sign} {coeff}y^{b}"
    for template in CUSP_TEMPLATES:
        for a in (1, 2):
            for b in (1, 2):
                yield template.format(a=a, b=b)


@given(st.lists(st.integers(-4, 4), min_size=1, max_size=4), _cofactor)
@settings(max_examples=60, deadline=None)
def test_sturm_chain_against_sympy(roots, cofactor):
    # sympy's Sturm sequence over QQ starts from the monic squarefree part;
    # each member here is the coprime-integer positive multiple of sympy's
    # times the sign of the leading coefficient.
    import sympy

    from lojalab.univar import _integer_multiple, _sturm

    c = cofactor
    for root in roots:
        c = _times(c, [Fraction(-root), Fraction(1)])
    z = sympy.Symbol("z")
    expected = [
        _integer_multiple([Fraction(int(x.p), int(x.q)) for x in reversed(member.all_coeffs())])
        for member in sympy.sturm(_sympy_poly(c, z))
    ]
    if c[-1] < 0:
        expected = [[-x for x in member] for member in expected]
    chain, count = _sturm(c)
    assert chain == expected
    assert count == len(set(sympy.real_roots(_sympy_poly(c, z))))


def test_sturm_chains_on_the_resolve_curves_pinned(monkeypatch):
    # Every chain that resolve builds on these curves, member for member,
    # with its root count; pinned from the chain built on Fraction and then
    # scaled to coprime integers.
    from lojalab import univar
    from lojalab.blowup import resolve

    sturm, calls = univar._sturm, []

    def record(c):
        chain, count = sturm(c)
        calls.append(([str(x) for x in c], chain, count))
        return chain, count

    monkeypatch.setattr(univar, "_sturm", record)
    for text in _resolve_curves():
        resolve(parse(text))
    digest = hashlib.sha1(b"".join(repr(call).encode() for call in calls)).hexdigest()
    assert (len(calls), digest) == (2256, "d6526a9cb8651f7ad3c74a8220231ae4e2704f11")
