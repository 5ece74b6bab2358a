"""Exact univariate root extraction and real-root counting."""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lojalab.poly import parse
from lojalab.univar import (
    _MR_LIMIT,
    _divisors,
    _proven_prime,
    coeffs_from_poly,
    count_distinct_real_roots,
    evaluate,
    forms_share_real_zero,
    rational_roots,
)


def _coeffs(text: str):
    return coeffs_from_poly(parse(text))


def test_rational_roots_simple():
    roots = dict(rational_roots(_coeffs("z^3 - z")))
    assert roots == {Fraction(0): 1, Fraction(1): 1, Fraction(-1): 1}


def test_rational_roots_with_multiplicity():
    # (z - 1)^2 * (2z + 3)
    roots = dict(rational_roots(_coeffs("(z - 1)*(z - 1)*(2*z + 3)")))
    assert roots == {Fraction(1): 2, Fraction(-3, 2): 1}


def test_rational_roots_none_for_irreducible():
    assert rational_roots(_coeffs("z^2 - 2")) == []
    assert rational_roots(_coeffs("z^2 + 1")) == []


def test_count_distinct_real_roots():
    assert count_distinct_real_roots(_coeffs("z^2 - 2")) == 2
    assert count_distinct_real_roots(_coeffs("z^2 + 1")) == 0
    assert count_distinct_real_roots(_coeffs("z^3 - z")) == 3
    # Multiplicities collapse: (z-1)^2 has one distinct root.
    assert count_distinct_real_roots(_coeffs("(z - 1)*(z - 1)")) == 1


def test_evaluate_horner():
    coeffs = _coeffs("2*z^2 - 3*z + 1")
    assert evaluate(coeffs, Fraction(1, 2)) == 0
    assert evaluate(coeffs, Fraction(2)) == 3


def test_constant_and_zero_edge_cases():
    assert rational_roots(_coeffs("5")) == []
    assert count_distinct_real_roots(_coeffs("5")) == 0
    assert coeffs_from_poly(parse("0")) == []


def test_multivariate_rejected():
    with pytest.raises(ValueError):
        coeffs_from_poly(parse("x*y"))


def test_rational_roots_of_a_coefficient_with_many_divisors():
    # 720720 has 240 divisors, so 115,200 root candidates, which a
    # list-membership dedupe compares pairwise for minutes.
    roots = rational_roots([Fraction(-720720), Fraction(0), Fraction(720720)])
    assert roots == [(Fraction(1), 1), (Fraction(-1), 1)]


@given(st.integers(2, 10**6), st.integers(2, 10**6))
@settings(max_examples=100, deadline=None)
def test_divisors_against_sympy(a, b):
    import sympy

    assert _divisors(a * b) == sympy.divisors(a * b)
    assert _divisors(-a * b) == sympy.divisors(a * b)


def test_divisors_of_a_large_power_and_of_zero():
    import sympy

    assert _divisors(10**14) == sympy.divisors(10**14)
    assert _divisors(0) == []
    assert _divisors(1) == [1]


@pytest.mark.parametrize("n", [
    2**61 - 1,  # prime: trial division to its root took 102 s
    100_000_000_000_031,  # prime
    10**9 + 7,
    4 * (2**61 - 1),  # prime cofactor after the small primes
    2 * 3**5 * 100_000_000_000_031,
    10_007**2,  # prime squares are composite: split by Pollard's rho
    999_983**2,
    41**3,
    10**14,
])
def test_divisors_of_primes_prime_cofactors_and_prime_squares(n):
    import sympy

    assert _divisors(n) == sympy.divisors(n)


def test_divisors_of_semiprimes_with_large_factors():
    # Two primes of 25-40 bits: trial division runs to the smaller one,
    # about 2**39 steps at worst; Pollard's rho needs about its square root.
    import random

    import sympy

    rng = random.Random(20)
    for _ in range(4):
        p, q = (
            sympy.nextprime(rng.getrandbits(bits) | 1 << (bits - 1))
            for bits in (rng.randint(25, 40), rng.randint(25, 40))
        )
        assert _divisors(p * q) == sympy.divisors(p * q), (p, q)
    assert _divisors((10**9 + 7) * (10**9 + 9)) == [
        1, 10**9 + 7, 10**9 + 9, (10**9 + 7) * (10**9 + 9)
    ]


@given(st.integers(0, 10**30))
@settings(max_examples=300, deadline=None)
def test_proven_prime_against_sympy(n):
    import sympy

    assert _proven_prime(n) == (n < _MR_LIMIT and sympy.isprime(n))


@pytest.mark.parametrize("n", [
    # The least strong pseudoprimes to the first k prime bases (OEIS A014233).
    2047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747,
    3_474_749_660_383, 341_550_071_728_321, 3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,
    _MR_LIMIT,
])
def test_proven_prime_rejects_strong_pseudoprimes(n):
    assert not _proven_prime(n)


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


_planted = st.dictionaries(
    st.fractions(min_value=-6, max_value=6, max_denominator=5), st.integers(1, 3), max_size=3
)
_quadratic = st.tuples(
    st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6).filter(bool)
)


@given(_planted, _quadratic)
@settings(max_examples=60, deadline=None)
def test_roots_against_sympy_on_planted_polynomials(planted, quadratic):
    # sympy is the oracle: prod (z - r)^m times c0 + c1*z + c2*z^2.
    import sympy

    z = sympy.Symbol("z")
    c = [Fraction(k) for k in quadratic]
    for root, mult in planted.items():
        for _ in range(mult):
            c = _times(c, [-root, Fraction(1)])
    expected = Counter(planted)
    quad = sympy.Poly(list(reversed(quadratic)), z)
    for root, mult in sympy.roots(quad).items():
        if root.is_rational:
            expected[Fraction(int(root.p), int(root.q))] += mult
    found = rational_roots(c)
    assert len({root for root, _ in found}) == len(found)
    assert dict(found) == dict(expected)
    # Nonzero roots come in the first-seen order of the candidates +-p/q,
    # p over the divisors of the lowest coefficient, then q of the leading.
    low = [x for x in c if x][0]
    scale = math.lcm(*(x.denominator for x in c))
    order = list(dict.fromkeys(
        Fraction(sign * p, q)
        for p in sympy.divisors(abs(int(low * scale)))
        for q in sympy.divisors(abs(int(c[-1] * scale)))
        for sign in (1, -1)
    ))
    nonzero = [root for root, _ in found if root]
    assert nonzero == sorted(nonzero, key=order.index)
    full = sympy.Poly([sympy.Rational(x.numerator, x.denominator) for x in reversed(c)], z)
    assert count_distinct_real_roots(c) == len(set(sympy.real_roots(full)))
