"""Exact univariate helpers: rational roots and real-root counting.

Coefficient lists are ascending (index = power) with ``Fraction`` entries.
Rational roots are found by the rational root test after clearing
denominators; the number of distinct real roots comes from a Sturm chain on
the squarefree part, so irrational roots can be detected (and reported as
unanalyzed) without approximating them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, isqrt

from .poly import Polynomial

Coeffs = list[Fraction]


def coeffs_from_poly(p: Polynomial) -> Coeffs:
    """Ascending coefficients of a polynomial in at most one variable."""
    effective = p.effective_variables()
    if len(effective) > 1:
        raise ValueError(f"polynomial is not univariate: variables {effective}")
    if p.is_zero:
        return []
    if not effective:
        return [p.constant_term()]
    idx = p.variables.index(effective[0])
    degree = max(e[idx] for e in p.terms)
    out = [Fraction(0)] * (degree + 1)
    for e, c in p.terms.items():
        out[e[idx]] += c
    return _trim(out)


def _trim(c: Coeffs) -> Coeffs:
    while c and c[-1] == 0:
        c.pop()
    return c


# The first 13 primes are Miller-Rabin witnesses for every composite below
# _MR_LIMIT, the least strong pseudoprime to all of them (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981
# Below this square root, trial division finishes sooner than the 13 tests.
_MR_MIN_ROOT = 1 << 10


def _proven_prime(n: int) -> bool:
    """True only for a prime ``n`` below ``_MR_LIMIT``; False at or above it."""
    if n < 2 or n >= _MR_LIMIT:
        return False
    for prime in _MR_BASES:
        if n % prime == 0:
            return n == prime
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for witness in _MR_BASES:
        x = pow(witness, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _search_limit(n: int) -> int:
    """Largest trial divisor that can still split the cofactor ``n``."""
    root = isqrt(n)
    return 1 if root >= _MR_MIN_ROOT and _proven_prime(n) else root


def _divisors(n: int) -> list[int]:
    """Positive divisors of ``n`` in ascending order, none for 0.

    Trial division divides out each prime as it is found, so it stops at the
    square root of the remaining cofactor rather than of ``n``, and at once
    when that cofactor is a proven prime.  A cofactor at or above
    ``_MR_LIMIT``, or one with two large prime factors, is still searched up
    to its square root.
    """
    n = abs(n)
    if n == 0:
        return []
    divisors = [1]
    limit = _search_limit(n)
    for prime in chain((2,), range(3, limit + 1, 2)):
        if prime > limit:
            break
        if n % prime:
            continue
        exponent = 0
        while n % prime == 0:
            n //= prime
            exponent += 1
        divisors = [d * prime**k for d in divisors for k in range(exponent + 1)]
        limit = _search_limit(n)
    if n > 1:
        divisors += [d * n for d in divisors]
    return sorted(divisors)


def evaluate(c: Coeffs, x: Fraction) -> Fraction:
    total = Fraction(0)
    for coeff in reversed(c):
        total = total * x + coeff
    return total


def _deflate(c: Coeffs, root: Fraction) -> Coeffs:
    """Synthetic division by (x - root); assumes root is exact."""
    out = [Fraction(0)] * (len(c) - 1)
    carry = Fraction(0)
    for i in range(len(c) - 1, 0, -1):
        carry = c[i] + carry * root
        out[i - 1] = carry
    return out


def rational_roots(c: Coeffs) -> list[tuple[Fraction, int]]:
    """All rational roots with multiplicities, exactly."""
    c = _trim(list(c))
    if len(c) <= 1:
        return []
    # Factor out x^k first.
    zero_mult = 0
    while c and c[0] == 0:
        zero_mult += 1
        c = c[1:]
    roots: list[tuple[Fraction, int]] = []
    if zero_mult:
        roots.append((Fraction(0), zero_mult))
    if len(c) <= 1:
        return roots
    denominator_lcm = 1
    for coeff in c:
        denominator_lcm = denominator_lcm * coeff.denominator // gcd(
            denominator_lcm, coeff.denominator
        )
    ints = [int(coeff * denominator_lcm) for coeff in c]
    # Candidates +-p/q come lazily, p ascending, then q, then the sign.  A
    # value first appears in reduced form, since reducing divides p, so
    # skipping the unreduced pairs keeps each value once, in first-seen order.
    leading = _divisors(ints[-1])
    candidates = (
        Fraction(sign * p, q)
        for p in _divisors(ints[0])
        for q in leading
        if gcd(p, q) == 1
        for sign in (1, -1)
    )
    for cand in candidates:
        mult = 0
        while len(c) > 1 and evaluate(c, cand) == 0:
            c = _deflate(c, cand)
            mult += 1
        if mult:
            roots.append((cand, mult))
        if len(c) <= 1:
            break
    return roots


def _poly_divmod(a: Coeffs, b: Coeffs) -> tuple[Coeffs, Coeffs]:
    a = list(a)
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and _trim(a):
        shift = len(a) - len(b)
        factor = a[-1] / b[-1]
        q[shift] = factor
        for i, coeff in enumerate(b):
            a[i + shift] -= factor * coeff
        a = _trim(a)
        if not a:
            break
    return _trim(q), _trim(a)


def _derivative(c: Coeffs) -> Coeffs:
    return _trim([c[i] * i for i in range(1, len(c))])


def _gcd_poly(a: Coeffs, b: Coeffs) -> Coeffs:
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [x / lead for x in a]
    return a


def count_distinct_real_roots(c: Coeffs) -> int:
    """Number of distinct real roots, via Sturm's theorem on (-inf, inf)."""
    c = _trim(list(c))
    if len(c) <= 1:
        return 0
    square_free, _ = _poly_divmod(c, _gcd_poly(c, _derivative(c)))
    chain = [square_free, _derivative(square_free)]
    while chain[-1]:
        _, r = _poly_divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-x for x in r])

    def variations(at_plus_infinity: bool) -> int:
        signs = []
        for poly in chain:
            if not poly:
                continue
            lead = poly[-1]
            degree = len(poly) - 1
            s = 1 if lead > 0 else -1
            if not at_plus_infinity and degree % 2 == 1:
                s = -s
            signs.append(s)
        return sum(1 for x, y in zip(signs, signs[1:]) if x != y)

    return variations(False) - variations(True)
