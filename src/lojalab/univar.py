"""Exact univariate helpers: rational roots, real-root counting, and the
common real zeros of two binary forms.

Coefficient lists are ascending (index = power) with ``Fraction`` entries.
Rational roots are found by the rational root test after clearing
denominators; the number of distinct real roots comes from a Sturm chain on
the squarefree part, so irrational roots can be detected (and reported as
unanalyzed) without approximating them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, count
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
# Differences multiplied together before each gcd in Pollard's rho.
_RHO_BATCH = 128


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


def _rho_factor(n: int) -> int:
    """A proper factor of the composite ``n``: Brent's variant of Pollard's
    rho on ``x^2 + c`` from 2, with ``c = 1, 2, ...`` until one splits ``n``.

    The products of ``_RHO_BATCH`` differences share one gcd; when a batch
    takes in all of ``n``, its steps are retried one gcd at a time.
    """
    for c in count(1):
        y, power, product, factor = 2, 1, 1, 1
        while factor == 1:
            x = y
            for _ in range(power):
                y = (y * y + c) % n
            done = 0
            while done < power and factor == 1:
                saved = y
                for _ in range(min(_RHO_BATCH, power - done)):
                    y = (y * y + c) % n
                    product = product * abs(x - y) % n
                factor = gcd(product, n)
                done += _RHO_BATCH
            power *= 2
        if factor == n:
            factor = 1
            while factor == 1:
                saved = (saved * saved + c) % n
                factor = gcd(abs(x - saved), n)
        if factor != n:
            return factor


def _search_limit(n: int) -> int:
    """Largest trial divisor still needed for the cofactor ``n``: 1 for a
    proven prime, and at most ``_MR_MIN_ROOT`` for a composite below
    ``_MR_LIMIT``, which Pollard's rho splits past that."""
    root = isqrt(n)
    if root < _MR_MIN_ROOT:
        return root
    if _proven_prime(n):
        return 1
    return root if n >= _MR_LIMIT else _MR_MIN_ROOT


def _factorization(n: int) -> dict[int, int]:
    """The exponent of each prime factor of ``n >= 1``.

    Trial division divides out each prime as it is found, so it stops at the
    square root of the remaining cofactor rather than of ``n``, and at once
    when that cofactor is a proven prime.  A composite cofactor below
    ``_MR_LIMIT`` with no factor up to ``_MR_MIN_ROOT`` is split by Pollard's
    rho and both parts factored again.  A cofactor at or above ``_MR_LIMIT``
    cannot be proven prime, so it is still searched up to its square root.
    """
    factors: dict[int, int] = {}
    limit = _search_limit(n)
    for prime in chain((2,), range(3, limit + 1, 2)):
        if prime > limit:
            break
        if n % prime:
            continue
        factors[prime] = 0
        while n % prime == 0:
            n //= prime
            factors[prime] += 1
        limit = _search_limit(n)
    if limit < _MR_MIN_ROOT or n >= _MR_LIMIT:
        if n > 1:
            factors[n] = 1
        return factors
    factor = _rho_factor(n)
    for part in (factor, n // factor):
        for prime, exponent in _factorization(part).items():
            factors[prime] = factors.get(prime, 0) + exponent
    return factors


def _divisors(n: int) -> list[int]:
    """Positive divisors of ``n`` in ascending order, none for 0."""
    n = abs(n)
    if n == 0:
        return []
    divisors = [1]
    for prime, exponent in _factorization(n).items():
        layer = divisors
        for _ in range(exponent):
            layer = [d * prime for d in layer]
            divisors = divisors + layer
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


def forms_share_real_zero(a: Coeffs, b: Coeffs) -> bool:
    """Do two binary forms vanish together somewhere on the unit circle?

    A form of degree ``n`` is its ``n + 1`` coefficients, ``a[i]`` that of
    ``x^i y^(n-i)``.  A common zero with ``y = 0`` is ``(1, 0)``, where each
    form is its ``x^n`` coefficient; one with ``y != 0`` scales to ``(t, 1)``,
    a real root of the gcd of ``a(t, 1)`` and ``b(t, 1)``.
    """
    if a[-1] == 0 and b[-1] == 0:
        return True
    return count_distinct_real_roots(_gcd_poly(a, b)) > 0
