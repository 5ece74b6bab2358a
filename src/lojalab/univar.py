"""Exact univariate helpers: rational roots, real-root counting, and the
common real zeros of two binary forms.

Coefficient lists are ascending (index = power) with ``Fraction`` entries.
One Sturm chain of the squarefree part counts the distinct real roots and
isolates each; bisection below the width ``1/(2L^2)``, ``L`` the leading
coefficient, and rounding then find the rational ones (Collins and Loos,
"Real zeros of polynomials", in *Computer Algebra*, Springer 1983).  The
irrational roots are counted without approximating them, and no
coefficient is factored.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Coeffs = list[Fraction]


def _trim(c: Coeffs) -> Coeffs:
    while c and c[-1] == 0:
        c.pop()
    return c


def _derivative(c: list[int]) -> list[int]:
    return _trim([c[i] * i for i in range(1, len(c))])


def _integer_multiple(c: Coeffs) -> list[int]:
    """The coprime integers that are a positive multiple of ``c``."""
    c = _trim(list(c))
    scale = lcm(*(x.denominator for x in c))
    return _primitive([x.numerator * (scale // x.denominator) for x in c])


def _primitive(c: list[int]) -> list[int]:
    """``c`` divided by the positive gcd of its entries; ``c`` is nonzero."""
    content = gcd(*c)
    return [x // content for x in c]


def _pseudo_divide(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of ``|lc b|^(deg a - deg b + 1) * a`` by ``b``:
    positive multiples of those of ``a`` by ``b``, on integers."""
    lead = b[-1]
    scale = abs(lead)
    q = [0] * max(0, len(a) - len(b) + 1)
    for shift in range(len(a) - len(b), -1, -1):
        # a <- |lc b| a - t x^shift b and q <- |lc b| q + t x^shift, with
        # t = lc a * sign(lc b), so the top of a vanishes.
        top = a[-1] if lead > 0 else -a[-1]
        q = [x * scale for x in q]
        q[shift] = top
        a = [x * scale for x in a[:-1]]
        for i, coeff in enumerate(b[:-1]):
            a[i + shift] -= top * coeff
    return q, _trim(a)


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """The gcd of two trimmed integer polynomials, primitive with a positive
    leading entry, by a primitive pseudo-remainder sequence; ``[]`` when both
    vanish."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _pseudo_divide(a, b)[1]
        if b:
            b = _primitive(b)
    if not a:
        return a
    a = _primitive(a)
    return a if a[-1] > 0 else [-x for x in a]


def _sign_at(p: list[int], n: int, m: int) -> int:
    """The sign of ``m^k p(n/m)``, by Horner on integers: that of ``p`` at
    ``n/m`` for ``m > 0``, and at ``+-infinity`` for ``n = +-1, m = 0``."""
    acc, scale = 0, 1
    for a in reversed(p):
        acc = acc * n + a * scale
        scale *= m
    return (acc > 0) - (acc < 0)


def _variations(chain: list[list[int]], n: int, m: int) -> int:
    """Sign changes along the chain at ``n/m``, zeros skipped."""
    signs = [sign > 0 for sign in (_sign_at(p, n, m) for p in chain) if sign]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _sturm(c: Coeffs) -> tuple[list[list[int]], int]:
    """The Sturm chain of the squarefree part of ``c``, each member scaled to
    coprime integers, and the number of distinct real roots of ``c``.

    The chain stays on integers: each member is the primitive part of the
    negated pseudo-remainder of the two before it.  Every step scales by a
    positive factor, so each member is a positive multiple of the member of
    the chain taken over the rationals, ``[s, s', -rem(s, s'), ...]``."""
    c = _trim(list(c))
    if len(c) <= 1:
        return [], 0
    c = _integer_multiple(c)
    square_free = _primitive(_pseudo_divide(c, _gcd(c, _derivative(c)))[0])
    chain = [square_free, _primitive(_derivative(square_free))]
    while True:
        _, r = _pseudo_divide(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_primitive([-x for x in r]))
    return chain, _variations(chain, -1, 0) - _variations(chain, 1, 0)


def rational_roots(c: Coeffs) -> tuple[list[Fraction], int]:
    """The distinct rational roots of ``c``, exactly, and the number of its
    distinct real roots that are irrational.

    With ``s`` the squarefree part in coprime integers and ``L`` the size of
    its leading coefficient, the Sturm chain splits the Cauchy interval until
    each half-open ``(lo, hi]`` holds one root; ``V(lo) - V(hi)`` counts the
    roots there even when an endpoint is one.  A rational root of ``s`` has a
    denominator dividing ``L``, so two of them lie at least ``1/L^2`` apart.
    Bisecting on the sign of ``s`` below the width ``1/(2L^2)`` therefore
    leaves the root within ``1/(4L^2)`` of the midpoint and every other
    fraction with denominator at most ``L`` farther off: the midpoint's
    ``limit_denominator(L)`` is the one candidate, and an exact sign test
    decides it.  The roots are ordered as the rational root test lists its
    candidates ``+-p/q``: by ``p``, then ``q``, then the sign.
    """
    chain, count = _sturm(c)
    if not count:
        return [], 0
    s = chain[0]
    lead = abs(s[-1])
    # Points are n / 2^k.  The bound is a power of two above the Cauchy bound
    # 1 + max|s_i| / L, and (lo, hi, k) is the interval (lo / 2^k, hi / 2^k].
    bound = 1 << (max(map(abs, s)) // lead + 1).bit_length()
    pending = [(-bound, bound, 0, _variations(chain, -1, 0), _variations(chain, 1, 0))]
    found = []
    while pending:
        lo, hi, k, v_lo, v_hi = pending.pop()
        if v_lo - v_hi > 1:
            mid, k = lo + hi, k + 1
            v_mid = _variations(chain, mid, 1 << k)
            pending += [(2 * lo, mid, k, v_lo, v_mid), (mid, 2 * hi, k, v_mid, v_hi)]
        elif v_lo - v_hi == 1:
            # The root is the only zero of s in (lo, hi], so s has the sign
            # of s(hi) right of it and the opposite sign left of it; a
            # midpoint that is the root becomes hi.
            high = _sign_at(s, hi, 1 << k)
            while (hi - lo) * 2 * lead * lead >= 1 << k:
                lo, mid, hi, k = 2 * lo, lo + hi, 2 * hi, k + 1
                sign = _sign_at(s, mid, 1 << k)
                if sign in (0, high):
                    hi, high = mid, sign
                else:
                    lo = mid
            root = Fraction(lo + hi, 2 << k).limit_denominator(lead)
            n, m = root.numerator, root.denominator
            if lo * m < n << k <= hi * m and not _sign_at(s, n, m):
                found.append(root)
    found.sort(key=lambda r: (abs(r.numerator), r.denominator, r < 0))
    return found, count - len(found)


def forms_share_real_zero(a: Coeffs, b: Coeffs) -> bool:
    """Do two binary forms vanish together somewhere on the unit circle?

    A form of degree ``n`` is its ``n + 1`` coefficients, ``a[i]`` that of
    ``x^i y^(n-i)``.  A common zero with ``y = 0`` is ``(1, 0)``, where each
    form is its ``x^n`` coefficient; one with ``y != 0`` scales to ``(t, 1)``,
    a real root of the gcd of ``a(t, 1)`` and ``b(t, 1)``.
    """
    if a[-1] == 0 and b[-1] == 0:
        return True
    return _sturm(_gcd(_integer_multiple(a), _integer_multiple(b)))[1] > 0
