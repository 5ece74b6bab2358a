"""Independent reference implementations the tests compare the package against.

None of these is on a command's or a library entry point's path: each
recomputes by a second route what the package computes by its own, in exact
rational arithmetic or by a classical fixed-step method.
"""

import math
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from lojalab.blowup import exponent_upper_bound
from lojalab.estimate import VALUE_DISCARD
from lojalab.flow import Trajectory, _resample_grid
from lojalab.poly import Function, Polynomial, Substitution, _MonomialKernel
from lojalab.sampling import sphere_directions


def evaluate_exact(p: Polynomial, point: Sequence[Fraction | int]) -> Fraction:
    """``p`` at a rational point, term by term in exact arithmetic."""
    if len(point) != len(p.variables):
        raise ValueError(f"point has {len(point)} coordinates, expected {len(p.variables)}")
    point = [Fraction(x) for x in point]
    total = Fraction(0)
    for e, c in p.terms.items():
        acc = c
        for x, k in zip(point, e):
            if k:
                acc *= x**k
        total += acc
    return total


def kernel_sums_at_point(kernel: _MonomialKernel) -> Callable[[Sequence[float]], list[float]]:
    """A monomial kernel's group sums at one point, by a loop over its terms.

    Each variable's powers are ``x^k = x^(k-1) * x`` from 1, each term is
    ``acc = acc + m * c`` from ``acc = 0.0`` with ``m`` the left-to-right
    product of its powers from 1.0, skipping the power-table row 0 (the 1).
    """
    tops = kernel.tops
    terms = [
        (tuple(int(rows[k]) for rows in kernel.rows if rows[k]), float(c))
        for k, c in enumerate(kernel.coeffs)
    ]
    groups = [terms[start:stop] for start, stop in zip(kernel.bounds, kernel.bounds[1:])]

    def sums(point: Sequence[float]) -> list[float]:
        powers = [1.0]
        for x, top in zip(point, tops):
            power = 1.0
            for _ in range(top):
                power = power * x
                powers.append(power)
        out = []
        for group in groups:
            acc = 0.0
            for factors, c in group:
                monomial = 1.0
                for row in factors:
                    monomial = monomial * powers[row]
                acc = acc + monomial * c
            out.append(acc)
        return out

    return sums


def shift(p: Polynomial, assignments: Mapping[str, Fraction | int]) -> Polynomial:
    """Substitute constants for a subset of variables, dropping them."""
    return Substitution({v: Polynomial.constant(c) for v, c in assignments.items()}).apply(p)


def vanishes_on(p: Polynomial, subspace: Sequence[int]) -> bool:
    """Is ``p`` identically zero on the coordinate subspace?

    Zeroing the normal coordinates drops exactly the terms with a positive
    exponent in one of them and leaves the others distinct, so ``p``
    vanishes there exactly when every term has such an exponent.
    """
    normal = [i for i in range(len(p.variables)) if i not in set(subspace)]
    return all(any(e[i] for i in normal) for e in p.terms)


def rk4_fixed_step(
    E: Polynomial | Function,
    x0: Sequence[float],
    step: float,
    steps: int,
) -> np.ndarray:
    """Classical fixed-step RK4 endpoint of ``dx/dt = -grad E``.

    The state is a list of Python floats and each stage takes the one-point
    gradient ``g``, so the velocity ``-g`` enters as ``x - h * g``.
    """
    gradient_at = Function.of(E).gradient_at
    x = [float(v) for v in x0]
    half = 0.5 * step
    for _ in range(steps):
        k1 = gradient_at(x)
        k2 = gradient_at([xi - half * ki for xi, ki in zip(x, k1)])
        k3 = gradient_at([xi - half * ki for xi, ki in zip(x, k2)])
        k4 = gradient_at([xi - step * ki for xi, ki in zip(x, k3)])
        x = [
            xi - (step / 6.0) * (a + 2 * b + 2 * c + d)
            for xi, a, b, c, d in zip(x, k1, k2, k3, k4)
        ]
    return np.array(x)


def monomial_ratio_profile(
    p: Polynomial,
    theta: Fraction | float,
    radii: Sequence[float],
    samples_per_radius: int = 400,
) -> list[float]:
    """Per-radius minimum of ``||grad p|| / |p|^theta`` on spheres.

    For a pure monomial with its own exponent this is exactly radius
    independent (the ratio is scale covariant), which makes it a sharp
    estimator sanity check.
    """
    theta = float(theta)
    directions = sphere_directions(len(p.variables), samples_per_radius)
    value_fn = p.numeric()
    grad_fn = p.gradient_numeric()
    out = []
    for r in radii:
        points = r * directions
        values = np.abs(value_fn(points))
        grads = np.linalg.norm(grad_fn(points), axis=1)
        keep = values > VALUE_DISCARD
        out.append(float((grads[keep] / values[keep] ** theta).min()))
    return out


def generalized_young_gap(a: Sequence[float], p: Sequence[float]) -> float:
    """Float slack ``r*sum(a^p/p) - (prod a)^r`` with ``1/r = sum(1/p)``.

    Nonnegative (up to roundoff) for positive inputs.
    """
    if len(a) != len(p) or not a:
        raise ValueError("need matching nonempty weight and value tuples")
    if any(x <= 0 for x in a) or any(x <= 0 for x in p):
        raise ValueError("values and powers must be positive")
    r = 1.0 / sum(1.0 / pj for pj in p)
    lhs = math.prod(a) ** r
    rhs = r * sum(aj**pj / pj for aj, pj in zip(a, p))
    return rhs - lhs


def generalized_young_holds_exact(
    a: Sequence[Fraction], p: Sequence[int]
) -> bool:
    """Exact-arithmetic check of the generalized Young inequality.

    Powers must be positive integers so both sides stay rational after
    clearing the rational exponent: with ``r = u/v`` the inequality is
    equivalent to ``(prod a)^u <= (r*sum(a^p/p))^v``.
    """
    if len(a) != len(p) or not a:
        raise ValueError("need matching nonempty tuples")
    a = [Fraction(x) for x in a]
    p = [int(x) for x in p]
    if any(x <= 0 for x in a) or any(x <= 0 for x in p):
        raise ValueError("values and powers must be positive")
    r = 1 / sum(Fraction(1, pj) for pj in p)
    lhs_base = math.prod(a)
    rhs = r * sum(aj**pj / pj for aj, pj in zip(a, p))
    return lhs_base**r.numerator <= rhs**r.denominator


def monomial_inequality_holds_exact(
    x: Sequence[Fraction], exponents: Sequence[int]
) -> bool:
    """Exact check of ``prod x^(2n) * sum x_j^-2 >= (N/n)*(prod x^(2n))^theta``.

    ``theta = 1 - 1/N`` with ``N`` the exponent total and ``n`` the largest
    exponent; raising both (positive) sides to the ``N``-th power clears the
    fractional exponent.
    """
    x = [Fraction(v) for v in x]
    exponents = [int(n) for n in exponents]
    if len(x) != len(exponents) or not x:
        raise ValueError("need matching nonempty tuples")
    if any(v == 0 for v in x):
        raise ValueError("coordinates must be nonzero")
    if any(n < 1 for n in exponents):
        raise ValueError("exponents must be >= 1")
    total = sum(exponents)
    n_max = max(exponents)
    product = math.prod(v ** (2 * n) for v, n in zip(x, exponents))
    inverse_sum = sum(v**-2 for v in x)
    lhs = product * inverse_sum
    scale = Fraction(total, n_max)
    # lhs >= scale * product^((N-1)/N)  <=>  lhs^N >= scale^N * product^(N-1)
    return lhs**total >= scale**total * product ** (total - 1)


def squared_gradient_gamma(E: Polynomial) -> tuple[Fraction, str] | None:
    """``gamma`` by squaring, with its provenance: ``1/(4(1 - theta))`` from
    the exponent bound ``theta`` of ``G^2``, ``G = ||grad E||^2``.

    ``G^2`` has the exponent ``(1 + theta_G)/2``, so this is the package's
    ``1/(2(1 - theta_G))``, read from a polynomial of twice ``G``'s degrees.
    ``None`` when ``G^2`` has no bound.
    """
    G = Polynomial.zero(E.variables)
    for g in E.gradient():
        G = G + g * g
    bound = exponent_upper_bound(G * G)
    if bound is None:
        return None
    theta, provenance = bound
    return 1 / (4 * (1 - theta)), provenance


def subspace_distance(point: Sequence[float], free: Sequence[int]) -> float:
    """Distance from ``point`` to the coordinate subspace with free coordinates
    ``free``: the root of the squares of the other coordinates, summed from 0
    in index order."""
    total = 0.0
    for i, x in enumerate(point):
        if i not in free:
            total = total + x * x
    return math.sqrt(total)


def subspace_projection(point: Sequence[float], free: Sequence[int]) -> list[float]:
    """``point`` with every coordinate outside ``free`` set to 0."""
    return [float(x) if i in free else 0.0 for i, x in enumerate(point)]


def subspace_embedding(row: Sequence[float], free: Sequence[int], dim: int) -> list[float]:
    """The point of R^dim whose ``free[j]``-th coordinate is ``row[j]``, 0 elsewhere."""
    out = [0.0] * dim
    for j, i in enumerate(free):
        out[i] = float(row[j])
    return out


def dense_resample(traj: Trajectory, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The identity checks' resampling of a trajectory in one piece: their
    grid of ``count`` times and scipy's ``sol(grid)`` there."""
    grid = _resample_grid(traj, count)
    states = traj.dense.sol(grid)
    return grid, states[:-1].T, states[-1]


def dqds_identity_reference(traj: Trajectory, E: Polynomial, count: int) -> float | None:
    """``dqds_identity_error`` on the whole grid at once: separate value and
    gradient evaluators, ``np.linalg.norm`` row norms (d < 8), the same
    three-point difference and gradient floor."""
    fn = Function.of(E)
    _, points, s = dense_resample(traj, count)
    q = fn.value(points)
    g = np.linalg.norm(fn.gradient(points), axis=1)
    h0, h1 = s[1:-1] - s[:-2], s[2:] - s[1:-1]
    ok = (h0 > 0) & (h1 > 0)
    h0, h1 = h0[ok], h1[ok]
    deriv = (
        h0**2 * q[2:][ok] + (h1**2 - h0**2) * q[1:-1][ok] - h1**2 * q[:-2][ok]
    ) / (h0 * h1 * (h0 + h1))
    target = -g[1:-1][ok]
    mask = g[1:-1][ok] > 1e3 * max(1e-300, float(g.min()))
    if not np.any(mask):
        return None
    return float((np.abs(deriv[mask] - target[mask]) / np.abs(target[mask])).max())


def speed_identity_reference(traj: Trajectory, count: int) -> float | None:
    """``speed_identity_error`` on the whole grid at once: the polyline of
    ``np.linalg.norm`` step lengths (d < 8) against the carried arc length."""
    _, points, s = dense_resample(traj, count)
    ds_total = float(s[-1] - s[0])
    if ds_total <= 0:
        return None
    lengths = np.linalg.norm(np.diff(points, axis=0), axis=1)
    return abs(float(lengths.sum()) / ds_total - 1.0)
