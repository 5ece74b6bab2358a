"""Independent reference implementations the tests compare the package against.

None of these is on a command's or a library entry point's path: each
recomputes by a second route what the package computes by its own, in exact
rational arithmetic or by a classical fixed-step method.
"""

from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from lojalab.estimate import VALUE_DISCARD
from lojalab.poly import Function, Polynomial, Substitution
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


def shift(p: Polynomial, assignments: Mapping[str, Fraction | int]) -> Polynomial:
    """Substitute constants for a subset of variables, dropping them."""
    return Substitution({v: Polynomial.constant(c) for v, c in assignments.items()}).apply(p)


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
