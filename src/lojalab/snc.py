"""Normal-crossing detection, exponent formulas, and the constructive
gradient inequality.

A polynomial has simple normal crossings at the origin when it factors as
``x1^n1 * ... * xd^nd * f0`` with ``f0(0) != 0``.  For such functions the
gradient inequality ``||grad f|| >= C0 * |f|^theta`` holds near 0 with

    theta = 1 - 1/N,          N = n1 + ... + nd,

and an explicit constant built from the extrema of ``|f0|`` on a small ball:
``C0 = m * sqrt(N/n) / (2 * M^theta)`` when at least two exponents are
active, and ``C0 = m / (2 * M^theta)`` when exactly one is.  The ball radius
is found constructively by halving until the pointwise shrinking condition
``|x_j * df0/dx_j| <= (n_j / 2) * |f0|`` holds at every sample.

The elementary engine behind the multi-variable case is the generalized
Young inequality ``(prod a_j)^r <= r * sum a_j^{p_j} / p_j`` for positive
``a_j, p_j`` with ``sum 1/p_j = 1/r``; exact-arithmetic checkers for it and
for the induced monomial inequality live here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .poly import Polynomial
from .reports import InequalityCheckReport, rational_str, sampled_check
from .sampling import ball_points

DEFAULT_SIGMA = 0.5
MAX_SIGMA_HALVINGS = 40


class SncError(ValueError):
    """Input violates a normal-crossing precondition."""


@dataclass(frozen=True)
class MonomialFactorization:
    """Exact factorization ``p = x^exponents * residual``.

    ``snc_at_origin`` is true exactly when the residual does not vanish at
    the origin, i.e. the factorization witnesses simple normal crossings.
    """

    exponents: tuple[int, ...]
    residual: Polynomial
    snc_at_origin: bool

    @property
    def variables(self) -> tuple[str, ...]:
        return self.residual.variables


@dataclass(frozen=True)
class ExponentReport:
    """Exponent data and (optionally) the constructive constants.

    ``theta`` is exact; ``active_count`` is the number of positive monomial
    exponents and ``max_active_exponent`` their maximum.  The numeric fields
    are populated by :func:`compute_constants`: ``ball_radius`` is the final
    halved radius, ``unit_min``/``unit_max`` the sampled extrema of the
    residual's absolute value, and ``gradient_constant`` the resulting lower
    bound for ``||grad p|| / |p|^theta``.
    """

    theta: Fraction
    total_degree: int
    active_count: int
    max_active_exponent: int
    optimal: bool
    ball_radius: float | None = None
    unit_min: float | None = None
    unit_max: float | None = None
    gradient_constant: float | None = None

    def to_json(self) -> dict:
        return {
            "theta": rational_str(self.theta),
            "N": self.total_degree,
            "c": self.active_count,
            "n": self.max_active_exponent,
            "optimal": self.optimal,
            "sigma": self.ball_radius,
            "m": self.unit_min,
            "M": self.unit_max,
            "C0": self.gradient_constant,
        }


def detect_snc(p: Polynomial) -> MonomialFactorization:
    """Factor out the maximal monomial and test the residual at the origin."""
    if p.is_zero:
        raise SncError("zero polynomial has no normal-crossing factorization")
    exponents, residual = p.monomial_content()
    return MonomialFactorization(
        exponents=exponents,
        residual=residual,
        snc_at_origin=residual.constant_term() != 0,
    )


def exponent_from_snc(mf: MonomialFactorization) -> ExponentReport:
    """Exponent ``1 - 1/N`` and the optimal-case classification.

    Requires a critical origin: at least two active exponents, or a single
    active exponent that is at least two.
    """
    if not mf.snc_at_origin:
        raise SncError("residual vanishes at the origin; resolve first")
    active = [n for n in mf.exponents if n >= 1]
    c = len(active)
    if c == 0:
        raise SncError("no monomial factor: the origin is not a zero")
    n_max = max(active)
    if c == 1 and n_max == 1:
        raise SncError("single exponent 1: origin is not a critical point")
    total = sum(active)
    theta = Fraction(total - 1, total)
    optimal = (c == 2 and sorted(active) == [1, 1]) or (c == 1 and n_max == 2)
    return ExponentReport(
        theta=theta,
        total_degree=total,
        active_count=c,
        max_active_exponent=n_max,
        optimal=optimal,
    )


def _shrink_condition_holds(
    points: np.ndarray, residual_abs: np.ndarray, partials: list
) -> bool:
    """Check ``|x_j * F_xj| <= (n_j/2) * |F|`` at every point, active j.

    ``residual_abs`` is ``|F|`` at the points and ``partials`` holds
    ``(j, n_j/2, evaluator of F_xj)`` for each active exponent.
    """
    for j, half_n, partial in partials:
        lhs = np.abs(points[:, j] * partial(points))
        if np.any(lhs > half_n * residual_abs + 1e-15):
            return False
    return True


def compute_constants(
    mf: MonomialFactorization,
    sigma: float = DEFAULT_SIGMA,
    samples: int = 10_000,
    seed: int = 0,
) -> ExponentReport:
    """Constructive constants for the gradient inequality on a ball.

    Halves ``sigma`` (at most 40 times) until the shrinking condition holds
    at every sample of the closed ball, then takes ``m = min |f0|`` and
    ``M = max |f0|`` over the samples of that last check and assembles the
    constant for the one-active-exponent or multi-exponent branch
    accordingly.  The residual and its active partials are compiled once.
    """
    report = exponent_from_snc(mf)
    dim = len(mf.variables)
    radius = float(sigma)
    if radius <= 0:
        raise ValueError("sigma must be positive")
    residual = mf.residual.numeric()
    partials = [
        (j, 0.5 * n_j, mf.residual.derivative(v).numeric())
        for j, (v, n_j) in enumerate(zip(mf.variables, mf.exponents))
        if n_j >= 1
    ]
    for _ in range(MAX_SIGMA_HALVINGS + 1):
        points = ball_points(dim, samples, radius, seed=seed)
        residual_abs = np.abs(residual(points))
        if _shrink_condition_holds(points, residual_abs, partials):
            break
        radius *= 0.5
    else:
        raise SncError(
            "ball radius underflow: shrinking condition keeps failing "
            "(degenerate residual near the origin)"
        )
    unit_min = float(residual_abs.min())
    unit_max = float(residual_abs.max())
    if unit_min <= 0.0:
        raise SncError("residual vanishes inside the sampled ball")
    theta = float(report.theta)
    if report.active_count == 1:
        constant = unit_min / (2.0 * unit_max**theta)
    else:
        ratio = report.total_degree / report.max_active_exponent
        constant = unit_min * math.sqrt(ratio) / (2.0 * unit_max**theta)
    return replace(
        report,
        ball_radius=radius,
        unit_min=unit_min,
        unit_max=unit_max,
        gradient_constant=constant,
    )


def verify_gradient_inequality(
    p: Polynomial,
    report: ExponentReport,
    samples: int = 10_000,
    seed: int = 0,
) -> InequalityCheckReport:
    """Sampled check of ``||grad p|| >= C0 * |p|^theta`` on the report's ball.

    A failing check is a result, not an error: the report records the
    measured minimum ratio and whether it clears the report's constant.
    """
    if report.ball_radius is None or report.gradient_constant is None:
        raise ValueError("report lacks constants; run compute_constants first")
    points = ball_points(len(p.variables), samples, report.ball_radius, seed=seed)
    return sampled_check(
        "gradient",
        report.theta,
        np.linalg.norm(p.gradient_numeric()(points), axis=1),
        np.abs(p.numeric()(points)),
        float(report.theta),
        (report.ball_radius, report.ball_radius),
        predicted=report.gradient_constant,
    )


def analyze_report_json(
    report: ExponentReport, check: InequalityCheckReport
) -> dict:
    payload = report.to_json()
    payload["min_ratio"] = check.measured_constant
    payload["pass"] = check.passed
    return payload


# ----------------------------------------------------------------------
# elementary inequalities (exact checkers)
# ----------------------------------------------------------------------


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
