"""Normal-crossing detection, exponent formulas, and the constructive
gradient inequality.

A polynomial has simple normal crossings at the origin when it factors as
``x1^n1 * ... * xd^nd * f0`` with ``f0(0) != 0``.  For such functions the
gradient inequality ``||grad f|| >= C0 * |f|^theta`` holds near 0 with

    theta = 1 - 1/N,          N = n1 + ... + nd,

and an explicit constant built from bounds ``m <= |f0| <= M`` on a small ball:
``C0 = m * sqrt(N/n) / (2 * M^theta)`` when at least two exponents are
active, and ``C0 = m / (2 * M^theta)`` when exactly one is.  The radius, ``m``
and ``M`` are certified by exact rational majorants of ``f0`` on the box
that contains the ball, so that the shrinking condition
``|x_j * df0/dx_j| <= (n_j / 2) * |f0|`` holds throughout; a sampled check
of the inequality is the independent test of the constant.

The elementary engine behind the multi-variable case is the generalized
Young inequality ``(prod a_j)^r <= r * sum a_j^{p_j} / p_j`` for positive
``a_j, p_j`` with ``sum 1/p_j = 1/r``; the tests check it, and the induced
monomial inequality, in exact arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .poly import Polynomial
from .reports import InequalityCheckReport, rational_str, sampled_check
from .sampling import _row_norms, ball_points

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


@dataclass(frozen=True)
class ExponentReport:
    """Exponent data and (optionally) the constructive constants.

    ``theta`` is exact; ``active_count`` is the number of positive monomial
    exponents and ``max_active_exponent`` their maximum.  The numeric fields
    are populated by :func:`compute_constants`: ``ball_radius`` is the final
    halved radius, ``unit_min``/``unit_max`` certified lower and upper bounds
    of the residual's absolute value on that ball, and ``gradient_constant``
    the resulting lower bound for ``||grad p|| / |p|^theta``.
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


def snc_bound(mf: MonomialFactorization) -> Fraction | None:
    """The exponent bound ``1 - 1/N`` at an snc point, ``N`` the monomial
    degree; ``None`` when the origin is not snc or not critical (``N < 2``:
    a unit or a simple zero)."""
    n = sum(mf.exponents)
    if not mf.snc_at_origin or n < 2:
        return None
    return Fraction(n - 1, n)


def exponent_from_snc(mf: MonomialFactorization) -> ExponentReport:
    """Exponent ``1 - 1/N`` and the optimal-case classification.

    Requires a critical origin: at least two active exponents, or a single
    active exponent that is at least two.
    """
    if not mf.snc_at_origin:
        raise SncError("residual vanishes at the origin; resolve first")
    theta = snc_bound(mf)
    if theta is None:
        if not any(mf.exponents):
            raise SncError("no monomial factor: the origin is not a zero")
        raise SncError("single exponent 1: origin is not a critical point")
    active = [n for n in mf.exponents if n >= 1]
    c = len(active)
    n_max = max(active)
    optimal = (c == 2 and sorted(active) == [1, 1]) or (c == 1 and n_max == 2)
    return ExponentReport(
        theta=theta,
        total_degree=sum(active),
        active_count=c,
        max_active_exponent=n_max,
        optimal=optimal,
    )


def _float_below(x: Fraction) -> float:
    f = float(x)
    return math.nextafter(f, -math.inf) if f > x else f


def _float_above(x: Fraction) -> float:
    f = float(x)
    return math.nextafter(f, math.inf) if f < x else f


def compute_constants(
    mf: MonomialFactorization,
    sigma: float = DEFAULT_SIGMA,
    *,
    samples: int | None = None,
) -> ExponentReport:
    """Certified constants for the gradient inequality on a ball.

    Exact on the box ``|x_i| <= r``, which contains the ball: with
    ``c0 = |f0(0)|``, ``S(r) = sum_{e != 0} |c_e| r^|e|`` bounds
    ``|f0 - f0(0)|`` and ``T_j(r) = sum e_j |c_e| r^|e|`` bounds
    ``|x_j * df0/dx_j|``.  ``r`` halves from ``sigma`` (at most
    ``MAX_SIGMA_HALVINGS`` times) until ``S(r) < c0`` and
    ``T_j(r) <= (n_j/2) * (c0 - S(r))`` for every active j; then
    ``m = c0 - S(r)`` rounded down and ``M = c0 + S(r)`` rounded up.
    ``samples`` is ignored (nothing is sampled); it is kept for existing
    callers.
    """
    report = exponent_from_snc(mf)
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    c0 = abs(mf.residual.constant_term())
    terms = [(e, abs(c)) for e, c in mf.residual.terms.items() if any(e)]
    active = [(j, Fraction(n_j, 2)) for j, n_j in enumerate(mf.exponents) if n_j >= 1]
    radius = Fraction(sigma)
    for _ in range(MAX_SIGMA_HALVINGS + 1):
        weighted = [(e, c * radius ** sum(e)) for e, c in terms]
        spread = sum(w for _, w in weighted)
        if spread < c0 and all(
            sum(e[j] * w for e, w in weighted) <= half_n * (c0 - spread)
            for j, half_n in active
        ):
            break
        radius /= 2
    else:
        raise SncError(
            "ball radius underflow: shrinking condition keeps failing "
            "(degenerate residual near the origin)"
        )
    unit_min = _float_below(c0 - spread)
    unit_max = _float_above(c0 + spread)
    theta = float(report.theta)
    if report.active_count == 1:
        constant = unit_min / (2.0 * unit_max**theta)
    else:
        ratio = report.total_degree / report.max_active_exponent
        constant = unit_min * math.sqrt(ratio) / (2.0 * unit_max**theta)
    return replace(
        report,
        ball_radius=float(radius),
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
        _row_norms(p.gradient_numeric()(points)),
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
