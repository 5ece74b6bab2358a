"""Empirical exponent estimation by log-log envelope sampling.

Near a critical point with critical value zero, any admissible exponent
``theta`` in ``||grad E|| >= C |E|^theta`` dominates the pointwise ratio
``log||grad E|| / log|E|`` up to an O(1/log r) constant correction, and the
smallest admissible exponent is the limit of the per-radius extremes of that
ratio.  The estimator samples deterministic axis-inclusive direction meshes
on shrinking spheres, records the per-radius extreme ratio, and fits the
small-radius quartile.  A fit at or above 0.98 flags failure of the
inequality (the analytic dividing line is theta < 1): the smooth-but-flat
counterexamples drift to 1 while polynomial inputs stay at ``1 - 1/N``.

Counterexample built-ins expose exact log-value and log-gradient callables;
without them, double-precision underflow would cap the observable ratio
strictly below the 0.98 threshold.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .poly import Function, Polynomial
from .sampling import geometric_radii, sphere_directions

FAILURE_SLOPE = 0.98
VALUE_DISCARD = 1e-300
# Samples with |E| above this are outside the asymptotic regime and skipped.
VALUE_CEILING = 0.5


class EstimateError(ValueError):
    pass


@dataclass
class ExponentEstimate:
    theta_hat: float
    band: tuple[float, float]
    radii: list[float]
    per_radius_ratio: list[float | None]
    envelope_points: list[tuple[float, float] | None]  # (log|E|, log||grad||)
    failure_detected: bool
    kept_counts: list[int]
    value_monotone_in_radius: bool
    name: str

    def to_json(self) -> dict:
        return {
            "theta_hat": self.theta_hat,
            "band": list(self.band),
            "radii": self.radii,
            "envelope": [list(t) if t else None for t in self.envelope_points],
            "per_radius_ratio": self.per_radius_ratio,
            "failure_detected": self.failure_detected,
            "kept_counts": self.kept_counts,
            "value_monotone_in_radius": self.value_monotone_in_radius,
            "input": self.name,
        }

    def write_envelope_csv(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["radius", "min_ratio"])
            for r, ratio in zip(self.radii, self.per_radius_ratio):
                writer.writerow([repr(float(r)), "" if ratio is None else repr(float(ratio))])


def estimate_theta(
    E: Polynomial | Function,
    x_star: Sequence[float],
    radii: tuple[float, float, int] = (1e-6, 1e-1, 26),
    samples_per_radius: int = 400,
) -> ExponentEstimate:
    """Estimate the gradient-inequality exponent of ``E`` at ``x_star``.

    ``radii`` is ``(r_min, r_max, count)`` for a geometric radius grid.  The
    fit is the median per-radius extreme ratio over the smallest quartile of
    radii that kept any samples; the band widens the quartile spread by the
    O(1/log r) resolution of the statistic.  ``x_star`` must be critical.
    """
    r_min, r_max, count = radii
    radius_grid = geometric_radii(r_min, r_max, count)  # descending
    x_star = np.asarray(x_star, dtype=float)
    fn = Function.of(E)
    if x_star.shape != (fn.dimension,):
        raise EstimateError(
            f"point has shape {x_star.shape}, expected ({fn.dimension},)"
        )
    if not np.isfinite(x_star).all():
        raise EstimateError(f"x_star {x_star} is not finite")
    grad_norm_at_star = float(np.linalg.norm(fn.gradient(x_star[None, :])[0]))
    if grad_norm_at_star > 1e-12:
        raise EstimateError(
            f"x_star is not critical: ||grad|| = {grad_norm_at_star:.3e}"
        )
    value_at_star = fn.value(x_star[None, :])[0]

    def log_abs_value(points: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(np.abs(fn.value(points) - value_at_star))

    def log_gradient_norm(points: np.ndarray) -> np.ndarray:
        grads = np.linalg.norm(fn.gradient(points), axis=1)
        return np.log(np.maximum(grads, VALUE_DISCARD))

    log_value = fn.log_abs_value or log_abs_value
    log_gradient = fn.log_gradient_norm or log_gradient_norm
    directions = sphere_directions(fn.dimension, samples_per_radius)
    per_radius: list[float | None] = []
    envelope: list[tuple[float, float] | None] = []
    kept_counts: list[int] = []
    mean_log_values: list[float] = []
    for r in radius_grid:
        points = x_star[None, :] + r * directions
        log_vals, log_grads = log_value(points), log_gradient(points)
        keep = (
            np.isfinite(log_vals)
            & np.isfinite(log_grads)
            & (log_vals < math.log(VALUE_CEILING))
        )
        kept_counts.append(int(keep.sum()))
        if not np.any(keep):
            per_radius.append(None)
            envelope.append(None)
            mean_log_values.append(math.nan)
            continue
        ratios = log_grads[keep] / log_vals[keep]
        best = int(np.argmax(ratios))
        per_radius.append(float(ratios[best]))
        envelope.append(
            (float(log_vals[keep][best]), float(log_grads[keep][best]))
        )
        mean_log_values.append(float(log_vals[keep].mean()))

    with_data = [
        (float(r), ratio)
        for r, ratio in zip(radius_grid, per_radius)
        if ratio is not None
    ]
    if not with_data:
        raise EstimateError(
            "all samples discarded at every radius; function is flat at x_star"
        )
    quartile_len = max(1, math.ceil(len(with_data) / 4))
    tail = with_data[-quartile_len:]  # smallest radii with data
    tail_ratios = sorted(ratio for _, ratio in tail)
    theta_hat = float(np.median(tail_ratios))
    smallest_radius = tail[-1][0]
    resolution = 1.0 / abs(math.log(smallest_radius))
    band = (tail_ratios[0] - resolution, tail_ratios[-1] + resolution)

    finite_means = [
        (float(r), m)
        for r, m in zip(radius_grid, mean_log_values)
        if not math.isnan(m)
    ]
    inversions = sum(
        1
        for (r1, m1), (r2, m2) in zip(finite_means, finite_means[1:])
        if m2 > m1  # radius shrinks along the grid; mean log|E| should too
    )
    monotone = inversions <= len(finite_means) // 10

    return ExponentEstimate(
        theta_hat=theta_hat,
        band=band,
        radii=[float(r) for r in radius_grid],
        per_radius_ratio=per_radius,
        envelope_points=envelope,
        failure_detected=theta_hat >= FAILURE_SLOPE,
        kept_counts=kept_counts,
        value_monotone_in_radius=monotone,
        name=fn.name,
    )


@dataclass
class ConsistencyVerdict:
    consistent: bool
    slack_upper: float
    slack_lower: float

    def to_json(self) -> dict:
        return {
            "consistent": self.consistent,
            "slack_upper": self.slack_upper,
            "slack_lower": self.slack_lower,
        }


def compare_with_resolution_bound(
    estimate: ExponentEstimate, bound: tuple[Fraction, Fraction]
) -> ConsistencyVerdict:
    """Is the estimate band compatible with an exponent interval?

    Consistent when the band reaches below the interval's upper bound and
    above the universal floor 1/2.
    """
    low, high = estimate.band
    upper = float(bound[1])
    slack_upper = upper - low
    slack_lower = high - 0.5
    return ConsistencyVerdict(
        consistent=(slack_upper >= -1e-9) and (slack_lower >= -1e-9),
        slack_upper=slack_upper,
        slack_lower=slack_lower,
    )


# ----------------------------------------------------------------------
# built-in smooth counterexamples (non-analytic; inequality fails at 0)
# ----------------------------------------------------------------------


def _haraux_value(x: np.ndarray) -> float:
    a, b = float(x[0]), float(x[1])
    if a == 0.0:
        return 0.0
    r2 = a * a + b * b
    u = r2 / (a * a)
    return r2 * math.exp(-u) if u < 700.0 else 0.0


def _haraux_gradient(x: np.ndarray) -> np.ndarray:
    a, b = float(x[0]), float(x[1])
    if a == 0.0:
        return np.zeros(2)
    r2 = a * a + b * b
    u = r2 / (a * a)
    damp = math.exp(-u) if u < 700.0 else 0.0
    ga = 2.0 * damp * (a + r2 * b * b / a**3)
    gb = 2.0 * b * damp * (1.0 - u)
    return np.array([ga, gb])


def _haraux_log_value(x: np.ndarray) -> float:
    a, b = float(x[0]), float(x[1])
    if a == 0.0:
        return -math.inf
    r2 = a * a + b * b
    return math.log(r2) - r2 / (a * a)


def _haraux_log_gradient(x: np.ndarray) -> float:
    a, b = float(x[0]), float(x[1])
    if a == 0.0:
        return -math.inf
    r2 = a * a + b * b
    u = r2 / (a * a)
    inner = math.hypot(a + r2 * b * b / a**3, b * (1.0 - u))
    if inner == 0.0:
        return -math.inf
    return math.log(2.0) + math.log(inner) - u


def _delellis_value(x: np.ndarray) -> float:
    a = abs(float(x[0]))
    if a == 0.0:
        return 0.0
    return math.exp(-1.0 / a) if a > 1.0 / 700.0 else 0.0


def _delellis_gradient(x: np.ndarray) -> np.ndarray:
    a = float(x[0])
    if a == 0.0:
        return np.zeros(1)
    mag = abs(a)
    damp = math.exp(-1.0 / mag) if mag > 1.0 / 700.0 else 0.0
    return np.array([math.copysign(damp / (mag * mag), a)])


def _delellis_log_value(x: np.ndarray) -> float:
    a = abs(float(x[0]))
    return -1.0 / a if a else -math.inf


def _delellis_log_gradient(x: np.ndarray) -> float:
    a = abs(float(x[0]))
    if a == 0.0:
        return -math.inf
    return -1.0 / a - 2.0 * math.log(a)


def _by_rows(formula: Callable[[np.ndarray], object]) -> Callable[[np.ndarray], np.ndarray]:
    """Batch a one-point formula over the rows of an (m, d) array."""
    return lambda points: np.array([formula(x) for x in points], dtype=float)


BUILTIN_FUNCTIONS: dict[str, Callable[[], Function]] = {
    "haraux": lambda: Function(
        dimension=2,
        value=_by_rows(_haraux_value),
        gradient=_by_rows(_haraux_gradient),
        log_abs_value=_by_rows(_haraux_log_value),
        log_gradient_norm=_by_rows(_haraux_log_gradient),
        name="haraux",
    ),
    "delellis": lambda: Function(
        dimension=1,
        value=_by_rows(_delellis_value),
        gradient=_by_rows(_delellis_gradient),
        log_abs_value=_by_rows(_delellis_log_value),
        log_gradient_norm=_by_rows(_delellis_log_gradient),
        name="delellis",
    ),
}


def builtin_function(name: str) -> Function:
    try:
        return BUILTIN_FUNCTIONS[name]()
    except KeyError:
        raise EstimateError(
            f"unknown builtin {name!r}; available: {sorted(BUILTIN_FUNCTIONS)}"
        ) from None


def haraux_counterexample_check(
    radii: tuple[float, float, int] = (1e-6, 1e-1, 26),
    samples_per_radius: int = 400,
) -> dict:
    """Run the failure detector on both built-ins and a polynomial control."""
    from .poly import parse

    haraux = estimate_theta(
        builtin_function("haraux"), (0.0, 0.0), radii, samples_per_radius
    )
    delellis = estimate_theta(
        builtin_function("delellis"), (0.0,), radii, samples_per_radius
    )
    control = estimate_theta(parse("x^2"), (0.0,), radii, samples_per_radius)
    return {
        "haraux": haraux,
        "delellis": delellis,
        "control": control,
        "pass": haraux.failure_detected
        and delellis.failure_detected
        and not control.failure_detected,
    }
