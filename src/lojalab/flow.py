"""Negative gradient flow: integration, length bounds, distance inequalities.

The flow ``dx/dt = -grad E`` is integrated with an adaptive embedded
Runge-Kutta 4(5) pair with arc length carried as an extra state variable, so
the trajectory record has exact (to integrator tolerance) cumulative length.
Under a verified gradient inequality with exponent ``theta`` and constant
``C``, the whole trajectory length is bounded by ``E(x0)^(1-theta) /
((1-theta) * C)``; that bound and the induced distance inequalities

    E    >= C1 * dist(x, Crit)^alpha      alpha = 1/(1-theta)
    |E|  >= C2 * dist(x, Zero)^beta       beta  = 1/(2(1-theta')), theta' for E^2
    ||grad E|| >= C3 * dist(x, Crit)^mu   mu    = theta/(1-theta)
    ||grad E|| >= C4 * dist(x, Crit)^gamma  (via the beta route for ||grad E||^2)

are checked by sampling with exact distance oracles.  Supported critical-set
descriptors are finite unions of coordinate subspaces and finite point
lists; anything else is rejected so the distance computation stays exact.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .blowup import exponent_upper_bound
from .poly import Function, Polynomial
from .reports import PREDICTED_SLACK, InequalityCheckReport
from .sampling import ball_points

DEFAULT_GRAD_TOL = 1e-10
DEFAULT_STEP_CONTROL = 1e-9
# Most integrator steps a trajectory keeps, and the gradient floor (a factor
# over the smallest norm) below which dqds_identity_error skips points.
_STORED_SAMPLES = 4000
_GRAD_FLOOR_FACTOR = 1e3


class FlowError(ValueError):
    pass


# ----------------------------------------------------------------------
# critical-set descriptors with exact distances
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CoordinateSubspace:
    """The subspace where every coordinate outside ``free`` vanishes."""

    free: tuple[int, ...]

    def distances(self, points: np.ndarray) -> np.ndarray:
        d = points.shape[1]
        fixed = [i for i in range(d) if i not in set(self.free)]
        if not fixed:
            return np.zeros(points.shape[0])
        return np.linalg.norm(points[:, fixed], axis=1)

    def project(self, x: np.ndarray) -> np.ndarray:
        out = np.array(x, dtype=float)
        for i in range(len(out)):
            if i not in set(self.free):
                out[i] = 0.0
        return out


@dataclass(frozen=True)
class CriticalSet:
    """Finite union of coordinate subspaces and isolated points."""

    subspaces: tuple[CoordinateSubspace, ...] = ()
    points: tuple[tuple[float, ...], ...] = ()

    def __post_init__(self) -> None:
        if not self.subspaces and not self.points:
            raise FlowError("critical-set descriptor is empty")

    @classmethod
    def origin(cls, dim: int) -> CriticalSet:
        return cls(points=((0.0,) * dim,))

    @classmethod
    def subspace(cls, free: Sequence[int]) -> CriticalSet:
        return cls(subspaces=(CoordinateSubspace(tuple(free)),))

    def distances(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        candidates = [s.distances(points) for s in self.subspaces]
        for p in self.points:
            candidates.append(np.linalg.norm(points - np.array(p), axis=1))
        return np.min(np.stack(candidates), axis=0)

    def nearest(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        best, best_dist = None, math.inf
        for s in self.subspaces:
            proj = s.project(x)
            dist = float(np.linalg.norm(x - proj))
            if dist < best_dist:
                best, best_dist = proj, dist
        for p in self.points:
            arr = np.array(p)
            dist = float(np.linalg.norm(x - arr))
            if dist < best_dist:
                best, best_dist = arr, dist
        assert best is not None
        return best


# ----------------------------------------------------------------------
# trajectories
# ----------------------------------------------------------------------


@dataclass
class Trajectory:
    times: np.ndarray
    points: np.ndarray  # (m, d)
    energies: np.ndarray
    grad_norms: np.ndarray
    arc_lengths: np.ndarray
    converged: bool
    stop_reason: str  # gradient-below-tol | max-time | left-domain
    limit_point: np.ndarray | None
    snap_distance: float | None = None
    dense: object | None = field(default=None, repr=False)

    @property
    def arc_length(self) -> float:
        return float(self.arc_lengths[-1])

    def write_csv(self, path: str) -> None:
        d = self.points.shape[1]
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                ["t"] + [f"x_{i + 1}" for i in range(d)] + ["E", "grad_norm", "arc_length"]
            )
            for k in range(len(self.times)):
                writer.writerow(
                    [repr(float(self.times[k]))]
                    + [repr(float(v)) for v in self.points[k]]
                    + [
                        repr(float(self.energies[k])),
                        repr(float(self.grad_norms[k])),
                        repr(float(self.arc_lengths[k])),
                    ]
                )


def integrate_flow(
    E: Polynomial | Function,
    x0: Sequence[float],
    tol: float = DEFAULT_GRAD_TOL,
    t_max: float = 1e12,
    sigma: float | None = None,
    rtol: float = DEFAULT_STEP_CONTROL,
    atol: float = DEFAULT_STEP_CONTROL,
    crit_set: CriticalSet | None = None,
) -> Trajectory:
    """Integrate ``dx/dt = -grad E`` until the gradient drops below ``tol``.

    Stops on gradient tolerance (converged), on ``t_max``, or on leaving the
    ball of radius ``sigma`` (recorded, not fatal).  Arc length rides along
    as an extra state component.  When a critical-set descriptor is given,
    the limit point is snapped to its nearest point and the snap distance
    recorded.
    """
    fn = Function.of(E)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (fn.dimension,):
        raise FlowError(f"start point has shape {x0.shape}, expected ({fn.dimension},)")
    if tol <= 0:
        raise FlowError("tol must be positive")
    # The stopping event watches the gradient norm; the state must stay
    # resolved below that threshold or the event can never be located.
    atol = min(atol, 1e-3 * tol)

    # The last state the right-hand side saw and its gradient norm.  RK45
    # evaluates its last stage at the accepted state, so the stopping event
    # at that state reuses the norm instead of evaluating the gradient again.
    last_y = np.full(fn.dimension + 1, np.nan)
    last_norm = math.nan

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        nonlocal last_norm
        g = fn.gradient(y[None, :-1])[0]
        if not np.isfinite(g).all():
            raise FlowError(f"non-finite gradient at {y[:-1]}")
        # What np.linalg.norm computes for a 1-D vector.
        norm = math.sqrt(g.dot(g))
        out = np.empty_like(y)
        np.negative(g, out=out[:-1])
        out[-1] = norm
        last_y[:] = y
        last_norm = norm
        return out

    def grad_event(t: float, y: np.ndarray) -> float:
        if np.array_equal(y, last_y):
            return last_norm - tol
        return float(np.linalg.norm(fn.gradient(y[None, :-1])[0])) - tol

    grad_event.terminal = True  # type: ignore[attr-defined]
    grad_event.direction = -1  # type: ignore[attr-defined]
    events = [grad_event]
    if sigma is not None:

        def ball_event(t: float, y: np.ndarray) -> float:
            return sigma - float(np.linalg.norm(y[:-1]))

        ball_event.terminal = True  # type: ignore[attr-defined]
        ball_event.direction = -1  # type: ignore[attr-defined]
        events.append(ball_event)

    y0 = np.concatenate([x0, [0.0]])
    if grad_event(0.0, y0) <= 0:
        # Already at rest: a single-sample trajectory.
        limit = x0.copy()
        snap = None
        if crit_set is not None:
            nearest = crit_set.nearest(limit)
            snap = float(np.linalg.norm(limit - nearest))
            limit = nearest
        return Trajectory(
            times=np.array([0.0]),
            points=x0[None, :],
            energies=fn.value(x0[None, :]),
            grad_norms=np.linalg.norm(fn.gradient(x0[None, :]), axis=1),
            arc_lengths=np.array([0.0]),
            converged=True,
            stop_reason="gradient-below-tol",
            limit_point=limit,
            snap_distance=snap,
        )

    sol = solve_ivp(
        rhs,
        (0.0, t_max),
        y0,
        method="RK45",
        rtol=rtol,
        atol=atol,
        dense_output=True,
        events=events,
    )
    if sol.status == -1:
        raise FlowError(f"integration failed: {sol.message}")
    if sol.status == 1:
        triggered = [k for k, t_ev in enumerate(sol.t_events) if len(t_ev)]
        if 0 in triggered:
            stop_reason, converged = "gradient-below-tol", True
        else:
            stop_reason, converged = "left-domain", False
    else:
        stop_reason, converged = "max-time", False

    times = sol.t
    if len(times) > _STORED_SAMPLES:
        idx = np.unique(np.linspace(0, len(times) - 1, _STORED_SAMPLES).astype(int))
        times = times[idx]
        states = sol.y[:, idx]
    else:
        states = sol.y
    points = states[:-1, :].T
    arcs = states[-1, :]
    energies = fn.value(points)
    grads = np.linalg.norm(fn.gradient(points), axis=1)

    limit = points[-1].copy() if converged else None
    snap = None
    if converged and crit_set is not None:
        nearest = crit_set.nearest(limit)
        snap = float(np.linalg.norm(limit - nearest))
        limit = nearest
    return Trajectory(
        times=times,
        points=points,
        energies=energies,
        grad_norms=grads,
        arc_lengths=arcs,
        converged=converged,
        stop_reason=stop_reason,
        limit_point=limit,
        snap_distance=snap,
        dense=sol,
    )


def rk4_fixed_step(
    E: Polynomial | Function,
    x0: Sequence[float],
    step: float,
    steps: int,
) -> np.ndarray:
    """Classical fixed-step RK4 endpoint; the independent integration oracle."""
    fn = Function.of(E)

    def velocity(x: np.ndarray) -> np.ndarray:
        return -fn.gradient(x[None, :])[0]

    x = np.asarray(x0, dtype=float)
    for _ in range(steps):
        k1 = velocity(x)
        k2 = velocity(x + 0.5 * step * k1)
        k3 = velocity(x + 0.5 * step * k2)
        k4 = velocity(x + step * k3)
        x = x + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


# ----------------------------------------------------------------------
# trajectory checks
# ----------------------------------------------------------------------


@dataclass
class LengthBoundReport:
    bound: float
    actual: float
    margin: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "bound": self.bound,
            "actual": self.actual,
            "margin": self.margin,
            "pass": self.passed,
        }


def verify_length_bound(
    traj: Trajectory, theta: Fraction | float, constant: float
) -> LengthBoundReport:
    """Check ``arc_length <= E(x0)^(1-theta) / ((1-theta) * C)`` with 1% slack."""
    if not traj.converged:
        raise FlowError("length bound applies to converged trajectories")
    theta = float(theta)
    if not (0.0 < 1.0 - theta <= 0.5):
        raise FlowError("theta must lie in [1/2, 1)")
    if constant <= 0:
        raise FlowError("need a positive gradient-inequality constant")
    e0 = float(traj.energies[0])
    bound = e0 ** (1.0 - theta) / ((1.0 - theta) * constant)
    actual = traj.arc_length
    return LengthBoundReport(
        bound=bound,
        actual=actual,
        margin=bound - actual,
        passed=actual <= bound * (1.0 + PREDICTED_SLACK),
    )


def energy_monotonicity_violation(traj: Trajectory) -> float:
    """Largest increase of energy between consecutive samples.

    Non-increasing energy means a non-positive return value; compare against
    the 1e-9 per-step integrator tolerance.
    """
    diffs = np.diff(traj.energies)
    return float(diffs.max()) if len(diffs) else 0.0


def _dense_resample(traj: Trajectory, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if traj.dense is None:
        raise FlowError("trajectory lacks dense output")
    sol = traj.dense
    t_end = float(traj.times[-1])
    t_start = max(t_end * 1e-12, float(traj.times[1]) * 1e-3 if len(traj.times) > 1 else 1e-12)
    grid = np.geomspace(t_start, t_end, count)
    states = sol.sol(grid)
    return grid, states[:-1, :].T, states[-1, :]


def dqds_identity_error(
    traj: Trajectory,
    E: Polynomial | Function,
    count: int = 20_000,
) -> float:
    """Max relative error of finite-difference dE/ds against -||grad E||.

    Uses the arc-length parameterization carried by the integrator: the
    energy along the reparameterized path satisfies dQ/ds = -||grad E||.
    Non-uniform three-point differences on a geometric resampling keep the
    truncation error well under the 1e-6 target.
    """
    fn = Function.of(E)
    _, pts, s = _dense_resample(traj, count)
    q = fn.value(pts)
    g = np.linalg.norm(fn.gradient(pts), axis=1)
    h0 = s[1:-1] - s[:-2]
    h1 = s[2:] - s[1:-1]
    ok = (h0 > 0) & (h1 > 0)
    # Exact-for-parabolas non-uniform central difference.
    deriv = (
        h0[ok] ** 2 * q[2:][ok]
        + (h1[ok] ** 2 - h0[ok] ** 2) * q[1:-1][ok]
        - h1[ok] ** 2 * q[:-2][ok]
    ) / (h0[ok] * h1[ok] * (h0[ok] + h1[ok]))
    target = -g[1:-1][ok]
    floor = _GRAD_FLOOR_FACTOR * max(1e-300, float(g.min()))
    mask = g[1:-1][ok] > floor
    if not np.any(mask):
        return 0.0
    rel = np.abs(deriv[mask] - target[mask]) / np.abs(target[mask])
    return float(rel.max())


def speed_identity_error(traj: Trajectory, count: int = 50_000) -> float:
    """Deviation of the arc-length parameterization from unit speed.

    Compares the polyline length of a dense resampling against the arc
    length carried by the integrator over the same range; agreement means
    the reparameterized path has speed one.  (Pointwise difference quotients
    at sub-step resolution would measure interpolant-derivative noise, so
    the check is a global one.)
    """
    _, pts, s = _dense_resample(traj, count)
    ds_total = float(s[-1] - s[0])
    if ds_total <= 0:
        return 0.0
    polyline = float(np.linalg.norm(np.diff(pts, axis=0), axis=1).sum())
    return abs(polyline / ds_total - 1.0)


# ----------------------------------------------------------------------
# distance inequalities
# ----------------------------------------------------------------------


def _gradient_square_polynomial(p: Polynomial) -> Polynomial:
    total = Polynomial.zero(p.variables)
    for g in p.gradient():
        total = total + g * g
    return total


def verify_distance_inequalities(
    E: Polynomial,
    crit_set: CriticalSet,
    theta: Fraction,
    ball: tuple[float, float] = (0.5, 0.125),
    samples: int = 10_000,
    seed: int = 0,
    gradient_constant: float | None = None,
) -> list[InequalityCheckReport]:
    """Sampled distance inequalities with exact distance oracles.

    Exponents: ``alpha = 1/(1-theta)`` for the energy/critical-distance
    inequality, ``beta = 1/(2(1-theta'))`` with ``theta' = (1+theta)/2`` the
    induced exponent of ``E^2`` (so numerically ``beta = alpha``) for the
    value/zero-distance inequality, ``mu = theta/(1-theta)`` for the
    gradient/critical-distance inequality, and ``gamma`` from running the
    beta route on ``||grad E||^2`` (falling back to ``mu`` when no exponent
    for it is derivable).
    """
    theta = Fraction(theta)
    if not (Fraction(1, 2) <= theta < 1):
        raise FlowError("theta must lie in [1/2, 1)")
    sigma, delta = ball
    d = len(E.variables)
    pts = ball_points(d, samples, delta, seed=seed)
    dist = crit_set.distances(pts)
    keep = dist > 1e-14 * delta
    pts, dist = pts[keep], dist[keep]
    values = E.numeric()(pts)
    grads = np.linalg.norm(E.gradient_numeric()(pts), axis=1)
    count = int(len(pts))

    reports: list[InequalityCheckReport] = []

    alpha = 1 / (1 - theta)
    if np.any(values < -1e-12):
        reports.append(
            InequalityCheckReport(
                inequality_id="distance-critical",
                exponent=alpha,
                measured_constant=0.0,
                predicted_constant=None,
                sample_count=count,
                ball_radii=ball,
                notes="skipped: function changes sign on the ball",
                skipped=True,
            )
        )
    else:
        predicted = None
        if gradient_constant is not None:
            predicted = (float(1 - theta) * gradient_constant) ** float(alpha)
        measured = float((np.abs(values) / dist ** float(alpha)).min())
        reports.append(
            InequalityCheckReport(
                inequality_id="distance-critical",
                exponent=alpha,
                measured_constant=measured,
                predicted_constant=predicted,
                sample_count=count,
                ball_radii=ball,
            )
        )
    alpha_report = reports[-1]

    # The zero-set inequality runs through E^2, whose exponent is
    # theta' = (1 + theta)/2 exactly when E has exponent theta.
    theta_sq = (1 + theta) / 2
    beta = 1 / (2 * (1 - theta_sq))
    measured_beta = float((np.abs(values) / dist ** float(beta)).min())
    reports.append(
        InequalityCheckReport(
            inequality_id="distance-zero",
            exponent=beta,
            measured_constant=measured_beta,
            predicted_constant=None,
            sample_count=count,
            ball_radii=ball,
        )
    )

    mu = theta / (1 - theta)
    predicted_mu = None
    if gradient_constant is not None and alpha_report.predicted_constant:
        predicted_mu = gradient_constant * alpha_report.predicted_constant ** float(theta)
    measured_mu = float((grads / dist ** float(mu)).min())
    reports.append(
        InequalityCheckReport(
            inequality_id="gradient-distance",
            exponent=mu,
            measured_constant=measured_mu,
            predicted_constant=predicted_mu,
            sample_count=count,
            ball_radii=ball,
        )
    )

    grad_sq = _gradient_square_polynomial(E)
    bound = exponent_upper_bound(grad_sq * grad_sq)
    if bound is not None:
        theta_f2, provenance = bound
        beta_f = 1 / (2 * (1 - theta_f2))
        gamma = beta_f / 2
        notes = f"exponent via {provenance} for the squared-gradient route"
    else:
        gamma = mu
        notes = "fallback: no exponent derivable for the squared gradient; using mu"
    measured_gamma = float((grads / dist ** float(gamma)).min())
    reports.append(
        InequalityCheckReport(
            inequality_id="gradient-distance-analytic",
            exponent=gamma,
            measured_constant=measured_gamma,
            predicted_constant=None,
            sample_count=count,
            ball_radii=ball,
            notes=notes,
        )
    )
    return reports
