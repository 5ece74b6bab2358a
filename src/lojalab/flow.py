"""Negative gradient flow: integration, length bounds, distance inequalities.

The flow ``dx/dt = -grad E`` is integrated with an adaptive embedded
Runge-Kutta 4(5) pair with arc length carried as an extra state variable, so
the trajectory record has exact (to integrator tolerance) cumulative length.
The step loop is loja-lab's own Dormand-Prince driver on scipy's RK45
coefficients, and it records each step's interpolant itself; given the same
right-hand side, its trajectories and dense output are bit for bit those of
``scipy.integrate.solve_ivp(method="RK45")`` with the same events.  The
right-hand side is the one-point gradient ``Function.gradient_at`` and its
norm summed left to right.
Under a verified gradient inequality with exponent ``theta`` and constant
``C``, the whole trajectory length is bounded by ``E(x0)^(1-theta) /
((1-theta) * C)``; that bound and the induced distance inequalities

    E    >= C1 * dist(x, Crit)^alpha      alpha = 1/(1-theta)
    |E|  >= C2 * dist(x, Zero)^beta       beta  = 1/(2(1-theta')) = alpha, theta' for E^2
    ||grad E|| >= C3 * dist(x, Crit)^mu   mu    = theta/(1-theta)
    ||grad E|| >= C4 * dist(x, Crit)^gamma  gamma = 1/(2(1-theta_G)), theta_G for ||grad E||^2

are checked by sampling with exact distance oracles.  Supported critical-set
descriptors are finite unions of coordinate subspaces and finite point
lists; anything else is rejected so the distance computation stays exact.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .blowup import exponent_upper_bound
from .poly import Function, Polynomial, PolynomialLimitError
from .reports import PREDICTED_SLACK, InequalityCheckReport, sampled_check
from .sampling import _MAX_POINTS, CoordinateSubspace, _row_norms, ball_points

DEFAULT_GRAD_TOL = 1e-10
DEFAULT_STEP_CONTROL = 1e-9
# Most integrator steps a trajectory keeps, and the gradient floor (a factor
# over the smallest norm) below which dqds_identity_error skips points.
_STORED_SAMPLES = 4000
_GRAD_FLOOR_FACTOR = 1e3
# Points of the dense resampling that speed_identity_error measures along.
_SPEED_SAMPLES = 50_000
# Points of the dense output evaluated at once, in runs of whole steps, and
# rows of the checks' value-and-gradient evaluation at once: each block's
# transient stays in the allocator's reused memory instead of faulting in
# fresh pages.
_DENSE_BLOCK_POINTS = 8192
_EVAL_BLOCK_ROWS = 2048
# Right-hand-side calls one integration may make before it fails.  RK45 makes
# about seven per step and keeps about 0.8 KB of dense output per step; the
# stiff x^2 + y^4 flow from (0.2, 0.2) at the default tol 1e-10, which used to
# run for minutes, now stops at the budget after about 2 s (1.7-2.3 s over
# three runs on a 2-vCPU Xeon VM with AVX-512) with about 25 MB of dense
# output.  The budget is about 80 times the 3,176 calls that flow needs at
# tol 1e-5 and four times the 62,270 it needs at tol 1e-7.
MAX_RHS_CALLS = 250_000


class FlowError(ValueError):
    pass


# ----------------------------------------------------------------------
# critical-set descriptors with exact distances
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CriticalSet:
    """Finite union of coordinate subspaces and isolated points.

    The dimension comes from the points measured against the set.  A member
    that does not fit it, a free index outside ``[0, d)`` or a point without
    ``d`` coordinates, raises ``ValueError`` there rather than measuring the
    distance to some other set.
    """

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

    def _point_arrays(self, dim: int) -> list[np.ndarray]:
        if any(len(p) != dim for p in self.points):
            raise FlowError(f"critical points {self.points} need {dim} coordinates each")
        return [np.array(p) for p in self.points]

    def distances(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        candidates = [s.distances(points) for s in self.subspaces]
        candidates += [_row_norms(points - p) for p in self._point_arrays(points.shape[1])]
        return np.min(np.stack(candidates), axis=0)

    def nearest(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        candidates = [s.project(x) for s in self.subspaces] + self._point_arrays(len(x))
        return min(candidates, key=lambda c: float(np.linalg.norm(x - c)))


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
    dense: DenseSolution | None = field(default=None, repr=False)
    # Right-hand-side calls, accepted steps and rejected step attempts.
    rhs_calls: int = 0
    steps: int = 0
    rejected_steps: int = 0

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


@dataclass
class DenseSolution:
    """The step loop's record: step times, states and interpolants.

    ``t`` holds the step times and ``y`` the states there, one column per
    time; a terminal event replaces the last step's end by the event time.
    Step ``k`` starts at ``t[k]`` from ``y[:, k]``, is ``h[k]`` long and has
    the interpolant coefficients ``Q[k]`` (``len(Q) == len(t) - 1``).  ``h``
    is the whole step, so an event does not shorten it.  ``nfev`` counts
    right-hand-side calls, ``steps`` accepted steps (a step whose event
    falls on its start still counts) and ``rejected_steps`` step attempts
    whose error estimate failed, so ``nfev == 2 + 6 * (steps + rejected_steps)``.
    """

    t: np.ndarray
    y: np.ndarray
    h: np.ndarray
    Q: list[np.ndarray]
    nfev: int
    steps: int
    rejected_steps: int
    stop_reason: str

    def blocks(self, t: np.ndarray, size: int) -> Iterator[tuple[int, np.ndarray]]:
        """``(lo, states)`` per block for ascending ``t``: row i of ``states``
        is the trajectory at ``t[lo + i]``, with the bits of ``solve_ivp``'s
        dense output over the same steps.

        Points go to steps as scipy assigns them (left side, clamped to the
        first and last step), but step-major: one ``searchsorted`` of the
        inner step ends in ``t`` gives each step's run of points.  A block is
        a run of whole steps, as many as fit in ``size`` points, or one step
        when its own run is longer.
        """
        # Step k takes the points in (t[k], t[k + 1]]; the first step also
        # takes those before it and the last those after it.
        edges = [0, *np.searchsorted(t, self.t[1:len(self.Q)], side="right").tolist(), len(t)]
        first = 0
        while first < len(self.Q):
            last = max(first + 1, bisect.bisect_right(edges, edges[first] + size) - 1)
            yield edges[first], self._run(t, edges, first, last)
            first = last

    def _run(self, t: np.ndarray, edges: list[int], first: int, last: int) -> np.ndarray:
        """The states at the points of steps ``first`` to ``last - 1``, one row each.

        ``np.repeat`` spreads each step's start, length and state over the
        block's points, and each point gets scipy's arithmetic: powers of
        ``x = (t - t_old) / h`` by repeated multiplication, then
        ``h * (Q @ p) + y_old``.  Only the product ``Q @ p`` is per step, as
        scipy's one ``np.dot`` per step: its bits are the BLAS kernel's, and
        a single contraction over several steps rounds differently.  The
        powers, the scaling by ``h`` and the shift by ``y_old`` are
        elementwise, so doing them for a block at once keeps every bit.
        """
        lo, hi = edges[first], edges[last]
        counts = np.diff(edges[first:last + 1])
        h = np.repeat(self.h[first:last], counts)
        powers = np.empty((self.Q[0].shape[1], hi - lo))
        x = powers[0]
        np.subtract(t[lo:hi], np.repeat(self.t[first:last], counts), out=x)
        x /= h
        for k in range(1, len(powers)):
            np.multiply(powers[k - 1], x, out=powers[k])
        # Each step's run of points is a contiguous run of rows.
        states = np.empty((hi - lo, len(self.y)))
        for k in range(first, last):
            a, b = edges[k] - lo, edges[k + 1] - lo
            if a < b:
                states[a:b] = self.Q[k].dot(powers[:, a:b]).T
        states *= h[:, None]
        states += np.repeat(self.y[:, first:last].T, counts, axis=0)
        return states


def _interpolate(s: float, t_old: float, h: float, y_old: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """The state at ``s`` on one step, in the arithmetic of scipy's RK
    interpolant at a scalar time."""
    p = np.cumprod(np.full(Q.shape[1], (s - t_old) / h))
    return h * Q.dot(p) + y_old


# Dormand-Prince 5(4) step control, as scipy's RK45 sets it.
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10
_EPS = float(np.finfo(float).eps)


def _norm(vector: Sequence[float]) -> float:
    """The Euclidean norm, summed left to right as ``s = s + v*v`` from 0.

    A non-finite entry makes it non-finite, and so does a finite vector whose
    squares overflow.
    """
    total = 0.0
    for v in vector:
        total = total + v * v
    return math.sqrt(total)


def _snap(limit: np.ndarray, crit_set: CriticalSet | None) -> tuple[np.ndarray, float | None]:
    """The limit point snapped to the critical set, and the snap distance."""
    if crit_set is None:
        return limit, None
    nearest = crit_set.nearest(limit)
    return nearest, float(np.linalg.norm(limit - nearest))


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
    recorded; a descriptor that does not fit ``R^d`` raises ``ValueError``
    before the first right-hand-side call.  Raises ``FlowError`` once the
    right-hand side has been called more than ``MAX_RHS_CALLS`` times.
    """
    fn = Function.of(E)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (fn.dimension,):
        raise FlowError(f"start point has shape {x0.shape}, expected ({fn.dimension},)")
    if not np.isfinite(x0).all():
        raise FlowError(f"start point {x0} is not finite")
    if crit_set is not None:
        crit_set.distances(x0[None, :])  # raises for a set that does not fit R^d
    if not all(math.isfinite(v) for v in (tol, rtol, atol)):
        raise FlowError(f"tolerances must be finite, got tol={tol}, rtol={rtol}, atol={atol}")
    if tol <= 0:
        raise FlowError("tol must be positive")
    if not t_max > 0:
        raise FlowError("t_max must be positive")
    t_max = float(t_max)
    # The stopping event watches the gradient norm; the state must stay
    # resolved below that threshold or the event can never be located.
    atol = min(atol, 1e-3 * tol)
    if atol < 0:
        raise FlowError("atol must be non-negative")

    rhs_calls = 0
    gradient_at = fn.gradient_at

    def rhs(t: float, y: list[float], out: np.ndarray) -> float:
        """Write ``-grad E`` and ``|grad E|`` at ``y`` into ``out``; return the norm."""
        nonlocal rhs_calls
        rhs_calls += 1
        if rhs_calls > MAX_RHS_CALLS:
            raise FlowError(
                f"right-hand-side budget of {MAX_RHS_CALLS} calls exhausted at "
                f"t = {t:.6g}: the flow is too stiff for RK45 at tol {tol:g}"
            )
        g = gradient_at(y[:-1])
        norm = _norm(g)
        if not math.isfinite(norm):
            raise FlowError(f"non-finite gradient norm at {y[:-1]}")
        for j, v in enumerate(g):
            out[j] = -v
        out[-1] = norm
        return norm

    y0 = np.concatenate([x0, [0.0]])
    f0 = np.empty_like(y0)
    # The first right-hand side serves the at-rest test, the first stage and
    # the stopping event's initial value.
    norm0 = rhs(0.0, y0.tolist(), f0)
    if norm0 - tol <= 0:
        # Already at rest: a single-sample trajectory.
        limit, snap = _snap(x0.copy(), crit_set)
        return Trajectory(
            times=np.array([0.0]),
            points=x0[None, :],
            energies=fn.value(x0[None, :]),
            grad_norms=_row_norms(f0[None, :-1]),
            arc_lengths=np.array([0.0]),
            converged=True,
            stop_reason="gradient-below-tol",
            limit_point=limit,
            snap_distance=snap,
            rhs_calls=rhs_calls,
        )

    def gradient_gap(y: np.ndarray) -> float:
        return _norm(gradient_at(y[:-1].tolist())) - tol

    def ball_gap(y: np.ndarray) -> float:
        x = y[:-1]
        return sigma - math.sqrt(x.dot(x))

    dense = _dormand_prince(
        rhs, y0, f0, t_max, rtol, atol, tol,
        gradient_gap, ball_gap if sigma is not None else None,
    )
    converged = dense.stop_reason == "gradient-below-tol"

    times = dense.t
    if len(times) > _STORED_SAMPLES:
        idx = np.unique(np.linspace(0, len(times) - 1, _STORED_SAMPLES).astype(int))
        times = times[idx]
        states = dense.y[:, idx]
    else:
        states = dense.y
    points = states[:-1, :].T
    arcs = states[-1, :]
    energies = fn.value(points)
    grads = _row_norms(fn.gradient(points))

    limit, snap = _snap(points[-1].copy(), crit_set) if converged else (None, None)
    return Trajectory(
        times=times,
        points=points,
        energies=energies,
        grad_norms=grads,
        arc_lengths=arcs,
        converged=converged,
        stop_reason=dense.stop_reason,
        limit_point=limit,
        snap_distance=snap,
        dense=dense,
        rhs_calls=rhs_calls,
        steps=dense.steps,
        rejected_steps=dense.rejected_steps,
    )


def _dormand_prince(
    rhs: Callable[[float, list[float], np.ndarray], float],
    y0: np.ndarray,
    f0: np.ndarray,
    t_bound: float,
    rtol: float,
    atol: float,
    tol: float,
    gradient_gap: Callable[[np.ndarray], float],
    ball_gap: Callable[[np.ndarray], float] | None,
) -> DenseSolution:
    """Dormand-Prince 5(4) from ``t = 0`` until an event or ``t_bound``.

    The arithmetic is scipy 1.17's ``solve_ivp(method="RK45",
    dense_output=True, events=...)`` operation for operation, on the
    tableau ``scipy.integrate.RK45`` holds: the initial step of Hairer,
    Norsett and Wanner II.4; the stages, the step, the error estimate and
    each step's interpolant coefficients ``Q``; the step-size rule; and
    event roots from ``brentq`` on the step's interpolant.  Trajectories,
    interpolants and right-hand-side counts are therefore bit for bit those
    of ``solve_ivp`` on the same right-hand side.

    Every contraction is the ``np.dot`` scipy makes, on the same operands
    (called as ``ndarray.dot``, the same C routine without ``np.dot``'s
    dispatcher): the stage and step combinations of the rows of ``K``, the
    error estimate, ``rms``'s sum of squares and the interpolant's ``Q``.
    Their bits are the BLAS kernel's, which may fuse or reorder its sums.
    The elementwise work around them (stage states ``y + d*h``, the new
    state, the error scale and the error quotient) runs on Python floats in
    scipy's operation order: IEEE ``+ - * /``, ``abs`` and ``max`` are
    correctly rounded, so each entry has numpy's bits on any host, without
    numpy's per-call cost on rows of two to four entries.  The accepted
    state becomes an array once per step, for the recorded states and the
    ball event.

    ``rhs(t, y, out)`` takes the state as a list of floats, writes the
    derivative there into ``out`` and returns the gradient norm, so the
    stopping event at an accepted state, ``norm - tol``, needs no call;
    ``f0`` is ``rhs(0, y0)``, whose last entry is that norm.
    ``gradient_gap`` and ``ball_gap`` give the two events anywhere else.
    Both events are terminal and fire on a downward crossing; the earliest
    root wins and the gradient event wins a tie.  A step size that
    collapses below ten ulps of ``t`` raises ``FlowError``.
    """
    # Imported on first use: scipy.integrate adds about 50 MB of resident
    # memory and 0.3 s to start-up, and only the flow needs it.
    from scipy.integrate import RK45
    from scipy.optimize import brentq

    A, B, C, E, P = RK45.A, RK45.B, RK45.C, RK45.E, RK45.P
    error_exponent = -1 / (RK45.error_estimator_order + 1)
    K = np.empty((RK45.n_stages + 1, y0.size))
    K[0] = f0
    # Stage s combines rows K[:s]; the views are scipy's, made once.
    stage_plan = [(K[:s].T, A[s, :s], C[s], K[s]) for s in range(1, RK45.n_stages)]
    KT, KT_step, f_new = K.T, K[:-1].T, K[-1]
    root_n = y0.size ** 0.5
    rtol = max(rtol, 100 * _EPS)

    def rms(x: np.ndarray) -> float:
        return math.sqrt(x.dot(x)) / root_n

    # Initial step: Hairer, Norsett and Wanner, Sec. II.4, with row 1 of K
    # as scratch for the second evaluation.
    scale = atol + np.abs(y0) * rtol
    d0 = rms(y0 / scale)
    d1 = rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound)
    rhs(h0, (y0 + h0 * f0).tolist(), K[1])
    d2 = rms((K[1] - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (RK45.error_estimator_order + 1))
    h_abs = min(100 * h0, h1, t_bound)

    # The accepted state, as floats and as the array scipy keeps.
    t, y, y_array = 0.0, y0.tolist(), y0
    ts, ys, hs, Qs = [t], [y_array], [], []
    gap = f0[-1] - tol
    ball = ball_gap(y_array) if ball_gap is not None else 0.0
    steps = rejected = 0
    stop_reason = "max-time"
    while True:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        step_rejected = False
        while True:
            if h_abs < min_step:
                raise FlowError(
                    "integration failed: Required step size is less than "
                    "spacing between numbers."
                )
            t_new = t + h_abs
            if t_new - t_bound > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            for KT_s, a, c, out in stage_plan:
                dy = KT_s.dot(a).tolist()
                rhs(t + c * h, [v + dv * h for v, dv in zip(y, dy)], out)
            dy = KT_step.dot(B).tolist()
            y_new = [v + h * dv for v, dv in zip(y, dy)]
            norm_new = rhs(t + h, y_new, f_new)
            error = KT.dot(E).tolist()
            error_norm = rms(np.array([
                e * h / (atol + max(abs(v), abs(w)) * rtol)
                for e, v, w in zip(error, y, y_new)
            ]))
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm**error_exponent)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**error_exponent)
            step_rejected = True
            rejected += 1
        steps += 1
        Q = KT.dot(P)
        hs.append(h)
        Qs.append(Q)
        t_old, y_old = t, y_array
        t, y, y_array = t_new, y_new, np.array(y_new)
        K[0] = f_new

        gap_new = norm_new - tol
        ball_new = ball_gap(y_array) if ball_gap is not None else 0.0
        hits = []
        if gap >= 0 and gap_new <= 0:
            hits.append(("gradient-below-tol", gradient_gap))
        if ball_gap is not None and ball >= 0 and ball_new <= 0:
            hits.append(("left-domain", ball_gap))
        if hits:
            t_event = math.inf
            for reason, event_gap in hits:
                root = brentq(
                    lambda s: event_gap(_interpolate(s, t_old, h, y_old, Q)),
                    t_old, t, xtol=4 * _EPS, rtol=4 * _EPS,
                )
                if root < t_event:
                    t_event, stop_reason = root, reason
            if len(ts) > 1 and ts[-1] == t_event:
                # The event sits on the previous step's end, which is kept.
                hs.pop()
                Qs.pop()
            else:
                ts.append(t_event)
                ys.append(_interpolate(t_event, t_old, h, y_old, Q))
            break
        ts.append(t)
        ys.append(y_array)
        if t - t_bound >= 0:
            break
        gap, ball = gap_new, ball_new

    return DenseSolution(
        t=np.array(ts),
        y=np.vstack(ys).T,
        h=np.array(hs),
        Q=Qs,
        nfev=2 + 6 * (steps + rejected),
        steps=steps,
        rejected_steps=rejected,
        stop_reason=stop_reason,
    )


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


def _resample_grid(traj: Trajectory, count: int) -> np.ndarray:
    """``count`` geometrically spaced times over the trajectory, from a
    thousandth of its first kept step (at least ``1e-12`` of its end)."""
    t_end = float(traj.times[-1])
    t_start = max(t_end * 1e-12, float(traj.times[1]) * 1e-3 if len(traj.times) > 1 else 1e-12)
    return np.geomspace(t_start, t_end, count)


def _evaluate_rows(
    evaluate: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    points: np.ndarray,
    values: np.ndarray,
    norms: np.ndarray,
) -> None:
    """Write each point's value and gradient norm into ``values`` and ``norms``.

    ``evaluate`` maps rows to their values and gradients and runs on at most
    ``_EVAL_BLOCK_ROWS`` rows at a time.  The evaluators are row by row, so
    every row has the bits of one whole-batch call.
    """
    for lo in range(0, len(points), _EVAL_BLOCK_ROWS):
        hi = lo + _EVAL_BLOCK_ROWS
        values[lo:hi], gradients = evaluate(points[lo:hi])
        norms[lo:hi] = _row_norms(gradients)


def dqds_identity_error(
    traj: Trajectory,
    E: Polynomial | Function,
    count: int = 20_000,
) -> float | None:
    """Max relative error of finite-difference dE/ds against -||grad E||.

    Uses the arc-length parameterization carried by the integrator: the
    energy along the reparameterized path satisfies dQ/ds = -||grad E||.
    Non-uniform three-point differences on a geometric resampling keep the
    truncation error well under the 1e-6 target.  ``count`` resampled points
    give ``count - 2`` differences, so it must lie in ``[3, _MAX_POINTS]``.
    The dense output is read in blocks of whole steps, and a polynomial's
    value and gradient come from one kernel, in row blocks.
    Returns ``None`` when no difference is measured: the trajectory is at
    rest (it has no dense output), no interior point clears the gradient
    floor, or no pair of steps has positive length.
    """
    if not 3 <= count <= _MAX_POINTS:
        raise FlowError(f"identity resample count must lie in [3, {_MAX_POINTS}], got {count}")
    if traj.dense is None:
        return None
    if isinstance(E, Polynomial):
        evaluate = E._value_gradient()
    else:
        def evaluate(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            return E.value(points), E.gradient(points)
    grid = _resample_grid(traj, count)
    q, g, s = np.empty(count), np.empty(count), np.empty(count)
    for lo, states in traj.dense.blocks(grid, _DENSE_BLOCK_POINTS):
        hi = lo + len(states)
        s[lo:hi] = states[:, -1]
        _evaluate_rows(evaluate, states[:, :-1], q[lo:hi], g[lo:hi])
    h0 = s[1:-1] - s[:-2]
    h1 = s[2:] - s[1:-1]
    ok = (h0 > 0) & (h1 > 0)
    h0, h1 = h0[ok], h1[ok]
    h0_sq, h1_sq = h0**2, h1**2
    # Exact-for-parabolas non-uniform central difference.
    deriv = (
        h0_sq * q[2:][ok] + (h1_sq - h0_sq) * q[1:-1][ok] - h1_sq * q[:-2][ok]
    ) / (h0 * h1 * (h0 + h1))
    g_mid = g[1:-1][ok]
    target = -g_mid
    floor = _GRAD_FLOOR_FACTOR * max(1e-300, float(g.min()))
    mask = g_mid > floor
    if not np.any(mask):
        return None
    rel = np.abs(deriv[mask] - target[mask]) / np.abs(target[mask])
    return float(rel.max())


def speed_identity_error(traj: Trajectory) -> float | None:
    """Deviation of the arc-length parameterization from unit speed.

    Compares the polyline length of a dense resampling against the arc
    length carried by the integrator over the same range; agreement means
    the reparameterized path has speed one.  (Pointwise difference quotients
    at sub-step resolution would measure interpolant-derivative noise, so
    the check is a global one.)  The resampling is read in blocks of whole
    steps into one array of segment lengths, summed once.  Returns ``None``
    when the trajectory is at rest (it has no dense output) or the resampled
    range carries no arc length, so there is no speed to measure.
    """
    if traj.dense is None:
        return None
    grid = _resample_grid(traj, _SPEED_SAMPLES)
    lengths = np.empty(len(grid) - 1)
    for lo, states in traj.dense.blocks(grid, _DENSE_BLOCK_POINTS):
        points = states[:, :-1]
        if lo:
            # The segment from the previous block's last point.
            lengths[lo - 1] = _norm((points[0] - previous).tolist())
        else:
            s_start = float(states[0, -1])
        lengths[lo:lo + len(points) - 1] = _segment_lengths(points)
        previous, s_end = points[-1], float(states[-1, -1])
    ds_total = s_end - s_start
    if ds_total <= 0:
        return None
    return abs(float(lengths.sum()) / ds_total - 1.0)


def _segment_lengths(points: np.ndarray) -> np.ndarray:
    """The length of each step of a polyline, by the one row-norm rule.

    The steps are differenced one coordinate at a time into the columns of
    an F-ordered array: ``np.diff(points, axis=0)`` on the strided resample
    runs its inner loop over the short coordinate axis and costs more than
    the norm does.
    """
    steps = np.empty((len(points) - 1, points.shape[1]), order="F")
    for j, column in enumerate(points.T):
        np.subtract(column[1:], column[:-1], out=steps[:, j])
    return _row_norms(steps)


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
    inequality; ``beta = alpha`` for the value/zero-distance inequality, as
    ``E^2`` has exponent ``theta' = (1+theta)/2``; ``mu = theta/(1-theta)``
    for the gradient/critical-distance inequality; and, from the exponent
    bound ``theta_G`` of ``G = ||grad E||^2``, ``gamma = 1/(2(1-theta_G))``,
    the beta route on ``G`` without squaring it (falling back to ``mu``, with
    a note, when no bound for ``G`` is derivable or building or resolving
    ``G`` passes the size cap).  Both value inequalities are reported as
    skipped when E changes sign on the ball, and all four when no sample
    lies off the critical set.  A ``crit_set`` that does not fit E's ``R^d``
    raises ``ValueError``.
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
    grads = _row_norms(E.gradient_numeric()(pts))

    # Both value inequalities need E >= 0.  The critical-distance one reads
    # E as a height above its minimum; the zero-distance one is measured
    # against the critical set, which contains the zero set only for E >= 0
    # (every zero is then a minimum, hence critical).
    sign_skip = "skipped: function changes sign on the ball" if np.any(values < -1e-12) else ""
    heights = np.abs(values)
    alpha = 1 / (1 - theta)
    predicted_alpha = None
    if gradient_constant is not None and not sign_skip:
        predicted_alpha = (float(1 - theta) * gradient_constant) ** float(alpha)

    beta = alpha  # E^2 has exponent (1 + theta)/2, and 1/(2(1 - (1 + theta)/2)) = alpha
    mu = theta / (1 - theta)
    predicted_mu = None
    if gradient_constant is not None and predicted_alpha:
        predicted_mu = gradient_constant * predicted_alpha ** float(theta)

    fallback = "no exponent derivable for the squared gradient"
    try:
        bound = exponent_upper_bound(_gradient_square_polynomial(E))
    except PolynomialLimitError as exc:
        # G has about twice E's degrees, and its charts more, so G can pass
        # the size cap where E does not.
        bound = None
        fallback = f"building or resolving the squared gradient passes the size cap ({exc})"
    if bound is not None:
        theta_g, provenance = bound
        gamma = 1 / (2 * (1 - theta_g))
        notes = f"exponent via {provenance} for the squared-gradient route"
    else:
        gamma = mu
        notes = f"fallback: {fallback}; using mu"
    return [
        sampled_check("distance-critical", alpha, heights, dist, float(alpha), ball,
                      predicted_alpha, skip=sign_skip),
        sampled_check("distance-zero", beta, heights, dist, float(beta), ball, skip=sign_skip),
        sampled_check("gradient-distance", mu, grads, dist, float(mu), ball, predicted_mu),
        sampled_check("gradient-distance-analytic", gamma, grads, dist, float(gamma), ball,
                      notes=notes),
    ]
