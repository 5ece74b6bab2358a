"""Gradient-flow integration, trajectory identities, distance inequalities."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import lojalab
from lojalab import flow
from lojalab.flow import (
    CoordinateSubspace,
    CriticalSet,
    FlowError,
    _dense_resample,
    _dense_states,
    dqds_identity_error,
    energy_monotonicity_violation,
    integrate_flow,
    speed_identity_error,
    verify_distance_inequalities,
    verify_length_bound,
)
from lojalab.blowup import exponent_upper_bound
from lojalab.poly import Function, PolynomialLimitError, parse

from oracles import (
    dqds_identity_reference,
    rk4_fixed_step,
    speed_identity_reference,
    squared_gradient_gamma,
)
from test_blowup import BRIESKORN_PHAM, CUSP_TEMPLATES

TIGHT = dict(rtol=1e-12, atol=1e-12)


def test_exponential_decay_matches_closed_form():
    # dx/dt = -2x from 0.5: x(t) = 0.5 exp(-2t).
    p = parse("x^2")
    traj = integrate_flow(p, [0.5], tol=1e-10, **TIGHT)
    assert traj.converged and traj.stop_reason == "gradient-below-tol"
    for t, x in zip(traj.times[::20], traj.points[::20, 0]):
        assert x == pytest.approx(0.5 * math.exp(-2.0 * t), rel=1e-9, abs=1e-12)
    assert traj.arc_length == pytest.approx(0.5, abs=1e-9)
    assert traj.limit_point[0] == pytest.approx(0.0, abs=1e-9)


def test_length_bound_equality_square():
    p = parse("x^2")
    traj = integrate_flow(p, [0.5], tol=1e-10, **TIGHT)
    report = verify_length_bound(traj, Fraction(1, 2), 2.0)
    assert report.bound == pytest.approx(0.5, abs=0)
    assert report.passed
    assert abs(report.margin) < 1e-6


def test_length_bound_equality_quartic():
    p = parse("x^4")
    traj = integrate_flow(p, [0.5], tol=4e-21, t_max=1e18)
    report = verify_length_bound(traj, Fraction(3, 4), 4.0)
    assert report.bound == pytest.approx(0.5, abs=0)
    assert report.passed
    assert abs(report.actual - 0.5) < 1e-6


def test_radial_flow_length_bound():
    p = parse("x^2 + y^2")
    traj = integrate_flow(p, [0.3, 0.4], tol=1e-10, **TIGHT)
    report = verify_length_bound(traj, Fraction(1, 2), 2.0)
    assert report.bound == pytest.approx(0.5, abs=0)
    assert traj.arc_length == pytest.approx(0.5, abs=1e-8)
    assert report.passed


def test_product_flow_converges_to_nearest_axis():
    p = parse("x^2*y^2")
    crit = CriticalSet(
        subspaces=(CoordinateSubspace((0,)), CoordinateSubspace((1,)))
    )
    traj = integrate_flow(p, [0.3, 0.4], tol=1e-10, crit_set=crit, **TIGHT)
    assert traj.converged
    # y^2 - x^2 is conserved, so the limit is (0, sqrt(0.07)).
    assert traj.limit_point[0] == pytest.approx(0.0, abs=1e-8)
    assert traj.limit_point[1] == pytest.approx(math.sqrt(0.07), abs=1e-8)
    assert traj.snap_distance < 1e-8


def test_trajectory_identities_on_corpus():
    cases = [
        ("x^2", [0.5], 1e-10),
        ("x^4", [0.5], 1e-10),
        ("x^2 + y^2", [0.3, 0.4], 1e-10),
        ("x^2*y^2", [0.3, 0.4], 1e-10),
        ("x^2 + y^4", [0.2, 0.2], 1e-5),
    ]
    for text, x0, tol in cases:
        p = parse(text)
        traj = integrate_flow(p, x0, tol=tol, **TIGHT)
        assert traj.converged, text
        assert energy_monotonicity_violation(traj) <= 1e-9, text
        assert dqds_identity_error(traj, p, count=40_000) <= 1e-6, text
        assert speed_identity_error(traj) <= 1e-6, text


def test_halved_tolerance_limit_agreement():
    p = parse("x^2 + y^4")
    a = integrate_flow(p, [0.2, 0.2], tol=1e-5, rtol=1e-9, atol=1e-9)
    b = integrate_flow(p, [0.2, 0.2], tol=1e-5, rtol=1e-12, atol=1e-12)
    assert np.linalg.norm(a.limit_point - b.limit_point) < 1e-6


def test_adaptive_agrees_with_fixed_step_oracle():
    p = parse("x^2 + y^2")
    traj = integrate_flow(p, [0.3, 0.4], tol=1e-10, t_max=1.0, **TIGHT)
    # Independent route: classical RK4 with a fixed step to the same time.
    t_end = float(traj.times[-1])
    endpoint = rk4_fixed_step(p, [0.3, 0.4], step=t_end / 4096, steps=4096)
    assert np.linalg.norm(traj.points[-1] - endpoint) < 1e-9


def test_fixed_step_halving_agreement():
    p = parse("x^2*y^2")
    coarse = rk4_fixed_step(p, [0.3, 0.4], step=1e-2, steps=20_000)
    fine = rk4_fixed_step(p, [0.3, 0.4], step=5e-3, steps=40_000)
    assert np.linalg.norm(coarse - fine) < 1e-6


def _trajectory_digest(text, x0):
    # SHA-1 of the sample times, states and arc lengths, and the RHS count;
    # any change in the gradient arithmetic or in the step sequence moves it.
    traj = integrate_flow(parse(text), x0, tol=1e-5)
    sha = hashlib.sha1()
    for array in (traj.times, traj.points, traj.arc_lengths):
        sha.update(np.ascontiguousarray(array).tobytes())
    return [sha.hexdigest(), traj.dense.nfev]


TRAJECTORY_PINS = [
    ("x^2*y^2", [0.3, 0.2], "eef2ab0e1ebe18ea430591fceb440118594f1625", 338),
    ("x^2 + y^4", [0.2, 0.2], "8bc9019a0d6e3afd7cbd004688c2a55098c7c45a", 3176),
]


@pytest.mark.parametrize("text, x0, digest, nfev", TRAJECTORY_PINS)
def test_trajectory_pinned_digest(text, x0, digest, nfev):
    assert _trajectory_digest(text, x0) == [digest, nfev]


# numpy's AVX-512 loops; among them a SIMD np.power that differs from libm
# pow in the last bit.
_NO_AVX512 = "AVX512_SPR AVX512_ICL X86_V4"


def test_trajectory_digests_hold_without_avx512():
    # One arithmetic on every host: a child process whose numpy dispatches
    # no AVX-512 loop integrates the pinned flows to the same bits.
    paths = [str(Path(__file__).parent), str(Path(lojalab.__file__).resolve().parent.parent)]
    env = {
        **os.environ,
        "NPY_DISABLE_CPU_FEATURES": _NO_AVX512,
        "PYTHONPATH": os.pathsep.join([*paths, os.environ.get("PYTHONPATH", "")]),
    }
    probe = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True, text=True, env=env)
    if probe.returncode:
        reason = (probe.stderr.strip().splitlines() or ["no message"])[-1]
        pytest.skip(f"numpy does not start with {_NO_AVX512} disabled: {reason}")
    code = (
        "import json\n"
        "from numpy._core._multiarray_umath import __cpu_features__\n"
        "from test_flow import TRAJECTORY_PINS, _trajectory_digest\n"
        "assert not __cpu_features__.get('X86_V4', False), 'X86_V4 is still on'\n"
        "print(json.dumps([_trajectory_digest(text, x0) for text, x0, _, _ in TRAJECTORY_PINS]))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [_trajectory_digest(text, x0) for text, x0, _, _ in TRAJECTORY_PINS]


def _exit_path_digest(traj):
    # SHA-1 of everything a trajectory records, with the memory layout of
    # each array, and of the dense output at every step time.
    sha = hashlib.sha1()
    for array in (traj.times, traj.points, traj.energies, traj.grad_norms, traj.arc_lengths):
        sha.update(np.ascontiguousarray(array).tobytes())
        sha.update(repr(array.strides).encode())
    if traj.limit_point is not None:
        sha.update(traj.limit_point.tobytes())
    sha.update(repr((traj.stop_reason, traj.converged, traj.snap_distance)).encode())
    if traj.dense is not None:
        sol = traj.dense.sol
        sha.update(sol.ts.tobytes())
        sha.update(np.ascontiguousarray(sol(sol.ts)).tobytes())
    return sha.hexdigest()


@pytest.mark.parametrize(
    "text, x0, options, stop_reason, nfev, digest",
    [
        # Both events armed, as the CLI always arms them; the ball wins.
        ("0 - x^2", [0.1], dict(tol=1e-12, t_max=100.0, sigma=0.5),
         "left-domain", 212, "68b80c27219c97ba8ce562b12c16adefca1f5ec5"),
        ("x^2 - y^2", [0.1, 0.01], dict(tol=1e-10, sigma=0.5, crit_set=CriticalSet.origin(2)),
         "left-domain", 416, "797c0a33e0a55e268923440d3f8a486830793e12"),
        # Both events armed; the gradient wins and the limit is snapped.
        ("x^2 + y^2", [0.3, -0.2], dict(tol=1e-10, sigma=0.5, crit_set=CriticalSet.origin(2)),
         "gradient-below-tol", 1268, "d3b4c1706a91ad686cba1d121b73e332026692c1"),
        ("x^2*y^2", [0.3, 0.4], dict(tol=1e-10, t_max=1.0),
         "max-time", 86, "8966d5bdf8105e7c9f3cbf6aff22fc7eca6ed325"),
        ("x^2", [0.5], dict(tol=1e-10),
         "gradient-below-tol", 1304, "14cc93b1ab43be96db6d783631eb21ede891d694"),
        ("x^2*y^2*z^2 + x^4", [0.3, 0.2, 0.25], dict(tol=1e-6),
         "gradient-below-tol", 482, "2a00cede5e42ec766afe3d2f834e5d7c22612b49"),
        # More than _STORED_SAMPLES steps: the kept samples are thinned.
        ("x^2 + y^4", [0.2, 0.2], dict(tol=3e-7),
         "gradient-below-tol", 30122, "a938c7f50a024de15375e39bf858e174c74be63f"),
        # At rest from the start: one sample, no dense output.
        ("x^2 + y^2", [1e-9, 0.0], dict(tol=1e-6, crit_set=CriticalSet.origin(2)),
         "gradient-below-tol", None, "3f8a8c7e2ef7076d3dfd5df462c7698e7a08dd03"),
    ],
)
def test_exit_paths_pinned_digest(text, x0, options, stop_reason, nfev, digest):
    traj = integrate_flow(parse(text), x0, **options)
    assert traj.stop_reason == stop_reason
    assert (traj.dense.nfev if traj.dense is not None else None) == nfev
    assert _exit_path_digest(traj) == digest


def _solve_ivp_reference(fn, x0, tol, sigma=None, t_max=1e12, rtol=1e-9, atol=1e-9):
    # integrate_flow's flow as scipy's solve_ivp integrates it, on the same
    # right-hand side: the one-point gradient and its norm summed left to
    # right.
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        g = fn.gradient_at(y[:-1].tolist())
        return np.array([-v for v in g] + [flow._norm(g)])

    def grad_event(t, y):
        return flow._norm(fn.gradient_at(y[:-1].tolist())) - tol

    def ball_event(t, y):
        return sigma - float(np.linalg.norm(y[:-1]))

    events = [grad_event] + ([ball_event] if sigma is not None else [])
    for event in events:
        event.terminal, event.direction = True, -1
    return solve_ivp(
        rhs, (0.0, t_max), np.concatenate([x0, [0.0]]), method="RK45",
        rtol=rtol, atol=min(atol, 1e-3 * tol), dense_output=True, events=events,
    )


@pytest.mark.parametrize(
    "text, x0, options",
    [
        ("x^2*y^2", [0.3, 0.2], dict(tol=1e-5)),
        ("x^2 + y^4", [0.2, 0.2], dict(tol=1e-5, sigma=0.5)),
        ("0 - x^2", [0.1], dict(tol=1e-12, t_max=100.0, sigma=0.5)),
        ("x^2*y^2", [0.3, 0.4], dict(tol=1e-10, t_max=1.0)),
        ("x^2*y^2*z^2 + x^4", [0.3, 0.2, 0.25], dict(tol=1e-6, sigma=0.5)),
        # rtol below 100 eps, which both loops raise to 100 eps.
        ("x^2 + 3*y^2 + x*y", [-0.3, 0.1], dict(tol=1e-8, rtol=1e-15, atol=1e-15)),
    ],
)
def test_step_loop_matches_solve_ivp_bit_for_bit(text, x0, options):
    fn = Function.of(parse(text))
    traj = integrate_flow(fn, x0, **options)
    with warnings.catch_warnings():
        # scipy warns when it raises rtol to 100 eps.
        warnings.simplefilter("ignore")
        reference = _solve_ivp_reference(fn, np.array(x0), **options)
    dense = traj.dense
    assert np.array_equal(dense.t, reference.t)
    assert np.array_equal(dense.y, reference.y)
    assert dense.y.strides == reference.y.strides
    assert dense.nfev == reference.nfev
    assert len(dense.sol.interpolants) == len(reference.sol.interpolants)
    for ours, theirs in zip(dense.sol.interpolants, reference.sol.interpolants):
        assert (ours.t_old, ours.t) == (theirs.t_old, theirs.t)
        assert np.array_equal(ours.Q, theirs.Q)
        assert np.array_equal(ours.y_old, theirs.y_old)


def test_start_gradient_evaluated_once():
    fn = Function.of(parse("x^2*y^2"))
    starts = []

    def gradient(points):
        if len(points) == 1:
            starts.append(tuple(points[0]))
        return fn.gradient(points)

    counted = Function(dimension=2, value=fn.value, gradient=gradient)
    # The at-rest test, the first stage and the stopping event's initial
    # value share one evaluation; so do the at-rest test and the one
    # sample's gradient norm.
    for x0 in [(0.3, 0.4), (0.0, 0.4)]:
        starts.clear()
        integrate_flow(counted, list(x0), tol=1e-10, sigma=0.5)
        assert starts.count(x0) == 1


def test_step_counts():
    traj = integrate_flow(parse("x^2 + y^4"), [0.2, 0.2], tol=1e-5)
    assert (traj.rhs_calls, traj.steps, traj.rejected_steps) == (3176, 464, 65)
    assert traj.rhs_calls == traj.dense.nfev == 2 + 6 * (traj.steps + traj.rejected_steps)
    assert traj.steps == len(traj.dense.t) - 1
    rest = integrate_flow(parse("x^2"), [0.0], tol=1e-6)
    assert (rest.rhs_calls, rest.steps, rest.rejected_steps) == (1, 0, 0)


@pytest.mark.parametrize(
    "x0, options, message",
    [
        ([0.5, 0.1], dict(t_max=0.0), "t_max must be positive"),
        ([0.5, 0.1], dict(t_max=-1.0), "t_max must be positive"),
        ([0.5, 0.1], dict(atol=-1.0), "atol must be non-negative"),
        ([math.inf, 0.1], {}, "not finite"),
        # A NaN tol would never be met and an infinite one met at once, so
        # non-finite tolerances fail before the first right-hand-side call.
        ([0.5, 0.1], dict(tol=math.nan), "tolerances must be finite"),
        ([0.5, 0.1], dict(tol=math.inf), "tolerances must be finite"),
        ([0.5, 0.1], dict(rtol=math.nan), "tolerances must be finite"),
        ([0.5, 0.1], dict(atol=math.inf), "tolerances must be finite"),
    ],
)
def test_bad_integration_input_raises(x0, options, message):
    fn = Function.of(parse("x^2 + y^2"))
    calls = []

    def gradient(points):
        calls.append(len(points))
        return fn.gradient(points)

    counted = Function(dimension=2, value=fn.value, gradient=gradient)
    with pytest.raises(FlowError, match=message):
        integrate_flow(counted, x0, **{"tol": 1e-6, **options})
    assert calls == []


def test_step_size_collapse_raises():
    # |x| has a gradient jump at 0 that no step down to ten ulps of t
    # resolves at atol 1e-17, so the step size collapses.
    kink = Function(dimension=1, value=lambda points: np.abs(points[:, 0]), gradient=np.sign)
    with pytest.raises(FlowError, match="integration failed: Required step size is less than"):
        integrate_flow(kink, [0.5], tol=1e-14, t_max=10.0, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize(
    "text, x0, digest",
    [
        ("x^2*y^2", [0.3, 0.2], "c4d51101ffbb45f0ee5e83e7e396b998b2b4ecb8"),
        ("x^2 + y^4", [0.2, 0.2], "9fd213925c7490b1900c04eed3014702fb67d3a8"),
    ],
)
def test_identity_errors_pinned_digest(text, x0, digest):
    # SHA-1 of the identity errors as scipy's OdeSolution resampling gave
    # them; the resampler and the evaluators it feeds must not move a bit.
    p = parse(text)
    traj = integrate_flow(p, x0, tol=1e-5)
    errors = [
        dqds_identity_error(traj, p, count=4000),
        dqds_identity_error(traj, p, count=20_000),
        speed_identity_error(traj),
    ]
    assert hashlib.sha1(np.array(errors).tobytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "text, x0, tol",
    [
        ("x^2", [0.5], 1e-10),
        ("x^2 + y^2", [0.3, -0.2], 1e-10),
        ("x^2*y^2", [0.3, 0.4], 1e-10),
        ("x^2 + y^4", [0.2, 0.2], 1e-5),
        ("x^2*y^2*z^2 + x^4", [0.3, 0.2, 0.25], 1e-6),
    ],
)
def test_dense_resample_matches_scipy_bit_for_bit(text, x0, tol):
    traj = integrate_flow(parse(text), x0, tol=tol)
    sol = traj.dense.sol
    # The stopping event cuts the last step short in sol.ts, not in its
    # interpolant.
    assert sol.interpolants[-1].t > sol.ts[-1]
    for count in (4000, 50_000):
        grid, points, arcs = _dense_resample(traj, count)
        reference = sol(grid)
        assert np.array_equal(points, reference[:-1].T)
        assert np.array_equal(arcs, reference[-1])
    # Every step time, t_end itself and a point before the start, which
    # scipy evaluates on the first step.
    grid = np.concatenate([[sol.ts[0] - 1e-3], sol.ts, np.geomspace(1e-6, sol.ts[-1], 997)])
    grid.sort()
    states = _dense_states(sol, grid)
    reference = sol(grid)
    assert np.array_equal(states, reference)
    assert states.strides == reference.strides


def test_dense_states_match_scipy_on_one_step_and_edge_grids():
    # One step, and a grid with duplicate times, points before ts[0], on
    # every step end and past ts[-1]; each goes to the step OdeSolution picks.
    short = integrate_flow(parse("x^2"), [0.5], tol=1e-10, t_max=1e-7).dense.sol
    assert len(short.interpolants) == 1
    full = integrate_flow(parse("x^2 + y^4"), [0.2, 0.2], tol=1e-5).dense.sol
    for sol in (short, full):
        t_end = sol.ts[-1]
        grid = np.concatenate([
            [-1.0, 0.0, 0.0], sol.ts, sol.ts[1:], np.geomspace(t_end * 1e-9, t_end, 301),
            [t_end * (1 + 1e-9), sol.interpolants[-1].t, 2 * t_end, 2 * t_end],
        ])
        grid.sort()
        states = _dense_states(sol, grid)
        reference = sol(grid)
        assert np.array_equal(states, reference)
        assert states.strides == reference.strides


@pytest.mark.parametrize(
    "text, x0, tol",
    [("x^2", [0.5], 1e-10), ("x^2*y^2", [0.3, 0.4], 1e-10),
     ("x^2*y^2*z^2 + x^4", [0.3, 0.2, 0.25], 1e-6)],
)
def test_speed_identity_matches_norm_polyline_bit_for_bit(text, x0, tol):
    # The row-wise polyline is np.linalg.norm's, in d = 1, 2 and 3.
    traj = integrate_flow(parse(text), x0, tol=tol)
    _, points, arcs = _dense_resample(traj, flow._SPEED_SAMPLES)
    lengths = np.linalg.norm(np.diff(points, axis=0), axis=1)
    assert np.array_equal(flow._segment_lengths(points), lengths)
    expected = abs(float(lengths.sum()) / float(arcs[-1] - arcs[0]) - 1.0)
    assert speed_identity_error(traj) == expected


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 7, 8, 9, 10])
def test_segment_lengths_match_norm_bit_for_bit(dim):
    # Scales far apart, so that the order of the squares' sum shows.  From 8
    # columns up numpy's row norm depends on the layout, and the reference
    # is the one-point norm of each step.
    rng = np.random.default_rng(dim)
    points = np.cumsum(rng.standard_normal((20_000, dim)) * np.logspace(0, -9, dim), axis=0)
    steps = np.diff(points, axis=0)
    if dim < 8:
        lengths = np.linalg.norm(steps, axis=1)
    else:
        lengths = np.array([flow._norm(step) for step in steps.tolist()])
    assert np.array_equal(flow._segment_lengths(points), lengths)
    assert np.array_equal(flow._segment_lengths(np.asfortranarray(points)), lengths)


@pytest.mark.parametrize(
    "text, x0, options",
    [("x^2 + y^4", [0.2, 0.2], dict(tol=1e-5)),
     ("x^2*y^2*z^2 + x^4", [0.3, 0.2, 0.25], dict(tol=1e-6, sigma=0.5))],
)
def test_batch_gradient_integrates_to_the_compiled_bits(text, x0, options):
    # Without a compiled gradient_at the right-hand side is the gradient on
    # a one-row batch, a numpy row rather than a list of floats.
    compiled = Function.of(parse(text))
    batch = Function(dimension=compiled.dimension, value=compiled.value,
                     gradient=compiled.gradient)
    ours, theirs = (integrate_flow(fn, x0, **options).dense for fn in (batch, compiled))
    assert np.array_equal(ours.t, theirs.t)
    assert np.array_equal(ours.y, theirs.y)
    assert ours.nfev == theirs.nfev
    for a, b in zip(ours.sol.interpolants, theirs.sol.interpolants, strict=True):
        assert np.array_equal(a.Q, b.Q)


@pytest.mark.parametrize("count", [-1, 0, 1, 2, flow._MAX_POINTS + 1, 10**9])
def test_dqds_identity_rejects_counts_outside_the_range(monkeypatch, count):
    # Fewer than three points measure nothing; the cap comes before any
    # resampling is allocated.
    p = parse("x^2")
    traj = integrate_flow(p, [0.5], tol=1e-5)

    def no_resample(*args):
        raise AssertionError("resampled")

    monkeypatch.setattr(flow, "_resample_grid", no_resample)
    monkeypatch.setattr(flow._DenseSteps, "blocks", no_resample)
    with pytest.raises(FlowError, match=rf"must lie in \[3, 1000000\], got {count}$"):
        dqds_identity_error(traj, p, count=count)


def test_dqds_identity_accepts_three_points():
    p = parse("x^2")
    traj = integrate_flow(p, [0.5], tol=1e-5)
    assert 0.0 < dqds_identity_error(traj, p, count=3) < 1.0


def test_identity_errors_are_none_when_nothing_is_measured(monkeypatch):
    # On x^2 up to t = 1 the gradient norm falls from 1 to about 0.14, so no
    # point clears the floor of 1e3 times the smallest norm.
    p = parse("x^2")
    traj = integrate_flow(p, [0.5], tol=1e-10, t_max=1.0)
    assert dqds_identity_error(traj, p) is None
    assert speed_identity_error(traj) < 1e-6
    # A resampled range that carries no arc length has no speed to compare.
    monkeypatch.setattr(
        flow._DenseSteps,
        "blocks",
        lambda self, t, size: iter([(0, np.tile([0.0, 0.25], (len(t), 1)))]),
    )
    assert speed_identity_error(traj) is None


def test_identity_errors_are_none_on_an_at_rest_trajectory():
    # A start below the gradient tolerance is a one-sample trajectory with
    # no dense output: nothing is measured, and that is not an error.
    p = parse("x^2 + y^2")
    traj = integrate_flow(p, [1e-9, 0.0], tol=1e-6)
    assert traj.dense is None
    assert dqds_identity_error(traj, p) is None
    assert speed_identity_error(traj) is None
    with pytest.raises(FlowError, match="must lie in"):
        dqds_identity_error(traj, p, count=2)


def _assert_identity_errors_match_the_whole_grid(traj, p):
    # The blocked checks against scipy's sol(grid) on the whole grid at once.
    assert dqds_identity_error(traj, p, count=4000) == dqds_identity_reference(traj, p, 4000)
    assert dqds_identity_error(traj, p) == dqds_identity_reference(traj, p, 20_000)
    assert speed_identity_error(traj) == speed_identity_reference(traj, flow._SPEED_SAMPLES)


def _step_edges(traj, count):
    # Where each inner step end falls in the resampling grid of ``count``.
    grid = flow._resample_grid(traj, count)
    sol = traj.dense.sol
    return grid, np.searchsorted(grid, sol.ts[1:len(sol.interpolants)], side="right")


def _check_blocks(traj, grid, edges, size):
    # The blocks tile the grid in runs of whole steps, at most ``size``
    # points unless one step's run is longer, and hold sol(grid).
    starts = {0, *edges.tolist(), len(grid)}
    blocks = list(traj.dense._stacked.blocks(grid, size))
    assert [lo for lo, _ in blocks] == sorted({lo for lo, _ in blocks})
    for (lo, states), (hi, _) in zip(blocks, blocks[1:] + [(len(grid), None)]):
        assert lo in starts and hi in starts and len(states) == hi - lo
        assert len(states) <= size or np.count_nonzero((edges > lo) & (edges < hi)) == 0
    stacked = np.concatenate([states for _, states in blocks])
    assert np.array_equal(stacked, traj.dense.sol(grid).T)
    return blocks


def test_identity_blocks_that_end_on_a_step_end(monkeypatch):
    # A block size equal to the points up to some step end: the first block
    # is full and ends exactly there, and the next starts on the next step.
    p = parse("x^2 + y^4")
    traj = integrate_flow(p, [0.2, 0.2], tol=1e-5)
    for count in (4000, 20_000, flow._SPEED_SAMPLES):
        grid, edges = _step_edges(traj, count)
        size = int(edges[len(edges) // 2])
        blocks = _check_blocks(traj, grid, edges, size)
        assert len(blocks[0][1]) == size and blocks[1][0] == size
        monkeypatch.setattr(flow, "_DENSE_BLOCK_POINTS", size)
        _assert_identity_errors_match_the_whole_grid(traj, p)


def test_identity_blocks_keep_a_step_longer_than_a_block_whole(monkeypatch):
    # The first step takes every grid point before its end, thousands of
    # them; with 100-point blocks it is a block of its own, and every other
    # block stays within 100 points.
    p = parse("x^2*y^2")
    traj = integrate_flow(p, [0.3, 0.2], tol=1e-5)
    grid, edges = _step_edges(traj, flow._SPEED_SAMPLES)
    assert edges[0] > 100
    blocks = _check_blocks(traj, grid, edges, 100)
    assert blocks[1][0] == edges[0]
    monkeypatch.setattr(flow, "_DENSE_BLOCK_POINTS", 100)
    _assert_identity_errors_match_the_whole_grid(traj, p)


def test_identity_errors_match_the_whole_grid_on_one_step_and_on_a_thinned_record():
    # One step, where every grid point is on it; and a trajectory of more
    # steps than the record keeps, whose grid starts from the kept samples.
    short = integrate_flow(parse("x^2"), [0.5], tol=1e-10, t_max=1e-7)
    assert len(short.dense.sol.interpolants) == 1
    _assert_identity_errors_match_the_whole_grid(short, parse("x^2"))
    p = parse("x^2 + y^4")
    thinned = integrate_flow(p, [0.2, 0.2], tol=3e-7)
    assert len(thinned.times) < len(thinned.dense.t)
    _assert_identity_errors_match_the_whole_grid(thinned, p)


@pytest.mark.parametrize("text, x0", [(text, x0) for text, x0, _, _ in TRAJECTORY_PINS])
def test_speed_identity_memory_stays_within_blocks(text, x0):
    # Whole-grid temporaries of the 50,000-point resampling peaked at 5.2 to
    # 6.0 MB; blocks of whole steps keep the peak well under that.
    traj = integrate_flow(parse(text), x0, tol=1e-5)
    tracemalloc.start()
    try:
        speed_identity_error(traj)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5e6


def test_stopping_event_reuses_rhs_gradient():
    fn = Function.of(parse("x^2*y^2"))
    calls = []

    def gradient(points):
        calls.append(len(points))
        return fn.gradient(points)

    counted = Function(dimension=2, value=fn.value, gradient=gradient)
    traj = integrate_flow(counted, [0.3, 0.4], tol=1e-10)
    steps = len(traj.dense.t) - 1
    # One gradient per RHS evaluation, plus the start check, the trajectory
    # norms and the event's root finding; not one more per accepted step.
    assert len(calls) < traj.dense.nfev + steps / 2


def test_left_domain_recorded():
    traj = integrate_flow(parse("0 - x^2"), [0.1], tol=1e-12, t_max=100.0, sigma=0.5)
    assert traj.stop_reason == "left-domain"
    assert not traj.converged
    assert abs(traj.points[-1, 0]) == pytest.approx(0.5, abs=1e-9)


def test_nonfinite_gradient_raises():
    bad = Function(
        dimension=1,
        value=lambda points: points[:, 0],
        gradient=lambda points: np.full_like(points, math.nan),
    )
    with pytest.raises(FlowError, match="non-finite"):
        integrate_flow(bad, [0.5], tol=1e-6)


def test_overflowing_gradient_norm_raises():
    huge = Function(
        dimension=2,
        value=lambda points: points[:, 0],
        gradient=lambda points: np.full_like(points, 1e200),
    )
    with pytest.raises(FlowError, match="non-finite"), np.errstate(over="ignore"):
        integrate_flow(huge, [0.5, 0.5], tol=1e-6)


def test_rhs_budget_exhausted_raises(monkeypatch):
    # x^2 + y^4 from (0.2, 0.2) at tol 1e-5 takes exactly 3176 RHS calls
    # (pinned above): a budget of 3176 lets it finish, one call less fails.
    p = parse("x^2 + y^4")
    monkeypatch.setattr(flow, "MAX_RHS_CALLS", 3176)
    assert integrate_flow(p, [0.2, 0.2], tol=1e-5).dense.nfev == 3176
    monkeypatch.setattr(flow, "MAX_RHS_CALLS", 3175)
    with pytest.raises(FlowError, match="budget of 3175 calls"):
        integrate_flow(p, [0.2, 0.2], tol=1e-5)


def test_already_converged_start():
    traj = integrate_flow(parse("x^2"), [0.0], tol=1e-6)
    assert traj.converged and traj.arc_length == 0.0


# ----------------------------------------------------------------------
# distance descriptors
# ----------------------------------------------------------------------


def test_critical_set_distances_exact():
    crit = CriticalSet(
        subspaces=(CoordinateSubspace((0,)),), points=((1.0, 1.0),)
    )
    pts = np.array([[0.3, 0.4], [1.0, 1.1], [2.0, 0.0]])
    # distance to x-axis is |y|; to the point, the euclidean distance.
    expected = [min(0.4, math.hypot(0.7, 0.6)), min(1.1, 0.1), min(0.0, math.hypot(1, 1))]
    assert np.allclose(crit.distances(pts), expected)


def test_critical_set_rejects_empty():
    with pytest.raises(FlowError):
        CriticalSet()


# Descriptors that do not fit R^2; each used to measure the distance to
# another set: the first two to the origin, the last to the point (1, 1).
MISFIT_DESCRIPTORS = {
    "free-index-past-d": CriticalSet.subspace((5,)),
    "negative-free-index": CriticalSet.subspace((-1,)),
    "point-of-R1": CriticalSet(points=((1.0,),)),
    "point-of-R1-beside-an-axis": CriticalSet(
        subspaces=(CoordinateSubspace((0,)),), points=((1.0,),)
    ),
}


@pytest.mark.parametrize("crit", MISFIT_DESCRIPTORS.values(), ids=MISFIT_DESCRIPTORS.keys())
def test_critical_set_that_does_not_fit_the_space_raises(crit):
    E = parse("x^2 + y^2")
    with pytest.raises(ValueError):
        crit.distances(np.array([[0.3, 0.4]]))
    with pytest.raises(ValueError):
        crit.nearest(np.array([0.3, 0.4]))
    with pytest.raises(ValueError):
        integrate_flow(E, [0.3, 0.4], tol=1e-6, crit_set=crit)
    with pytest.raises(ValueError):
        verify_distance_inequalities(E, crit, Fraction(1, 2), samples=64)


@pytest.mark.parametrize("crit", MISFIT_DESCRIPTORS.values(), ids=MISFIT_DESCRIPTORS.keys())
def test_misfit_critical_set_raises_before_the_first_rhs_call(crit):
    # x^2 + y^4 from (0.2, 0.2) takes 3176 RHS calls; none may run before
    # the descriptor is found not to fit R^2.
    fn = Function.of(parse("x^2 + y^4"))
    calls = []

    def gradient(points):
        calls.append(len(points))
        return fn.gradient(points)

    counted = Function(dimension=2, value=fn.value, gradient=gradient)
    with pytest.raises(ValueError):
        integrate_flow(counted, [0.2, 0.2], tol=1e-5, crit_set=crit)
    assert calls == []


def test_nearest_member_takes_the_first_on_a_tie():
    crit = CriticalSet(
        subspaces=(CoordinateSubspace((0,)), CoordinateSubspace((1,))), points=((0.5, 0.5),)
    )
    # (0.5, 0.5) is 0.5 from both axes and 0 from the point.
    assert crit.nearest(np.array([0.5, 0.5])).tolist() == [0.5, 0.5]
    # (0.1, 0.1) is 0.1 from both axes: the x-axis, listed first, wins.
    assert crit.nearest(np.array([0.1, 0.1])).tolist() == [0.1, 0.0]


def test_trajectory_csv_columns(tmp_path):
    traj = integrate_flow(parse("x^2 + y^2"), [0.3, 0.4], tol=1e-8)
    path = tmp_path / "trajectory.csv"
    traj.write_csv(str(path))
    header = path.read_text().splitlines()[0]
    assert header == "t,x_1,x_2,E,grad_norm,arc_length"


# ----------------------------------------------------------------------
# distance inequalities
# ----------------------------------------------------------------------


def test_distance_inequalities_for_square():
    p = parse("x^2")
    reports = verify_distance_inequalities(
        p, CriticalSet.subspace(()), Fraction(1, 2), gradient_constant=2.0
    )
    by_id = {r.inequality_id: r for r in reports}
    # E = dist^2 exactly, so the alpha constant is exactly 1.
    assert by_id["distance-critical"].exponent == Fraction(2)
    assert by_id["distance-critical"].measured_constant == pytest.approx(1.0, abs=1e-9)
    assert by_id["distance-zero"].exponent == Fraction(2)
    assert by_id["distance-zero"].measured_constant == pytest.approx(1.0, abs=1e-9)
    assert by_id["gradient-distance"].exponent == Fraction(1)
    assert by_id["gradient-distance"].measured_constant == pytest.approx(2.0, abs=1e-9)
    assert by_id["gradient-distance-analytic"].exponent == Fraction(1)
    assert all(r.passed for r in reports)


def test_distance_inequalities_for_product_square():
    p = parse("x^2*y^2")
    crit = CriticalSet(
        subspaces=(CoordinateSubspace((0,)), CoordinateSubspace((1,)))
    )
    reports = verify_distance_inequalities(p, crit, Fraction(3, 4))
    by_id = {r.inequality_id: r for r in reports}
    assert by_id["distance-critical"].exponent == Fraction(4)
    assert all(r.measured_constant > 0 for r in reports)
    # Grid oracle: x^2 y^2 >= min(|x|,|y|)^4 on the ball.
    grid = np.linspace(-0.125, 0.125, 41)
    xs, ys = np.meshgrid(grid, grid)
    lhs = (xs * ys) ** 2
    rhs = np.minimum(np.abs(xs), np.abs(ys)) ** 4
    assert np.all(lhs + 1e-18 >= rhs)


def test_distance_inequalities_for_quartic_well():
    p = parse("x^2 + y^4")
    reports = verify_distance_inequalities(p, CriticalSet.origin(2), Fraction(3, 4))
    assert all(r.measured_constant > 0 for r in reports)
    assert all(r.passed for r in reports)


def test_distance_alpha_skipped_for_sign_changing_function():
    p = parse("x^2 - y^2")
    reports = verify_distance_inequalities(p, CriticalSet.origin(2), Fraction(1, 2))
    alpha = next(r for r in reports if r.inequality_id == "distance-critical")
    assert "skipped" in alpha.notes
    assert not alpha.passed


@pytest.mark.parametrize("text", ["x^2*y - y^3", "x^2 - y^2"])
def test_distance_zero_skipped_for_sign_changing_function(text):
    # The zero set of a sign-changing function is larger than its critical
    # set (here the origin), so dividing by the critical distance measures
    # nothing: x^2*y - y^3 read 0 (a failure), x^2 - y^2 a meaningless pass.
    reports = verify_distance_inequalities(parse(text), CriticalSet.origin(2), Fraction(1, 2))
    status = {r.inequality_id: r.status for r in reports}
    assert status["distance-critical"] == "skipped"
    assert status["distance-zero"] == "skipped"
    zero = next(r for r in reports if r.inequality_id == "distance-zero")
    assert "changes sign" in zero.notes
    assert status["gradient-distance"] == "pass"


def test_distance_reports_for_nonnegative_functions_pinned_digest():
    # The reports of nonnegative inputs, which the sign rule leaves as they are.
    axes = CriticalSet(subspaces=(CoordinateSubspace((0,)), CoordinateSubspace((1,))))
    cases = [
        ("x^2", CriticalSet.subspace(()), Fraction(1, 2), 2.0),
        ("x^2*y^2", axes, Fraction(3, 4), None),
        ("x^2 + y^4", CriticalSet.origin(2), Fraction(3, 4), None),
        ("x^2 + y^2", CriticalSet.origin(2), Fraction(1, 2), 2.0),
    ]
    sha = hashlib.sha1()
    for text, crit, theta, constant in cases:
        reports = verify_distance_inequalities(
            parse(text), crit, theta, samples=2000, seed=3, gradient_constant=constant
        )
        sha.update(json.dumps([r.to_json() for r in reports], sort_keys=True).encode())
    assert sha.hexdigest() == "bdbeb7c4ffad322a61c1564e265ff48c0d07d49a"


def test_distance_reports_for_sign_changing_functions_pinned_digest():
    # Captured before the distance checks moved onto reports.sampled_check:
    # both value inequalities skipped, both gradient ones measured.
    sha = hashlib.sha1()
    for text in ("x^2 - y^2", "x^2*y - y^3", "x^2 - y^3"):
        reports = verify_distance_inequalities(
            parse(text), CriticalSet.origin(2), Fraction(8, 9),
            samples=2000, seed=3, gradient_constant=1.0,
        )
        sha.update(json.dumps([r.to_json() for r in reports], sort_keys=True).encode())
    assert sha.hexdigest() == "29209604dd4aa0aa20c42771f211df05753d19de"


# Inputs beyond the resolve-curves curves on which gamma is compared with
# the squared-gradient route.
GAMMA_INPUTS = [
    "x^2 - y^3", "x^2 + y^4", "x^2*y^2", "x^3 - 2*y^5", "x^2*y - y^3 + x^5",
    "(y^2 - x^3)*(y^2 - x^5)", "x^4 + y^4", "x^2 + y^2", "x1^2*x2^2*x3^2",
    "x^17 + y^2", "x^5 - y^7", "x^2 - 2*y^2",
]


def test_gamma_equals_the_squared_gradient_route():
    compared = fallbacks = 0
    for text in [text for text, _ in BRIESKORN_PHAM] + CUSP_TEMPLATES + GAMMA_INPUTS:
        E = parse(text)
        try:
            expected = squared_gradient_gamma(E)
        except PolynomialLimitError:
            continue  # the square passes the degree cap
        reports = verify_distance_inequalities(
            E, CriticalSet.origin(len(E.variables)), Fraction(1, 2), samples=64
        )
        mu, gamma = reports[2], reports[3]
        if expected is None:
            assert gamma.exponent == mu.exponent and gamma.notes.startswith("fallback"), text
            fallbacks += 1
        else:
            assert gamma.exponent == expected[0], text
            assert gamma.notes == f"exponent via {expected[1]} for the squared-gradient route"
        compared += 1
    assert (compared, fallbacks) == (136, 1)


# The curves x^a +- c*y^b, 2 <= a < b <= 9, whose squared gradient passes
# the per-variable degree cap when it is resolved.
CAPPED_GRADIENT_CURVES = [
    f"x^{a} {sign} {c}*y^{b}"
    for a, b in ((6, 8), (6, 9), (7, 8), (8, 9))
    for sign in "+-"
    for c in ("1", "2", "3", "1/2")
]


def test_gamma_falls_back_to_mu_when_the_squared_gradient_passes_the_cap():
    for text in CAPPED_GRADIENT_CURVES:
        E = parse(text)
        with pytest.raises(PolynomialLimitError):
            exponent_upper_bound(flow._gradient_square_polynomial(E))
        theta, _ = exponent_upper_bound(E)
        reports = verify_distance_inequalities(E, CriticalSet.origin(2), theta, samples=64)
        mu, gamma = reports[2], reports[3]
        assert gamma.exponent == mu.exponent == theta / (1 - theta), text
        assert gamma.notes.startswith(
            "fallback: building or resolving the squared gradient passes the size cap (degree "
        ), text
        assert gamma.notes.endswith("exceeds per-variable cap 64); using mu"), text
    assert len(CAPPED_GRADIENT_CURVES) == 32
    # Here G = 1600*x^78 + 4*y^2 passes the cap as soon as it is built.
    reports = verify_distance_inequalities(
        parse("x^40 + y^2"), CriticalSet.origin(2), Fraction(39, 40), samples=64
    )
    assert reports[3].exponent == reports[2].exponent == 39
    assert reports[3].notes == (
        "fallback: building or resolving the squared gradient passes the size cap "
        "(degree 78 exceeds per-variable cap 64); using mu"
    )


def test_gamma_falls_back_to_mu_without_a_bound_for_the_squared_gradient():
    # ||grad E||^2 = 4(x^2 + y^2 + z^2) is not snc and has three variables.
    reports = verify_distance_inequalities(
        parse("x^2 + y^2 + z^2"), CriticalSet.origin(3), Fraction(1, 2)
    )
    by_id = {r.inequality_id: r for r in reports}
    gamma = by_id["gradient-distance-analytic"]
    assert gamma.exponent == by_id["gradient-distance"].exponent == Fraction(1)
    assert gamma.notes == "fallback: no exponent derivable for the squared gradient; using mu"
    assert by_id["distance-zero"].exponent == by_id["distance-critical"].exponent
