"""Empirical exponent estimation and counterexample detection."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from lojalab.estimate import (
    VALUE_CEILING,
    VALUE_DISCARD,
    EstimateError,
    _reduce_block,
    builtin_function,
    compare_with_resolution_bound,
    estimate_theta,
    haraux_counterexample_check,
)
from lojalab.poly import Function, parse
from lojalab.sampling import _row_norms, geometric_radii, sphere_directions

from oracles import monomial_ratio_profile

SNC_CORPUS = {
    "x1*x2": Fraction(1, 2),
    "x^2": Fraction(1, 2),
    "x^2*y^2": Fraction(3, 4),
    "x^6*y^2": Fraction(7, 8),
    "x^6*y": Fraction(6, 7),
    "x^3": Fraction(2, 3),
    "x^5": Fraction(4, 5),
}


def _origin(p):
    return (0.0,) * len(p.variables)


def test_estimate_windows_for_reference_inputs():
    est = estimate_theta(parse("x1*x2"), (0.0, 0.0))
    assert 0.45 <= est.theta_hat <= 0.55
    est = estimate_theta(parse("x^2 - y^3"), (0.0, 0.0))
    assert 0.62 <= est.theta_hat <= 0.72  # exact exponent 2/3
    est = estimate_theta(parse("x^2*y^2"), (0.0, 0.0))
    assert 0.70 <= est.theta_hat <= 0.80


def test_estimate_agrees_with_snc_formula():
    for text, theta in SNC_CORPUS.items():
        p = parse(text)
        est = estimate_theta(p, _origin(p))
        assert abs(est.theta_hat - float(theta)) <= 0.05, text
        assert not est.failure_detected, text


def test_band_brackets_estimate():
    est = estimate_theta(parse("x^2 - y^3"), (0.0, 0.0))
    assert est.band[0] <= est.theta_hat <= est.band[1]


def test_band_contains_closed_form_on_brieskorn_pham():
    # x^a +/- y^b with a < b has exponent 1 - 1/b at the origin, attained
    # along the y-axis, which the plane direction mesh must hit exactly.
    misses = []
    for a in range(2, 10):
        for b in range(a + 1, 10):
            for sign in "+-":
                est = estimate_theta(parse(f"x^{a} {sign} y^{b}"), (0.0, 0.0))
                if not est.band[0] <= 1 - 1 / b <= est.band[1]:
                    misses.append((f"x^{a} {sign} y^{b}", est.band))
    assert misses == []


def test_band_contains_one_half_for_a_three_variable_well():
    # Three variables take the Fibonacci direction mesh.
    est = estimate_theta(parse("x1^2 + x2^2 + x3^2"), (0.0, 0.0, 0.0))
    assert est.band[0] <= 0.5 <= est.band[1]


def test_estimate_scale_invariance():
    p = parse("x^2*y^2")
    a = estimate_theta(p, (0.0, 0.0))
    b = estimate_theta(p.scale(2), (0.0, 0.0))
    assert abs(a.theta_hat - b.theta_hat) <= (a.band[1] - a.band[0])


def test_estimate_seed_determinism():
    p = parse("x^2 - y^3")
    a = estimate_theta(p, (0.0, 0.0))
    b = estimate_theta(p, (0.0, 0.0))
    assert a.theta_hat == b.theta_hat
    assert a.per_radius_ratio == b.per_radius_ratio
    assert a.envelope_points == b.envelope_points


def test_estimate_requires_critical_point():
    with pytest.raises(EstimateError, match="not critical"):
        estimate_theta(parse("x^2"), (0.3,))


@pytest.mark.parametrize("x_star", [(math.nan, 0.0), (0.0, math.inf)])
def test_estimate_rejects_non_finite_point(x_star):
    # A NaN gradient norm is not above the criticality threshold either.
    with pytest.raises(EstimateError, match="not finite"):
        estimate_theta(parse("x^2 + y^2"), x_star)


def test_monomial_profile_is_radius_independent():
    radii = np.geomspace(1e-6, 1e-1, 10)
    for text, theta in (("x1*x2", Fraction(1, 2)), ("x^2*y^2", Fraction(3, 4))):
        profile = monomial_ratio_profile(parse(text), theta, radii)
        assert max(profile) - min(profile) <= 0.02 * max(profile)


def test_value_monotonicity_flag_set_for_regular_inputs():
    est = estimate_theta(parse("x^2*y^2"), (0.0, 0.0))
    assert est.value_monotone_in_radius


# ----------------------------------------------------------------------
# consistency with resolution bounds
# ----------------------------------------------------------------------


def test_cusp_estimate_consistent_with_resolution_interval():
    est = estimate_theta(parse("x^2 - y^3"), (0.0, 0.0))
    verdict = compare_with_resolution_bound(est, (Fraction(1, 2), Fraction(7, 8)))
    assert verdict.consistent
    assert verdict.slack_upper > 0


def test_cross_estimate_consistent_with_tight_interval():
    est = estimate_theta(parse("x1*x2"), (0.0, 0.0))
    verdict = compare_with_resolution_bound(est, (Fraction(1, 2), Fraction(1, 2)))
    assert verdict.consistent


def test_inconsistent_when_band_sits_above_bound():
    est = estimate_theta(parse("x^6*y^2"), (0.0, 0.0))  # theta ~ 7/8
    verdict = compare_with_resolution_bound(est, (Fraction(1, 2), Fraction(1, 2)))
    assert not verdict.consistent


# ----------------------------------------------------------------------
# counterexamples
# ----------------------------------------------------------------------


def test_haraux_failure_detected():
    est = estimate_theta(builtin_function("haraux"), (0.0, 0.0))
    assert est.failure_detected
    assert est.theta_hat >= 0.98


def test_delellis_failure_detected():
    est = estimate_theta(builtin_function("delellis"), (0.0,))
    assert est.failure_detected


def test_failure_evidence_sits_at_one():
    # Detected failures must show per-radius slopes pinned near 1 on the
    # small-radius quartile (for the 1-d example the sequence increases
    # toward 1 as the radius shrinks).
    for name in ("haraux", "delellis"):
        fn = builtin_function(name)
        est = estimate_theta(fn, (0.0,) * fn.dimension)
        with_data = [r for r in est.per_radius_ratio if r is not None]
        quartile = with_data[-max(1, len(with_data) // 4):]
        assert all(r >= 0.98 for r in quartile), name
    est = estimate_theta(builtin_function("delellis"), (0.0,))
    ratios = [r for r in est.per_radius_ratio if r is not None]
    assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] >= 0.99


def test_no_false_positives_on_polynomials():
    for text in SNC_CORPUS:
        p = parse(text)
        est = estimate_theta(p, _origin(p))
        assert not est.failure_detected, text
    est = estimate_theta(parse("x^2 - y^3"), (0.0, 0.0))
    assert not est.failure_detected


def test_counterexample_battery():
    result = haraux_counterexample_check()
    assert result["pass"]
    assert result["haraux"].failure_detected
    assert result["delellis"].failure_detected
    assert not result["control"].failure_detected
    assert abs(result["control"].theta_hat - 0.5) < 0.05


def test_unknown_builtin_rejected():
    with pytest.raises(EstimateError):
        builtin_function("unknown")


def test_haraux_builtin_values():
    fn = builtin_function("haraux")
    # Closed form at y = 0: E = x^2 / e, dE/dx = 2x / e.
    x = np.array([[0.25, 0.0]])
    assert fn.value(x)[0] == pytest.approx(0.0625 / math.e, rel=1e-12)
    grad = fn.gradient(x)[0]
    assert grad[0] == pytest.approx(0.5 / math.e, rel=1e-12)
    assert grad[1] == 0.0
    assert fn.value(np.array([[0.0, 0.3]]))[0] == 0.0
    # Finite-difference oracle for the gradient at a generic point.
    pt = np.array([[0.21, 0.13]])
    step = 1e-7
    for i in range(2):
        e = np.zeros((1, 2))
        e[0, i] = step
        fd = (fn.value(pt + e)[0] - fn.value(pt - e)[0]) / (2 * step)
        assert fn.gradient(pt)[0, i] == pytest.approx(fd, rel=1e-6)


def test_delellis_builtin_values():
    fn = builtin_function("delellis")
    x = np.array([[0.2]])
    assert fn.value(x)[0] == pytest.approx(math.exp(-5.0), rel=1e-12)
    fd = (fn.value(x + 1e-8)[0] - fn.value(x - 1e-8)[0]) / 2e-8
    assert fn.gradient(x)[0, 0] == pytest.approx(fd, rel=1e-6)
    assert fn.log_abs_value(x)[0] == pytest.approx(-5.0, abs=1e-12)


def test_log_domain_consistency_with_plain_values():
    fn = builtin_function("haraux")
    pt = np.array([[0.3, 0.2]])
    assert fn.log_abs_value(pt)[0] == pytest.approx(math.log(fn.value(pt)[0]), rel=1e-12)
    assert fn.log_gradient_norm(pt)[0] == pytest.approx(
        math.log(float(np.linalg.norm(fn.gradient(pt)[0]))), rel=1e-12
    )


def test_envelope_csv(tmp_path):
    est = estimate_theta(parse("x^2"), (0.0,))
    path = tmp_path / "envelope.csv"
    est.write_envelope_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "radius,min_ratio"
    assert len(lines) == len(est.radii) + 1


def test_radius_that_keeps_no_sample_is_left_out_of_the_fit():
    # x^2 underflows to 0 at |x| < 1e-162 in every direction, so the last
    # radii of this grid keep no sample and give no ratio.
    est = estimate_theta(parse("x^2"), [0.0], (1e-200, 1e-1, 26))
    assert est.kept_counts[0] > 0 and est.kept_counts[-1] == 0
    for kept, ratio, point in zip(est.kept_counts, est.per_radius_ratio, est.envelope_points):
        assert (kept == 0) == (ratio is None) == (point is None)
    assert est.band[0] <= 0.5 <= est.band[1]
    assert est.to_json()["envelope"][-1] is None


def test_radii_that_keep_no_sample_at_all_raise():
    with pytest.raises(EstimateError, match="all samples discarded at every radius"):
        estimate_theta(parse("x^2"), [0.0], (1e-250, 1e-200, 5))


# ----------------------------------------------------------------------
# blocked evaluation: the bits of one evaluation per radius
# ----------------------------------------------------------------------


def _per_radius_reference(E, x_star, radii, samples_per_radius):
    """The estimator with one value and one gradient evaluation per radius,
    as ``to_json`` reports it."""
    fn = Function.of(E)
    x_star = np.asarray(x_star, dtype=float)
    value_at_star = fn.value(x_star[None, :])[0]
    radius_grid = geometric_radii(*radii)
    directions = sphere_directions(fn.dimension, samples_per_radius)
    per_radius, envelope, kept_counts, means = [], [], [], []
    for r in radius_grid:
        points = x_star[None, :] + r * directions
        if fn.log_abs_value:
            log_vals = fn.log_abs_value(points)
        else:
            with np.errstate(divide="ignore"):
                log_vals = np.log(np.abs(fn.value(points) - value_at_star))
        if fn.log_gradient_norm:
            log_grads = fn.log_gradient_norm(points)
        else:
            log_grads = np.log(np.maximum(_row_norms(fn.gradient(points)), VALUE_DISCARD))
        keep = np.isfinite(log_vals) & np.isfinite(log_grads) & (log_vals < math.log(VALUE_CEILING))
        kept_counts.append(int(keep.sum()))
        if not np.any(keep):
            per_radius.append(None)
            envelope.append(None)
            means.append(math.nan)
            continue
        ratios = log_grads[keep] / log_vals[keep]
        best = int(np.argmax(ratios))
        per_radius.append(float(ratios[best]))
        envelope.append([float(log_vals[keep][best]), float(log_grads[keep][best])])
        means.append(float(log_vals[keep].mean()))
    with_data = [(float(r), x) for r, x in zip(radius_grid, per_radius) if x is not None]
    tail = with_data[-max(1, math.ceil(len(with_data) / 4)):]
    tail_ratios = sorted(x for _, x in tail)
    theta_hat = float(np.median(tail_ratios))
    resolution = 1.0 / abs(math.log(tail[-1][0]))
    finite = [m for m in means if not math.isnan(m)]
    inversions = sum(1 for m1, m2 in zip(finite, finite[1:]) if m2 > m1)
    return {
        "theta_hat": theta_hat,
        "band": [tail_ratios[0] - resolution, tail_ratios[-1] + resolution],
        "radii": [float(r) for r in radius_grid],
        "envelope": envelope,
        "per_radius_ratio": per_radius,
        "failure_detected": theta_hat >= 0.98,
        "kept_counts": kept_counts,
        "value_monotone_in_radius": inversions <= len(finite) // 10,
        "input": fn.name,
    }


def _bits(value):
    """``value`` with every float replaced by its hex form, so that ``==``
    compares bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    return value


BLOCK_INPUTS = {
    "d1": (lambda: parse("x^4 - 1/3*x^5"), (0.0,)),
    "d2": (lambda: parse("(y^2 - 2*x^3)*(y^2 - 2*x^7)"), (0.0, 0.0)),
    "d3": (lambda: parse("x^2*y^2 + z^4 - x*y*z^2"), (0.0, 0.0, 0.0)),
    "d4": (lambda: parse("x1*x2^2*x3*x4^3*(1 - 1/4*x1*x3 + 2*x4)"), (0.0,) * 4),
    "off-origin": (lambda: parse("(x - 1/2)^2*y^2 + 1/3"), (0.5, 0.0)),
    "no-log-function": (lambda: Function.of(parse("x^2*y^4 - x^5")), (0.0, 0.0)),
    "one-log-callable": (
        lambda: dataclasses.replace(builtin_function("haraux"), log_gradient_norm=None),
        (0.0, 0.0),
    ),
    "haraux": (lambda: builtin_function("haraux"), (0.0, 0.0)),
    "delellis": (lambda: builtin_function("delellis"), (0.0,)),
}


@pytest.mark.parametrize("samples", [400, 3000])
@pytest.mark.parametrize("count", [1, 5, 6, 26, 27])
@pytest.mark.parametrize("key", BLOCK_INPUTS)
def test_blocked_estimate_matches_per_radius_reference_bit_for_bit(key, count, samples):
    # Blocks hold max(1, 2048 // directions) radii: counts 5, 6, 26 and 27
    # end on a full or a partial block, and 3000 samples give one radius
    # per block.
    make, x_star = BLOCK_INPUTS[key]
    radii = (1e-6, 1e-1, count)
    est = estimate_theta(make(), x_star, radii, samples)
    assert _bits(est.to_json()) == _bits(_per_radius_reference(make(), x_star, radii, samples))


def _peak_bytes(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("text", [
    "(y^2 - 2*x^3)*(y^2 - 2*x^7)",
    "x^8 - 3*y^9",
    "x1*x2^2*x3*x4^3*(1 - 1/4*x1*x3 + 2*x4)",
])
def test_default_estimate_peak_memory_stays_under_one_megabyte(text):
    # Blocks of about 2048 rows keep the transient flat; one batch of the
    # whole 26-radius grid peaks at 1.0-2.2 MB on these inputs.
    p = parse(text)
    peak = _peak_bytes(lambda: estimate_theta(p, (0.0,) * len(p.variables)))
    assert peak < 1_000_000, peak


def _reduce_rows_reference(log_vals, log_grads):
    """The estimator's reductions one radius at a time, on each row alone:
    the loop that blocks are now reduced without."""
    counts, per_radius, envelope, means = [], [], [], []
    for row_vals, row_grads in zip(log_vals, log_grads):
        keep = (
            np.isfinite(row_vals)
            & np.isfinite(row_grads)
            & (row_vals < math.log(VALUE_CEILING))
        )
        counts.append(int(keep.sum()))
        if not np.any(keep):
            per_radius.append(None)
            envelope.append(None)
            means.append(math.nan)
            continue
        with np.errstate(over="ignore"):
            ratios = row_grads[keep] / row_vals[keep]
        best = int(np.argmax(ratios))
        per_radius.append(float(ratios[best]))
        envelope.append((float(row_vals[keep][best]), float(row_grads[keep][best])))
        means.append(float(row_vals[keep].mean()))
    return counts, per_radius, envelope, means


LOG_CEILING = math.log(VALUE_CEILING)
ABOVE_CEILING = math.nextafter(LOG_CEILING, math.inf)
INF, NAN = math.inf, math.nan


def _hand_block():
    """Rows of 12 samples, each a case the keep mask, the argmax or the
    mean must get right; kept values around them are random."""
    rng = np.random.default_rng(7)
    log_vals = -rng.uniform(1.0, 60.0, (10, 12))
    log_grads = -rng.uniform(0.0, 40.0, (10, 12))
    # 0: every sample kept.
    # 1: some kept; |E| = 0, NaN logs, |E| at and above the ceiling.
    log_vals[1, [0, 2, 4, 6, 7, 9]] = [-INF, NAN, LOG_CEILING, ABOVE_CEILING, 0.0, 3.0]
    log_grads[1, [1, 3, 5]] = [NAN, INF, -INF]
    # 2: none kept.
    log_vals[2] = [-INF, NAN, LOG_CEILING, ABOVE_CEILING, 0.0, INF] * 2
    # 3: the largest ratio, 2.0, three times, after a dropped sample; the
    # first of them wins, with its own envelope pair.
    log_vals[3, :5] = [-INF, -2.0, -4.0, -1.0, -8.0]
    log_grads[3, :5] = [5.0, -4.0, -8.0, -2.0, -16.0]
    log_grads[3, 5:] = 1.0  # negative ratios
    # 4 and 5: ratios -0.0 and +0.0 tie as the largest; the first wins.
    log_vals[4:6, :2] = -1.0
    log_grads[4, :2] = [0.0, -0.0]
    log_grads[5, :2] = [-0.0, 0.0]
    log_grads[4:6, 2:] = 1.0
    # 6: the only kept ratio overflows to -inf after a dropped sample.
    log_vals[6] = -INF
    log_vals[6, 3] = -0.75
    log_grads[6, 3] = 1.7e308
    # 7: kept ratios that overflow to +inf and -inf.
    log_vals[7, 4:6] = -0.75
    log_grads[7, 4:6] = [-1.7e308, 1.7e308]
    # 8: one kept sample, the last.
    log_vals[8, :-1] = NAN
    # 9: every sample kept but one |E| = 0, in the middle.
    log_vals[9, 6] = -INF
    return log_vals, log_grads


def _random_block(rows, columns, dropped, seed):
    """Random logs with a share ``dropped`` of samples outside the keep mask."""
    rng = np.random.default_rng(seed)
    log_vals = -rng.uniform(1.0, 60.0, (rows, columns))
    log_grads = -rng.uniform(0.0, 40.0, (rows, columns))
    drop = rng.random((rows, columns)) < dropped
    log_vals[drop] = rng.choice([-INF, NAN, LOG_CEILING, 0.0], drop.sum())
    return log_vals, log_grads


REDUCE_BLOCKS = {
    "hand": _hand_block(),
    **{f"hand-row-{i}": tuple(a[i:i + 1] for a in _hand_block()) for i in range(10)},
    "1x3000-all-kept": _random_block(1, 3000, 0.0, 1),
    "1x3000-some-kept": _random_block(1, 3000, 0.3, 2),
    "3x3000-mixed": _random_block(3, 3000, 0.05, 3),
    "5x400-mixed": _random_block(5, 400, 0.1, 4),
    "1024x2-mixed": _random_block(1024, 2, 0.3, 5),
    "256x8-mixed": _random_block(256, 8, 0.2, 6),
    "2x3000-none-kept": _random_block(2, 3000, 1.0, 7),
}


@pytest.mark.parametrize("key", REDUCE_BLOCKS)
def test_block_reduction_matches_per_row_reference_bit_for_bit(key):
    log_vals, log_grads = REDUCE_BLOCKS[key]
    ours = _reduce_block(log_vals, log_grads)
    assert _bits(ours) == _bits(_reduce_rows_reference(log_vals, log_grads))
    assert all(type(count) is int for count in ours[0])


def test_hand_block_reduces_to_the_expected_figures():
    counts, per_radius, envelope, means = _reduce_block(*_hand_block())
    assert counts == [12, 3, 0, 11, 12, 12, 1, 12, 1, 11]
    assert per_radius[2] is envelope[2] is None and math.isnan(means[2])
    assert (per_radius[3], envelope[3]) == (2.0, (-2.0, -4.0))
    assert math.copysign(1.0, per_radius[4]) == -1.0
    assert math.copysign(1.0, per_radius[5]) == 1.0
    assert (per_radius[6], envelope[6]) == (-INF, (-0.75, 1.7e308))
    assert per_radius[7] == INF


@pytest.mark.parametrize("seed", range(40))
def test_fully_kept_row_sums_are_the_pairwise_sums_of_one_row(seed):
    # The mean of a fully kept radius is its row sum over the block divided
    # by n: the bits of a 1-D mean only if the row sum is the same pairwise
    # sum.  Shapes include n < 8, where the sum is a plain loop, and rows
    # past numpy's 128-element pairwise block.
    rng = np.random.default_rng(seed)
    columns = int(rng.choice([2, 7, 8, 9, 100, 129, 400, 1000, 3000]))
    rows = min(int(rng.integers(1, 1025)), 4096 // columns + 1)
    shape = (rows, columns)
    log_vals = -rng.uniform(1.0, 60.0, shape) * 10.0 ** rng.uniform(0, 6, shape)
    means = _reduce_block(log_vals, np.zeros_like(log_vals))[3]
    assert _bits(means) == _bits([float(row.mean()) for row in log_vals])
