"""Acceptance battery: one test per criterion, printing PASS/FAIL lines.

Each criterion states its tolerance inline; timing limits are asserted with
the stated budgets.  Run with ``pytest tests/test_acceptance.py -v -s`` to
see the per-criterion lines.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from lojalab.blowup import resolve, translated_chart_analysis
from lojalab.estimate import (
    builtin_function,
    compare_with_resolution_bound,
    estimate_theta,
)
from lojalab.flow import (
    CoordinateSubspace,
    CriticalSet,
    dqds_identity_error,
    energy_monotonicity_violation,
    integrate_flow,
    verify_distance_inequalities,
    verify_length_bound,
)
from lojalab.morse import check_generalized_morse_bott, check_morse_bott
from lojalab.poly import parse
from lojalab.snc import (
    compute_constants,
    detect_snc,
    exponent_from_snc,
    verify_gradient_inequality,
)

from oracles import generalized_young_holds_exact
from test_blowup import CUSP_TOWER

EXPONENT_CORPUS = {
    "x1*x2": (Fraction(1, 2), 2, True),
    "x^2": (Fraction(1, 2), 2, True),
    "x^2*y^2": (Fraction(3, 4), 4, False),
    "x^6*y^2": (Fraction(7, 8), 8, False),
    "x^6*y": (Fraction(6, 7), 7, False),
    "x^3": (Fraction(2, 3), 3, False),
    "x^4": (Fraction(3, 4), 4, False),
    "x^5": (Fraction(4, 5), 5, False),
    "x^6": (Fraction(5, 6), 6, False),
}


@contextmanager
def criterion(label: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL: {label}")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed <= budget_seconds else "FAIL"
    print(f"{status}: {label} ({elapsed:.2f}s / budget {budget_seconds:.0f}s)")
    assert elapsed <= budget_seconds, f"{label}: {elapsed:.2f}s over budget"


def test_criterion_cusp_golden_reproduction():
    with criterion("cusp blow-up tower golden reproduction (bit-exact)", 1.0):
        result = resolve(parse("x^2 - y^3"), max_depth=3, expand_snc=True)
        for chart_id, text in CUSP_TOWER.items():
            assert result.tree.node(chart_id).total_transform == parse(text)
        leaf = result.tree.node("root/1/2/2")
        assert leaf.factorization.exponents == (6, 2)
        assert leaf.factorization.residual == parse("1 - b122", variables=["a122", "b122"])
        assert leaf.monomial_total_degree == 8
        assert leaf.theta_bound == Fraction(7, 8)


def test_criterion_translated_chart():
    with criterion("translated-chart analysis at the exceptional point", 1.0):
        result = resolve(parse("x^2 - y^3"), max_depth=3, expand_snc=True)
        leaf = result.tree.node("root/1/2/2")
        reports, unanalyzed = translated_chart_analysis(leaf)
        assert unanalyzed == 0 and len(reports) == 1
        assert reports[0].point_value == 1
        assert sum(reports[0].factorization.exponents) == 7
        assert reports[0].theta_bound == Fraction(6, 7)


def test_criterion_exponent_formulas():
    with criterion("exponent formulas on the corpus (bit-exact)", 1.0):
        for text, (theta, total, optimal) in EXPONENT_CORPUS.items():
            report = exponent_from_snc(detect_snc(parse(text)))
            assert report.theta == theta, text
            assert report.total_degree == total, text
            assert report.optimal == optimal, text


def test_criterion_constructive_gradient_inequality():
    with criterion("constructive gradient inequality on the corpus", 10.0):
        for text in EXPONENT_CORPUS:
            p = parse(text)
            report = compute_constants(detect_snc(p))
            check = verify_gradient_inequality(p, report, samples=10_000, seed=0)
            assert check.passed, (
                f"{text}: measured {check.measured_constant} "
                f"< C0 {report.gradient_constant}"
            )


def test_criterion_generalized_young_suite():
    with criterion("generalized Young inequality suite", 5.0):
        rng = np.random.default_rng(2024)
        violations = 0
        for _ in range(10_000):
            c = int(rng.integers(1, 7))
            a = rng.uniform(1e-2, 10.0, c)
            p = rng.uniform(0.2, 8.0, c)
            r = 1.0 / np.sum(1.0 / p)
            lhs = float(np.prod(a) ** r)
            rhs = float(r * np.sum(a**p / p))
            if lhs > rhs * (1 + 1e-12):
                violations += 1
        assert violations == 0
        for _ in range(100):
            c = int(rng.integers(1, 7))
            a = [
                Fraction(int(rng.integers(1, 60)), int(rng.integers(1, 16)))
                for _ in range(c)
            ]
            powers = [int(rng.integers(1, 7)) for _ in range(c)]
            assert generalized_young_holds_exact(a, powers)


def test_criterion_empirical_exponent_agreement():
    # Budget: under 30 seconds per estimate.
    with criterion("empirical exponent windows", 90.0):
        start = time.perf_counter()
        est = estimate_theta(parse("x1*x2"), (0.0, 0.0))
        assert time.perf_counter() - start <= 30.0
        assert 0.45 <= est.theta_hat <= 0.55
        start = time.perf_counter()
        est_cusp = estimate_theta(parse("x^2 - y^3"), (0.0, 0.0))
        assert time.perf_counter() - start <= 30.0
        assert 0.62 <= est_cusp.theta_hat <= 0.72  # exact value 2/3
        verdict = compare_with_resolution_bound(
            est_cusp, (Fraction(1, 2), Fraction(7, 8))
        )
        assert verdict.consistent
        start = time.perf_counter()
        est_sq = estimate_theta(parse("x^2*y^2"), (0.0, 0.0))
        assert time.perf_counter() - start <= 30.0
        assert 0.70 <= est_sq.theta_hat <= 0.80


def test_criterion_counterexample_detection():
    with criterion("counterexample detection", 30.0):
        assert estimate_theta(builtin_function("haraux"), (0.0, 0.0)).failure_detected
        assert estimate_theta(builtin_function("delellis"), (0.0,)).failure_detected
        for text in list(EXPONENT_CORPUS) + ["x^2 - y^3", "x^2 + y^4"]:
            p = parse(text)
            est = estimate_theta(p, (0.0,) * len(p.variables))
            assert not est.failure_detected, text


def test_criterion_flow_length_bound_equality_cases():
    with criterion("flow length-bound equality cases and identities", 10.0):
        p = parse("x^2")
        traj = integrate_flow(p, [0.5], tol=1e-10, rtol=1e-12, atol=1e-12)
        bound = verify_length_bound(traj, Fraction(1, 2), 2.0)
        assert bound.bound == pytest.approx(0.5, abs=0)
        assert abs(traj.arc_length - 0.5) <= 1e-6
        q = parse("x^4")
        traj4 = integrate_flow(q, [0.5], tol=4e-21, t_max=1e18)
        bound4 = verify_length_bound(traj4, Fraction(3, 4), 4.0)
        assert bound4.bound == pytest.approx(0.5, abs=0)
        assert abs(traj4.arc_length - 0.5) <= 1e-6
        corpus = [
            ("x^2", [0.5], 1e-10),
            ("x^4", [0.5], 1e-10),
            ("x^2 + y^2", [0.3, 0.4], 1e-10),
            ("x^2*y^2", [0.3, 0.4], 1e-10),
            ("x^2 + y^4", [0.2, 0.2], 1e-5),
        ]
        for text, x0, tol in corpus:
            poly = parse(text)
            trajectory = integrate_flow(poly, x0, tol=tol, rtol=1e-12, atol=1e-12)
            assert trajectory.converged, text
            assert energy_monotonicity_violation(trajectory) <= 1e-9, text
            assert dqds_identity_error(trajectory, poly, count=40_000) <= 1e-6, text


def test_criterion_distance_inequalities():
    with criterion("distance-inequality exponents and constants", 20.0):
        cases = {
            "x^2": (CriticalSet.subspace(()), Fraction(1, 2)),
            "x^2*y^2": (
                CriticalSet(
                    subspaces=(CoordinateSubspace((0,)), CoordinateSubspace((1,)))
                ),
                Fraction(3, 4),
            ),
            "x^2 + y^4": (CriticalSet.origin(2), Fraction(3, 4)),
        }
        for text, (crit, theta) in cases.items():
            reports = verify_distance_inequalities(parse(text), crit, theta)
            for report in reports:
                assert report.measured_constant > 0, (text, report.inequality_id)
        square_reports = verify_distance_inequalities(
            parse("x^2"), CriticalSet.subspace(()), Fraction(1, 2)
        )
        alpha = next(
            r for r in square_reports if r.inequality_id == "distance-critical"
        )
        assert abs(alpha.measured_constant - 1.0) <= 1e-9


def test_criterion_morse_bott_battery():
    with criterion("Morse-Bott battery (bit-exact)", 1.0):
        assert check_morse_bott(parse("x^2 + y^2"), ()).verdict
        cusp_report = check_morse_bott(parse("x^2 - y^3"), ())
        assert not cusp_report.verdict
        assert cusp_report.hessian_kernel_basis == ((Fraction(0), Fraction(1)),)
        barta = check_generalized_morse_bott(parse("x^3 + x^2*y^5"), (1,), 3)
        assert not barta.condition_b_holds
        assert not barta.verdict
