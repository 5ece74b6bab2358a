"""Blow-up engine: chart towers, golden transforms, transported bounds."""

import functools
import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from lojalab.blowup import (
    BlowupError,
    exponent_upper_bound,
    pull_back_and_bound,
    resolve,
    translated_chart_analysis,
)
from lojalab.poly import Polynomial, Substitution, parse
from lojalab.sampling import ball_points

from oracles import evaluate_exact

CUSP = parse("x^2 - y^3")

# Traditional chart letters for the engine's path-derived variable names.
RENAMES = {
    "root/1": {"u1": "u", "v1": "v"},
    "root/2": {"a2": "a", "b2": "b"},
    "root/1/2": {"a12": "r", "b12": "s"},
    "root/2/1": {"u21": "c", "v21": "d"},
    "root/1/2/2": {"a122": "alpha", "b122": "beta"},
    "root/2/1/1": {"u211": "g", "v211": "h"},
}


# x^a + c*y^b with a < b has exponent 1 - 1/b at the origin: along the
# y-axis |grad f| = b|c||y|^(b-1) = b|c|^(1/b) |f|^(1 - 1/b).
BRIESKORN_PHAM = [
    (f"x^{a} {sign} {c}*y^{b}", Fraction(b - 1, b))
    for a in range(2, 10)
    for b in range(a + 1, 10)
    for sign in "+-"
    for c in ("1", "2", "1/2")
]
CUSP_TEMPLATES = [
    template.format(a=a, b=b)
    for template in (
        "(y^2 - {a}*x^3)*(y^2 - {b}*x^5)",
        "(y^2 - {a}*x^3)*(y^2 - {b}*x^7)",
        "(y^2 - {a}*x^3)^2 - {b}*x^5*y",
        "(y^2 - {a}*x^3)^2 - {b}*x^7*y",
        "(y^2 - {a}*x^3)*(x^2 - {b}*y^3)",
        "(y^3 - {a}*x^4)*(y^2 - {b}*x^3)",
    )
    for a in (1, 2)
    for b in (1, 2)
]


@functools.lru_cache(maxsize=None)
def _resolved(text):
    return resolve(parse(text))


# Every resolve(p).to_json() over this corpus is pinned by digest.
PINNED_CORPUS = (
    [
        f"x^{a} {sign} {c}*y^{b}"
        for a in range(2, 10)
        for b in range(a + 1, 10)
        for sign in "+-"
        for c in ("1", "2", "1/2", "3")
    ]
    + CUSP_TEMPLATES
    + ["x^2 - y^3", "x1*x2", "x^2 - 2*y^2"]
)
PINNED_DIGEST = "53b8ecc95f4f56ebc165f01568382c2e10d07815"
# Rational exceptional points off the snc chart origins over
# BRIESKORN_PHAM and CUSP_TEMPLATES.
CHECKED_TRANSLATED = 332


def _blowup_once(p):
    """Both charts of one blow-up at the origin: the depth-1 tree's nodes."""
    tree = resolve(p, max_depth=1, expand_snc=True).tree
    return tree.node("root/1"), tree.node("root/2")


def test_blowup_once_cusp_charts():
    chart1, chart2 = _blowup_once(CUSP)
    assert chart1.total_transform.rename(RENAMES["root/1"]) == parse("u^2*v^2 - v^3")
    assert chart2.total_transform.rename(RENAMES["root/2"]) == parse("a^2 - a^3*b^3")
    # New exceptional line: second variable in chart 1, first in chart 2.
    assert chart1.exceptional_axes == (False, True)
    assert chart2.exceptional_axes == (True, False)


def test_blowup_once_monomializes_cross_term():
    chart1, _ = _blowup_once(parse("x*y"))
    assert chart1.total_transform.rename(RENAMES["root/1"]) == parse("u*v^2")


def test_blowup_once_needs_two_variables():
    with pytest.raises(BlowupError):
        _blowup_once(parse("x^2"))


# ----------------------------------------------------------------------
# resolve, default origin-stopped mode
# ----------------------------------------------------------------------


def test_resolve_already_snc_is_depth_zero():
    result = resolve(parse("x1*x2"), max_depth=3)
    assert result.tree.depth == 0
    assert len(result.tree.leaves()) == 1
    leaf = result.tree.leaves()[0]
    assert leaf.snc and leaf.theta_bound() == Fraction(1, 2)
    assert result.theta_interval == (Fraction(1, 2), Fraction(1, 2))


def test_resolve_cusp_produces_golden_leaf():
    result = resolve(CUSP, max_depth=3)
    golden = [
        leaf
        for leaf in result.tree.leaves()
        if leaf.factorization.exponents == (6, 2) and leaf.snc
    ]
    assert len(golden) == 1
    leaf = golden[0]
    assert leaf.monomial_total_degree == 8
    assert leaf.theta_bound() == Fraction(7, 8)
    assert leaf.factorization.residual.rename(RENAMES["root/1/2/2"]) == parse(
        "1 - beta", variables=["alpha", "beta"]
    )


def test_resolve_requires_vanishing_origin():
    with pytest.raises(BlowupError):
        resolve(parse("1 + x*y"))


def test_resolve_rejects_negative_depth():
    with pytest.raises(BlowupError, match="max_depth must be non-negative, got -1"):
        resolve(CUSP, max_depth=-1)


def test_resolve_depth_cap_flags_branch():
    result = resolve(CUSP, max_depth=1)
    assert result.depth_capped
    capped = [leaf for leaf in result.tree.leaves() if leaf.depth_capped]
    assert capped and all(not leaf.snc for leaf in capped)
    assert not result.complete


def test_resolve_complete_flag():
    # The tangent directions y = +/- x/sqrt(2) are irrational exceptional
    # points, two in each first-level chart.
    split = resolve(parse("x^2 - 2*y^2"))
    assert split.unanalyzed_points == 4 and not split.depth_capped
    assert split.complete is False
    assert split.to_json()["complete"] is False
    cusp = resolve(CUSP)
    assert cusp.unanalyzed_points == 0 and not cusp.depth_capped
    assert cusp.to_json()["complete"] is True


# ----------------------------------------------------------------------
# full expansion: the worked-example tower
# ----------------------------------------------------------------------


def test_expanded_tower_reproduces_all_transforms():
    result = resolve(CUSP, max_depth=3, expand_snc=True)
    expected = {
        "root/1": "u^2*v^2 - v^3",
        "root/2": "a^2 - a^3*b^3",
        "root/1/2": "r^4*s^2 - r^3*s^3",
        "root/2/1": "c^2*d^2 - c^3*d^6",
        "root/1/2/2": "alpha^6*beta^2 - alpha^6*beta^3",
        "root/2/1/1": "g^2*h^4 - g^3*h^9",
    }
    for chart_id, text in expected.items():
        node = result.tree.node(chart_id)
        assert node.total_transform.rename(RENAMES[chart_id]) == parse(text), chart_id


def test_expanded_tower_composite_map():
    result = resolve(CUSP, max_depth=3, expand_snc=True)
    node = result.tree.node("root/1/2/2")
    rename = RENAMES["root/1/2/2"]
    assert node.composite[0].rename(rename) == parse("alpha^3*beta")
    assert node.composite[1].rename(rename) == parse("alpha^2*beta")


def test_exceptional_multiplicities_match_content_on_snc_nodes():
    result = resolve(CUSP, max_depth=3, expand_snc=True)
    for node in result.tree.nodes.values():
        if node.depth >= 1 and node.snc:
            assert node.exceptional_multiplicities == node.factorization.exponents


# ----------------------------------------------------------------------
# structural invariants
# ----------------------------------------------------------------------


def _trees():
    yield resolve(CUSP, max_depth=3, expand_snc=True).tree
    for text in [text for text, _ in BRIESKORN_PHAM] + CUSP_TEMPLATES:
        yield _resolved(text).tree


def test_roundtrip_composite_reproduces_total_transform():
    for tree in _trees():
        root = tree.root_polynomial
        for node in tree.nodes.values():
            if node.depth == 0:
                continue
            sub = Substitution(
                {
                    root.variables[0]: node.composite[0],
                    root.variables[1]: node.composite[1],
                }
            )
            assert sub.apply(root) == node.total_transform, (str(root), node.chart_id)


def test_resolve_does_not_multiply_polynomials(monkeypatch):
    curves = [parse(text) for text in ("x^2 - y^3", "(y^2 - 2*x^3)^2 - x^7*y")]

    def refuse(*args):
        raise AssertionError("resolve went through polynomial multiplication")

    for owner, name in ((Substitution, "apply"), (Polynomial, "__mul__"), (Polynomial, "__rmul__")):
        monkeypatch.setattr(owner, name, refuse)
    for p in curves:
        result = resolve(p)
        assert result.translated_points
        pull_back_and_bound(p, result)


def test_composite_injective_off_exceptional_set():
    result = resolve(CUSP, max_depth=3)
    rng = np.random.default_rng(3)
    for leaf in result.tree.leaves():
        fx = leaf.composite[0].numeric()
        fy = leaf.composite[1].numeric()
        pts = rng.uniform(0.05, 1.0, size=(40, 2)) * rng.choice([-1.0, 1.0], size=(40, 2))
        images = np.column_stack([fx(pts), fy(pts)])
        for i in range(len(images)):
            for j in range(i + 1, len(images)):
                if np.linalg.norm(pts[i] - pts[j]) > 1e-6:
                    assert np.linalg.norm(images[i] - images[j]) > 1e-9


def test_exceptional_axes_map_into_zero_set():
    result = resolve(CUSP, max_depth=3, expand_snc=True)
    probe_values = [Fraction(1, 3), Fraction(-2, 5), Fraction(7, 4)]
    for node in result.tree.nodes.values():
        if node.depth == 0:
            continue
        for axis, exceptional in enumerate(node.exceptional_axes):
            if not exceptional:
                continue
            for t in probe_values:
                point = [t, t]
                point[axis] = Fraction(0)
                image = [evaluate_exact(c, point) for c in node.composite]
                on_curve = evaluate_exact(CUSP, image) == 0
                at_origin = image[0] == 0 and image[1] == 0
                assert on_curve or at_origin, (node.chart_id, axis)


def test_monomial_degree_never_decreases_along_branches():
    result = resolve(CUSP, max_depth=3, expand_snc=True)
    for node in result.tree.nodes.values():
        if node.parent is None:
            continue
        parent = result.tree.node(node.parent)
        assert node.monomial_total_degree >= parent.monomial_total_degree


# ----------------------------------------------------------------------
# translated-chart analysis
# ----------------------------------------------------------------------


def test_translated_point_on_golden_leaf():
    result = resolve(CUSP, max_depth=3, expand_snc=True)
    node = result.tree.node("root/1/2/2")
    reports, unanalyzed = translated_chart_analysis(node)
    assert unanalyzed == 0
    assert len(reports) == 1
    rep = reports[0]
    assert rep.point_value == 1
    assert rep.exponents == (6, 1)
    assert rep.total_degree == 7
    assert rep.theta_bound == Fraction(6, 7)
    # Residual (1 - gamma)^2, nonzero at the recentred origin.
    assert rep.residual.constant_term() == 1
    assert rep.residual == parse("(1 - gamma)*(1 - gamma)", variables=["a122", "gamma"])


def test_translated_polynomials_match_substitution():
    checked = 0
    for text in [text for text, _ in BRIESKORN_PHAM] + CUSP_TEMPLATES:
        result = _resolved(text)
        for point in result.translated_points:
            node = result.tree.node(point.chart_id)
            (gamma,) = set(point.translated.variables) - set(node.variables)
            shift = Polynomial.constant(point.point_value, (gamma,)) - Polynomial.variable(gamma)
            reference = Substitution({point.along_variable: shift}).apply(node.total_transform)
            assert point.translated == reference, (text, point.chart_id)
            assert point.translated.variables == reference.variables
            checked += 1
    assert checked == CHECKED_TRANSLATED


def test_translated_analysis_counts_irrational_points():
    # x^2 - 2y^2 pulls back to v^2 (u^2 - 2): the residual meets the
    # exceptional line at u = +/- sqrt(2), both irrational.
    child1, _ = _blowup_once(parse("x^2 - 2*y^2"))
    reports, unanalyzed = translated_chart_analysis(child1)
    assert unanalyzed == 2
    assert reports == []


def test_pull_back_and_bound_cross_is_tight():
    p = parse("x1*x2")
    result = resolve(p)
    bound = pull_back_and_bound(p, result)
    assert bound.interval == (Fraction(1, 2), Fraction(1, 2))
    assert bound.per_leaf[0].jacobian_sup >= 1.0


def test_pull_back_and_bound_cusp_leaves():
    result = resolve(CUSP, max_depth=3)
    bound = pull_back_and_bound(CUSP, result)
    intervals = {b.chart_id: b.interval for b in bound.per_leaf}
    assert intervals["root/1/2/2"] == (Fraction(1, 2), Fraction(7, 8))
    assert all(b.constant_factor > 0 for b in bound.per_leaf)
    assert bound.origin_local


def _sampled_spectral_sup(composite, points):
    """Largest spectral norm of the chart map's Jacobian over ``points``."""
    variables = composite[0].variables
    j00, j01, j10, j11 = (
        image.derivative(v).numeric()(points) for image in composite for v in variables
    )
    # Spectral norm of a 2x2 matrix from its singular values.
    a2 = j00**2 + j01**2 + j10**2 + j11**2
    det = j00 * j11 - j01 * j10
    disc = np.sqrt(np.maximum(0.0, a2**2 - 4.0 * det**2))
    return float(np.sqrt(np.maximum(0.0, (a2 + disc) / 2.0)).max())


@pytest.mark.parametrize(
    "text, chart_id, square",
    [
        ("x1*x2", "root", Fraction(2)),
        ("x^2 - y^3", "root/2", Fraction(3)),
        # 3*alpha^2*beta, alpha^3, 2*alpha*beta, alpha^2: 4/3 + 1 + 1 + 1.
        ("x^2 - y^3", "root/1/2/2", Fraction(13, 3)),
    ],
)
def test_jacobian_bound_closed_forms(text, chart_id, square):
    p = parse(text)
    bound = {b.chart_id: b for b in pull_back_and_bound(p, resolve(p)).per_leaf}[chart_id]
    # The least float whose square is at least the exact rational.
    assert Fraction(bound.jacobian_sup) ** 2 >= square
    assert Fraction(math.nextafter(bound.jacobian_sup, 0.0)) ** 2 < square
    assert bound.constant_factor == 1.0 / bound.jacobian_sup


def test_jacobian_bound_is_above_the_sampled_spectral_norm():
    points = ball_points(2, 2000, 1.0)
    leaves = 0
    for text in [text for text, _ in BRIESKORN_PHAM] + CUSP_TEMPLATES:
        result = _resolved(text)
        per_leaf = pull_back_and_bound(result.tree.root_polynomial, result).per_leaf
        bounds = {b.chart_id: b.jacobian_sup for b in per_leaf}
        for leaf in result.snc_leaves():
            if leaf.chart_id not in bounds:
                continue
            sampled = _sampled_spectral_sup(leaf.composite, points)
            assert sampled <= bounds[leaf.chart_id], (text, leaf.chart_id)
            # Frobenius over spectral is at most sqrt(2) for a 2x2 matrix;
            # the entry sups may sit at different points, hence the slack.
            assert bounds[leaf.chart_id] <= 2 * sampled, (text, leaf.chart_id)
            leaves += 1
    assert leaves == 1064


def test_pullback_evaluates_no_polynomial(monkeypatch):
    results = [(p, resolve(p)) for p in (CUSP, parse("(y^2 - 2*x^3)^2 - x^7*y"))]

    def refuse(*args, **kwargs):
        raise AssertionError("pull_back_and_bound differentiated or evaluated a polynomial")

    for name in ("numeric", "gradient_numeric", "derivative"):
        monkeypatch.setattr(Polynomial, name, refuse)
    for p, result in results:
        assert pull_back_and_bound(p, result).per_leaf


def test_exponent_upper_bound_routes():
    theta, how = exponent_upper_bound(parse("x^2*y^2"))
    assert theta == Fraction(3, 4) and how == "snc"
    theta, how = exponent_upper_bound(CUSP)
    assert how == "resolution-origin-local"
    assert Fraction(2, 3) <= theta < 1
    # No route: three variables and not snc at the origin.
    assert exponent_upper_bound(parse("x^2 - y^3 + z^5")) is None


# ----------------------------------------------------------------------
# one rule for combining per-point bounds
# ----------------------------------------------------------------------


def test_interval_upper_end_is_at_least_the_closed_form():
    assert len(BRIESKORN_PHAM) == 168
    low = [text for text, theta in BRIESKORN_PHAM if _resolved(text).theta_interval[1] < theta]
    assert low == []


def test_interval_agrees_with_upper_bound_and_pullback():
    texts = [text for text, _ in BRIESKORN_PHAM] + CUSP_TEMPLATES
    assert len(texts) == 192
    for text in texts:
        assert _resolved(text).theta_interval[1] == exponent_upper_bound(parse(text))[0], text
    for text in texts:
        result = _resolved(text)
        bound = pull_back_and_bound(result.tree.root_polynomial, result)
        assert bound.interval == result.theta_interval, text


def test_resolve_output_pinned_digest():
    # SHA-1 captured from the substitution-based chart pullback that the
    # exponent relabelling replaced.
    assert len(PINNED_CORPUS) == 251
    payload = json.dumps([_resolved(text).to_json() for text in PINNED_CORPUS], sort_keys=True)
    assert hashlib.sha1(payload.encode()).hexdigest() == PINNED_DIGEST


def test_resolve_report_json_shape():
    result = resolve(CUSP, max_depth=3)
    payload = result.to_json()
    assert payload["root"] == str(CUSP)
    assert payload["theta_interval"] is not None
    assert payload["origin_local"] is True
    leaf = payload["leaves"][0]
    assert {"chart_path", "composite_map", "monomial", "residual", "N", "theta_bound"} <= set(leaf)
