"""Monomialization of plane-curve polynomials by iterated point blow-ups.

A blow-up of the plane at a chart origin is tracked through its two affine
charts,

    chart 1:  (x, y) = (u*v, v)      exceptional line {v = 0},
    chart 2:  (x, y) = (a, a*b)      exceptional line {a = 0},

applied to the *total* transform (the full pullback, exceptional factors
included).  A branch of the chart tree terminates once the pullback has
simple normal crossings at the chart origin; that certificate is local to
the chart origin, so exponent bounds extracted from a leaf are reported as
origin-local, and the finitely many other exceptional-divisor points where
the residual vanishes are handled by exact translation (rational points
only; irrational residual roots are counted and reported as unanalyzed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .poly import Polynomial, Substitution
from .reports import rational_str
from .sampling import ball_points
from .snc import MonomialFactorization, detect_snc
from . import univar

DEFAULT_MAX_DEPTH = 8


class BlowupError(ValueError):
    pass


def _fresh_names(path_digits: str, chart: int, taken: Iterable[str]) -> tuple[str, str]:
    stem = ("u", "v") if chart == 1 else ("a", "b")
    names = (f"{stem[0]}{path_digits}", f"{stem[1]}{path_digits}")
    taken = set(taken)
    while names[0] in taken or names[1] in taken:
        names = ("_" + names[0], "_" + names[1])
    return names


def chart_substitution(
    parent_vars: tuple[str, str], child_vars: tuple[str, str], chart: int
) -> Substitution:
    """Substitution sending the parent's coordinates into a blow-up chart."""
    first = Polynomial.variable(child_vars[0], child_vars)
    second = Polynomial.variable(child_vars[1], child_vars)
    if chart == 1:
        return Substitution({parent_vars[0]: first * second, parent_vars[1]: second})
    if chart == 2:
        return Substitution({parent_vars[0]: first, parent_vars[1]: first * second})
    raise BlowupError(f"chart must be 1 or 2, got {chart}")


@dataclass
class BlowupNode:
    """One chart of one blow-up in the tree.

    ``total_transform`` is the exact pullback of the root polynomial through
    the composed chart maps; ``composite`` gives the images of the two root
    coordinates as polynomials in this chart's variables.
    ``exceptional_multiplicities`` records, per chart variable, the vanishing
    order of the pullback along that axis when the axis is exceptional
    (zero for strict-transform axes).
    """

    chart_id: str
    depth: int
    variables: tuple[str, str]
    transform: Substitution | None
    total_transform: Polynomial
    composite: tuple[Polynomial, Polynomial]
    exceptional_axes: tuple[bool, bool]
    exceptional_multiplicities: tuple[int, int]
    factorization: MonomialFactorization
    snc: bool
    parent: str | None = None
    children: tuple[str, str] | None = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    @property
    def monomial_total_degree(self) -> int:
        return sum(self.factorization.exponents)

    def theta_bound(self) -> Fraction | None:
        """Origin-local exponent bound 1 - 1/N, when the chart origin is snc."""
        if not self.snc:
            return None
        n = self.monomial_total_degree
        if n < 2:
            # An exponent bound needs a critical origin; N < 2 means the
            # pullback is a unit or a simple zero here.
            return None
        return Fraction(n - 1, n)


@dataclass
class ChartTree:
    root_polynomial: Polynomial
    nodes: dict[str, BlowupNode]
    depth: int

    def node(self, chart_id: str) -> BlowupNode:
        return self.nodes[chart_id]

    def leaves(self) -> list[BlowupNode]:
        return [n for n in self.nodes.values() if n.is_leaf]


@dataclass
class LeafReport:
    chart_id: str
    variables: tuple[str, str]
    exponents: tuple[int, int]
    residual: Polynomial
    total_degree: int
    theta_bound: Fraction | None
    snc: bool
    depth_capped: bool
    composite: tuple[Polynomial, Polynomial]

    def to_json(self) -> dict:
        return {
            "chart_path": self.chart_id,
            "composite_map": [str(self.composite[0]), str(self.composite[1])],
            "monomial": list(self.exponents),
            "residual": str(self.residual),
            "N": self.total_degree,
            "theta_bound": rational_str(self.theta_bound) if self.theta_bound else None,
            "origin_local": True,
            "snc": self.snc,
            "depth_capped": self.depth_capped,
        }


@dataclass
class ResolutionResult:
    tree: ChartTree
    leaf_reports: list[LeafReport]
    theta_interval: tuple[Fraction, Fraction] | None
    depth_capped: bool

    def snc_leaves(self) -> list[LeafReport]:
        return [r for r in self.leaf_reports if r.snc]

    def to_json(self) -> dict:
        return {
            "root": str(self.tree.root_polynomial),
            "leaves": [r.to_json() for r in self.leaf_reports],
            "theta_interval": [
                rational_str(self.theta_interval[0]),
                rational_str(self.theta_interval[1]),
            ]
            if self.theta_interval
            else None,
            "origin_local": True,
            "depth": self.tree.depth,
            "depth_capped": self.depth_capped,
        }


def _make_node(
    chart_id: str,
    depth: int,
    variables: tuple[str, str],
    transform: Substitution | None,
    total: Polynomial,
    composite: tuple[Polynomial, Polynomial],
    exceptional_axes: tuple[bool, bool],
    parent: str | None,
) -> BlowupNode:
    factorization = detect_snc(total)
    mults = tuple(
        exp if flag else 0
        for exp, flag in zip(factorization.exponents, exceptional_axes)
    )
    return BlowupNode(
        chart_id=chart_id,
        depth=depth,
        variables=variables,
        transform=transform,
        total_transform=total,
        composite=composite,
        exceptional_axes=exceptional_axes,
        exceptional_multiplicities=mults,  # type: ignore[arg-type]
        factorization=factorization,
        snc=factorization.snc_at_origin,
        parent=parent,
    )


def _expand(node: BlowupNode, taken: set[str]) -> tuple[BlowupNode, BlowupNode]:
    digits = node.chart_id.replace("root", "").replace("/", "")
    children = []
    for chart in (1, 2):
        child_digits = digits + str(chart)
        child_vars = _fresh_names(child_digits, chart, taken)
        taken.update(child_vars)
        sub = chart_substitution(node.variables, child_vars, chart)
        total = node.total_transform.substitute(sub)
        composite = (
            node.composite[0].substitute(sub),
            node.composite[1].substitute(sub),
        )
        if chart == 1:
            axes = (node.exceptional_axes[0], True)
        else:
            axes = (True, node.exceptional_axes[1])
        children.append(
            _make_node(
                chart_id=f"{node.chart_id}/{chart}",
                depth=node.depth + 1,
                variables=child_vars,
                transform=sub,
                total=total,
                composite=composite,
                exceptional_axes=axes,
                parent=node.chart_id,
            )
        )
    node.children = (children[0].chart_id, children[1].chart_id)
    return children[0], children[1]


def blowup_once(p: Polynomial) -> tuple[BlowupNode, BlowupNode]:
    """Both charts of a single blow-up at the origin of a 2-variable chart."""
    if len(p.variables) != 2:
        raise BlowupError(f"blow-up needs exactly 2 variables, got {p.variables}")
    root = _make_node(
        chart_id="root",
        depth=0,
        variables=p.variables,  # type: ignore[arg-type]
        transform=None,
        total=p,
        composite=(
            Polynomial.variable(p.variables[0], p.variables),
            Polynomial.variable(p.variables[1], p.variables),
        ),
        exceptional_axes=(False, False),
        parent=None,
    )
    return _expand(root, set(p.variables))


def resolve(
    p: Polynomial,
    max_depth: int = DEFAULT_MAX_DEPTH,
    expand_snc: bool = False,
) -> ResolutionResult:
    """Breadth-first blow-up tree under the chart origins.

    By default a branch stops as soon as its total transform has simple
    normal crossings at the chart origin.  With ``expand_snc=True`` every
    branch is expanded to ``max_depth`` regardless (the tree then contains
    every chart of every blow-up step, which is what the two-branch
    worked-example reproduction needs); snc data is still recorded per node.
    """
    if len(p.variables) != 2:
        raise BlowupError(f"resolve needs exactly 2 variables, got {p.variables}")
    if p.is_zero:
        raise BlowupError("cannot resolve the zero polynomial")
    if p.constant_term() != 0:
        raise BlowupError("polynomial does not vanish at the origin; nothing to resolve")

    root = _make_node(
        chart_id="root",
        depth=0,
        variables=p.variables,  # type: ignore[arg-type]
        transform=None,
        total=p,
        composite=(
            Polynomial.variable(p.variables[0], p.variables),
            Polynomial.variable(p.variables[1], p.variables),
        ),
        exceptional_axes=(False, False),
        parent=None,
    )
    nodes: dict[str, BlowupNode] = {root.chart_id: root}
    taken = set(p.variables)
    frontier = [root]
    max_seen = 0
    while frontier:
        next_frontier: list[BlowupNode] = []
        for node in frontier:
            max_seen = max(max_seen, node.depth)
            should_expand = expand_snc or not node.snc
            if should_expand and node.depth < max_depth:
                child1, child2 = _expand(node, taken)
                nodes[child1.chart_id] = child1
                nodes[child2.chart_id] = child2
                next_frontier.extend([child1, child2])
        frontier = next_frontier

    tree = ChartTree(root_polynomial=p, nodes=nodes, depth=max_seen)
    leaf_reports: list[LeafReport] = []
    any_capped = False
    for node in tree.leaves():
        capped = not node.snc and node.depth >= max_depth
        any_capped = any_capped or capped
        leaf_reports.append(
            LeafReport(
                chart_id=node.chart_id,
                variables=node.variables,
                exponents=node.factorization.exponents,  # type: ignore[arg-type]
                residual=node.factorization.residual,
                total_degree=node.monomial_total_degree,
                theta_bound=node.theta_bound(),
                snc=node.snc,
                depth_capped=capped,
                composite=node.composite,
            )
        )
    bounds = [r.theta_bound for r in leaf_reports if r.snc and r.theta_bound]
    interval = (Fraction(1, 2), min(bounds)) if bounds else None
    return ResolutionResult(
        tree=tree,
        leaf_reports=leaf_reports,
        theta_interval=interval,
        depth_capped=any_capped,
    )


# ----------------------------------------------------------------------
# analysis at non-origin exceptional points
# ----------------------------------------------------------------------


@dataclass
class TranslatedPointReport:
    """SNC data at an exceptional-divisor point away from the chart origin."""

    chart_id: str
    axis_variable: str
    along_variable: str
    point_value: Fraction
    translated: Polynomial
    exponents: tuple[int, int]
    residual: Polynomial
    total_degree: int
    theta_bound: Fraction | None
    snc: bool

    def to_json(self) -> dict:
        return {
            "chart_path": self.chart_id,
            "axis": self.axis_variable,
            "point": {self.along_variable: rational_str(self.point_value)},
            "monomial": list(self.exponents),
            "residual": str(self.residual),
            "N": self.total_degree,
            "theta_bound": rational_str(self.theta_bound) if self.theta_bound else None,
        }


def translated_chart_analysis(
    node: BlowupNode,
    translated_variable: str = "gamma",
) -> tuple[list[TranslatedPointReport], int]:
    """SNC analysis at rational exceptional points off the chart origin.

    For each exceptional axis, restrict the residual to the axis, extract
    its nonzero rational roots exactly, and recenter the total transform at
    each root via ``along = t - gamma``.  Returns the per-point reports and
    the number of unanalyzed (irrational) residual roots on the axes.
    """
    variables = node.variables
    exceptional = node.exceptional_multiplicities
    residual = node.factorization.residual
    total = node.total_transform
    chart_id = node.chart_id

    reports: list[TranslatedPointReport] = []
    unanalyzed = 0
    for i, mult in enumerate(exceptional):
        if mult <= 0:
            continue
        axis_var = variables[i]
        along_var = variables[1 - i]
        on_axis = residual.shift({axis_var: 0})
        coeffs = univar.coeffs_from_poly(on_axis)
        roots = [(t, m) for t, m in univar.rational_roots(coeffs) if t != 0]
        distinct_real = univar.count_distinct_real_roots(coeffs)
        unanalyzed += max(0, distinct_real - len(roots))
        for t, _mult in roots:
            gamma = translated_variable
            while gamma in variables:
                gamma = "_" + gamma
            shift_poly = Polynomial.constant(t, (gamma,)) - Polynomial.variable(gamma)
            translated = total.substitute(Substitution({along_var: shift_poly}))
            factorization = detect_snc(translated)
            snc = factorization.snc_at_origin
            n_total = sum(factorization.exponents)
            bound = Fraction(n_total - 1, n_total) if snc and n_total >= 2 else None
            reports.append(
                TranslatedPointReport(
                    chart_id=chart_id,
                    axis_variable=axis_var,
                    along_variable=along_var,
                    point_value=t,
                    translated=translated,
                    exponents=factorization.exponents,  # type: ignore[arg-type]
                    residual=factorization.residual,
                    total_degree=n_total,
                    theta_bound=bound,
                    snc=snc,
                )
            )
    return reports, unanalyzed


# ----------------------------------------------------------------------
# transport of bounds back to the original coordinates
# ----------------------------------------------------------------------


@dataclass
class LeafBound:
    chart_id: str
    interval: tuple[Fraction, Fraction]
    jacobian_sup: float
    constant_factor: float  # 1 / jacobian_sup; transported constant is C times this

    def to_json(self) -> dict:
        return {
            "chart_path": self.chart_id,
            "theta_interval": [rational_str(self.interval[0]), rational_str(self.interval[1])],
            "jacobian_sup": self.jacobian_sup,
            "constant_factor": self.constant_factor,
            "origin_local": True,
        }


@dataclass
class PullbackBound:
    per_leaf: list[LeafBound]
    interval: tuple[Fraction, Fraction] | None
    origin_local: bool = True

    def to_json(self) -> dict:
        return {
            "per_leaf": [b.to_json() for b in self.per_leaf],
            "theta_interval": [
                rational_str(self.interval[0]),
                rational_str(self.interval[1]),
            ]
            if self.interval
            else None,
            "origin_local": True,
        }


def _jacobian_sup(composite: tuple[Polynomial, Polynomial], samples: int = 2000) -> float:
    """Sampled sup of the spectral norm of the chart map's Jacobian."""
    variables = composite[0].variables
    parts = [
        [composite[k].derivative(v).numeric() for v in variables] for k in range(2)
    ]
    points = ball_points(len(variables), samples, 1.0)
    j00 = parts[0][0](points)
    j01 = parts[0][1](points)
    j10 = parts[1][0](points)
    j11 = parts[1][1](points)
    # Spectral norm of a 2x2 matrix from its singular values.
    a2 = j00**2 + j01**2 + j10**2 + j11**2
    det = j00 * j11 - j01 * j10
    disc = np.sqrt(np.maximum(0.0, a2**2 - 4.0 * det**2))
    sigma_max = np.sqrt(np.maximum(0.0, (a2 + disc) / 2.0))
    return float(sigma_max.max())


def exponent_upper_bound(
    p: Polynomial, max_depth: int = DEFAULT_MAX_DEPTH
) -> tuple[Fraction, str] | None:
    """Best-effort exponent for ``p`` at the origin, with provenance.

    Directly from the normal-crossing formula when ``p`` is snc at the
    origin (any dimension); otherwise, for plane polynomials vanishing at
    the origin, the weakest (largest) bound over all analyzed points of an
    origin-stopped blow-up tree, tagged origin-local.  Returns ``None`` when
    no route applies.
    """
    from .snc import SncError, exponent_from_snc

    try:
        mf = detect_snc(p)
    except SncError:
        return None
    if mf.snc_at_origin:
        try:
            return exponent_from_snc(mf).theta, "snc"
        except SncError:
            return None
    if len(p.variables) != 2 or p.constant_term() != 0:
        return None
    try:
        result = resolve(p, max_depth=max_depth)
    except BlowupError:
        return None
    bounds: list[Fraction] = []
    for leaf in result.leaf_reports:
        if not leaf.snc:
            continue
        if leaf.theta_bound is not None:
            bounds.append(leaf.theta_bound)
        node = result.tree.node(leaf.chart_id)
        translated, _ = translated_chart_analysis(node)
        bounds.extend(t.theta_bound for t in translated if t.theta_bound is not None)
    if not bounds:
        return None
    return max(bounds), "resolution-origin-local"


def pull_back_and_bound(p: Polynomial, result: ResolutionResult) -> PullbackBound:
    """Per-leaf exponent intervals and transported-constant factors.

    Each chart-origin certificate yields ``theta in [1/2, 1 - 1/N]`` *at that
    analyzed point*; the summary interval takes the smallest leaf bound and
    is flagged origin-local (combining per-point bounds into one certified
    global bound is out of scope).
    """
    if p != result.tree.root_polynomial:
        raise BlowupError("resolution result was computed for a different polynomial")
    per_leaf: list[LeafBound] = []
    for leaf in result.leaf_reports:
        if not leaf.snc or leaf.theta_bound is None:
            continue
        sup = _jacobian_sup(leaf.composite)
        per_leaf.append(
            LeafBound(
                chart_id=leaf.chart_id,
                interval=(Fraction(1, 2), leaf.theta_bound),
                jacobian_sup=sup,
                constant_factor=1.0 / sup if sup > 0 else math.inf,
            )
        )
    if not per_leaf:
        raise BlowupError("all leaves are depth-capped; no bounds available")
    combined = (Fraction(1, 2), min(b.interval[1] for b in per_leaf))
    return PullbackBound(per_leaf=per_leaf, interval=combined)
