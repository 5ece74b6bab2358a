"""Monomialization of plane-curve polynomials by iterated point blow-ups.

A blow-up of the plane at a chart origin is tracked through its two affine
charts,

    chart 1:  (x, y) = (u*v, v)      exceptional line {v = 0},
    chart 2:  (x, y) = (a, a*b)      exceptional line {a = 0},

applied to the *total* transform (the full pullback, exceptional factors
included).  Both charts are monomial maps, so a pullback only relabels
exponents: chart 1 sends ``x^i y^j`` to ``u^i v^(i+j)`` and chart 2 sends it
to ``a^(i+j) b^j``.  The same rule composes the chart maps: every image of a
root coordinate is a monomial ``u^p v^q`` with coefficient 1, so a node
stores its chart map as the two integer exponent pairs ``(p, q)``, and the
``composite_map`` strings are built from them for the report.  A branch of
the chart tree terminates once the pullback has simple normal crossings at
the chart origin; that certificate is local to the chart origin, so
exponent bounds extracted from a leaf are reported as origin-local, and the
finitely many other exceptional-divisor points where the residual vanishes
are handled by exact translation.  Only rational
points are translated, and a bound is read only where the translate is snc:
the irrational residual roots and the non-snc translated points are counted
and reported as unanalyzed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .poly import Polynomial
from .reports import rational_str
from .snc import MonomialFactorization, detect_snc, snc_bound
from . import univar

DEFAULT_MAX_DEPTH = 8

# The exponent pairs (p, q) of the images u^p v^q of the two root coordinates.
ChartMap = tuple[tuple[int, int], tuple[int, int]]


class BlowupError(ValueError):
    pass


def _fresh_names(path_digits: str, chart: int, input_names: tuple[str, ...]) -> tuple[str, str]:
    """Chart variable names from the chart path, which no other node shares,
    prefixed with underscores until they avoid the input's names."""
    stem = ("u", "v") if chart == 1 else ("a", "b")
    names = (f"{stem[0]}{path_digits}", f"{stem[1]}{path_digits}")
    while names[0] in input_names or names[1] in input_names:
        names = ("_" + names[0], "_" + names[1])
    return names


def _chart_exponents(exponents: Iterable[tuple[int, int]], chart: int) -> list[tuple[int, int]]:
    """The exponents of ``x^i y^j`` pulled back: ``(i, i + j)`` in chart 1,
    ``(i + j, j)`` in chart 2."""
    if chart == 1:
        return [(i, i + j) for i, j in exponents]
    return [(i + j, j) for i, j in exponents]


def _pull_back(p: Polynomial, child_vars: tuple[str, str], chart: int) -> Polynomial:
    """``p`` in the coordinates of a blow-up chart, by relabelling exponents.

    The exponent map is injective, so the coefficients carry over unchanged.
    """
    return Polynomial._trusted(
        child_vars, dict(zip(_chart_exponents(p.terms, chart), p.terms.values()))
    )


def _factorization_json(factorization: MonomialFactorization) -> dict:
    """The ``monomial``, ``residual``, ``N`` and ``theta_bound`` keys of a
    point's report."""
    bound = snc_bound(factorization)
    return {
        "monomial": list(factorization.exponents),
        "residual": str(factorization.residual),
        "N": sum(factorization.exponents),
        "theta_bound": rational_str(bound) if bound else None,
    }


@dataclass
class BlowupNode:
    """One chart of one blow-up in the tree.

    ``total_transform`` is the exact pullback of the root polynomial through
    the composed chart maps and ``factorization`` its monomial factorization.
    ``chart_map`` sends the two root coordinates to ``u^p v^q`` in this
    chart's variables ``(u, v)``; it holds the two pairs ``(p, q)``.  An axis
    is exceptional when the chart map sends it to the origin, that is when
    both images carry its variable.
    """

    chart_id: str
    depth: int
    total_transform: Polynomial
    factorization: MonomialFactorization
    chart_map: ChartMap
    parent: str | None = None
    children: tuple[str, str] | None = None
    depth_capped: bool = False

    @property
    def variables(self) -> tuple[str, ...]:
        return self.total_transform.variables

    @property
    def snc(self) -> bool:
        return self.factorization.snc_at_origin

    @property
    def exceptional_axes(self) -> tuple[bool, bool]:
        (a, b), (c, d) = self.chart_map
        return a > 0 and c > 0, b > 0 and d > 0

    @property
    def composite(self) -> tuple[Polynomial, Polynomial]:
        """The chart map's two images as polynomials in this chart's variables."""
        first, second = (
            Polynomial._trusted(self.variables, {image: Fraction(1)}) for image in self.chart_map
        )
        return first, second

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    @property
    def monomial_total_degree(self) -> int:
        return sum(self.factorization.exponents)

    def theta_bound(self) -> Fraction | None:
        """Origin-local exponent bound 1 - 1/N, when the chart origin is snc."""
        return snc_bound(self.factorization)

    def to_json(self) -> dict:
        return {
            "chart_path": self.chart_id,
            "composite_map": [str(image) for image in self.composite],
            **_factorization_json(self.factorization),
            "origin_local": True,
            "snc": self.snc,
            "depth_capped": self.depth_capped,
        }


def combine_point_bounds(
    bounds: Iterable[Fraction | None],
) -> tuple[Fraction, Fraction] | None:
    """The exponent interval ``[1/2, max]`` over the known per-point bounds.

    The worst point of the exceptional fibre decides the exponent at the
    origin, so the upper end is the largest bound, never the smallest.
    """
    known = [b for b in bounds if b is not None]
    return (Fraction(1, 2), max(known)) if known else None


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
class ResolutionResult:
    """The blow-up tree plus the analysis of every snc leaf.

    ``translated_points`` holds the rational exceptional points off the snc
    leaves' chart origins.  ``unanalyzed_points`` counts the points without a
    bound: the irrational ones, and the translated ones that are not snc.
    ``theta_interval`` combines the bounds of the snc chart origins and of
    the snc translated points.
    """

    tree: ChartTree
    theta_interval: tuple[Fraction, Fraction] | None
    depth_capped: bool
    translated_points: list[TranslatedPointReport]
    unanalyzed_points: int

    @property
    def complete(self) -> bool:
        """No exceptional point left unanalyzed and no branch cut at the cap."""
        return self.unanalyzed_points == 0 and not self.depth_capped

    def snc_leaves(self) -> list[BlowupNode]:
        return [n for n in self.tree.leaves() if n.snc]

    def to_json(self) -> dict:
        return {
            "root": str(self.tree.root_polynomial),
            "leaves": [n.to_json() for n in self.tree.leaves()],
            "theta_interval": [
                rational_str(self.theta_interval[0]),
                rational_str(self.theta_interval[1]),
            ]
            if self.theta_interval
            else None,
            "origin_local": True,
            "depth": self.tree.depth,
            "depth_capped": self.depth_capped,
            "translated_points": [t.to_json() for t in self.translated_points],
            "unanalyzed_points": self.unanalyzed_points,
            "complete": self.complete,
        }


def _expand(node: BlowupNode, input_names: tuple[str, ...]) -> tuple[BlowupNode, BlowupNode]:
    digits = node.chart_id.replace("root", "").replace("/", "")
    children = []
    for chart in (1, 2):
        child_vars = _fresh_names(digits + str(chart), chart, input_names)
        total = _pull_back(node.total_transform, child_vars, chart)
        first, second = _chart_exponents(node.chart_map, chart)
        children.append(
            BlowupNode(
                chart_id=f"{node.chart_id}/{chart}",
                depth=node.depth + 1,
                total_transform=total,
                factorization=detect_snc(total),
                chart_map=(first, second),
                parent=node.chart_id,
            )
        )
    node.children = (children[0].chart_id, children[1].chart_id)
    return children[0], children[1]


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
    Every snc leaf also gets the translated-chart analysis, and
    ``theta_interval`` combines all analyzed points' bounds.
    """
    if len(p.variables) != 2:
        raise BlowupError(f"resolve needs exactly 2 variables, got {p.variables}")
    if p.is_zero:
        raise BlowupError("cannot resolve the zero polynomial")
    if p.constant_term() != 0:
        raise BlowupError("polynomial does not vanish at the origin; nothing to resolve")
    if max_depth < 0:
        raise BlowupError(f"max_depth must be non-negative, got {max_depth}")

    root = BlowupNode("root", 0, p, detect_snc(p), ((1, 0), (0, 1)))
    nodes: dict[str, BlowupNode] = {root.chart_id: root}
    frontier = [root]
    max_seen = 0
    while frontier:
        next_frontier: list[BlowupNode] = []
        for node in frontier:
            max_seen = max(max_seen, node.depth)
            should_expand = expand_snc or not node.snc
            if should_expand and node.depth < max_depth:
                child1, child2 = _expand(node, p.variables)
                nodes[child1.chart_id] = child1
                nodes[child2.chart_id] = child2
                next_frontier.extend([child1, child2])
        frontier = next_frontier

    tree = ChartTree(root_polynomial=p, nodes=nodes, depth=max_seen)
    leaves = tree.leaves()
    translated: list[TranslatedPointReport] = []
    unanalyzed = 0
    for node in leaves:
        node.depth_capped = not node.snc and node.depth >= max_depth
        if node.snc:
            points, missing = translated_chart_analysis(node)
            translated.extend(points)
            unanalyzed += missing
    bounds = [n.theta_bound() for n in leaves] + [t.theta_bound for t in translated]
    return ResolutionResult(
        tree=tree,
        theta_interval=combine_point_bounds(bounds),
        depth_capped=any(n.depth_capped for n in leaves),
        translated_points=translated,
        unanalyzed_points=unanalyzed,
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
    factorization: MonomialFactorization

    @property
    def theta_bound(self) -> Fraction | None:
        return snc_bound(self.factorization)

    def to_json(self) -> dict:
        return {
            "chart_path": self.chart_id,
            "axis": self.axis_variable,
            "point": {self.along_variable: rational_str(self.point_value)},
            **_factorization_json(self.factorization),
        }


def _recenter(p: Polynomial, along: int, t: Fraction, gamma: str) -> Polynomial:
    """``p`` with coordinate ``along`` replaced by ``t - gamma``, expanded
    binomially; ``gamma`` takes that coordinate's place.

    With ``t = a/b``, ``top`` the largest power of the coordinate and ``L``
    the lcm of the coefficient denominators, every contribution
    ``c * C(k, j) * t^(k-j) * (-1)^j`` is an integer over ``L * b^top``, so
    each output coefficient is one ``Fraction`` of an integer sum.
    """
    top = max((e[along] for e in p.terms), default=0)
    a_powers, b_powers = [1], [1]
    for _ in range(top):
        a_powers.append(a_powers[-1] * t.numerator)
        b_powers.append(b_powers[-1] * t.denominator)
    lcm = math.lcm(*(c.denominator for c in p.terms.values()))
    numerators: dict[tuple[int, ...], int] = {}
    for e, c in p.terms.items():
        k = e[along]
        scaled = c.numerator * (lcm // c.denominator)
        head, tail = e[:along], e[along + 1 :]
        for power in range(k + 1):
            key = head + (power,) + tail
            n = scaled * math.comb(k, power) * a_powers[k - power] * b_powers[top - k + power]
            numerators[key] = numerators.get(key, 0) + (-n if power & 1 else n)
    denominator = lcm * b_powers[top]
    variables = p.variables[:along] + (gamma,) + p.variables[along + 1 :]
    return Polynomial._trusted(
        variables, {key: Fraction(n, denominator) for key, n in numerators.items()}
    )


def translated_chart_analysis(node: BlowupNode) -> tuple[list[TranslatedPointReport], int]:
    """SNC analysis at rational exceptional points off the chart origin.

    For each exceptional axis, restrict the residual to the axis, extract
    its rational roots exactly (none is 0: an snc leaf's residual has a
    nonzero constant term), and recenter the total transform at each root
    via ``along = t - gamma``.  Returns the per-point reports and the number
    of unanalyzed points: irrational residual roots and non-snc translates.
    """
    variables = node.variables
    residual = node.factorization.residual
    reports: list[TranslatedPointReport] = []
    unanalyzed = 0
    for i, exceptional in enumerate(node.exceptional_axes):
        # An exceptional axis maps to the origin, where the root polynomial
        # vanishes, so the total transform carries a positive power of it.
        if not exceptional:
            continue
        # The residual restricted to the axis: the terms free of its variable.
        on_axis = Polynomial._trusted(
            variables, {e: c for e, c in residual.terms.items() if e[i] == 0}
        )
        roots, irrational = univar.rational_roots(univar.coeffs_from_poly(on_axis))
        unanalyzed += irrational
        for t in roots:
            # Exceptional axes lie below the root: no chart variable is "gamma".
            translated = _recenter(node.total_transform, 1 - i, t, "gamma")
            reports.append(
                TranslatedPointReport(
                    chart_id=node.chart_id,
                    axis_variable=variables[i],
                    along_variable=variables[1 - i],
                    point_value=t,
                    translated=translated,
                    factorization=detect_snc(translated),
                )
            )
    return reports, unanalyzed + sum(not r.factorization.snc_at_origin for r in reports)


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


def _jacobian_sup(chart_map: ChartMap) -> float:
    """Certified bound on the chart map's Jacobian spectral norm on the unit disk.

    An image ``u^a*v^b`` has entries ``k*u^p*v^q``, ``k`` an exponent, and
    there ``sup (u^p v^q)^2 = p^p q^q / (p+q)^(p+q)`` (0^0 = 1).
    Spectral <= Frobenius <= sqrt(sum of the squared entry sups), an exact
    rational; the result is the least float whose square reaches it.
    """
    total = Fraction(0)
    for a, b in chart_map:
        for k, p, q in ((a, a - 1, b), (b, a, b - 1)):
            if k:
                total += k * k * Fraction(p**p * q**q, (p + q) ** (p + q))
    # The rounded square root is within one ulp of the true one.
    bound = math.sqrt(total)
    while Fraction(bound) ** 2 < total:
        bound = math.nextafter(bound, math.inf)
    return bound


def exponent_upper_bound(p: Polynomial) -> tuple[Fraction, str] | None:
    """Best-effort exponent for ``p`` at the origin, with provenance.

    When ``p`` is snc at the origin (any dimension), the normal-crossing
    bound ``1 - 1/N``, the rule every snc chart point uses.  Otherwise, for
    plane polynomials, the weakest (largest) bound over all analyzed points
    of an origin-stopped blow-up tree, tagged origin-local.  Returns
    ``None`` when no route applies: the zero polynomial, a non-critical
    origin (``N < 2``), more than two variables, or no analyzed point.
    """
    if p.is_zero:
        return None
    mf = detect_snc(p)
    if mf.snc_at_origin:
        bound = snc_bound(mf)
        return None if bound is None else (bound, "snc")
    if len(p.variables) != 2:
        return None
    # Not snc, so p vanishes at the origin and resolve accepts it.
    interval = resolve(p).theta_interval
    return None if interval is None else (interval[1], "resolution-origin-local")


def pull_back_and_bound(result: ResolutionResult) -> PullbackBound:
    """Per-leaf exponent intervals and transported-constant factors.

    Each chart-origin certificate of ``result`` yields ``theta in [1/2,
    1 - 1/N]`` *at that analyzed point*; the summary interval is the
    resolution's ``theta_interval``, flagged origin-local.  Raises
    ``BlowupError`` when no leaf gives a bound: every leaf is depth-capped,
    or no snc leaf has ``N >= 2``, as when the origin is not critical.
    """
    per_leaf: list[LeafBound] = []
    for leaf in result.snc_leaves():
        bound = leaf.theta_bound()
        if bound is None:
            continue
        sup = _jacobian_sup(leaf.chart_map)
        per_leaf.append(
            LeafBound(
                chart_id=leaf.chart_id,
                interval=(Fraction(1, 2), bound),
                jacobian_sup=sup,
                # The exponent matrix is unimodular, so some entry and sup are > 0.
                constant_factor=1.0 / sup,
            )
        )
    if not per_leaf:
        if not result.snc_leaves():
            raise BlowupError("all leaves are depth-capped; no bounds available")
        raise BlowupError(
            "no snc leaf has N >= 2: the origin is not a critical point; no bounds available"
        )
    return PullbackBound(per_leaf=per_leaf, interval=result.theta_interval)
