"""Morse-Bott and higher-order flatness checks on coordinate subspaces.

The critical set is assumed (and verified, not discovered) to be a
coordinate subspace ``K`` through the origin.  The plain check compares the
kernel of the exact rational Hessian with ``K``; the order-``N`` check
verifies that every derivative of order ``1..N-1`` vanishes identically on
``K`` and that the ``N``-th derivative at the origin is coercive transverse
to ``K``.  A positive order-``N`` verdict predicts the gradient-inequality
exponent ``1 - 1/N`` with the explicit constant

    C = (N/4) * inf_v ( (2/N!) * ||D^N(0) v^{N-1}|| )^(1/N)

over unit directions ``v`` normal to ``K``.  The order-``N`` check reports
``C`` with the coercivity: both are read off the ``N``-th derivative form on
one mesh of the normal unit sphere.  The inequality is then checked
by sampling a shrinking cylinder around ``K`` on which the Taylor-remainder
smallness conditions of the constant's derivation are themselves verified.
Those conditions read ``D^N p(x) v^N`` and ``D^N p(x) v^{N-1}`` off one exact
polynomial ``T(x, v) = N! [t^N] p(x + t v)`` in ``2d`` variables: its value
and its ``v``-gradient over ``N``.

Equality of the critical set with ``K`` (as opposed to containment, which is
symbolic and exact) is probed by sampling only and flagged as heuristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .poly import Polynomial
from .reports import InequalityCheckReport, rational_str
from .sampling import ball_points, geometric_radii, sphere_directions, subspace_grid
from .snc import ZERO_SKIP

CERTIFIED_ZETA_MARGIN = 0.9
COERCIVITY_FLOOR = 1e-12
# Directions in the normal unit-sphere mesh that the order-N check reads
# the coercivity and the cylinder constant off.
_NORMAL_MESH_SIZE = 10_000
# Starting cylinder length along the subspace, and how often the cylinder
# may be halved, in verify_gmb_gradient_inequality.
_CYLINDER_LENGTH = 0.5
_MAX_CYLINDER_HALVINGS = 40


class MorseBottError(ValueError):
    pass


@dataclass
class MorseBottReport:
    kind: str  # "morse-bott" or "generalized"
    critical_subspace: tuple[int, ...]
    gradient_vanishes_on_subspace: bool
    is_critical_set_exactly_subspace: bool  # sampled heuristic, not a proof
    order: int | None
    condition_b_holds: bool | None
    coercivity_zeta: float | None
    coercivity_zeta_certified: float | None
    predicted_theta: Fraction | None
    verdict: bool
    hessian_rank: int | None = None
    hessian_kernel_basis: tuple[tuple[Fraction, ...], ...] | None = None
    cylinder_constant: float | None = None  # order-N check only

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "K": list(self.critical_subspace),
            "N": self.order,
            "zeta": self.coercivity_zeta,
            "zeta_certified": self.coercivity_zeta_certified,
            "C": self.cylinder_constant,
            "theta": rational_str(self.predicted_theta) if self.predicted_theta else None,
            "conditions": {
                "a": self.gradient_vanishes_on_subspace
                and self.is_critical_set_exactly_subspace,
                "b": self.condition_b_holds,
                "c": None
                if self.coercivity_zeta is None
                else self.coercivity_zeta > COERCIVITY_FLOOR,
            },
            "critical_set_equality_check": "heuristic-sampled",
            "pass": self.verdict,
        }


def _vanishes_on(p: Polynomial, subspace: Sequence[int]) -> bool:
    """Is ``p`` identically zero on the coordinate subspace?

    Zeroing the normal coordinates drops exactly the terms with a positive
    exponent in one of them and leaves the others distinct, so ``p``
    vanishes there exactly when every term has such an exponent.
    """
    normal = [i for i in range(len(p.variables)) if i not in set(subspace)]
    return all(any(e[i] for i in normal) for e in p.terms)


def _flat_to_order(p: Polynomial, subspace: Sequence[int], order: int) -> bool:
    """Does every partial of order ``1..order-1`` vanish on the subspace?

    Partials keep distinct terms distinct, so one survives exactly at a
    non-constant term of normal degree below ``order``: it takes all of that
    term's normal exponents, or one subspace exponent when there are none."""
    normal = [i for i in range(len(p.variables)) if i not in set(subspace)]
    return all(sum(e[i] for i in normal) >= order for e in p.terms if any(e))


def _gradient_vanishes_on(p: Polynomial, subspace: Sequence[int]) -> bool:
    return all(_vanishes_on(g, subspace) for g in p.gradient())


def _checked_subspace(p: Polynomial, subspace: Iterable[int]) -> tuple[int, ...]:
    """The sorted subspace; the origin must be critical and the indices in range."""
    if any(sum(e) == 1 for e in p.terms):
        raise MorseBottError("origin is not a critical point")
    d = len(p.variables)
    subspace = tuple(sorted(set(subspace)))
    if any(i < 0 or i >= d for i in subspace):
        raise MorseBottError(f"subspace indices {subspace} out of range for d={d}")
    return subspace


def _sampled_criticality_check(
    p: Polynomial,
    subspace: Sequence[int],
    radius: float = 0.25,
    samples: int = 10_000,
    seed: int = 0,
) -> bool:
    """Look for sampled gradient zeros off the declared subspace.

    Random points almost never land exactly on a stray critical variety, so
    this can only catch gross violations; the report flags it as heuristic.
    """
    d = len(p.variables)
    points = ball_points(d, samples, radius, seed=seed)
    off = [i for i in range(d) if i not in set(subspace)]
    dist = np.linalg.norm(points[:, off], axis=1)
    keep = dist > 1e-3 * radius
    if not np.any(keep):
        return True
    grads = np.linalg.norm(p.gradient_numeric()(points[keep]), axis=1)
    return bool(np.all(grads > 1e-12))


def _hessian_exact(p: Polynomial) -> list[list[Fraction]]:
    """The Hessian at the origin, read off the terms of degree two."""
    d = len(p.variables)
    H: list[list[Fraction]] = [[Fraction(0)] * d for _ in range(d)]
    for e, c in p.terms.items():
        if sum(e) == 2:
            i, j = (k for k in range(d) for _ in range(e[k]))
            H[i][j] = H[j][i] = c * (2 if i == j else 1)
    return H


def _kernel_basis(matrix: list[list[Fraction]]) -> list[tuple[Fraction, ...]]:
    """Exact kernel basis via fraction-free-ish Gaussian elimination."""
    rows = [list(r) for r in matrix]
    d = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(d):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r][c]
        rows[r] = [x / pivot for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(d) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * d
        vec[f] = Fraction(1)
        for row_idx, c in enumerate(pivots):
            vec[c] = -rows[row_idx][f]
        basis.append(tuple(vec))
    return basis


def check_morse_bott(
    p: Polynomial,
    subspace: Iterable[int] = (),
    samples: int = 10_000,
    seed: int = 0,
) -> MorseBottReport:
    """Does the Hessian kernel at the origin equal the declared subspace?

    Verifies symbolically that the gradient vanishes identically on the
    subspace, computes the exact rational Hessian at the origin, and demands
    that its kernel be exactly the span of the subspace coordinates.
    """
    d = len(p.variables)
    subspace = _checked_subspace(p, subspace)
    contains = _gradient_vanishes_on(p, subspace)
    heuristic_equal = _sampled_criticality_check(p, subspace, samples=samples, seed=seed)
    hessian = _hessian_exact(p)
    kernel = _kernel_basis(hessian)
    rank = d - len(kernel)
    kernel_is_subspace = len(kernel) == len(subspace) and all(
        all(hessian[i][j] == 0 for i in range(d)) for j in subspace
    )
    verdict = contains and kernel_is_subspace
    return MorseBottReport(
        kind="morse-bott",
        critical_subspace=subspace,
        gradient_vanishes_on_subspace=contains,
        is_critical_set_exactly_subspace=heuristic_equal,
        order=2 if verdict else None,
        condition_b_holds=contains,
        coercivity_zeta=None,
        coercivity_zeta_certified=None,
        predicted_theta=Fraction(1, 2) if verdict else None,
        verdict=verdict,
        hessian_rank=rank,
        hessian_kernel_basis=tuple(kernel),
    )


def _splits(total: int, caps: Sequence[int]) -> list[tuple[int, ...]]:
    """Every ``k`` with ``0 <= k_i <= caps_i`` and ``sum(k) == total``."""
    if not caps:
        return [()] if total == 0 else []
    firsts = range(min(caps[0], total) + 1)
    return [(k, *tail) for k in firsts for tail in _splits(total - k, caps[1:])]


def _nth_derivative_tensor(p: Polynomial, order: int) -> Polynomial:
    """``T(x, v) = D^order p(x)[v^order] = order! [t^order] p(x + t v)``.

    A polynomial in ``2d`` variables, the directions ``v`` (named ``x'``)
    after ``x``.  By the binomial theorem a term ``c x^e`` contributes
    ``order! c prod C(e_i, k_i) x^(e-k) v^k`` for each ``k <= e`` with
    ``|k| = order``, and distinct ``(e, k)`` give distinct monomials.
    """
    scale = math.factorial(order)
    terms = {}
    for e, c in p.terms.items():
        for k in _splits(order, e):
            weight = math.prod(math.comb(n, j) for n, j in zip(e, k))
            terms[tuple(n - j for n, j in zip(e, k)) + k] = scale * weight * c
    return Polynomial(p.variables + tuple(f"{v}'" for v in p.variables), terms)


def _normal_directions(d: int, subspace: Sequence[int], count: int) -> np.ndarray:
    normal = [i for i in range(d) if i not in set(subspace)]
    if not normal:
        raise MorseBottError("subspace is the whole space; no normal directions")
    block = sphere_directions(len(normal), count)
    out = np.zeros((block.shape[0], d))
    for j, idx in enumerate(normal):
        out[:, idx] = block[:, j]
    return out


def nth_derivative_form(p: Polynomial, order: int) -> Polynomial:
    """Polynomial v -> D^order p(0) v^order, i.e. order! times the degree-order part."""
    terms = {e: c for e, c in p.terms.items() if sum(e) == order}
    return Polynomial(p.variables, terms).scale(math.factorial(order))


def check_generalized_morse_bott(
    p: Polynomial,
    subspace: Iterable[int],
    order: int,
    samples: int = 10_000,
    seed: int = 0,
) -> MorseBottReport:
    """Order-``N`` flatness along the subspace plus transverse coercivity.

    Condition (b): every mixed partial of total order ``1..N-1`` vanishes
    identically on the subspace (read exactly off the exponents).  Condition
    (c): the N-th derivative form at 0 is bounded away from zero on the unit
    sphere of the normal space (checked on a deterministic mesh; the
    certified coercivity keeps a 10% slack under the sampled minimum).
    The cylinder constant ``C`` is the minimum over the same mesh.
    """
    if order < 2:
        raise MorseBottError("order must be at least 2")
    d = len(p.variables)
    subspace = _checked_subspace(p, subspace)
    contains = _gradient_vanishes_on(p, subspace)
    heuristic_equal = _sampled_criticality_check(p, subspace, samples=samples, seed=seed)

    condition_b = _flat_to_order(p, subspace, order)

    form = nth_derivative_form(p, order)
    directions = _normal_directions(d, subspace, _NORMAL_MESH_SIZE)
    values = np.abs(form.numeric()(directions))
    zeta = float(values.min())
    condition_c = zeta > COERCIVITY_FLOOR
    # Row v of the form's gradient over N is D^N(0) v^{N-1}.
    contracted = form.gradient_numeric()(directions) / order
    norms = np.linalg.norm(contracted, axis=1)
    inf_term = float(((2.0 / math.factorial(order)) * norms).min())

    verdict = contains and condition_b and condition_c
    return MorseBottReport(
        kind="generalized",
        critical_subspace=subspace,
        gradient_vanishes_on_subspace=contains,
        is_critical_set_exactly_subspace=heuristic_equal,
        order=order,
        condition_b_holds=condition_b,
        coercivity_zeta=zeta,
        coercivity_zeta_certified=CERTIFIED_ZETA_MARGIN * zeta,
        predicted_theta=Fraction(order - 1, order) if verdict else None,
        verdict=verdict,
        cylinder_constant=(order / 4.0) * inf_term ** (1.0 / order),
    )


def verify_gmb_gradient_inequality(
    p: Polynomial,
    report: MorseBottReport,
    samples: int = 4000,
    cylinder_radius: float = 0.5,
    force: bool = False,
    extra_points: np.ndarray | None = None,
) -> InequalityCheckReport:
    """Sampled check of ``||grad p|| >= C |p - p(0)|^(1-1/N)`` near the subspace.

    The cylinder radius and length are halved until the sampled
    Taylor-remainder conditions behind the constant's derivation hold, then
    the ratio is minimized over the cylinder samples (and any caller-supplied
    extra points, which is how known bad curves are exhibited).
    """
    if report.cylinder_constant is None:
        raise MorseBottError("report carries no cylinder constant; run the order-N check")
    if not (report.verdict or force):
        raise MorseBottError("report verdict is negative; pass force=True to probe anyway")
    order = report.order
    d = len(p.variables)
    subspace = report.critical_subspace
    n_dirs = max(16, samples // 40)
    n_radii = 12
    n_kappa = max(1, samples // (n_dirs * n_radii))
    directions = _normal_directions(d, subspace, n_dirs)
    tensor = _nth_derivative_tensor(p, order)
    tensor_value, tensor_gradient = tensor.numeric(), tensor.gradient_numeric()

    def tensors(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """D^N p(x) v^N and D^N p(x) v^{N-1} for a (blocks, n_dirs, d) array
        of points x, each block paired row by row with the directions v."""
        blocks = points.shape[0]
        rows = np.hstack([points.reshape(-1, d), np.tile(directions, (blocks, 1))])
        vn = tensor_value(rows).reshape(points.shape[:2])
        vm = tensor_gradient(rows)[:, d:].reshape(points.shape) / order
        return vn, vm

    at_zero_vn, at_zero_vm = tensors(np.zeros((1, len(directions), d)))
    zero_vn_bound = np.abs(at_zero_vn) + 1e-12
    zero_vm_bound = 0.5 * np.linalg.norm(at_zero_vm, axis=-1) + 1e-12

    radius, length = float(cylinder_radius), _CYLINDER_LENGTH
    for _ in range(_MAX_CYLINDER_HALVINGS + 1):
        kappas = subspace_grid(subspace, d, n_kappa, length)
        radii = geometric_radii(radius / 256.0, radius, n_radii)
        points = (
            kappas[:, None, None, :] + radii[None, :, None, None] * directions
        ).reshape(-1, len(directions), d)
        moved_vn, moved_vm = tensors(points)
        cond1 = np.all(np.abs(moved_vn - at_zero_vn) <= zero_vn_bound)
        cond2 = np.all(
            np.linalg.norm(moved_vm - at_zero_vm, axis=-1) <= zero_vm_bound
        )
        if cond1 and cond2:
            break
        radius *= 0.5
        length *= 0.5
    else:
        raise MorseBottError(
            "cylinder radius underflow while enforcing Taylor-remainder bounds"
        )

    check_points = points.reshape(-1, d)
    if extra_points is not None:
        check_points = np.concatenate([check_points, np.atleast_2d(extra_points)])
    energies = np.abs(p.numeric()(check_points) - float(p.constant_term()))
    grads = np.linalg.norm(p.gradient_numeric()(check_points), axis=1)
    keep = energies > ZERO_SKIP
    theta = 1.0 - 1.0 / order
    measured = float((grads[keep] / energies[keep] ** theta).min()) if np.any(keep) else math.inf
    return InequalityCheckReport(
        inequality_id="gradient",
        exponent=Fraction(order - 1, order),
        measured_constant=measured,
        predicted_constant=report.cylinder_constant,
        sample_count=int(keep.sum()),
        ball_radii=(radius, length),
    )
