"""Morse-Bott and higher-order flatness checks on coordinate subspaces.

The critical set is declared, not discovered: a coordinate subspace ``K``
through the origin.  The plain check compares the kernel of the exact
rational Hessian with ``K``.  The order-``N`` check decides, on the
coefficients, condition (b), that every derivative of order ``1..N-1``
vanishes identically on ``K``, and condition (c), that the contracted form
``D^N p(0)[v^{N-1}]`` has no zero on the unit sphere normal to ``K``; (c)
may be left undecided, which gives no verdict.  With (b) and (c), the
paper's scaling argument (at ``N = 2`` the Morse-Bott lemma) makes ``K`` the
whole critical set near the origin, so no verdict rests on a sample.

A positive order-``N`` verdict predicts the gradient-inequality exponent
``1 - 1/N`` with the explicit constant

    C = (N/4) * ( (2/N!) * zeta )^(1/N),   zeta = inf_v ||D^N(0) v^{N-1}||

over unit directions ``v`` normal to ``K``.  The order-``N`` check reads
``zeta`` as the minimum over one mesh of the normal unit sphere, so ``zeta``
and ``C`` are sampled, not certified.  The inequality is then checked
by sampling a shrinking cylinder around ``K`` on which the Taylor-remainder
smallness conditions of the constant's derivation are themselves verified.
Those conditions read ``D^N p(x) v^N`` and ``D^N p(x) v^{N-1}`` off one exact
polynomial ``T(x, v) = N! [t^N] p(x + t v)`` in ``2d`` variables: its value
and its ``v``-gradient over ``N``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .poly import Polynomial
from .reports import InequalityCheckReport, rational_str, sampled_check
from .sampling import (
    CoordinateSubspace, _row_norms, geometric_radii, sphere_directions, subspace_grid,
)
from .univar import forms_share_real_zero

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
    order: int | None
    condition_b_holds: bool | None
    condition_c_holds: bool | None  # None: undecided
    coercivity_zeta: float | None
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
            "C": self.cylinder_constant,
            # zeta and C are minima over the normal mesh, not certified bounds.
            "constants": None if self.cylinder_constant is None else "sampled",
            "theta": rational_str(self.predicted_theta) if self.predicted_theta else None,
            "conditions": {
                "a": self.gradient_vanishes_on_subspace,
                "b": self.condition_b_holds,
                "c": self.condition_c_holds,
            },
            "pass": self.verdict,
        }


def _flat_to_order(p: Polynomial, subspace: Sequence[int], order: int) -> bool:
    """Does every partial of order ``1..order-1`` vanish on the subspace?

    Partials keep distinct terms distinct, so one survives exactly at a
    non-constant term of normal degree below ``order``: it takes all of that
    term's normal exponents, or one subspace exponent when there are none."""
    normal = CoordinateSubspace(tuple(subspace)).normal(len(p.variables))
    return all(sum(e[i] for i in normal) >= order for e in p.terms if any(e))


def _checked_subspace(p: Polynomial, subspace: Iterable[int]) -> tuple[int, ...]:
    """The sorted subspace; the origin must be critical and the indices in range."""
    if any(sum(e) == 1 for e in p.terms):
        raise MorseBottError("origin is not a critical point")
    subspace = tuple(sorted(set(subspace)))
    try:
        CoordinateSubspace(subspace).normal(len(p.variables))
    except ValueError as exc:
        raise MorseBottError(str(exc)) from None
    return subspace


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
    *,
    samples: int = 10_000,
) -> MorseBottReport:
    """Does the Hessian kernel at the origin equal the declared subspace?

    Verifies symbolically that the gradient vanishes identically on the
    subspace, computes the exact rational Hessian at the origin, and demands
    that its kernel be exactly the span of the subspace coordinates; that
    kernel test is condition (c) at order 2.  ``samples`` is ignored
    (nothing is sampled); it is kept for existing callers.
    """
    d = len(p.variables)
    subspace = _checked_subspace(p, subspace)
    contains = _flat_to_order(p, subspace, 2)
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
        order=2 if verdict else None,
        condition_b_holds=contains,
        condition_c_holds=kernel_is_subspace,
        coercivity_zeta=None,
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
    normal = CoordinateSubspace(tuple(subspace)).normal(d)
    if not normal:
        raise MorseBottError("subspace is the whole space; no normal directions")
    return CoordinateSubspace(tuple(normal)).embed(sphere_directions(len(normal), count), d)


def nth_derivative_form(p: Polynomial, order: int) -> Polynomial:
    """Polynomial v -> D^order p(0) v^order, i.e. order! times the degree-order part."""
    terms = {e: c for e, c in p.terms.items() if sum(e) == order}
    return Polynomial(p.variables, terms).scale(math.factorial(order))


def _amgm_floor(form: Polynomial, order: int) -> list[Fraction]:
    """``b`` with ``form >= sum_i b_i v_i^N`` for a form of even degree ``N``.

    Weighted AM-GM bounds ``|v^e|`` by ``sum_i (e_i/N) v_i^N`` (Reznick, Math.
    Ann. 283, 1989), so ``b_i = a_i - sum_e |r_e| e_i/N``, where ``a_i`` is
    the coefficient of ``v_i^N`` and the ``r_e`` are the others.
    """
    k = len(form.variables)
    floor = [
        form.terms.get(tuple(order if j == i else 0 for j in range(k)), Fraction(0))
        for i in range(k)
    ]
    for e, c in form.terms.items():
        if max(e) < order:
            floor = [b - abs(c) * Fraction(n, order) for b, n in zip(floor, e)]
    return floor


def _condition_c(p: Polynomial, subspace: Sequence[int], order: int) -> bool | None:
    """Is ``D^N p(0)[v^{N-1}]`` nonzero at every unit ``v`` normal to the
    subspace?  Decided on the coefficients; ``None`` when undecided.

    At ``N = 2`` this is ``check_morse_bott``'s kernel test.  Otherwise, given
    (b), the form is ``(N-1)! grad F(v)`` with ``F`` the degree-``N`` part of
    ``p`` on the normal coordinates; a definite ``F`` passes by Euler's
    identity ``v . grad F = N F``.
    """
    if order == 2:
        return check_morse_bott(p, subspace).condition_c_holds
    normal = CoordinateSubspace(tuple(subspace)).normal(len(p.variables))
    form = Polynomial(
        [p.variables[i] for i in normal],
        {
            tuple(e[i] for i in normal): c
            for e, c in p.terms.items()
            if sum(e) == order and not any(e[j] for j in subspace)
        },
    )
    # A zero F fails everywhere; on a line any other F passes.
    if len(normal) == 1 or form.is_zero:
        return not form.is_zero
    if len(normal) == 2:
        # F, F_x and F_y by the coefficients of x^i y^(degree - i).
        f = [form.terms.get((i, order - i), Fraction(0)) for i in range(order + 1)]
        dx = [(i + 1) * f[i + 1] for i in range(order)]
        dy = [(order - i) * f[i] for i in range(order)]
        return not forms_share_real_zero(dx, dy)
    if order % 2 == 0 and any(
        min(_amgm_floor(signed, order)) > 0 for signed in (form, form.scale(-1))
    ):
        return True
    return None


def check_generalized_morse_bott(
    p: Polynomial,
    subspace: Iterable[int],
    order: int,
    *,
    samples: int = 10_000,
) -> MorseBottReport:
    """Order-``N`` flatness along the subspace plus transverse coercivity.

    Condition (b): every mixed partial of total order ``1..N-1`` vanishes
    identically on the subspace (read exactly off the exponents).  Condition
    (c): ``D^N p(0)[v^{N-1}]`` has no zero on the unit sphere of the normal
    space, decided exactly by ``_condition_c``; undecided gives no verdict.
    The coercivity ``zeta``, the minimum of ``||D^N p(0)[v^{N-1}]||`` over a
    deterministic mesh of that sphere, and the cylinder constant ``C`` read
    off it are sampled, not certified.  ``samples`` is ignored (the mesh is
    fixed); it is kept for existing callers.
    """
    if order < 2:
        raise MorseBottError("order must be at least 2")
    d = len(p.variables)
    subspace = _checked_subspace(p, subspace)
    contains = _flat_to_order(p, subspace, 2)
    condition_b = _flat_to_order(p, subspace, order)
    condition_c = _condition_c(p, subspace, order)

    form = nth_derivative_form(p, order)
    directions = _normal_directions(d, subspace, _NORMAL_MESH_SIZE)
    # Row v of the form's gradient over N is D^N(0) v^{N-1}.
    contracted = form.gradient_numeric()(directions) / order
    zeta = float(_row_norms(contracted).min())
    inf_term = (2.0 / math.factorial(order)) * zeta

    verdict = contains and condition_b and condition_c is True
    return MorseBottReport(
        kind="generalized",
        critical_subspace=subspace,
        gradient_vanishes_on_subspace=contains,
        order=order,
        condition_b_holds=condition_b,
        condition_c_holds=condition_c,
        coercivity_zeta=zeta,
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
    zero_vm_bound = 0.5 * _row_norms(at_zero_vm) + 1e-12

    radius, length = float(cylinder_radius), _CYLINDER_LENGTH
    for _ in range(_MAX_CYLINDER_HALVINGS + 1):
        kappas = subspace_grid(subspace, d, n_kappa, length)
        radii = geometric_radii(radius / 256.0, radius, n_radii)
        points = (
            kappas[:, None, None, :] + radii[None, :, None, None] * directions
        ).reshape(-1, len(directions), d)
        moved_vn, moved_vm = tensors(points)
        cond1 = np.all(np.abs(moved_vn - at_zero_vn) <= zero_vn_bound)
        cond2 = np.all(_row_norms(moved_vm - at_zero_vm) <= zero_vm_bound)
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
    return sampled_check(
        "gradient",
        Fraction(order - 1, order),
        _row_norms(p.gradient_numeric()(check_points)),
        np.abs(p.numeric()(check_points) - float(p.constant_term())),
        1.0 - 1.0 / order,
        (radius, length),
        predicted=report.cylinder_constant,
    )
