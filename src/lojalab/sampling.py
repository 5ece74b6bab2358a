"""Deterministic point sequences for sampled bounds and checks.

Every sampler here is a pure function of its arguments, so sampled constants
and pass/fail verdicts are reproducible run to run and independent of any
worker count.  The seed shifts the start index of the underlying
low-discrepancy sequence; the anchor points are always included.

Direction meshes deliberately include the coordinate axis directions: for
products of coordinate powers those are exactly the degenerate directions
where gradient/value ratios are extremal, and a uniformly random mesh would
need O(1/r) points to find them at radius r.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
_MAX_CHUNK_ROWS = 1 << 16
# Largest counts a sampler accepts, so that a mistyped count fails at once
# instead of allocating without bound.  They bound memory, not run time.
_MAX_RADII = 10_000
_MAX_POINTS = 1_000_000
# A seed moves the Halton start by this stride.  The largest seed starts the
# stream at most 2**62 in, which leaves 2**62 more indices for the rows a
# sample draws after it.
_SEED_STRIDE = 104_729
_MAX_SEED = 2**62 // _SEED_STRIDE


def _check_count(count: int, what: str, limit: int) -> None:
    if count < 1:
        raise ValueError(f"{what} count must be at least 1, got {count}")
    if count > limit:
        raise ValueError(f"{what} count {count} exceeds the limit {limit}")


def _row_norms(x: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of ``x``, taken over its last axis.

    The squares are summed column by column in coordinate order from 0.0,
    ``s = s + x[..., j] * x[..., j]``, and then square-rooted: the arithmetic
    of ``flow._norm`` on a whole batch.  Below 8 columns that is also the
    order of ``np.linalg.norm(x, axis=-1)``, so the bits are numpy's in any
    memory layout, without numpy's slow reduction over a short inner axis.
    From 8 columns up numpy sums C-ordered rows pairwise and F-ordered ones
    in this order, so its bits there depend on the layout and these do not.
    """
    total = np.zeros(x.shape[:-1])
    square = np.empty_like(total)
    for j in range(x.shape[-1]):
        column = x[..., j]
        np.multiply(column, column, out=square)
        total += square
    return np.sqrt(total, out=total)


def halton(count: int, dim: int, start: int = 1) -> np.ndarray:
    """Points ``start, ..., start + count - 1`` of the Halton sequence in [0, 1)^dim.

    Column j holds the radical inverse in base ``b = _PRIMES[j]``: with the
    digits ``d_k`` of the index, least significant first, and the scales
    ``s_0 = 1/b``, ``s_{k+1} = s_k / b``, it is the float sum
    ``(((0 + d_0 s_0) + d_1 s_1) + ...)`` taken in that order.

    The low ``m`` digits, for the largest ``b^m <= count``, come from a table
    of that running sum over every residue ``r`` mod ``b^m``, built one level
    at a time by ``T_{k+1}[d b^k + r] = T_k[r] + d s_k`` from ``T_0 = [0]``.
    Each entry is the same additions in the same order as the digit-by-digit
    sum of its residue.  The indices of one block of ``b^m`` share their high
    part ``index // b^m`` and run through every residue once, so the rows are
    the table tiled over the few blocks the range touches.  The high digits
    then continue each row's sum, one pass per digit, with the digit taken
    per block.  Leading zero digits add an exact ``+0.0`` on either path, so
    every row is bit-identical to the digit-by-digit sum.
    """
    if dim > len(_PRIMES):
        raise ValueError(f"sampled checks support at most {len(_PRIMES)} variables, got {dim}")
    if start < 0 or start + count > np.iinfo(np.int64).max:
        # A negative index never reaches 0 under floor division, and int64
        # indices past the top would wrap.
        raise ValueError("halton indices must lie in [0, 2**63 - 1)")
    out = np.empty((count, dim))
    for j in range(dim):
        base = _PRIMES[j]
        table = np.zeros(1)
        scale = 1.0 / base
        while table.size * base <= count:
            table = ((np.arange(base) * scale)[:, None] + table).ravel()
            scale /= base
        block = table.size
        first = start // block
        high = np.arange(first, (start + count - 1) // block + 1, dtype=np.int64)
        rows = np.tile(table, (high.size, 1))
        while high.any():
            high, digit = np.divmod(high, base)
            rows += (digit * scale)[:, None]
            scale /= base
        offset = start - first * block
        out[:, j] = rows.ravel()[offset : offset + count]
    return out


def sphere_directions(dim: int, count: int) -> np.ndarray:
    """Quasi-uniform unit directions, always including +/- each axis."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    _check_count(count, "direction", _MAX_POINTS)
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        n = max(4, 4 * math.ceil(count / 4))
        angles = 2.0 * np.pi * np.arange(n) / n
        pts = np.column_stack([np.cos(angles), np.sin(angles)])
        # cos(pi/2) is 6.1e-17, not 0: put the axis directions on the axes.
        pts[np.abs(pts) < 1e-12] = 0.0
        return pts
    axes = np.concatenate([np.eye(dim), -np.eye(dim)])
    if dim == 3:
        # Fibonacci spiral: near-uniform area coverage.
        k = np.arange(count, dtype=float)
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        z = 1.0 - 2.0 * (k + 0.5) / count
        rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        phi = 2.0 * np.pi * k / golden
        pts = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
        return np.concatenate([pts, axes])
    cube = halton(3 * count, dim) * 2.0 - 1.0
    pts = cube[_row_norms(cube) > 0.2][:count]
    pts = pts / _row_norms(pts)[:, None]
    return np.concatenate([pts, axes])


def check_ball(count: int, radius: float, seed: int) -> None:
    """Raise ``ValueError`` unless :func:`ball_points` accepts these."""
    _check_count(count, "sample", _MAX_POINTS)
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"ball radius must be finite and positive, got {radius}")
    if not 0 <= seed <= _MAX_SEED:
        raise ValueError(f"seed must lie in [0, {_MAX_SEED}], got {seed}")


def ball_points(dim: int, count: int, radius: float, seed: int = 0) -> np.ndarray:
    """Quasi-uniform sample of the closed ball of the given radius.

    Includes the origin and the points ``+/- radius * e_i`` exactly, so
    extrema attained on the axes or at the boundary are sampled exactly.
    After those ``2*dim + 1`` anchors come exactly ``count`` interior points:
    the first ``count`` points of the seeded Halton stream that fall in the
    ball, so a larger ``count`` extends a smaller one's sample.  The seed
    must lie in ``[0, _MAX_SEED]``.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    check_ball(count, radius, seed)
    anchors = [np.zeros(dim)]
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = radius
        anchors.append(e.copy())
        anchors.append(-e)
    # Rejection from the enclosing cube, drawn in chunks sized by the
    # cube-to-ball volume ratio (and capped, so memory stays bounded in high
    # dimension); each chunk continues the Halton stream.
    ratio = 2.0**dim * math.gamma(dim / 2.0 + 1.0) / math.pi ** (dim / 2.0)
    start = 1 + seed * _SEED_STRIDE
    inside = [np.empty((0, dim))]
    found = 0
    while found < count:
        need = min(int((count - found) * ratio * 1.3) + 16, _MAX_CHUNK_ROWS)
        cube = halton(need, dim, start=start) * 2.0 - 1.0
        start += need
        inside.append(cube[_row_norms(cube) <= 1.0])
        found += len(inside[-1])
    pts = np.concatenate(inside)[:count] * radius
    return np.concatenate([np.array(anchors), pts])


def geometric_radii(r_min: float, r_max: float, count: int) -> np.ndarray:
    """Geometrically spaced radii from ``r_max`` down to ``r_min``."""
    if not (0.0 < r_min <= r_max < math.inf):
        raise ValueError(f"need finite radii with 0 < r_min <= r_max, got {r_min}, {r_max}")
    _check_count(count, "radius", _MAX_RADII)
    if count == 1 or r_min == r_max:
        return np.array([r_max])
    return np.exp(np.linspace(math.log(r_max), math.log(r_min), count))


def subspace_grid(indices: Iterable[int], dim: int, count: int, radius: float) -> np.ndarray:
    """Quasi-uniform points of a coordinate subspace ball, embedded in R^dim."""
    indices = list(indices)
    if not indices:
        return np.zeros((1, dim))
    block = ball_points(len(indices), count, radius)
    out = np.zeros((block.shape[0], dim))
    for j, idx in enumerate(indices):
        out[:, idx] = block[:, j]
    return out
