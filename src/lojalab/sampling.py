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


def halton(count: int, dim: int, start: int = 1) -> np.ndarray:
    """First ``count`` points of the Halton sequence in [0, 1)^dim."""
    if dim > len(_PRIMES):
        raise ValueError(f"halton supports dimension <= {len(_PRIMES)}")
    if start < 0 or start + count > np.iinfo(np.int64).max:
        # A negative index never reaches 0 under floor division, and int64
        # indices past the top would wrap.
        raise ValueError("halton indices must lie in [0, 2**63 - 1)")
    out = np.empty((count, dim))
    index = np.arange(start, start + count, dtype=np.int64)
    for j in range(dim):
        # Radical inverse of every index at once; rows whose index is
        # exhausted add exact zeros, so each row equals the digit-by-digit sum.
        base = _PRIMES[j]
        n = index
        value = np.zeros(count)
        scale = 1.0 / base
        while n.any():
            n, digit = np.divmod(n, base)
            value += digit * scale
            scale /= base
        out[:, j] = value
    return out


def sphere_directions(dim: int, count: int) -> np.ndarray:
    """Quasi-uniform unit directions, always including +/- each axis."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    if count < 1:
        raise ValueError(f"direction count must be at least 1, got {count}")
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
    norms = np.linalg.norm(cube, axis=1)
    keep = norms > 0.2
    pts = cube[keep][:count]
    pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    return np.concatenate([pts, axes])


def ball_points(dim: int, count: int, radius: float, seed: int = 0) -> np.ndarray:
    """Quasi-uniform sample of the closed ball of the given radius.

    Includes the origin and the points ``+/- radius * e_i`` exactly, so
    extrema attained on the axes or at the boundary are sampled exactly.
    After those ``2*dim + 1`` anchors come exactly ``count`` interior points:
    the first ``count`` points of the seeded Halton stream that fall in the
    ball, so a larger ``count`` extends a smaller one's sample.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    if count < 1:
        raise ValueError(f"sample count must be at least 1, got {count}")
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"ball radius must be finite and positive, got {radius}")
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
    start = 1 + seed * 104729
    inside = [np.empty((0, dim))]
    found = 0
    while found < count:
        need = min(int((count - found) * ratio * 1.3) + 16, _MAX_CHUNK_ROWS)
        cube = halton(need, dim, start=start) * 2.0 - 1.0
        start += need
        inside.append(cube[np.linalg.norm(cube, axis=1) <= 1.0])
        found += len(inside[-1])
    pts = np.concatenate(inside)[:count] * radius
    return np.concatenate([np.array(anchors), pts])


def geometric_radii(r_min: float, r_max: float, count: int) -> np.ndarray:
    """Geometrically spaced radii from ``r_max`` down to ``r_min``."""
    if not (0.0 < r_min <= r_max < math.inf):
        raise ValueError(f"need finite radii with 0 < r_min <= r_max, got {r_min}, {r_max}")
    if count < 1:
        raise ValueError("need at least one radius")
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
