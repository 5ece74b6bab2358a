"""Halton and ball samplers against a scalar reference and pinned digests."""

import functools
import hashlib
import math

import numpy as np
import pytest

from lojalab.sampling import ball_points, halton, sphere_directions

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def _halton_reference(count, dim, start=1):
    """The digit-by-digit radical inverse, one point and one axis at a time."""
    out = np.empty((count, dim))
    for j in range(dim):
        base = PRIMES[j]
        for i in range(count):
            n = start + i
            value = 0.0
            scale = 1.0 / base
            while n:
                n, digit = divmod(n, base)
                value += digit * scale
                scale /= base
            out[i, j] = value
    return out


@functools.lru_cache(maxsize=None)
def _reference_rows(seed):
    # Row i of the sequence depends only on start + i and column j only on
    # the j-th prime, so every (count, dim) case is a block of this one.
    return _halton_reference(5000, 10, start=1 + seed * 104729)


@pytest.mark.parametrize("dim", range(1, 11))
def test_halton_matches_scalar_reference_bit_for_bit(dim):
    for seed in range(8):
        expected = _reference_rows(seed)
        for count in (0, 1, 7, 5000):
            got = halton(count, dim, start=1 + seed * 104729)
            assert got.shape == (count, dim)
            assert got.tobytes() == expected[:count, :dim].tobytes(), (seed, count)


def test_halton_rejects_dimension_past_the_prime_table():
    with pytest.raises(ValueError):
        halton(5, 11)


def test_halton_rejects_indices_outside_int64():
    with pytest.raises(ValueError):
        halton(3, 2, start=-1)
    with pytest.raises(ValueError):
        halton(3, 2, start=2**63 - 2)


@pytest.mark.parametrize("count, radius, message", [
    (0, 0.5, "sample count must be at least 1, got 0"),
    (-5, 0.5, "sample count must be at least 1, got -5"),
    (10, 0.0, "ball radius must be finite and positive, got 0.0"),
    (10, -1.0, "ball radius must be finite and positive, got -1.0"),
    (10, float("inf"), "ball radius must be finite and positive, got inf"),
    (10, float("nan"), "ball radius must be finite and positive, got nan"),
])
def test_ball_points_rejects_empty_counts_and_bad_radii(count, radius, message):
    with pytest.raises(ValueError, match=message):
        ball_points(2, count, radius)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_sphere_directions_rejects_empty_counts(dim):
    for count in (0, -5):
        with pytest.raises(ValueError, match=f"direction count must be at least 1, got {count}"):
            sphere_directions(dim, count)


def _check_anchors(points, dim, radius):
    anchors = points[: 2 * dim + 1]
    assert np.array_equal(anchors[0], np.zeros(dim))
    for i in range(dim):
        axis = np.zeros(dim)
        axis[i] = radius
        assert np.array_equal(anchors[1 + 2 * i], axis)
        assert np.array_equal(anchors[2 + 2 * i], -axis)


@pytest.mark.parametrize("dim", range(1, 11))
def test_ball_points_returns_exactly_count_interior_points(dim):
    for count in (1, 3, 100, 2000):
        points = ball_points(dim, count, 0.5)
        assert points.shape == (2 * dim + 1 + count, dim), count
        _check_anchors(points, dim, 0.5)
        assert np.all(np.linalg.norm(points, axis=1) <= 0.5)


@pytest.mark.parametrize("dim", range(1, 11))
def test_ball_points_are_the_first_interior_points_of_the_stream(dim):
    ratio = 2.0**dim * math.gamma(dim / 2.0 + 1.0) / math.pi ** (dim / 2.0)
    for count in (1, 3) if dim > 6 else (1, 3, 100):
        draw = int(2 * count * ratio) + 64
        cube = _halton_reference(draw, dim, start=1 + 2 * 104729) * 2.0 - 1.0
        inside = cube[np.linalg.norm(cube, axis=1) <= 1.0]
        assert len(inside) >= count
        points = ball_points(dim, count, 0.25, seed=2)
        assert points[2 * dim + 1 :].tobytes() == (inside[:count] * 0.25).tobytes()


# SHA-1 of the float64 bytes of ball_points(dim, count, 0.37, seed), captured
# from the scalar-loop sampler, which returned `count` points in these cases.
BALL_DIGESTS = {
    (1, 2000, 0): "85b0ca390d46bdf782abb80b3588da042b66d244",
    (2, 2000, 0): "6a9e14ee5d9dbc4b265422d7ecd91fdd160bf6f4",
    (3, 2000, 0): "9d7ece07ac3aa95ccf21d2d0419878f8f5fb87bc",
    (4, 2000, 0): "8d45b017175687b247742c57fcfa544f79a758a7",
    (5, 2000, 0): "1c66057561b45417399ccabd24d7ca506e4b4b4b",
    (6, 2000, 0): "3c70eff9102e8da7959f6e5256411e0ed169a96b",
    (7, 2000, 0): "369ee91d17206be13bf780e88b64642660f362a5",
    (8, 2000, 0): "ca96081da85d1800f63bd20300223adcd352fe40",
    (9, 2000, 0): "e0576c37da3752ba38d2a8a32a990e60a0e97623",
    (1, 100, 5): "cc16b6d06dfa2e5a9960df020f16a20b0f56dcf5",
    (2, 100, 5): "6361acce7f4cea0940a8e07d1a0bbb4ff41ae8db",
    (3, 100, 5): "cf7422d9a664a6dccbb7adaba8188965ec5987e5",
    (4, 100, 5): "ae26e30d4e2727b40d64b422250abfc6c73e8ed8",
    (5, 100, 5): "5db47ae5bef74805fa50761a26aca8a5b9a6c7e7",
    (6, 100, 5): "44fc0945cbe35756be4bd41208d1dd7829128654",
    (7, 100, 5): "6944666346d0031195e1503f9ec95ed244723656",
    (8, 100, 5): "00626f7dafd52d70784c401d6b2927ae14b6b839",
    (9, 100, 5): "1173af18a81b2ccd6a9242e13e756c84853bc111",
}


@pytest.mark.parametrize("key", sorted(BALL_DIGESTS))
def test_ball_points_match_pinned_digests(key):
    dim, count, seed = key
    points = ball_points(dim, count, 0.37, seed=seed)
    assert points.shape == (2 * dim + 1 + count, dim)
    assert hashlib.sha1(points.tobytes()).hexdigest() == BALL_DIGESTS[key]


@pytest.mark.parametrize("count", [4, 7, 400])
def test_plane_directions_include_the_exact_axes(count):
    rows = {tuple(row) for row in sphere_directions(2, count)}
    assert {(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)} <= rows
