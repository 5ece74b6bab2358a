"""Halton and ball samplers against a scalar reference and pinned digests."""

import ast
import functools
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

import lojalab
from lojalab.flow import _norm
from lojalab.morse import _normal_directions
from lojalab.sampling import (
    _MAX_SEED,
    CoordinateSubspace,
    _row_norms,
    ball_points,
    halton,
    sphere_directions,
    subspace_grid,
)

from oracles import subspace_distance, subspace_embedding, subspace_projection

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


def _table_edge_cases(base):
    # Counts b^m - 1, b^m and b^m + 1, each with its table size: the largest
    # power of the base that is at most the count.
    cases = []
    power = base
    while power + 1 <= 5000:
        cases += [(power - 1, power // base), (power, power), (power + 1, power)]
        power *= base
    return cases


@pytest.mark.parametrize("dim", [1, 2, 10])
def test_halton_table_edges_match_scalar_reference(dim):
    # Bases 2, 3 and 29 are the last columns of dims 1, 2 and 10.
    base = PRIMES[dim - 1]
    for seed in (0, 3):
        expected = _reference_rows(seed)
        first = 1 + seed * 104729
        for count, block in _table_edge_cases(base):
            # From the reference start, and from one and two rows short of a
            # block edge, so that the range straddles it.
            edge = -first % block + block
            for offset in (0, edge - 1, edge - 2):
                if offset < 0 or offset + count > 5000:
                    continue
                got = halton(count, dim, start=first + offset)
                want = expected[offset : offset + count, :dim]
                assert got.tobytes() == want.tobytes(), (seed, count, offset)


def test_halton_at_the_largest_seed_start_matches_scalar_reference():
    start = 1 + _MAX_SEED * 104729
    expected = _halton_reference(300, 10, start=start)
    for count in (0, 1, 28, 29, 30, 300):
        assert halton(count, 10, start=start).tobytes() == expected[:count].tobytes(), count


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
    (1_000_001, 0.5, "sample count 1000001 exceeds the limit 1000000"),
])
def test_ball_points_rejects_empty_counts_and_bad_radii(count, radius, message):
    with pytest.raises(ValueError, match=message):
        ball_points(2, count, radius)


def test_ball_points_accepts_exactly_the_seed_range():
    # The seed, not the Halton index it maps to, is named in the error.
    for seed in (0, _MAX_SEED):
        assert ball_points(2, 5, 0.5, seed=seed).shape == (10, 2)
    for seed in (-1, _MAX_SEED + 1, 10**14):
        with pytest.raises(ValueError, match=rf"^seed must lie in \[0, {_MAX_SEED}\], got {seed}$"):
            ball_points(2, 5, 0.5, seed=seed)


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


@pytest.mark.parametrize("dim", [3, 4, 5, 10])
def test_sphere_directions_are_unit_rows_with_the_exact_axes(dim):
    # d = 3 takes the Fibonacci spiral, d >= 4 the Halton cube.
    count = 500
    directions = sphere_directions(dim, count)
    assert directions.shape == (count + 2 * dim, dim)
    assert np.all(np.abs(np.linalg.norm(directions, axis=1) - 1.0) <= 1e-15)
    rows = [tuple(row) for row in directions]
    for i in range(dim):
        axis = np.zeros(dim)
        axis[i] = 1.0
        assert rows.count(tuple(axis)) == 1
        assert rows.count(tuple(-axis)) == 1
    assert np.array_equal(directions, sphere_directions(dim, count))


# SHA-1 of the float64 bytes of sphere_directions(dim, 500), the Halton-cube
# mesh, captured from the per-digit divmod sampler.  Dimensions 8-10 were
# re-pinned when the row norms moved to the column-order sum: numpy sums a
# C-ordered row of 8 or more entries pairwise, and these are the digests of
# the earlier sampler with numpy's norm taken on an F-ordered copy.
SPHERE_DIGESTS = {
    4: "ccf590af939bd5ef6cd35ed660a4bd6fefd58241",
    5: "b3349a6ddf6d2066f8088bddf2866bbc4420618c",
    6: "80b0b62786402a1e874815665766ee4dbce69a69",
    7: "433f1b2b0b626a1de1277a8d73dfc8b967366e58",
    8: "44469e37b267747207474c2181dbf17bcac538a4",
    9: "bfd780c8aa63735a17f240ab604052d03c45bcf0",
    10: "b5f38e9776b862427bdd4b7baf3f34da4b0cdeb3",
}


@pytest.mark.parametrize("dim", sorted(SPHERE_DIGESTS))
def test_sphere_directions_match_pinned_digests(dim):
    directions = sphere_directions(dim, 500)
    assert hashlib.sha1(directions.tobytes()).hexdigest() == SPHERE_DIGESTS[dim]


# ----------------------------------------------------------------------
# the row norm
# ----------------------------------------------------------------------

# Signed zeros, subnormals, infinities, nan, and entries whose squares
# overflow or underflow.
_SPECIAL = np.array(
    [0.0, -0.0, 5e-324, -2.5e-310, 1e-160, np.inf, -np.inf, np.nan, 1e200, -3e170, 1.5, -0.75]
)


def _batches(width):
    """Rows of one width, ordinary and special, in several memory layouts."""
    rng = np.random.default_rng(width)
    plain = rng.standard_normal((600, width)) * np.logspace(0, -9, width)
    special = rng.choice(_SPECIAL, size=(600, width))
    for x in (plain, special):
        yield x
        yield np.asfortranarray(x)
        yield x[::3]
        yield np.repeat(x, 2, axis=1)[:, ::2]
        yield x.reshape(60, 10, width)
        yield x.reshape(60, 10, width).transpose(1, 0, 2)


@pytest.mark.parametrize("width", range(1, 8))
def test_row_norms_are_numpys_below_eight_columns(width):
    # numpy is the independent oracle here: below 8 columns it sums every
    # row in coordinate order, whatever the layout.
    for x in _batches(width):
        with np.errstate(over="ignore", invalid="ignore"):
            assert _row_norms(x).tobytes() == np.linalg.norm(x, axis=-1).tobytes()


@pytest.mark.parametrize("width", [*range(1, 11), 129])
def test_row_norms_are_the_one_point_norm_row_by_row(width):
    for x in _batches(width):
        rows = x.reshape(-1, width)
        expected = np.array([_norm(row) for row in rows.tolist()]).reshape(x.shape[:-1])
        with np.errstate(over="ignore", invalid="ignore"):
            assert _row_norms(x).tobytes() == expected.tobytes()


def test_row_norms_of_rows_without_columns_are_zero():
    assert _row_norms(np.empty((3, 0))).tolist() == [0.0, 0.0, 0.0]


def _axis_norm_calls(package: Path) -> list[str]:
    """``norm(..., axis=...)`` calls in the package's source, as file:line."""
    calls = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "norm"
                and (any(k.arg == "axis" for k in node.keywords) or len(node.args) >= 3)
            ):
                calls.append(f"{path.name}:{node.lineno}")
    return calls


def test_every_row_norm_goes_through_the_one_rule():
    # np.linalg.norm(x, axis=...) sums a row of 8 or more entries in an
    # order that depends on the memory layout; row norms of point batches
    # take sampling._row_norms instead.
    assert _axis_norm_calls(Path(lojalab.__file__).parent) == []


def _random_free_sets(rng, dim, count):
    """``count`` random subsets of ``range(dim)``, as sorted tuples."""
    return [tuple(np.flatnonzero(rng.random(dim) < 0.5).tolist()) for _ in range(count)]


def test_coordinate_subspace_matches_the_coordinate_loops():
    rng = np.random.default_rng(24)
    for dim in range(1, 6):
        for free in _random_free_sets(rng, dim, 12):
            space = CoordinateSubspace(free)
            points = rng.normal(size=(30, dim)) * 10.0 ** rng.integers(-3, 4, size=(30, 1))
            expected = [subspace_distance(x, free) for x in points.tolist()]
            assert space.distances(points).tolist() == expected, (dim, free)
            for x in points:
                assert space.project(x).tolist() == subspace_projection(x.tolist(), free)
            block = rng.normal(size=(7, len(free)))
            embedded = [subspace_embedding(row, free, dim) for row in block.tolist()]
            assert space.embed(block, dim).tolist() == embedded, (dim, free)


def test_subspace_grid_and_normal_directions_embed_the_sampled_block():
    rng = np.random.default_rng(7)
    for dim in range(1, 6):
        for free in _random_free_sets(rng, dim, 6):
            grid = subspace_grid(free, dim, 40, 0.3)
            if free:
                block = ball_points(len(free), 40, 0.3)
                assert grid.tolist() == [subspace_embedding(r, free, dim) for r in block.tolist()]
            else:
                assert grid.tolist() == [[0.0] * dim]
            normal = [i for i in range(dim) if i not in free]
            if normal:
                directions = _normal_directions(dim, free, 40)
                block = sphere_directions(len(normal), 40)
                expected = [subspace_embedding(r, normal, dim) for r in block.tolist()]
                assert directions.tolist() == expected, (dim, free)


@pytest.mark.parametrize("free", [(5,), (-1,), (0, 2)])
def test_coordinate_subspace_that_does_not_fit_the_space_raises(free):
    space = CoordinateSubspace(free)
    match = r"free index out of range \[0, 2\)"
    with pytest.raises(ValueError, match=match):
        space.normal(2)
    with pytest.raises(ValueError, match=match):
        space.distances(np.zeros((3, 2)))
    with pytest.raises(ValueError, match=match):
        space.project(np.zeros(2))
    with pytest.raises(ValueError, match=match):
        space.embed(np.zeros((3, len(free))), 2)
    with pytest.raises(ValueError, match=match):
        subspace_grid(free, 2, 10, 0.5)
