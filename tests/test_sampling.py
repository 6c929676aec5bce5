import math
import tracemalloc

import numpy as np
import pytest

from hfree.fields import Chart
from hfree.sampling import _BLOCK, MAX_COORDINATES, SplitMix64, grid_points, random_points, sample_points

UNIT = Chart(coords=("u",), box=((0.0, 1.0),))
CIRCLE = Chart(coords=("phi",), box=((0.0, 2 * math.pi),), periodic=(True,))


def test_splitmix_reference_vector():
    # published stream for seed 0
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def _hex(points):
    """Exact bit patterns of the rows, so that -0.0 differs from 0.0."""
    return [[float(v).hex() for v in row] for row in np.asarray(points, dtype=float).tolist()]


def test_grid_endpoints_non_periodic():
    assert _hex(grid_points(UNIT, [3])) == _hex([(0.0,), (0.5,), (1.0,)])


def test_grid_periodic_drops_right_endpoint():
    pts = grid_points(CIRCLE, [4])[:, 0]
    assert pts == pytest.approx([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])


def test_grid_tensor_product_order():
    square = Chart(coords=("x", "y"), box=((0.0, 1.0), (0.0, 1.0)))
    pts = grid_points(square, [2, 2])
    assert _hex(pts) == _hex([(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)])


def _scalar_lattice(chart, counts):
    """The lattice one Python float at a time, the last axis fastest."""
    axes = []
    for (lo, hi), per, n in zip(chart.box, chart.periodic, counts):
        if per:
            axes.append([lo + i * (hi - lo) / n for i in range(n)])
        elif n == 1:
            axes.append([lo])
        else:
            axes.append([lo + i * (hi - lo) / (n - 1) for i in range(n)])
    out = [()]
    for axis in axes:
        out = [pt + (v,) for pt in out for v in axis]
    return out


@pytest.mark.parametrize(
    "chart, counts",
    [
        (UNIT, [1]),
        (UNIT, [7]),
        (CIRCLE, [1]),
        (CIRCLE, [13]),
        (Chart(coords=("x", "y", "z"), box=((-2.0, 2.0), (0.1, 0.3), (-1e-3, 7.5))), [5, 1, 11]),
        (Chart(coords=("a", "b"), box=((-0.0, 3.0), (1e6, 1e6 + 1))), [1, 9]),
        (Chart(coords=("p", "phi"), box=((-1.0, 1.0), (0.0, 2 * math.pi)), periodic=(False, True)), [6, 10]),
    ],
)
def test_grid_matches_the_scalar_lattice(chart, counts):
    got = grid_points(chart, counts)
    assert got.shape == (math.prod(counts), chart.dim)
    assert _hex(got) == _hex(_scalar_lattice(chart, counts))


def test_random_golden_values():
    # frozen from the first implementation run; guards cross-platform drift
    assert _hex(random_points(UNIT, 2, 42)) == _hex([(0.7415648787718233,), (0.1599103928769201,)])


def _scalar_points(chart, samples, seed):
    """The draws one SplitMix64 call at a time, axis by axis."""
    rng = SplitMix64(seed)
    return [
        tuple(lo + rng.next_float() * (hi - lo) for lo, hi in chart.box) for _ in range(samples)
    ]


@pytest.mark.parametrize("seed", [0, 5, -1, -(2**70) + 3, 2**63 + 17, 2**64 + 9, 12345678901234567])
@pytest.mark.parametrize(
    "chart",
    [
        UNIT,
        CIRCLE,
        Chart(coords=("x", "y", "z"), box=((-2.0, 2.0), (0.1, 0.3), (-1e-3, 7.5))),
        Chart(coords=("a", "b"), box=((-3, 4), (1e6, 1e6 + 1))),
    ],
)
def test_vectorised_draws_match_the_scalar_generator(chart, seed):
    # more points than one block of the vectorised generator
    got = random_points(chart, 2 * _BLOCK + 7, seed)
    assert got.shape == (2 * _BLOCK + 7, chart.dim)
    assert _hex(got) == _hex(_scalar_points(chart, 2 * _BLOCK + 7, seed))


def test_random_reproducible_and_in_box():
    square = Chart(coords=("x", "y"), box=((-2.0, 2.0), (0.0, 1.0)))
    a = random_points(square, 500, 7)
    b = random_points(square, 500, 7)
    assert _hex(a) == _hex(b)
    assert all(-2 <= x <= 2 and 0 <= y <= 1 for x, y in a.tolist())


def test_seed_changes_sequence():
    assert _hex(random_points(UNIT, 10, 1)) != _hex(random_points(UNIT, 10, 2))


def test_zero_samples_rejected():
    with pytest.raises(ValueError):
        sample_points(UNIT, samples=0, seed=0)


def test_grid_shape_validation():
    with pytest.raises(ValueError):
        grid_points(UNIT, [2, 2])
    with pytest.raises(ValueError):
        grid_points(UNIT, [0])


def test_a_request_beyond_the_bound_is_refused_before_allocating():
    plane = Chart(coords=("x", "y"), box=((-2.0, 2.0), (0.0, 1.0)))
    tracemalloc.start()
    try:
        for request in ({"samples": MAX_COORDINATES // 2 + 1}, {"samples": 10**11}, {"grid": [100000, 100000]}):
            with pytest.raises(ValueError, match=f"exceed the bound of {MAX_COORDINATES} coordinates"):
                sample_points(plane, **request)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # numpy reports its array allocations to tracemalloc
