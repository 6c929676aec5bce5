import math

import pytest

from hfree.fields import Chart
from hfree.sampling import _BLOCK, SplitMix64, grid_points, random_points, sample_points

UNIT = Chart(coords=("u",), box=((0.0, 1.0),))
CIRCLE = Chart(coords=("phi",), box=((0.0, 2 * math.pi),), periodic=(True,))


def test_splitmix_reference_vector():
    # published stream for seed 0
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_grid_endpoints_non_periodic():
    assert grid_points(UNIT, [3]) == [(0.0,), (0.5,), (1.0,)]


def test_grid_periodic_drops_right_endpoint():
    pts = [p[0] for p in grid_points(CIRCLE, [4])]
    assert pts == pytest.approx([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])


def test_grid_tensor_product_order():
    square = Chart(coords=("x", "y"), box=((0.0, 1.0), (0.0, 1.0)))
    pts = grid_points(square, [2, 2])
    assert pts == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]


def test_random_golden_values():
    # frozen from the first implementation run; guards cross-platform drift
    assert random_points(UNIT, 2, 42) == [
        (0.7415648787718233,),
        (0.1599103928769201,),
    ]


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
    want = _scalar_points(chart, 2 * _BLOCK + 7, seed)
    assert [[v.hex() for v in p] for p in got] == [[v.hex() for v in p] for p in want]


def test_random_reproducible_and_in_box():
    square = Chart(coords=("x", "y"), box=((-2.0, 2.0), (0.0, 1.0)))
    a = random_points(square, 500, 7)
    b = random_points(square, 500, 7)
    assert a == b
    assert all(-2 <= x <= 2 and 0 <= y <= 1 for x, y in a)


def test_seed_changes_sequence():
    assert random_points(UNIT, 10, 1) != random_points(UNIT, 10, 2)


def test_zero_samples_rejected():
    with pytest.raises(ValueError):
        sample_points(UNIT, samples=0, seed=0)


def test_grid_shape_validation():
    with pytest.raises(ValueError):
        grid_points(UNIT, [2, 2])
    with pytest.raises(ValueError):
        grid_points(UNIT, [0])
