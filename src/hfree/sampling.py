"""Deterministic domain sampling.

Random points come from a splitmix64 generator (constants below), so the
sequence for a given (seed, samples, box) is bit-identical on every platform.
Grid sampling yields the tensor-product lattice; periodic axes drop the right
endpoint. Both give one (n, dim) float array, of at most MAX_COORDINATES
values.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import Chart

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_BLOCK = 1024
# The most values a sampler returns, points times dimension: 256 MiB of
# float64. A larger request is refused before anything is allocated.
MAX_COORDINATES = 2**25


class SplitMix64:
    """64-bit splitmix PRNG; next_float() is uniform on [0, 1)."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def next_float(self) -> float:
        # 53 high bits, as in the reference double conversion
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))


def random_points(chart: Chart, samples: int, seed: int) -> np.ndarray:
    """A (samples, dim) array of points, axis by axis from one
    SplitMix64(seed) stream: draw point * dim + axis maps to
    lo + u * (hi - lo) on that axis. The draws are computed as uint64 arrays
    (the state after draw i is seed + (i + 1) * GAMMA mod 2^64) and match the
    scalar generator bit for bit. They are made _BLOCK points at a time,
    which keeps the transient arrays, and so the peak memory, small."""
    if samples < 1:
        raise ValueError("need at least one sample")
    box = np.array(chart.box, dtype=float)
    lo, width = box[:, 0], box[:, 1] - box[:, 0]
    out = np.empty((samples, chart.dim))
    for start in range(0, samples, _BLOCK):
        n = min(_BLOCK, samples - start)
        z = np.arange(start * chart.dim + 1, (start + n) * chart.dim + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(seed & _MASK)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        z >>= np.uint64(11)
        u = z.astype(float).reshape(n, chart.dim) * (1.0 / (1 << 53))
        out[start : start + n] = lo + u * width
    return out


def grid_points(chart: Chart, counts) -> np.ndarray:
    counts = list(counts)
    if len(counts) != chart.dim:
        raise ValueError("grid needs one count per axis")
    if any(c < 1 for c in counts):
        raise ValueError("grid counts must be positive")
    axes = [
        lo + np.arange(n) * (hi - lo) / (n if per else n - 1) if per or n > 1 else np.array([lo])
        for (lo, hi), per, n in zip(chart.box, chart.periodic, counts)
    ]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, chart.dim)


def sample_points(chart: Chart, samples: int = 10000, seed: int = 0, grid=None) -> np.ndarray:
    """Random points by default; the tensor-product lattice, last axis
    fastest, when grid counts are given. Either way an (n, dim) array;
    more than MAX_COORDINATES values raise ValueError."""
    n = samples if grid is None else math.prod(grid)
    if n * chart.dim > MAX_COORDINATES:
        raise ValueError(f"{n} points in {chart.dim} dimensions exceed the bound of {MAX_COORDINATES} coordinates")
    if grid is not None:
        return grid_points(chart, grid)
    return random_points(chart, samples, seed)
