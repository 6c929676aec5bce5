"""First- and second-order jet matrices along a frame, and rank diagnostics.

The order-2 matrix stacks the k first-order rows with the s_k = k(k+1)/2
anticommutator rows, pairs (a, b) with a <= b in lexicographic order. The
anticommutator convention is used uniformly, so diagonal rows carry the
factor 2 of {L_a, L_a} = 2 L_a^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .expr import Expr, compile_expr
from .fields import ChartMismatch, Frame, SmoothMap, anticommutator, lie_derivative

DEFAULT_TOL = 1e-9


class BelowCriticalDimension(Exception):
    """Target dimension is below the critical one; the predicate is vacuously empty."""


def s(k: int) -> int:
    """Number of unordered index pairs on k symbols: k(k+1)/2."""
    if k < 1:
        raise ValueError("k must be positive")
    return k * (k + 1) // 2


def pair_labels(k: int) -> list[tuple[int, int]]:
    """Lexicographic (a, b) with 0 <= a <= b < k, the order-2 row order."""
    return [(a, b) for a in range(k) for b in range(a, k)]


@dataclass(frozen=True)
class JetMatrix:
    """A jet matrix evaluated at a point, rows labeled by frame indices or pairs."""

    labels: tuple
    entries: np.ndarray
    order: int


@dataclass(frozen=True)
class RankReport:
    rank: int
    sigma_min: float
    sigma_max: float
    det: float | None
    full_rank: bool


def d1_exprs(frame: Frame, f: SmoothMap) -> list[list[Expr]]:
    """Symbolic k x q matrix of first-order Lie derivatives."""
    if frame.chart != f.chart:
        raise ChartMismatch("frame and map must share a chart")
    return [[lie_derivative(xi, comp) for comp in f.components] for xi in frame.vectors]


def d2_exprs(frame: Frame, f: SmoothMap) -> list[list[Expr]]:
    """Symbolic (k + s_k) x q matrix: first-order rows then anticommutator rows."""
    rows = d1_exprs(frame, f)
    for a, b in pair_labels(frame.k):
        rows.append(
            [anticommutator(frame.vectors[a], frame.vectors[b], comp) for comp in f.components]
        )
    return rows


def d1_matrix(frame: Frame, f: SmoothMap, point) -> JetMatrix:
    frame.chart.check_point(point)
    return compiled_d1(frame, f).at(point)


def d2_matrix(frame: Frame, f: SmoothMap, point) -> JetMatrix:
    frame.chart.check_point(point)
    return compiled_d2(frame, f).at(point)


def rank_check(m: JetMatrix, tol: float = DEFAULT_TOL) -> RankReport:
    """Numerical rank verdict for an evaluated jet matrix."""
    bad = ~np.isfinite(m.entries)
    if bad.any():
        row = int(np.argwhere(bad)[0][0])
        raise ValueError(f"non-finite entry in row {m.labels[row]}")
    sigma = np.linalg.svd(m.entries, compute_uv=False)
    sigma_max = float(sigma[0]) if sigma.size else 0.0
    sigma_min = float(sigma[-1]) if sigma.size else 0.0
    rank = int(np.sum(sigma > tol * max(1.0, sigma_max)))
    rows, cols = m.entries.shape
    det = float(np.linalg.det(m.entries)) if rows == cols else None
    return RankReport(
        rank=rank,
        sigma_min=sigma_min,
        sigma_max=sigma_max,
        det=det,
        full_rank=rank == min(rows, cols) == rows,
    )


def is_immersion_at(frame: Frame, f: SmoothMap, point, tol: float = DEFAULT_TOL) -> bool:
    """Full-rank verdict of the order-1 jet matrix at the point."""
    if f.q < frame.k:
        raise BelowCriticalDimension(
            f"target dimension {f.q} below critical dimension {frame.k}"
        )
    return rank_check(d1_matrix(frame, f, point), tol).full_rank


def is_free_at(frame: Frame, f: SmoothMap, point, tol: float = DEFAULT_TOL) -> bool:
    """Full-rank verdict of the order-2 jet matrix at the point."""
    critical = frame.k + s(frame.k)
    if f.q < critical:
        raise BelowCriticalDimension(
            f"target dimension {f.q} below critical dimension {critical}"
        )
    return rank_check(d2_matrix(frame, f, point), tol).full_rank


class CompiledJet:
    """Row expressions compiled for fast evaluation across many points."""

    def __init__(self, rows, chart, labels, order):
        self.chart = chart
        self.labels = tuple(labels)
        self.order = order
        self.shape = (len(rows), len(rows[0]))
        self._fns = [[compile_expr(e) for e in row] for row in rows]

    def at(self, point) -> JetMatrix:
        binding = self.chart.bind(point)
        entries = np.array([[fn(binding) for fn in row] for row in self._fns])
        return JetMatrix(labels=self.labels, entries=entries, order=self.order)


# Identity mode needs three order-2 jets live (inner, outer, composite), so a
# cache of 4 serves it. A larger one keeps more compiled jets resident: on
# the symbolic-cold benchmark (seed 1) peak RSS was 44.8 MB without the
# cache, 45.4 MB at 4 and 47.5 MB at 16.
@lru_cache(maxsize=4)
def compiled_d1(frame: Frame, f: SmoothMap) -> CompiledJet:
    return CompiledJet(d1_exprs(frame, f), frame.chart, range(frame.k), order=1)


@lru_cache(maxsize=4)
def compiled_d2(frame: Frame, f: SmoothMap) -> CompiledJet:
    labels = list(range(frame.k)) + pair_labels(frame.k)
    return CompiledJet(d2_exprs(frame, f), frame.chart, labels, order=2)
