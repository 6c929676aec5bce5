"""First- and second-order jet matrices along a frame, and rank diagnostics.

The order-2 matrix stacks the k first-order rows with the s_k = k(k+1)/2
anticommutator rows, pairs (a, b) with a <= b in lexicographic order. The
anticommutator convention is used uniformly, so diagonal rows carry the
factor 2 of {L_a, L_a} = 2 L_a^2.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .expr import Expr, compile_batch
from .fields import ChartMismatch, Frame, SmoothMap, lie_derivative, symmetrize

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


def d1_exprs(frame: Frame, f: SmoothMap) -> list[list[Expr]]:
    """Symbolic k x q matrix of first-order Lie derivatives."""
    if frame.chart != f.chart:
        raise ChartMismatch("frame and map must share a chart")
    return [[lie_derivative(xi, comp) for comp in f.components] for xi in frame.vectors]


def d2_exprs(frame: Frame, f: SmoothMap) -> list[list[Expr]]:
    """Symbolic (k + s_k) x q matrix: first-order rows then anticommutator rows.

    The anticommutator rows are built from the first-order rows: L_a is
    applied to the row of L_b f once for each ordered pair (a, b)."""
    rows = d1_exprs(frame, f)
    second = [[[lie_derivative(xa, g) for g in row] for row in rows] for xa in frame.vectors]
    for a, b in pair_labels(frame.k):
        rows.append([symmetrize(ab, ba) for ab, ba in zip(second[a][b], second[b][a])])
    return rows


def d1_matrix(frame: Frame, f: SmoothMap, point) -> np.ndarray:
    """The k x q order-1 jet matrix at one point of the chart's box; raises
    the point's EvalError."""
    return _one(compiled_d1(frame, f), frame.chart.check_point(point))


def d2_matrix(frame: Frame, f: SmoothMap, point) -> np.ndarray:
    """The (k + s_k) x q order-2 jet matrix at one point of the chart's box;
    raises the point's EvalError."""
    return _one(compiled_d2(frame, f), frame.chart.check_point(point))


def _one(jet: CompiledJet, point: np.ndarray) -> np.ndarray:
    entries, errors = jet.at(point)
    if errors:
        raise errors[0]
    return entries[0]


@dataclass(frozen=True)
class StackRanks:
    """Rank verdicts for a stack of n jet matrices, one array entry each.

    `reasons` maps each matrix that has no verdict to why: an evaluation
    error or an SVD that did not converge. `valid` is False exactly there,
    and the other arrays hold no meaning there."""

    rank: np.ndarray
    sigma_min: np.ndarray
    sigma_max: np.ndarray
    full_rank: np.ndarray
    valid: np.ndarray
    reasons: dict


def stack_ranks(entries: np.ndarray, tol: float = DEFAULT_TOL, errors=None) -> StackRanks:
    """Rank verdicts over an (n, rows, cols) stack: a singular value counts
    when it exceeds tol * max(1, sigma_max). A matrix, square or
    rectangular, whose off-diagonal entries are all zero (every 1 x 1 matrix)
    has the exact singular values |diagonal|, sorted descending, and makes
    no LAPACK call; the other matrices get one batched SVD. `errors` maps
    points whose evaluation faulted to the EvalError (as CompiledJet.at
    returns them), which is their reason; every other matrix must be
    finite, else ValueError."""
    n, rows, cols = entries.shape
    reasons = {i: str(exc) for i, exc in (errors or {}).items()}
    if reasons:
        entries = entries.copy()
        entries[list(reasons)] = 0.0
    if not np.isfinite(entries).all():
        raise ValueError("jet entries must be finite outside the faulted points")
    dense = (entries != 0)[:, ~np.eye(rows, cols, dtype=bool)].any(axis=1)
    if dense.all():  # no copy of the stack where no matrix is diagonal
        sigma = _svd(entries, np.arange(n), reasons)
    else:
        sigma = np.sort(np.abs(np.diagonal(entries, axis1=1, axis2=2)), axis=1)[:, ::-1]
        if dense.any():
            index = np.flatnonzero(dense)
            sigma[index] = _svd(entries[index], index, reasons)
    sigma_max = sigma[:, 0]
    rank = np.count_nonzero(sigma > tol * np.maximum(1.0, sigma_max)[:, None], axis=1)
    return StackRanks(
        rank=rank,
        sigma_min=sigma[:, -1],
        sigma_max=sigma_max,
        full_rank=rank == rows,  # rank <= min(rows, cols), so rows <= cols here
        valid=valid_mask(n, reasons),
        reasons=reasons,
    )


def valid_mask(n: int, failed) -> np.ndarray:
    """Boolean mask of length n, False at the indices in `failed`."""
    mask = np.ones(n, dtype=bool)
    mask[list(failed)] = False
    return mask


def _svd(stack: np.ndarray, index: np.ndarray, reasons: dict) -> np.ndarray:
    """Singular values of a stack of matrices, whose places in the checked
    stack are `index`: one batched SVD, or, where it fails to converge, one
    SVD per matrix, recording the matrices that fail on their own in
    `reasons`."""
    try:
        return np.linalg.svd(stack, compute_uv=False)
    except np.linalg.LinAlgError:
        pass
    sigma = np.zeros((len(stack), min(stack.shape[1:])))
    for j, i in enumerate(index.tolist()):
        try:
            sigma[j] = np.linalg.svd(stack[j], compute_uv=False)
        except np.linalg.LinAlgError as exc:
            reasons[i] = str(exc)
    return sigma


class CompiledJet:
    """Row expressions compiled into one tape of numpy calls (see
    expr.compile_batch), run over a chunk of points at a time."""

    def __init__(self, rows, chart):
        self.shape = (len(rows), len(rows[0]))
        self._run = compile_batch([e for row in rows for e in row], chart.coords)

    def at(self, points: np.ndarray):
        """The (n, rows, cols) stack of jet matrices at an (n, dim) array of
        points, and a dict mapping each point where evaluation faulted to its
        EvalError; that point's matrix is nan, and every other is finite."""
        values, errors = self._run(points)
        entries = values.reshape((len(points),) + self.shape)
        return entries, {i: exc for i, (_, exc) in errors.items()}

    def ranks(self, points: np.ndarray, tol: float = DEFAULT_TOL) -> StackRanks:
        entries, errors = self.at(points)
        return stack_ranks(entries, tol, errors)


# Compiled jets by map, then by (frame, order). An entry leaves when its map
# dies, so a jet lives exactly as long as its map.
_jets: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def compiled_d1(frame: Frame, f: SmoothMap) -> CompiledJet:
    jets = _jets.setdefault(f, {})
    if (frame, 1) not in jets:
        jets[frame, 1] = CompiledJet(d1_exprs(frame, f), frame.chart)
    return jets[frame, 1]


def compiled_d2(frame: Frame, f: SmoothMap) -> CompiledJet:
    jets = _jets.setdefault(f, {})
    if (frame, 2) not in jets:
        jets[frame, 2] = CompiledJet(d2_exprs(frame, f), frame.chart)
    return jets[frame, 2]
