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

    `rank` and `full_rank` are those of one SVD per matrix. `sigma_min` is
    the exact least singular value, the SVD's bit for bit, at every matrix
    that stack_ranks handed to the SVD or ranked from its diagonal; among the
    matrices it keeps exact (all, by default) the least sigma_min, ties to
    the lowest index, is one of those. A matrix the Gram screen cleared is
    full rank, and its sigma_min is an estimate inside its certified interval
    and, if the matrix is kept exact, above that least. `reasons` maps each
    matrix that has no verdict to why: an evaluation error or an SVD that did
    not converge (a cleared matrix never reaches LAPACK). `valid` is False
    exactly there, and the other arrays hold no meaning there."""

    rank: np.ndarray
    sigma_min: np.ndarray
    full_rank: np.ndarray
    valid: np.ndarray
    reasons: dict


# Dense stacks of fewer matrices skip the Gram screen, whose fixed cost is a
# few numpy calls. stack_ranks of random full-rank stacks, screen against SVD
# only (one core of a 2-vCPU Xeon guest, numpy 2.4 with OpenBLAS): 2 x 2
# matrices took 163 vs 106 us at 32 matrices, 186 vs 163 us at 64 and 184 vs
# 223 us at 128; 14 x 14 matrices 738 vs 718, 1113 vs 1436 and 2243 vs
# 2617 us. From 128 the screen was faster at every size from 2 x 2 to 14 x 14.
SCREEN_MIN = 128
# The screen forms A.A^T in slices of at most this many bytes, not 784 KB at
# once for a 512-matrix chunk of 14 x 14 jets: perfbench gallery-10k peaked
# at 41.53-41.64 MB RSS with 64 KB slices, 41.65-41.72 MB with 128 KB and
# 41.73-41.82 MB with the SVD alone (three 4 s runs each); unsliced, the
# gallery at 10^4 samples peaked 1.0 MB higher than with the SVD alone.
SCREEN_BYTES = 1 << 16
# A matrix is screened only when its largest |entry| lies within
# [1 / GRAM_RANGE, GRAM_RANGE]: the entries of A.A^T then stay below
# cols * 2^800, and what underflow loses, at most cols * 2^-1074, is far
# below the error bound, which is at least eps * 2^-800.
GRAM_RANGE = 2.0**400


def stack_ranks(entries: np.ndarray, tol: float = DEFAULT_TOL, errors=None, exact=None) -> StackRanks:
    """Rank verdicts over an (n, rows, cols) stack: a singular value counts
    when it exceeds tol * max(1, sigma_max). `errors` maps points whose
    evaluation faulted to the EvalError (as CompiledJet.at returns them),
    which is their reason; every other matrix must be finite, else
    ValueError. `exact` is a boolean mask of the matrices whose least
    sigma_min must be exact (default: all); a check passes the points it
    folds into its worst criterion.

    A matrix, square or rectangular, whose off-diagonal entries are all zero
    (every 1 x 1 matrix) has the exact singular values |diagonal| and makes
    no LAPACK call. In a stack of SCREEN_MIN or more other matrices with
    rows <= cols, the Gram screen (_screen) clears those that are surely
    full rank and surely above the least; the rest get one batched SVD,
    redone matrix by matrix if it fails to converge. A matrix that fails on
    its own may have been the least, so then every dense matrix gets its
    SVD."""
    n, rows, cols = entries.shape
    reasons = {i: str(exc) for i, exc in (errors or {}).items()}
    if reasons:
        entries = entries.copy()
        entries[list(reasons)] = 0.0
    if not np.isfinite(entries).all():
        raise ValueError("jet entries must be finite outside the faulted points")
    rank = np.empty(n, dtype=np.intp)
    sigma_min = np.empty(n)
    dense = (entries != 0)[:, ~np.eye(rows, cols, dtype=bool)].any(axis=1)
    if not dense.all():
        diagonal = np.sort(np.abs(np.diagonal(entries[~dense], axis1=1, axis2=2)), axis=1)[:, ::-1]
        rank[~dense], sigma_min[~dense] = _rank(diagonal, tol), diagonal[:, -1]
    index = np.flatnonzero(dense)
    stack = entries if dense.all() else entries[index]
    svd = np.ones(len(index), dtype=bool)
    if rows <= cols and len(index) >= SCREEN_MIN:
        least = np.ones(len(index), dtype=bool) if exact is None else exact[index]
        svd, estimate = _screen(stack, tol, least)
        rank[index[~svd]], sigma_min[index[~svd]] = rows, estimate[~svd]
    if svd.any():
        failed = len(reasons)
        sigma = _svd(stack if svd.all() else stack[svd], index[svd], reasons)
        if len(reasons) > failed and not svd.all():  # the least may now be a screened matrix
            svd[:] = True
            sigma = _svd(stack, index, reasons)
        rank[index[svd]], sigma_min[index[svd]] = _rank(sigma, tol), sigma[:, -1]
    return StackRanks(
        rank=rank,
        sigma_min=sigma_min,
        full_rank=rank == rows,  # rank <= min(rows, cols), so rows <= cols here
        valid=valid_mask(n, reasons),
        reasons=reasons,
    )


def _rank(sigma: np.ndarray, tol: float) -> np.ndarray:
    """Rank of each row of descending singular values."""
    return np.count_nonzero(sigma > tol * np.maximum(1.0, sigma[:, :1]), axis=1)


def _screen(stack: np.ndarray, tol: float, least: np.ndarray):
    """Which matrices of a dense (m, rows, cols) stack, rows <= cols, need the
    SVD, and an estimate of sigma_min for the others.

    The eigenvalues of A.A^T are the squared singular values of A. Forming
    it in floating point errs by at most gamma_cols * rows * sigma_max^2
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 3),
    eigvalsh's backward error and the SVD's own error are each a small
    multiple of eps * sigma_max^2, and by Weyl's inequality the computed
    lambda_min and lambda_max then lie within err = 8 (rows + cols)^2 eps
    lambda_max of sigma_min^2 and sigma_max^2, both the true and the SVD's.
    So [sqrt(max(lambda_min - err, 0)), sqrt(lambda_min + err)] encloses
    both sigma_min. A matrix needs the SVD when its largest |entry| is
    outside [1 / GRAM_RANGE, GRAM_RANGE], when its interval reaches down to
    the least upper end over the `least` matrices (ties included), or when
    its lower end does not clear tol * max(1, upper end of sigma_max); every
    other matrix is full rank, and its estimate sqrt(lambda_min) lies above
    the least sigma_min of the `least` matrices."""
    m, rows, cols = stack.shape
    amax = np.maximum(stack.max(axis=(1, 2)), -stack.min(axis=(1, 2)))
    svd = (amax < 1.0 / GRAM_RANGE) | (amax > GRAM_RANGE)
    if svd.any():  # leave those matrices out of A.A^T
        stack = np.where(svd[:, None, None], 0.0, stack)
    lam_min, lam_max = np.empty(m), np.empty(m)
    step = max(1, SCREEN_BYTES // (8 * rows * rows))
    for start in range(0, m, step):
        a = stack[start : start + step]
        lam = np.linalg.eigvalsh(a @ a.transpose(0, 2, 1))
        lam_min[start : start + step], lam_max[start : start + step] = lam[:, 0], lam[:, -1]
    err = 8 * (rows + cols) ** 2 * np.finfo(float).eps * lam_max
    low = np.sqrt(np.maximum(lam_min - err, 0.0))
    high = np.sqrt(lam_min + err)[least & ~svd]
    floor = tol * np.maximum(1.0, np.sqrt(lam_max + err))
    if high.size:
        floor = np.maximum(floor, high.min())
    svd |= low <= floor
    return svd, np.sqrt(np.maximum(lam_min, 0.0))


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

    def ranks(self, points: np.ndarray, tol: float = DEFAULT_TOL, exact=None) -> StackRanks:
        entries, errors = self.at(points)
        return stack_ranks(entries, tol, errors, exact)


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
