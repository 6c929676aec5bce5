"""First- and second-order jet matrices along a frame, and rank diagnostics.

The order-2 matrix stacks the k first-order rows with the s_k = k(k+1)/2
anticommutator rows, pairs (a, b) with a <= b in lexicographic order. The
anticommutator convention is used uniformly, so diagonal rows carry the
factor 2 of {L_a, L_a} = 2 L_a^2.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .expr import ZERO, Const, Expr, compile_batch
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
    the point's EvalError. Each call compiles the jet: for many points, use
    checks.check_points, or CompiledJet.at for the matrices."""
    return _one(d1_exprs(frame, f), frame, point)


def d2_matrix(frame: Frame, f: SmoothMap, point) -> np.ndarray:
    """The (k + s_k) x q order-2 jet matrix at one point of the chart's box;
    raises the point's EvalError. Each call compiles the jet: for many
    points, use checks.check_points, or CompiledJet.at for the matrices."""
    return _one(d2_exprs(frame, f), frame, point)


def _one(rows: list[list[Expr]], frame: Frame, point) -> np.ndarray:
    (stack,), errors = CompiledJet([rows], frame.chart).at(frame.chart.check_point(point))
    if errors:
        raise errors[0][1]
    return stack.dense()[0]


@dataclass(frozen=True)
class StackRanks:
    """Rank verdicts for a stack of n jet matrices, one array entry each.

    `rank` and `full_rank` are those of one SVD per matrix. `sigma_min` is
    the exact least singular value at every matrix that the ranking handed
    to the SVD, the SVD's bit for bit, and at every matrix ranked from its
    diagonal, the least |d| of its diagonal entries d. Every sigma_min at
    or below the ranking's `least` is one of those, and without a least the
    least sigma_min, ties to the lowest index, is (see _stack_ranks). A
    matrix the Gram screen cleared is full rank, and its sigma_min is a
    certified lower bound on the SVD's, above that least.
    `reasons` maps each matrix that has no verdict to why: an evaluation
    error or an SVD that did not converge (a cleared matrix never reaches
    LAPACK). `valid` is False exactly there, and the other arrays hold no
    meaning there. `cleared` says whether the screen cleared any matrix, so
    that some sigma_min is a bound."""

    rank: np.ndarray
    sigma_min: np.ndarray
    full_rank: np.ndarray
    valid: np.ndarray
    reasons: dict
    cleared: bool = False


# Dense stacks of fewer matrices skip the Gram screen, whose fixed cost is a
# few dozen numpy calls. Ranking random full-rank entry-major stacks,
# screen against SVD only (medians of 80 interleaved runs, one core of a
# 2-vCPU Xeon guest, numpy 2.4 with OpenBLAS): 2 x 2 matrices took 104 vs 81
# us at 64 matrices, 147 vs 190 us at 128 and 158 vs 325 us at 256; 5 x 5
# matrices 272 vs 334, 282 vs 456 and 242 vs 796 us; 14 x 14 matrices 749 vs
# 898, 1420 vs 2473 and 1257 vs 3473 us. From 128 the screen was faster at
# every size; below it a 2 x 2 stack loses, while 5 x 5 and 14 x 14 stacks
# gain from 64.
SCREEN_MIN = 128
# A matrix is screened only when ||A||_F lies within [1 / GRAM_RANGE,
# GRAM_RANGE]: the entries of A.A^T then stay below 2^800, and what underflow
# loses, at most 2^-1074 an operation, is far below the error bound, which is
# at least eps * 2^-800.
GRAM_RANGE = 2.0**400
# The screen gives this many of its least-ranked matrices their SVD before its
# second pass. Summed over the gallery's 180 dense D2 chunks at 10^4 samples
# (medians of 9 interleaved runs per chunk), ranking took 111.9 ms with 2
# or 4 candidates, 114.8 ms with 8 and 122.3 ms with 16.
CANDIDATES = 4
# Without a least, the screen looks for its candidates among the first this
# many dense matrices, and factors every Gram once against them. Warm
# gallery passes at 10^4 samples (medians of 5 passes per round, 12
# interleaved rounds, seeds 1-12, one core of a 2-vCPU Xeon guest) took
# 39.9 ms with a prefix of 512, 39.9 ms with 128, 39.0 ms with 256 (faster in
# 7 of 12 rounds) and 41.1 ms with 1024 (slower in 11 of 12). A longer prefix
# finds a lower least, so fewer matrices of the chunk fall below it and go to
# the SVD; a shorter one factors fewer Grams twice.
PREFIX = 512


class Layout(NamedTuple):
    """What ranking reads of a Pattern. `positions` are the held entries' row
    * cols + column, ascending. `off_diagonal` are the vectors (see
    Pattern.index) of the entries off the diagonal that may be nonzero, and
    `diagonal` the places on the diagonal that are held and their vectors.
    `screens` says whether a stack may be screened: rows <= cols, some entry
    off the diagonal may be nonzero, and no row is zero in every matrix,
    which would make every matrix rank deficient."""

    positions: np.ndarray
    off_diagonal: np.ndarray
    diagonal: tuple[np.ndarray, np.ndarray]
    screens: bool


class Pattern:
    """The zero pattern of a stack of (rows, cols) jet matrices: the entries
    it holds, `held` (every entry by default), among them those that may be
    nonzero, `nonzero`, and the Gram screen's elimination plan for them (see
    _GramCholesky), built the first time a stack is screened. An entry not
    held is +0.0 in every matrix. `index` is the (rows, cols) vector of each
    held entry in a stack (see JetStack), and -1 where none is held.
    Its Layout is computed in one go the first time its `floats` are read, a
    stack that does not hold every entry is made dense or any stack is
    ranked, so identity mode's residuals, which rank nothing and make dense
    only the matrices they hand back to np.linalg.det, seldom compute it."""

    def __init__(self, nonzero: np.ndarray, held: np.ndarray | None = None):
        self.shape = nonzero.shape
        self.nonzero = nonzero
        self.held = np.ones(self.shape, dtype=bool) if held is None else held
        self.index = np.where(self.held, self.held.cumsum().reshape(self.shape) - 1, -1)

    @cached_property
    def full(self) -> bool:
        return bool(self.held.all())

    @cached_property
    def layout(self) -> Layout:
        rows, cols = self.shape
        held, index = self.held.reshape(-1), self.index.reshape(-1)
        on = slice(0, min(rows, cols) * (cols + 1), cols + 1)  # the diagonal, flat
        off = self.nonzero.flatten()
        off[on] = False
        off_diagonal = index[off]
        places = held[on].nonzero()[0]
        screens = rows <= cols and off_diagonal.size > 0 and bool(self.nonzero.any(axis=1).all())
        return Layout(held.nonzero()[0], off_diagonal, (places, index[on][places]), screens)

    @cached_property
    def plan(self) -> _GramCholesky:
        return _GramCholesky(self)

    @property
    def floats(self) -> int:
        """What ranking a stack holds per matrix beyond its vectors: the Gram
        screen's where it screens (see _GramCholesky.floats), or the SVD's
        dense matrices, at most as many floats as the stack holds (see
        _svd), and their singular values."""
        layout = self.layout
        return max(self.plan.floats if layout.screens else 0, len(layout.positions) + min(self.shape))


class JetStack:
    """A stack of n (rows, cols) jet matrices, held compact and entry-major:
    `values` is an (entries held, n) array whose row index[row, column] is
    the (n,)-vector of that entry of every matrix (see Pattern), and an entry
    that the pattern does not hold is +0.0 in every matrix."""

    def __init__(self, values: np.ndarray, pattern: Pattern):
        self.values = values
        self.pattern = pattern

    def __len__(self) -> int:
        return self.values.shape[1]

    def take(self, index) -> JetStack:
        """The matrices at `index`, an array of indices or a boolean mask."""
        return JetStack(self.values[:, index], self.pattern)

    def dense(self) -> np.ndarray:
        """The (n, rows, cols) matrices, entry-major, as LAPACK or a caller
        needs them: a view of the vectors where the pattern holds every entry,
        else a new array, +0.0 where no entry is held."""
        n, (rows, cols) = len(self), self.pattern.shape
        if self.pattern.full:
            return self.values.T.reshape(n, rows, cols)
        out = np.zeros((rows * cols, n))
        out[self.pattern.layout.positions] = self.values
        return out.T.reshape(n, rows, cols)


def _stack_ranks(stack: JetStack, tol: float = DEFAULT_TOL, errors=None, least: float | None = None) -> StackRanks:
    """Rank verdicts over a stack: a singular value counts when it exceeds
    tol * max(1, sigma_max). `errors` maps points whose evaluation faulted
    to the EvalError (as CompiledJet.at gives them), which is their reason;
    every other matrix is finite (see CompiledJet.at). `least` is the one
    input that says which sigma_min must be exact. A number, such as a
    check's least sigma_min over its earlier chunks, makes every sigma_min
    at or below it the SVD's, bit for bit, and every other one a value in
    (least, the SVD's], so that no bound can become the caller's worst;
    np.inf makes every sigma_min exact, and sends every matrix that is not
    diagonal straight to the SVD. None has the screen find the stack's
    least, which is then exact unless an SVD failed to converge, maybe at
    that least, after the screen cleared a matrix: a caller ranks such a
    stack again at least = np.inf (see CompiledJet.ranks).

    A matrix, square or rectangular, whose off-diagonal entries are all zero
    (every 1 x 1 matrix) has the exact singular values |diagonal| and makes
    no LAPACK call: its rank and sigma_min are read from the vectors of its
    diagonal (_diagonal), and a stack whose pattern holds nothing that may be
    nonzero off the diagonal is ranked by that alone. In a stack of
    SCREEN_MIN or more other matrices with rows <= cols, at a least that is
    not infinite, the Gram screen (_screen) clears, by a shifted Cholesky
    factorization of A.A^T, those that are surely full rank and surely
    above the least, and gives each a certified lower bound on its
    sigma_min; the rest get their SVD (_svd), redone matrix by matrix where
    a batch fails to converge. All of this reads the stack's vectors; only
    the matrices handed to the SVD are made dense, in batches that hold no
    more floats than the stack, or SCREEN_MIN matrices, since a smaller
    batch gains nothing for its own LAPACK call (see _svd)."""
    values, pattern = stack.values, stack.pattern
    (rows, cols), n = pattern.shape, len(stack)
    _, off_diagonal, (places, vectors), screens = pattern.layout
    reasons = {i: str(exc) for i, exc in (errors or {}).items()}
    if reasons:
        values = values.copy()  # entry-major, as it came
        values[:, list(reasons)] = 0.0
    if not off_diagonal.size:  # every matrix diagonal
        rank, sigma_min = _diagonal(values[vectors], min(rows, cols), tol)
        return StackRanks(rank, sigma_min, rank == rows, valid_mask(n, reasons), reasons)
    rank = np.empty(n, dtype=np.intp)
    sigma_min = np.empty(n)
    dense = (values[off_diagonal] != 0).any(axis=0)
    if not dense.all():
        rank[~dense], sigma_min[~dense] = _diagonal(values[vectors][:, ~dense], min(rows, cols), tol)
    index = np.flatnonzero(dense)
    part = JetStack(values if dense.all() else values[:, index], pattern)
    batch = max(min(n, SCREEN_MIN), n * len(values) // (rows * cols), 1)
    svd, any_cleared = np.ones(len(index), dtype=bool), False
    if screens and len(index) >= SCREEN_MIN and least != np.inf:  # an infinite least clears nothing
        cleared, bound = _screen(part, tol, index, reasons, batch, least)
        if cleared.any():
            svd, any_cleared = ~cleared, True
            rank[index[cleared]], sigma_min[index[cleared]] = rows, bound[cleared]
    if svd.any():
        sigma = _svd(part if svd.all() else part.take(svd), index[svd], reasons, batch)
        rank[index[svd]] = np.count_nonzero(sigma > tol * np.maximum(1.0, sigma[:, :1]), axis=1)
        sigma_min[index[svd]] = sigma[:, -1]
    # rank <= min(rows, cols), so a full-rank matrix has rows <= cols
    return StackRanks(rank, sigma_min, rank == rows, valid_mask(n, reasons), reasons, any_cleared)


def _diagonal(d: np.ndarray, k: int, tol: float):
    """Rank and sigma_min of n diagonal matrices of min(rows, cols) = k,
    from d, the (places, n) vectors of their held diagonal places, a copy
    that is overwritten: the singular values are |d|, and 0 at each of the k
    places not held, so sigma_min = min |d| and a place counts when |d|
    exceeds tol * max(1, max |d|), with no sort."""
    d = np.abs(d, out=d)
    rank = np.count_nonzero(d > tol * np.maximum(1.0, d.max(axis=0, initial=0.0)), axis=0)
    return rank, d.min(axis=0) if len(d) == k else np.zeros(d.shape[1])


def _screen(stack: JetStack, tol: float, index: np.ndarray, reasons: dict, batch: int, least: float | None = None):
    """Which of a stack's m dense (rows, cols) matrices, rows <= cols, the
    screen clears, and for each a lower bound on its sigma_min; the others
    need the SVD. A cleared matrix is full rank, and its bound lies above the
    stack's least sigma_min, or, given `least`, above that (see
    _stack_ranks).

    A matrix A is cleared by a shifted Cholesky certificate (S. M. Rump,
    "Verification of positive definiteness", BIT 46, 2006), read in sigma,
    where LAPACK bounds the SVD's error. Write N = rows + cols, at least 3
    (a screened matrix has an entry off its diagonal), u = eps / 2, gamma_k
    = k u / (1 - k u), F = ||A||_F^2, G = A.A^T and fl(x) for a computed x;
    sigma is an exact singular value of A and sigma^ the SVD's. Each bound
    below is stated to first order in u and keeps a spare first-order term
    of at least N u / 6 times F (or sqrt(F)). The terms of higher order, a
    few dozen products of relative errors of at most 4 N u each, stay below
    that spare while N u < 2^-10, for any matrix of fewer than 2^42 columns.
    Underflow costs at most 2^-1074 an operation, far below u F >= u 2^-800
    in the Gram range, and nothing overflows there.

    F from above. The diagonal of fl(G) and its sum fro2 add squares, so
    fro2 >= (1 - gamma_{N-1}) F, in any order of summation (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., ch. 3). With e =
    fl((N + 3) eps fro2), norm = fl(sqrt(fl(fro2 + e))) is at least sqrt(F)
    (1 + (N + 4) u / 2), at least sqrt(F) (1 + 3.5 u).

    The SVD. LAPACK bounds every sigma^ by |sigma^ - sigma| <= p eps
    ||A||_2 (LAPACK Users' Guide, 3rd ed., sec. 4.9). For any p up to 3 N^2
    this is below delta = fl(3 N^2 eps norm), whose one rounding the margin
    of norm covers. So sigma^_max <= sqrt(F) + delta, and floor = fl(tol *
    max(1, norm + delta)) is at least tol * max(1, sigma^_max): the margin of
    3.5 u covers the roundings of delta, of the sum and of the product.

    The certificate. If the Cholesky factorization of H = fl(fl(G) - s.I)
    runs to completion with positive pivots, its computed factor R
    satisfies R^T.R = H + dH with |dH| <= gamma_{rows+1} |R^T|.|R| (Higham,
    Theorem 10.3, whose proof needs no more than completion; the elimination
    order permutes H symmetrically), so ||dH||_2 <= gamma_{rows+1}
    ||R||_F^2 <= gamma_{rows+1} trace(H) / (1 - gamma_{rows+1}), and H + dH
    is positive definite. Forming fl(G) errs by at most gamma_cols
    |A|.|A|^T, of 2-norm at most gamma_cols F: each entry sums at most cols
    products, in any order, and where one of the two rows is zero in the
    pattern the product is an exact zero, which gram may add or leave out
    (see gram) without changing the bound. Each pivot is positive, so
    every fl(G_ii) > s, and subtracting s rounds the diagonal by at most u
    fl(G_ii) <= u (1 + gamma_cols) F; so trace(H) <= (1 + u) (1 + gamma_cols)
    F. Hence sigma_min^2 > s - (N + 2) u F.

    The shift. A pass shifts by s = fl(fl(fl(b + delta)^2) + e), which is at
    least (1 - u)^4 (b + delta)^2 + (1 - u) e, and e >= 2 (N + 3) u F. As
    (1 - u)^4 (b + delta)^2 <= s < fl(G_ii) <= (1 + gamma_cols) F, the
    roundings of the shift lose at most 4 u F. So s - (N + 2) u F >= (b +
    delta)^2 + N u F, the spare, and a matrix cleared at s has sigma_min > b
    + delta, so the SVD's sigma^_min > b.

    Without `least`, the screen first looks for candidates. Pass A takes b
    = floor, so a matrix it clears is full rank, and it factors a copy of
    the Grams of the first PREFIX matrices only, a prefix that is never
    empty. Its least pivot plus its shift bounds sigma_min^2 from above, and
    the CANDIDATES matrices it clears with the least such bounds get their
    SVD (_svd, as any other matrix); t is their least sigma_min, 0 if one's
    SVD fails to converge, whose stack is then ranked again (see
    CompiledJet.ranks). Pass B then factors every Gram once, at b = max(t,
    floor), so every matrix it clears has a sigma_min above max(t, floor),
    and the stack's least, at most t, is then a candidate or a matrix left
    to the SVD. So a stack of m matrices has at most m + PREFIX Grams
    factored. Given `least`, the least is already known, so pass B alone
    factors each Gram once, at b = max(least, floor), with no candidates:
    every matrix whose sigma_min is at most `least` is left to the SVD, and
    every cleared one lies above it; an infinite least, which would clear
    none, never reaches the screen (see _stack_ranks). A cleared matrix's
    bound is nextafter(b, inf). A matrix goes to the SVD when ||A||_F lies
    outside [1 / GRAM_RANGE, GRAM_RANGE] or a pass cannot clear it; so does
    the whole stack when a pass cannot clear half of the matrices it
    factors. Every pass follows chol, the elimination plan of the stack's
    pattern (a stack with a row zero in every matrix is never screened; see
    Layout). The candidates' SVD takes `batch` matrices at a time (see
    _svd)."""
    (rows, cols), m, chol = stack.pattern.shape, len(stack), stack.pattern.plan
    nothing = np.zeros(m, dtype=bool)
    # the Gram and the room for the copy that pass A factors are one block,
    # (2, vectors, m), in every chunk, with `least` or a prefix too: a chunk's
    # largest array, which glibc's malloc then keeps for the next chunk rather
    # than trim from its heap, and each page trimmed would fault again (see
    # checks.CHUNK_BYTES)
    work = np.zeros((2, len(chol.slots), m))
    gram = chol.gram(stack.values, work[0])
    fro2 = gram[chol.diag].sum(axis=0)
    in_range = (fro2 >= GRAM_RANGE**-2) & (fro2 <= GRAM_RANGE**2)
    eps = np.finfo(float).eps
    e = (rows + cols + 3) * eps * fro2
    # norm and then floor reuse fro2's buffer, which no later line reads, so
    # that no extra (m,) array stays live through both factorizations
    norm = np.sqrt(fro2 + e, out=fro2)
    delta = 3 * (rows + cols) ** 2 * eps * norm
    floor = np.maximum(norm + delta, 1.0, out=norm)
    floor *= tol
    if least is None:  # pass A, on a copy of the Grams of the first PREFIX matrices
        part = min(m, PREFIX)
        factored = work[1].reshape(-1)[: len(chol.slots) * part].reshape(len(chol.slots), part)
        factored[:] = gram[:, :part]
        shift = (floor[:part] + delta[:part]) ** 2 + e[:part]
        pivot = chol.least_pivot(factored, shift)
        pool = np.flatnonzero((pivot > 0) & in_range[:part])
        if 2 * len(pool) < part:  # mostly rank deficient: the SVD is cheaper
            return nothing, None
        if len(pool) > CANDIDATES:
            pool = pool[np.argpartition(pivot[pool] + shift[pool], CANDIDATES)[:CANDIDATES]]
        sigma = _svd(stack.take(pool), index[pool], reasons, batch)[:, -1]
        b = np.maximum(floor, sigma.min())
    else:  # pass B alone, at the least
        pool = []
        b = np.maximum(floor, least)
    with np.errstate(over="ignore"):  # a least beyond the Gram range: an inf shift clears nothing
        shift = (b + delta) ** 2 + e
    cleared = (chol.least_pivot(gram, shift) > 0) & in_range  # pass B
    if 2 * np.count_nonzero(cleared) < m:
        return nothing, None
    value = np.nextafter(b, np.inf)
    if len(pool):
        cleared[pool], value[pool] = True, sigma
    return cleared, value


class _GramCholesky:
    """The Cholesky factorization of every A.A^T of a stack, less a shift,
    run over (m,)-vectors: one vector per entry of the lower triangle that is
    nonzero in the Gram matrices' zero pattern or in its fill, so an entry
    that is zero in every matrix costs nothing. The columns are eliminated
    one at a time in a minimum-degree order (A. George and J. W. H. Liu, "The
    evolution of the minimum degree ordering algorithm", SIAM Review 31,
    1989), which keeps the fill small. The plan depends on the pattern alone,
    so a compiled jet keeps one (see Pattern); `slots` names each vector's
    (row, column) of A.A^T. `floats` is what screening a stack holds per
    matrix: the vectors and the copy least_pivot factors, one block, and the
    two update temporaries of its widest column or gram's products."""

    def __init__(self, zeros: Pattern):
        """`zeros`: the stack's pattern, whose `nonzero` entries of A may be
        nonzero in some matrix of the stack, and whose `index` finds each
        entry's vector."""
        pattern, index = zeros.nonzero, zeros.index
        rows = len(pattern)
        bits = np.packbits(pattern @ pattern.T, axis=1, bitorder="little")
        adjacent = [int.from_bytes(row.tobytes(), "little") & ~(1 << j) for j, row in enumerate(bits)]
        remaining = list(range(rows))
        below = {}  # in elimination order
        while remaining:
            j = min(remaining, key=lambda i: adjacent[i].bit_count())
            remaining.remove(j)
            below[j] = [i for i in remaining if adjacent[j] >> i & 1]
            for i in below[j]:  # eliminating j joins its neighbours
                adjacent[i] = (adjacent[i] | adjacent[j]) & ~(1 << i | 1 << j)
        slot = {}  # (row, column) -> vector; per column, its pivot, then the entries below it
        for j in below:
            slot[j, j] = len(slot)
            slot.update({(i, j): len(slot) + k for k, i in enumerate(below[j])})
        self.slots, self.products = list(slot), []
        for v, (i, j) in enumerate(self.slots):
            shared = np.flatnonzero(pattern[i] & pattern[j])  # the columns where both rows may be nonzero
            if shared.size:  # vector v sums their products, in runs of consecutive vectors of both rows
                left, right = index[i, shared], index[j, shared]
                cuts = np.flatnonzero((np.diff(left) != 1) | (np.diff(right) != 1)) + 1
                starts, stops = [0, *cuts.tolist()], [*cuts.tolist(), shared.size]
                runs = [(int(left[a]), int(right[a]), a, b) for a, b in zip(starts, stops)]
                self.products.append((v, runs, shared.size))
        self.width = max((product[2] for product in self.products), default=0)
        self.diag = np.array([slot[j, j] for j in range(rows)])
        self.columns = []  # per column with entries below it: its slots and its (target, left, right) updates
        for j, rest in below.items():
            if rest:
                pairs = [(a, b) for x, a in enumerate(rest) for b in rest[x:]]
                update = [(slot[(b, a) if (b, a) in slot else (a, b)], slot[a, j], slot[b, j]) for a, b in pairs]
                pivot = slot[j, j]
                self.columns.append((pivot, pivot + 1 + len(rest), *np.array(update, dtype=np.intp).T))
        self.floats = 2 * len(slot) + max(2 * max((len(c[2]) for c in self.columns), default=0), self.width)

    def gram(self, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The (vectors, m) entries of every A.A^T, from a stack's (entries,
        m) vectors (see JetStack), in `out` if given, zeroed: each the sum, in
        column order, of the elementwise products of its rows' vectors at the
        columns where both rows may be nonzero, and 0 where they share none.
        The products left out are exact zeros, so only the sign of a zero can
        differ from the sum over every column. A matrix outside the Gram
        range may overflow, to an inf on its diagonal, which _screen reads."""
        m = a.shape[1]
        out = np.zeros((len(self.slots), m)) if out is None else out
        terms = np.empty((self.width, m))
        with np.errstate(over="ignore", invalid="ignore"):
            for v, runs, k in self.products:
                if k == 1:
                    ((left, right, _, _),) = runs
                    np.multiply(a[left], a[right], out=out[v])
                    continue
                for left, right, start, stop in runs:
                    np.multiply(a[left : left + stop - start], a[right : right + stop - start], out=terms[start:stop])
                np.add.reduce(terms[:k], axis=0, out=out[v])
        return out

    def least_pivot(self, v: np.ndarray, shift: np.ndarray) -> np.ndarray:
        """Factor v, the entries of every A.A^T (overwritten), less shift.I,
        and return each matrix's least pivot: positive exactly where the
        factorization runs to completion. Past a pivot that is not positive,
        that matrix's factorization runs on in nan or inf, which no other
        matrix reads, and its least pivot stays not positive. A column never
        updates one entry twice, and no pivot is written after its use."""
        with np.errstate(all="ignore"):
            v[self.diag] -= shift
            for pivot, stop, target, left, right in self.columns:
                v[pivot + 1 : stop] /= np.sqrt(v[pivot])
                update = v[left]
                update *= v[right]
                v[target] -= update
        return v[self.diag].min(axis=0)


def valid_mask(n: int, failed) -> np.ndarray:
    """Boolean mask of length n, False at the indices in `failed`."""
    mask = np.ones(n, dtype=bool)
    mask[list(failed)] = False
    return mask


def _svd(stack: JetStack, index: np.ndarray, reasons: dict, batch: int) -> np.ndarray:
    """Singular values of a stack's matrices, whose places in the checked
    stack are `index`, made dense `batch` at a time: one batched SVD per
    batch, or, where it fails to converge, one SVD per matrix of the batch,
    recording the matrices that fail on their own in `reasons`."""
    sigma = np.zeros((len(stack), min(stack.pattern.shape)))
    for start in range(0, len(stack), batch):
        part = stack.take(slice(start, start + batch)).dense()
        try:
            sigma[start : start + batch] = np.linalg.svd(part, compute_uv=False)
            continue
        except np.linalg.LinAlgError:
            pass
        for j, i in enumerate(index[start : start + batch].tolist()):
            try:
                sigma[start + j] = np.linalg.svd(part[j], compute_uv=False)
            except np.linalg.LinAlgError as exc:
                reasons[i] = str(exc)
    return sigma


class CompiledJet:
    """Jets' row expressions compiled into one tape of numpy calls (see
    expr.compile_batch), run over a chunk of points at a time, and each
    jet's pattern (see Pattern), read once, when they are compiled: an entry
    that is the constant 0 of either sign is 0 at every point. The tape
    computes and holds only the entries that are not ZERO, the constant
    +0.0, each jet a range of its outputs; a caller that needs an entry's
    vector reads it through the pattern's index, and one that needs dense
    matrices makes them (see JetStack.dense).
    A node that two jets share, such as L_a f inside L_a(F o f), is one op of
    the tape. `at_floats` is what `at` holds per point, the tape's, and
    `floats` what `ranks` holds: the tape's and the most that ranking one of
    its stacks holds beyond them (see Pattern.floats), since it ranks one jet
    at a time."""

    def __init__(self, jets, chart):
        """`jets`: each jet's rows of expressions."""
        self.shapes = [(len(rows), len(rows[0])) for rows in jets]
        entries = [e for rows in jets for row in rows for e in row]
        held = np.array([e is not ZERO for e in entries])
        nonzero = np.array([not (type(e) is Const and e.value == 0) for e in entries])
        self._run = compile_batch([e for e in entries if e is not ZERO], chart.coords)
        ends = list(accumulate(rows * cols for rows, cols in self.shapes))
        parts = zip([0, *ends], ends, self.shapes)
        self.patterns = [Pattern(nonzero[a:b].reshape(shape), held[a:b].reshape(shape)) for a, b, shape in parts]
        # the output where each jet starts, and where the last ends
        self._bounds = [0, *accumulate(int(np.count_nonzero(p.held)) for p in self.patterns)]

    @property
    def at_floats(self) -> int:
        return self._run.floats()

    @property
    def floats(self) -> int:
        return self.at_floats + max(pattern.floats for pattern in self.patterns)

    def at(self, points: np.ndarray):
        """Each jet's JetStack at an (n, dim) array of points, and a dict
        mapping each point where evaluation faulted to (the index of the jet
        of its first faulting entry, in jet order, and that entry's
        EvalError); that point's held entries are nan in every jet, and every
        other is finite. Each stack's vectors are a view of the tape's
        values, each entry's one contiguous row."""
        values, errors = self._run(points)
        bounds = zip(self._bounds, self._bounds[1:], self.patterns)
        stacks = [JetStack(values.T[a:b], pattern) for a, b, pattern in bounds]
        return stacks, {i: (bisect_right(self._bounds, j) - 1, exc) for i, (j, exc) in errors.items()}

    def ranks(self, points: np.ndarray, tol: float = DEFAULT_TOL, least: float | None = None) -> list[StackRanks]:
        """Each jet's rank verdicts at the points (see _stack_ranks, which
        reads `least`). A point that faults has no verdict in any jet. Every
        sigma_min at or below `least` is exact at any point; without a
        least, each jet's least sigma_min is exact among the points where
        every jet has a verdict: a chunk where some jet's SVD failed, maybe at
        its own least or at another jet's, and the screen cleared a matrix of
        some jet, is ranked again at least = np.inf, each jet once more."""
        stacks, faults = self.at(points)
        errors = {i: exc for i, (_, exc) in faults.items()}
        ranks = [_stack_ranks(stack, tol, errors, least) for stack in stacks]
        if least is None and _rerank(ranks, errors):
            ranks = [_stack_ranks(stack, tol, errors, np.inf) for stack in stacks]
        return ranks


def _rerank(ranks: list[StackRanks], errors: dict) -> bool:
    """Whether jets ranked together without a least must be ranked again at
    least = np.inf: an SVD failed in one of them, maybe at a least, while
    the screen cleared a matrix in one, whose bound may then lie below the
    least among the points where every jet has a verdict."""
    return any(len(r.reasons) > len(errors) for r in ranks) and any(r.cleared for r in ranks)
