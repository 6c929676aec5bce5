"""First- and second-order jet matrices along a frame, and rank diagnostics.

The order-2 matrix stacks the k first-order rows with the s_k = k(k+1)/2
anticommutator rows, pairs (a, b) with a <= b in lexicographic order. The
anticommutator convention is used uniformly, so diagonal rows carry the
factor 2 of {L_a, L_a} = 2 L_a^2.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .expr import Const, Expr, compile_batch
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
    (entries,), errors = CompiledJet([rows], frame.chart).at(frame.chart.check_point(point))
    if errors:
        raise errors[0][1]
    return entries[0]


@dataclass(frozen=True)
class StackRanks:
    """Rank verdicts for a stack of n jet matrices, one array entry each.

    `rank` and `full_rank` are those of one SVD per matrix. `sigma_min` is
    the exact least singular value, the SVD's bit for bit, at every matrix
    that stack_ranks handed to the SVD or ranked from its diagonal; among the
    matrices it keeps exact (all, by default) the least sigma_min, ties to
    the lowest index, is one of those. A matrix the Gram screen cleared is
    full rank, and its sigma_min is a certified lower bound on the SVD's,
    above that least (if the matrix is kept exact). `reasons` maps each
    matrix that has no verdict to why: an evaluation error or an SVD that did
    not converge (a cleared matrix never reaches LAPACK). `valid` is False
    exactly there, and the other arrays hold no meaning there."""

    rank: np.ndarray
    sigma_min: np.ndarray
    full_rank: np.ndarray
    valid: np.ndarray
    reasons: dict


# Dense stacks of fewer matrices skip the Gram screen, whose fixed cost is a
# few dozen numpy calls. stack_ranks of random full-rank entry-major stacks,
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
# (medians of 9 interleaved runs per chunk), stack_ranks took 111.9 ms with 2
# or 4 candidates, 114.8 ms with 8 and 122.3 ms with 16.
CANDIDATES = 4


class Pattern:
    """The entries of a stack's (rows, cols) matrices that may be nonzero,
    and the Gram screen's elimination plan for them (see _GramCholesky),
    built the first time a stack is screened. `screens` says whether a
    stack may be: rows <= cols, some entry off the diagonal may be nonzero,
    and no row is zero in every matrix, which would make every matrix rank
    deficient."""

    def __init__(self, nonzero: np.ndarray):
        rows, cols = nonzero.shape
        self.nonzero = nonzero
        self.off_diagonal = np.flatnonzero(nonzero & ~np.eye(rows, cols, dtype=bool))
        self.screens = rows <= cols and self.off_diagonal.size > 0 and nonzero.any(axis=1).all()
        self._plan = None

    @property
    def plan(self) -> _GramCholesky:
        if self._plan is None:
            self._plan = _GramCholesky(self.nonzero)
        return self._plan

    @property
    def floats(self) -> int:
        """What screening a stack holds per matrix (see _GramCholesky.floats),
        or 0 where no stack is screened."""
        return self.plan.floats if self.screens else 0


def stack_ranks(
    entries: np.ndarray, tol: float = DEFAULT_TOL, errors=None, exact=None, *, pattern: Pattern | None = None
) -> StackRanks:
    """Rank verdicts over an (n, rows, cols) stack: a singular value counts
    when it exceeds tol * max(1, sigma_max). `errors` maps points whose
    evaluation faulted to the EvalError (as CompiledJet.at gives them), which
    is their reason; every other matrix must be finite, else ValueError.
    `exact` is a boolean mask of the matrices whose least sigma_min must be
    exact (default: all); a check passes the points it folds into its worst
    criterion.

    A matrix, square or rectangular, whose off-diagonal entries are all zero
    (every 1 x 1 matrix) has the exact singular values |diagonal| and makes
    no LAPACK call. In a stack of SCREEN_MIN or more other matrices with
    rows <= cols, the Gram screen (_screen) clears, by a shifted Cholesky
    factorization of A.A^T, those that are surely full rank and surely above
    the least, and gives each a certified lower bound on its sigma_min; the
    rest get one batched SVD, redone matrix by matrix if it fails to
    converge. A matrix that fails on its own may have been the least, so
    then every dense matrix gets its SVD. `pattern` says which entries may be
    nonzero, and keeps the screen's plan: a compiled jet passes its own, read
    from its entries, and a call without one reads the pattern of `entries`
    and builds a plan each time it screens."""
    n, rows, cols = entries.shape
    reasons = {i: str(exc) for i, exc in (errors or {}).items()}
    if reasons:
        entries = entries.copy(order="K")  # in the layout it came in
        entries[list(reasons)] = 0.0
    if not np.isfinite(entries).all():
        raise ValueError("jet entries must be finite outside the faulted points")
    if pattern is None:
        pattern = Pattern((entries != 0).any(axis=0))
    rank = np.empty(n, dtype=np.intp)
    sigma_min = np.empty(n)
    vectors = entries.reshape(n, rows * cols).T  # one per entry: contiguous in an entry-major stack
    dense = (vectors[pattern.off_diagonal] != 0).any(axis=0)
    if not dense.all():
        diagonal = np.sort(np.abs(np.diagonal(entries, axis1=1, axis2=2)[~dense]), axis=1)[:, ::-1]
        rank[~dense], sigma_min[~dense] = _rank(diagonal, tol), diagonal[:, -1]
    index = np.flatnonzero(dense)
    stack = entries if dense.all() else vectors[:, index].T.reshape(len(index), rows, cols)
    svd = np.ones(len(index), dtype=bool)
    if pattern.screens and len(index) >= SCREEN_MIN:
        keep = np.ones(len(index), dtype=bool) if exact is None else exact[index]
        cleared, bound = _screen(stack, tol, keep, index, reasons, pattern.plan)
        if cleared.any():
            svd = ~cleared
            rank[index[cleared]], sigma_min[index[cleared]] = rows, bound[cleared]
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


def _screen(stack: np.ndarray, tol: float, exact: np.ndarray, index: np.ndarray, reasons: dict, chol):
    """Which matrices of a dense (m, rows, cols) stack, rows <= cols, the
    screen clears, and for each a lower bound on its sigma_min; the others
    need the SVD. A cleared matrix is full rank, and its bound lies above the
    least sigma_min of the `exact` matrices.

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

    Pass A takes b = floor, so a matrix it clears is full rank. Its least
    pivot plus its shift bounds sigma_min^2 from above, and the CANDIDATES
    `exact` matrices with the least such bounds get their SVD (_svd, as any
    other matrix); t is their least sigma_min. Pass B takes b = max(t,
    floor), so every other matrix it clears has a sigma_min above max(t,
    floor). A cleared matrix's bound is nextafter(b, inf); the least of the
    `exact` matrices is then a candidate or a matrix left to the SVD. A
    matrix goes to the SVD when ||A||_F lies outside [1 / GRAM_RANGE,
    GRAM_RANGE] or a pass cannot clear it; so does the whole stack when pass
    A cannot clear half of it, or when a candidate's SVD fails to converge,
    since the least may then have no verdict. Both passes follow chol, the
    elimination plan of the stack's pattern (a stack with a row zero in
    every matrix is never screened; see Pattern)."""
    m, rows, cols = stack.shape
    nothing = np.zeros(m, dtype=bool)
    gram = chol.gram(stack)
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
    shift = (floor + delta) ** 2 + e
    pivot = chol.least_pivot(gram.copy(), shift)
    cleared = (pivot > 0) & in_range
    if 2 * np.count_nonzero(cleared) < m:  # mostly rank deficient: the SVD is cheaper
        return nothing, None
    pool = np.flatnonzero(cleared & exact)
    if len(pool) > CANDIDATES:
        pool = pool[np.argpartition(pivot[pool] + shift[pool], CANDIDATES)[:CANDIDATES]]
    if not len(pool):
        return cleared, np.nextafter(floor, np.inf)
    failed = len(reasons)
    sigma = _svd(stack[pool], index[pool], reasons)[:, -1]
    if len(reasons) > failed:
        return nothing, None
    bound = np.maximum(floor, sigma.min())
    cleared &= chol.least_pivot(gram, (bound + delta) ** 2 + e) > 0
    cleared[pool] = True
    value = np.nextafter(bound, np.inf)
    value[pool] = sigma
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
    matrix: the vectors and the copy least_pivot factors, and the two update
    temporaries of its widest column, or gram's vectors and products."""

    def __init__(self, pattern: np.ndarray):
        """`pattern`: the (rows, cols) entries of A that are nonzero in some
        matrix of the stack."""
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
        self.slots, self.products, cols = list(slot), [], pattern.shape[1]
        for v, (i, j) in enumerate(self.slots):
            shared = np.flatnonzero(pattern[i] & pattern[j]).tolist()  # the columns where both rows may be nonzero
            if shared:  # vector v sums the products of its rows' entries from the first to the last of them
                self.products.append((v, i * cols + shared[0], j * cols + shared[0], shared[-1] + 1 - shared[0]))
        self.width = max((product[3] for product in self.products), default=0)
        self.diag = np.array([slot[j, j] for j in range(rows)])
        self.columns = []  # per column with entries below it: its slots and its (target, left, right) updates
        for j, rest in below.items():
            if rest:
                pairs = [(a, b) for x, a in enumerate(rest) for b in rest[x:]]
                update = [(slot[(b, a) if (b, a) in slot else (a, b)], slot[a, j], slot[b, j]) for a, b in pairs]
                pivot = slot[j, j]
                self.columns.append((pivot, pivot + 1 + len(rest), *np.array(update, dtype=np.intp).T))
        self.floats = len(slot) + max(len(slot) + 2 * max((len(c[2]) for c in self.columns), default=0), self.width)

    def gram(self, stack: np.ndarray) -> np.ndarray:
        """The (vectors, m) entries of every A.A^T: each the sum of the
        elementwise products of its rows' (m,)-vectors of entries (contiguous
        in an entry-major stack), from the first to the last column where
        both rows may be nonzero, and 0 where they share none. A matrix
        outside the Gram range may overflow, to an inf on its diagonal, which
        _screen reads."""
        m, rows, cols = stack.shape
        a = stack.reshape(m, rows * cols).T
        out, terms = np.zeros((len(self.slots), m)), np.empty((self.width, m))
        with np.errstate(over="ignore", invalid="ignore"):
            for v, left, right, k in self.products:
                product = out[v : v + 1] if k == 1 else terms[:k]
                np.multiply(a[left : left + k], a[right : right + k], out=product)
                if k > 1:  # summed in column order
                    np.add.reduce(product, axis=0, out=out[v])
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
    """Jets' row expressions compiled into one tape of numpy calls (see
    expr.compile_batch), each jet a range of its columns, run over a chunk of
    points at a time, and the pattern of each jet's entries, read once, when
    they are compiled: an entry that is the constant 0 is 0 at every point.
    A node that two jets share, such as L_a f inside L_a(F o f), is one op of
    the tape. `at_floats` is what `at` holds per point, the tape's, and
    `floats` what `ranks` holds: the tape's and the largest Gram screen's
    (see Pattern.floats), since it ranks one jet at a time."""

    def __init__(self, jets, chart):
        """`jets`: each jet's rows of expressions."""
        self.shapes = [(len(rows), len(rows[0])) for rows in jets]
        # the column where each jet after the first starts
        self._cuts = list(accumulate(rows * cols for rows, cols in self.shapes))[:-1]
        entries = [e for rows in jets for row in rows for e in row]
        self._run = compile_batch(entries, chart.coords)
        self._nonzero = np.array([not (type(e) is Const and e.value == 0) for e in entries])
        self._patterns = None

    @property
    def patterns(self) -> list[Pattern]:
        if self._patterns is None:  # the first time the jets are ranked
            parts = np.split(self._nonzero, self._cuts)
            self._patterns = [Pattern(part.reshape(shape)) for part, shape in zip(parts, self.shapes)]
        return self._patterns

    @property
    def at_floats(self) -> int:
        return self._run.floats()

    @property
    def floats(self) -> int:
        return self.at_floats + max(pattern.floats for pattern in self.patterns)

    def at(self, points: np.ndarray):
        """Each jet's (n, rows, cols) stack of matrices at an (n, dim) array
        of points, and a dict mapping each point where evaluation faulted to
        (the index of the jet of its first faulting entry, in jet order, and
        that entry's EvalError); that point's matrices are nan in every jet,
        and every other is finite. Each stack is a view of the tape's values,
        whose entry-major layout makes each entry's values one vector."""
        values, errors = self._run(points)
        parts = np.split(values, self._cuts, axis=1)
        stacks = [part.reshape((len(points),) + shape) for part, shape in zip(parts, self.shapes)]
        return stacks, {i: (bisect_right(self._cuts, j), exc) for i, (j, exc) in errors.items()}

    def ranks(self, points: np.ndarray, tol: float = DEFAULT_TOL) -> list[StackRanks]:
        """Each jet's rank verdicts at the points (see stack_ranks). A point
        that faults has no verdict in any jet, and each jet's least sigma_min
        is exact among the points where every other jet has a verdict: each
        jet is ranked among the points the jets before it kept, and one whose
        least a later jet may have left without a verdict is ranked again."""
        stacks, faults = self.at(points)
        errors = {i: exc for i, (_, exc) in faults.items()}
        ranks, valid = [], np.ones(len(points), dtype=bool)
        for stack, pattern in zip(stacks, self.patterns):
            ranks.append(stack_ranks(stack, tol, errors, valid, pattern=pattern))
            valid = valid & ranks[-1].valid
        for i, r in enumerate(ranks[:-1]):
            others = np.logical_and.reduce([o.valid for o in ranks[:i] + ranks[i + 1 :]])
            if (r.valid & ~others).any():
                ranks[i] = stack_ranks(stacks[i], tol, errors, others, pattern=self.patterns[i])
        return ranks
