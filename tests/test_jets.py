import gc
import math
import weakref
from collections import Counter
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import anticommutator, dense_tape, fixture_parts, reference_diff, reference_simplify, stack_ranks
from hfree import checks as checks_module, expr as expr_module, gallery, jets as jets_module
from hfree.expr import ONE, ZERO, Add, Coord, EvalError, Expr, Mul, free_vars, parse, substitute
from hfree.checks import check_points, frame_rank_check, is_free_at, is_immersion_at, run_fixture
from hfree.fields import (
    Chart,
    ChartMismatch,
    Frame,
    OutsideDomain,
    SmoothMap,
    VectorField,
)
from hfree.jets import (
    DEFAULT_TOL,
    BelowCriticalDimension,
    CompiledJet,
    d1_exprs,
    d1_matrix,
    d2_exprs,
    d2_matrix,
    pair_labels,
    s,
)
from hfree.constructions import compose, monomial_free_map, standard_frame
from hfree.brackets import contact_frame
from hfree.manifest import parse_manifest_text
from hfree.sampling import sample_points

PLANE = Chart(coords=("x", "y"), box=((-2.0, 2.0), (-2.0, 2.0)))
LINE = Chart(coords=("x",), box=((-4.0, 4.0),))


def test_pair_count():
    assert s(1) == 1
    assert s(2) == 3
    assert s(3) == 6


def test_pair_label_order():
    assert pair_labels(3) == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]


class TestD1:
    def test_planar_example_at_origin(self):
        xi = VectorField(PLANE, (parse("2*y"), parse("1 - y^2")))
        frame = Frame(PLANE, (xi,))
        f = SmoothMap(PLANE, (parse("y*exp(x)"),))
        m = d1_matrix(frame, f, (0.0, 0.0))
        assert m == pytest.approx(np.array([[1.0]]))

    def test_contact_projection_is_identity(self):
        frame = contact_frame(1)
        pi = SmoothMap(frame.chart, (parse("x1"), parse("p1")))
        for point in sample_points(frame.chart, samples=10, seed=5):
            m = d1_matrix(frame, pi, point)
            assert m == pytest.approx(np.eye(2))

    def test_constant_map(self):
        frame = standard_frame(LINE)
        f = SmoothMap(LINE, (parse("3"),))
        assert d1_matrix(frame, f, (0.5,)) == pytest.approx(np.array([[0.0]]))


class TestD2:
    def test_monomials_on_line(self):
        frame = standard_frame(LINE)
        f = SmoothMap(LINE, (parse("x"), parse("x^2")))
        m = d2_matrix(frame, f, (3.0,))
        # first row (1, 2x), anticommutator row (0, 2*2)
        assert m == pytest.approx(np.array([[1.0, 6.0], [0.0, 4.0]]))

    def test_monomials_on_plane_at_origin(self):
        # oracle: brute-force second partials of (x, y, x^2, xy, y^2)
        frame = standard_frame(PLANE)
        f = monomial_free_map(2)
        f = SmoothMap(PLANE, tuple(
            parse(src) for src in ("x", "y", "x^2", "x*y", "y^2")
        ))
        m = d2_matrix(frame, f, (0.0, 0.0))
        expected = np.array(
            [
                [1, 0, 0, 0, 0],
                [0, 1, 0, 0, 0],
                [0, 0, 4, 0, 0],
                [0, 0, 0, 2, 0],
                [0, 0, 0, 0, 4],
            ],
            dtype=float,
        )
        assert m == pytest.approx(expected)

    def test_constant_map_all_zero(self):
        frame = standard_frame(PLANE)
        f = SmoothMap(PLANE, (parse("7"), parse("1"), parse("2"),
                              parse("3"), parse("4")))
        m = d2_matrix(frame, f, (0.3, -0.4))
        assert not m.any()

    def test_row_count_law(self):
        for n in (1, 2):
            frame = contact_frame(n)
            k = frame.k
            pi = SmoothMap(
                frame.chart, tuple(parse(c) for c in frame.chart.coords[:-1])
            )
            m = d2_matrix(frame, pi, (0.0,) * frame.chart.dim)
            assert m.shape[0] == k + s(k)


@pytest.mark.parametrize(
    "name", [n for n in gallery.list_fixtures() if fixture_parts(n).frame is not None]
)
def test_d2_rows_equal_the_anticommutator(name):
    """d2_exprs builds its anticommutator rows from the first-order rows; each
    entry equals the tree of the anticommutator built from scratch."""
    fix = fixture_parts(name)
    k, vectors = fix.frame.k, fix.frame.vectors
    for f in (fix.immersion, fix.free_map):
        rows = d2_exprs(fix.frame, f)[k:]
        expected = [
            [anticommutator(vectors[a], vectors[b], c) for c in f.components]
            for a, b in pair_labels(k)
        ]
        assert len(rows) == len(expected)
        for row, want in zip(rows, expected):
            assert all(got == e for got, e in zip(row, want))


def _lie_sum_as_built_unsimplified(xi, f):
    """L_xi f built as an unsimplified tree: the Mul(comp, d) terms, each d
    the memo-free reference derivative, folded with reduce(Add, ...), then
    simplified once by the memo-free reference."""
    terms = []
    for comp, name in zip(xi.components, xi.chart.coords):
        d = reference_simplify(reference_diff(f, name))
        if comp != ZERO and d != ZERO:
            terms.append(d if comp is ONE else Mul(comp, d))
    total = reference_simplify(reduce(Add, terms)) if terms else ZERO
    return ZERO if total == ZERO else total


@pytest.mark.parametrize(
    "name", [n for n in gallery.list_fixtures() if fixture_parts(n).frame is not None]
)
def test_d2_exprs_are_the_reference_simplification_of_their_unsimplified_sums(name):
    """d1_exprs and d2_exprs build every node simplified (see expr.make):
    each entry is the very node that the memo-free reference simplification
    of the unsimplified Lie sums gives, the order-2 rows built from the
    reference's order-1 rows and symmetrized as Add(ab, ba)."""
    fix = fixture_parts(name)
    k, vectors = fix.frame.k, fix.frame.vectors
    for f in (fix.immersion, fix.free_map):
        first = [[_lie_sum_as_built_unsimplified(xi, c) for c in f.components] for xi in vectors]
        second = [[[_lie_sum_as_built_unsimplified(xa, g) for g in row] for row in first] for xa in vectors]
        symmetrized = [
            [reference_simplify(Add(ab, ba)) for ab, ba in zip(second[a][b], second[b][a])]
            for a, b in pair_labels(k)
        ]
        for rows, want in ((d1_exprs(fix.frame, f), first), (d2_exprs(fix.frame, f), first + symmetrized)):
            assert [len(row) for row in rows] == [len(row) for row in want]
            assert all(got is e for row, row_want in zip(rows, want) for got, e in zip(row, row_want))


def _nodes(roots):
    """Every distinct node reachable from the roots through their fields."""
    seen, stack = {}, list(roots)
    while stack:
        e = stack.pop()
        if id(e) not in seen:
            seen[id(e)] = e
            stack += [v for v in (getattr(e, name) for name in e._fields) if isinstance(v, Expr)]
    return list(seen.values())


def _fresh_jet_roots(name):
    """The roots of a fixture's order-2 jet on fresh coordinate names: its
    entries, its frame's components and its map's components."""
    fix = fixture_parts(name)
    fresh = {c: Coord(f"fresh_{c}") for c in fix.chart.coords}
    chart = Chart(tuple(c.name for c in fresh.values()), fix.chart.box, fix.chart.periodic)
    renamed = lambda comps: tuple(substitute(c, fresh) for c in comps)
    frame = Frame(chart, tuple(VectorField(chart, renamed(v.components)) for v in fix.frame.vectors))
    f = SmoothMap(chart, renamed(fix.free_map.components))
    rows = d2_exprs(frame, f)
    roots = [e for row in rows for e in row] + [c for v in frame.vectors for c in v.components]
    return roots + list(f.components)


@pytest.mark.parametrize("name", ["integrable-torus-3", "contact-2"])
def test_dropped_jet_trees_leave_the_intern_table(name):
    """A dropped jet's nodes are freed, and the intern table shrinks back to
    its size before the jet. Only the derivative memos of exp, sin and cos
    refer back to their nodes (exp(u)' = exp(u)*u'), a cycle that the cycle
    collector frees, so a polynomial jet such as contact-2's is freed by
    reference counting alone."""
    gc.collect()
    size = len(expr_module._table)
    gc.disable()
    try:
        roots = _fresh_jet_roots(name)
        # only nodes on the fresh names: no other live tree contains them
        refs = [weakref.ref(e) for e in _nodes(roots) if free_vars(e)]
        assert len(expr_module._table) >= size + len(refs)
        del roots
        alive = [r() for r in refs if r() is not None]
    finally:
        gc.enable()
    assert len(refs) > 10
    if name == "contact-2":
        assert alive == []
    del alive
    gc.collect()
    assert [r() for r in refs if r() is not None] == []
    assert len(expr_module._table) == size


def _ranks(m):
    """stack_ranks of one matrix."""
    return stack_ranks(m[None])


class TestRankCheck:
    def test_identity(self):
        r = _ranks(np.eye(2))
        assert r.rank[0] == 2 and r.full_rank[0] and r.valid[0]
        assert np.linalg.det(np.eye(2)) == pytest.approx(1.0)

    def test_rank_deficient(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0]])
        r = _ranks(m)
        assert r.rank[0] == 1 and not r.full_rank[0]
        assert np.linalg.det(m) == pytest.approx(0.0, abs=1e-12)

    def test_line_monomial_determinant(self):
        frame = standard_frame(LINE)
        f = SmoothMap(LINE, (parse("x"), parse("x^2")))
        m = d2_matrix(frame, f, (1.9,))
        assert np.linalg.det(m) == pytest.approx(4.0)
        assert _ranks(m).full_rank[0]

    def test_nonfinite_entry_is_refused(self):
        # a jet is finite outside its faulted points (expr.compile_batch), as
        # a point is finite (Chart.point_array)
        entries = np.array([[[1.0, 0.0], [np.inf, 1.0]], [[np.nan, 0.0], [0.0, 1.0]]])
        with pytest.raises(ValueError, match="finite"):
            stack_ranks(entries)
        with pytest.raises(ValueError, match="finite"):
            stack_ranks(entries, errors={1: EvalError("overflow")})
        r = stack_ranks(entries, errors={0: EvalError("overflow"), 1: EvalError("division by zero")})
        assert r.reasons == {0: "overflow", 1: "division by zero"}
        assert not r.valid.any()


def _own_svd(m):
    """The singular values stack_ranks answers to: the sorted |diagonal| of a
    matrix whose off-diagonal entries are all zero, else its own SVD's."""
    if (m[~np.eye(*m.shape, dtype=bool)] == 0).all():
        return np.sort(np.abs(np.diagonal(m)))[::-1]
    return np.linalg.svd(m, compute_uv=False)


def _recording_svd(monkeypatch, seen: list):
    """Patch np.linalg.svd to append the bytes of every matrix it is given
    to `seen`."""
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        seen.extend(m.tobytes() for m in a.reshape((-1,) + a.shape[-2:]))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)


def _assert_svd_contract(r, stack, errors, seen=()):
    """StackRanks against one SVD per matrix: the same rank, verdict,
    validity and reasons; sigma_min bit for bit at the least matrix (ties
    to the lowest index) and at every diagonal matrix; at any other matrix,
    which is full rank, the SVD's value or a lower bound on it above that
    least. Of each distinct matrix, the SVD saw (`seen`, as bytes) no more
    copies, counted up to the copies in the stack, than got its value:
    equal matrices share their bytes, so one may be a candidate of the
    screen and its twin cleared with a bound, and a candidate is seen again
    where the screen then clears too few."""
    n, rows, cols = stack.shape
    reasons = {i: str(exc) for i, exc in errors.items()}
    assert r.reasons == reasons
    assert r.valid.tolist() == [i not in reasons for i in range(n)]
    own = {}
    for i, m in enumerate(stack):
        if i not in reasons:
            own[i] = sigma = _own_svd(m)
            rank = int(np.count_nonzero(sigma > DEFAULT_TOL * max(1.0, sigma[0])))
            assert (r.rank[i], r.full_rank[i]) == (rank, rank == rows)
    least = min(own, key=lambda i: (own[i][-1], i), default=None)
    if least is not None:
        assert min(own, key=lambda i: (r.sigma_min[i], i)) == least
    copies, exact = Counter(stack[i].tobytes() for i in own), Counter()
    for i, sigma in own.items():
        if float(r.sigma_min[i]).hex() == float(sigma[-1]).hex():
            exact[stack[i].tobytes()] += 1
            continue
        assert stack[i][~np.eye(rows, cols, dtype=bool)].any()  # not diagonal
        assert rows <= cols and r.full_rank[i]
        assert own[least][-1] < r.sigma_min[i] <= sigma[-1]
    assert all(min(count, copies[m]) <= exact[m] for m, count in Counter(seen).items())


def test_stack_ranks_keeps_the_svd_verdicts_and_the_least(monkeypatch):
    """Dense stacks past SCREEN_MIN, with every entry, with a contact-like
    triangular pattern or with a zero column: rank-deficient, nearly
    deficient and faulted matrices and matrices outside the Gram range keep
    the SVD's verdicts and values; the screen clears most of a square or wide
    stack, and none of a tall one."""
    rng = np.random.default_rng(3)
    n = 2 * jets_module.SCREEN_MIN
    shapes = [(1, 1, "dense"), (2, 3, "dense"), (3, 2, "dense"), (5, 5, "dense"), (9, 9, "dense"), (14, 14, "dense")]
    for rows, cols, kind in shapes + [(14, 14, "contact"), (4, 6, "zero column")]:
        stack = rng.uniform(-2.0, 2.0, (n, rows, cols))
        if kind == "contact":  # upper triangular with a unit diagonal, sparse above it, as contact's D2
            stack *= np.triu(rng.random((rows, cols)) < 0.2, 1)
            stack += np.eye(rows, cols)
        elif kind == "zero column":
            stack[:, :, 2] = 0.0
        stack[5, -1] = stack[5, 0]  # rank deficient where rows > 1
        stack[6, -1] = stack[6, 0] + 1e-8 * stack[6, -1]
        stack[7, rows - 1, cols - 1] = np.inf
        stack[9, 0, 0] = np.nan
        stack[11] *= 1e200  # A.A^T would overflow
        stack[12] *= 1e-200  # and underflow
        errors = {7: EvalError("overflow"), 9: EvalError("division by zero")}
        seen = []
        with monkeypatch.context() as m:
            _recording_svd(m, seen)
            r = stack_ranks(stack, DEFAULT_TOL, errors)
        _assert_svd_contract(r, stack, errors, seen)
        if rows == 1:
            assert not seen
        elif rows > cols:
            assert len(seen) == n - 2
        else:
            assert {stack[i].tobytes() for i in (5, 11, 12)} <= set(seen) and len(seen) < n // 4


_SHAPES = [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 4), (2, 5)]
_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 1.0, -1.0]),
    st.floats(-4.0, 4.0, allow_nan=False),
)


@st.composite
def _mixed_stacks(draw):
    """An (n, rows, cols) stack of diagonal, dense and nearly rank-deficient
    matrices, off-diagonal zeros of either sign, with at most one non-finite
    entry, often at a faulted point, and one more error."""
    rows, cols = draw(st.sampled_from(_SHAPES))
    n = draw(st.integers(1, 12))
    stack = np.array(draw(st.lists(_ENTRIES, min_size=n * rows * cols, max_size=n * rows * cols)))
    stack = stack.reshape(n, rows, cols)
    off = ~np.eye(rows, cols, dtype=bool)
    for i in range(n):
        kind = draw(st.sampled_from(["dense", "diagonal", "near"]))
        if kind == "diagonal":
            stack[i][off] = draw(st.sampled_from([0.0, -0.0]))
        elif kind == "near" and rows > 1:  # the last row near a multiple of the first
            scale, nudge = draw(st.floats(-4.0, 4.0)), draw(st.sampled_from([0.0, 1e-300, 1e-12, 1e-7]))
            stack[i, -1] = scale * stack[i, 0] + nudge * stack[i, -1]
    errors = {}
    if draw(st.booleans()):
        i, r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        stack[i, r, c] = draw(st.sampled_from([np.inf, -np.inf, np.nan]))
        if draw(st.booleans()):
            errors[i] = EvalError("overflow")
    if draw(st.booleans()):
        errors[draw(st.integers(0, n - 1))] = EvalError("division by zero")
    return stack, errors


def _budget(trace, rows, cols):
    """The screen's certificate budget for a matrix of ||A||_F^2 = trace:
    e, the Gram, factorization and shift rounding, and delta, the SVD's
    error in each singular value (see jets._screen)."""
    eps = np.finfo(float).eps
    e = (rows + cols + 3) * eps * trace
    return e, 3 * (rows + cols) ** 2 * eps * np.sqrt(trace + e)


def _ill_conditioned(draw, rows, cols, n):
    """n dense rows x cols matrices U.S.V^T, rows >= 2, with random
    orthonormal U and V, and ||A||_F / sigma_min from 1e5 to 1e8."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = np.empty((n, rows, cols))
    for i in range(n):
        u = np.linalg.qr(rng.standard_normal((rows, rows)))[0]
        v = np.linalg.qr(rng.standard_normal((cols, rows)))[0]
        sigma = rng.uniform(0.5, 2.0, rows)
        sigma[-1] = np.sqrt((sigma[:-1] ** 2).sum()) * 10.0 ** -draw(st.floats(5.0, 8.0))
        stack[i] = (u * sigma) @ v.T
    return stack


@st.composite
def _shifted_grams(draw):
    """A stack of rows x cols matrices A, rows <= cols, that share a pattern:
    every entry, upper triangular with a constant diagonal and random entries
    above it, as contact's D2, random entries, which may leave a row or a
    column zero, or ill-conditioned (see _ill_conditioned); some nearly rank
    deficient; and a shift tau per matrix, from zero, a share of ||A||_F^2,
    lambda_min(A.A^T) nudged by a relative 1e-6 or less, or the screen's
    shift for a bound b within a relative 1e-6 of the SVD's sigma_min, (b +
    delta)^2 + e; an ill-conditioned stack takes only the last two."""
    kind = draw(st.sampled_from(["dense", "triangular", "sparse", "ill-conditioned"]))
    ill = kind == "ill-conditioned"
    rows = draw(st.integers(2 if ill else 1, 8))
    cols = draw(st.integers(rows, 9))
    n = draw(st.integers(1, 6))
    if ill:
        stack = _ill_conditioned(draw, rows, cols, n)
    else:
        values = st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False)
        stack = np.array(draw(st.lists(values, min_size=n * rows * cols, max_size=n * rows * cols)))
        stack = stack.reshape(n, rows, cols)
    stack *= 10.0 ** draw(st.integers(-3, 3))
    if kind in ("triangular", "sparse"):
        stack *= np.array(draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)
    if kind == "triangular":
        stack = np.triu(stack, 1) + draw(st.sampled_from([0.5, 1.0, 3.0])) * np.eye(rows, cols)
    for i in range(n):
        if rows > 1 and not ill and draw(st.booleans()):  # the last row near a multiple of the first
            nudge = draw(st.sampled_from([0.0, 1e-12, 1e-7]))
            stack[i, -1] = draw(st.floats(-4.0, 4.0)) * stack[i, 0] + nudge * stack[i, -1]
    lam = np.linalg.eigvalsh(stack @ stack.transpose(0, 2, 1))[:, 0]
    sigma = np.linalg.svd(stack, compute_uv=False)[:, -1]
    tau = np.empty(n)
    for i in range(n):
        kind = draw(st.sampled_from(["near", "sigma"] if ill else ["zero", "share", "near", "sigma"]))
        if kind == "share":
            tau[i] = draw(st.floats(0.0, 1.0)) * (stack[i] ** 2).sum()
        elif kind == "sigma":
            e, delta = _budget(np.trace(stack[i] @ stack[i].T), rows, cols)
            tau[i] = (sigma[i] * (1.0 + draw(st.floats(-1e-6, 1e-6))) + delta) ** 2 + e
        else:
            tau[i] = 0.0 if kind == "zero" else max(0.0, lam[i] * (1.0 + draw(st.floats(-1e-6, 1e-6))))
    return stack, tau


@given(st.one_of(_mixed_stacks(), _shifted_grams().map(lambda case: (case[0], {}))))
@settings(max_examples=300, deadline=None)
def test_screened_stacks_keep_the_svd_contract(case):
    """With every dense stack screened (SCREEN_MIN = 1), a stack, mixed or
    of _shifted_grams (ill-conditioned ones among them), keeps the
    StackRanks contract against one SVD per matrix; the stack is not
    written, and a non-finite entry outside the errors is refused."""
    stack, errors = case
    if any(i not in errors and not np.isfinite(m).all() for i, m in enumerate(stack)):
        with pytest.raises(ValueError, match="finite"):
            stack_ranks(stack, DEFAULT_TOL, errors)
        return
    before = stack.copy()
    seen = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(jets_module, "SCREEN_MIN", 1)
        _recording_svd(m, seen)
        r = stack_ranks(stack, DEFAULT_TOL, errors)
    assert np.array_equal(stack, before, equal_nan=True)
    _assert_svd_contract(r, stack, errors, seen)


@st.composite
def _diagonal_stacks(draw):
    """A stack of diagonal rows x cols matrices, square or rectangular, held
    compact: its pattern may leave diagonal places not held (+0.0 in every
    matrix) and may hold entries off the diagonal that are the constant 0
    of either sign, as a compiled jet's -0.0 constants are. Its diagonal
    entries include +-0.0, faulted points hold nan or inf, and at times
    dense matrices are mixed in, with every entry held and the pattern
    letting each be nonzero. Returns the JetStack, its dense matrices,
    finite at the faulted points too, and the errors."""
    rows, cols = draw(st.sampled_from(_SHAPES + [(3, 1), (4, 2)]))
    n = draw(st.integers(1, 12))
    eye = np.eye(rows, cols, dtype=bool)
    mixed = rows * cols > 1 and draw(st.booleans())
    held = np.array(draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)
    if mixed:
        held |= ~eye
    stack = np.zeros((n, rows, cols))
    k, off = min(rows, cols), rows * cols - min(rows, cols)
    stack[:, eye] = np.array(draw(st.lists(_ENTRIES, min_size=n * k, max_size=n * k))).reshape(n, k)
    stack[:, held & ~eye] = draw(st.sampled_from([0.0, -0.0]))
    for i in range(n):
        if mixed and draw(st.booleans()):
            stack[i][~eye] = draw(st.lists(_ENTRIES, min_size=off, max_size=off))
    stack[:, ~held] = 0.0
    errors = {i: EvalError("overflow") for i in draw(st.sets(st.integers(0, n - 1), max_size=3))}
    values = stack.reshape(n, -1)[:, held.reshape(-1)].T.copy()  # entry-major, as a tape holds it
    values[:, list(errors)] = draw(st.sampled_from([np.nan, np.inf]))
    nonzero = held if mixed else held & eye
    return jets_module.JetStack(values, jets_module.Pattern(nonzero, held)), stack, errors


def _twins_of_a_candidate():
    """Twelve 1 x 3 matrices, zero but for entry (0, 2): 1 at matrices 0
    and 5, 2 at 7, 9 and 11. With SCREEN_MIN = 1, pass A's four candidates
    are 0, 5, 7 and 9, and pass B clears 11, the twin of 7 and 9, with a
    bound just above 1."""
    dense = np.zeros((12, 1, 3))
    dense[[0, 5], 0, 2], dense[[7, 9, 11], 0, 2] = 1.0, 2.0
    every = np.ones((1, 3), dtype=bool)
    return jets_module.JetStack(dense.reshape(12, 3).T.copy(), jets_module.Pattern(every, every)), dense, {}


@given(_diagonal_stacks(), st.sampled_from([1, 128]))
@example(_twins_of_a_candidate(), 1)
@settings(max_examples=300, deadline=None)
def test_diagonal_matrices_are_ranked_from_their_vectors(case, screen_min):
    """A compact stack of diagonal matrices, or one of diagonal and dense
    matrices, keeps the StackRanks contract against the sorted-|diagonal|
    reference of _own_svd: rank, sigma_min, full_rank and valid bit for bit
    at every diagonal matrix, and LAPACK sees none of them. A stack whose
    pattern lets nothing off the diagonal be nonzero makes no LAPACK call
    at all."""
    stack, dense, errors = case
    n, rows, cols = dense.shape
    off = ~np.eye(rows, cols, dtype=bool)
    seen = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(jets_module, "SCREEN_MIN", screen_min)
        _recording_svd(m, seen)
        r = jets_module._stack_ranks(stack, DEFAULT_TOL, errors)
    _assert_svd_contract(r, dense, errors, seen=seen)
    for i in set(range(n)) - set(errors):
        if not dense[i][off].any():
            assert dense[i].tobytes() not in seen
            sigma = _own_svd(dense[i])
            rank = np.count_nonzero(sigma > DEFAULT_TOL * max(1.0, sigma[0]))
            want = (rank, rank == rows, float(sigma[-1]).hex())
            assert (r.rank[i], r.full_rank[i], float(r.sigma_min[i]).hex()) == want
    assert seen == [] or stack.pattern.nonzero[off].any()


@st.composite
def _stacks_with_a_least(draw):
    """A stack, mixed or of _shifted_grams, its errors, which name every
    point with an entry that is not finite, and a least b drawn around the
    stack's own sigma_min: one valid matrix's sigma_min, exactly, an ulp to
    either side, within a relative 1e-6 of it or 10^-3 to 10^3 times it; or
    0 or inf."""
    stack, errors = draw(st.one_of(_mixed_stacks(), _shifted_grams().map(lambda case: (case[0], {}))))
    errors.update((i, EvalError("overflow")) for i, m in enumerate(stack) if not np.isfinite(m).all())
    own = [_own_svd(m)[-1] for i, m in enumerate(stack) if i not in errors]
    least = draw(st.sampled_from(own)) if own else 0.0
    kind = draw(st.sampled_from(["exact", "ulp", "near", "scaled", "zero", "inf"]))
    if kind == "ulp":
        least = float(np.nextafter(least, draw(st.sampled_from([0.0, math.inf]))))
    elif kind == "near":
        least *= 1.0 + draw(st.floats(-1e-6, 1e-6))
    elif kind == "scaled":
        least *= 10.0 ** draw(st.floats(-3.0, 3.0))
    elif kind != "exact":
        least = 0.0 if kind == "zero" else math.inf
    return stack, errors, least


@given(_stacks_with_a_least())
@example((np.array([[[0.0, 0.0, 1e300]], [[0.0, 0.0, 1e-300]]]), {}, 1e300))
@settings(max_examples=300, deadline=None)
def test_a_least_leaves_every_matrix_at_or_below_it_to_the_svd(case):
    """With every dense stack screened (SCREEN_MIN = 1) against a least b, as
    a check ranks each chunk after its first: every valid matrix whose SVD's
    sigma_min is at most b keeps the SVD's bits, every other one has the
    SVD's rank and a sigma_min in (b, the SVD's], and the stack is not
    written. A least far beyond the Gram range, whose shift overflows,
    clears nothing and raises no warning."""
    stack, errors, least = case
    n, rows, cols = stack.shape
    before = stack.copy()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(jets_module, "SCREEN_MIN", 1)
        r = stack_ranks(stack, DEFAULT_TOL, errors, least=least)
    assert np.array_equal(stack, before, equal_nan=True)
    assert r.reasons == {i: str(exc) for i, exc in errors.items()}
    assert r.valid.tolist() == [i not in errors for i in range(n)]
    for i in np.flatnonzero(r.valid).tolist():
        sigma = _own_svd(stack[i])
        rank = int(np.count_nonzero(sigma > DEFAULT_TOL * max(1.0, sigma[0])))
        assert (r.rank[i], r.full_rank[i]) == (rank, rank == rows)
        if sigma[-1] <= least:
            assert float(r.sigma_min[i]).hex() == float(sigma[-1]).hex()
        else:
            assert least < r.sigma_min[i] <= sigma[-1]


def _contact_2_grams():
    """contact-2's 14 x 14 D2 at four sample points, a shape the strategy
    does not reach, with tau zero, half of ||A||_F^2 and lambda_min(A.A^T)
    times 1 - 1e-6 and 1 + 1e-6."""
    fix = fixture_parts("contact-2")
    jet = CompiledJet([d2_exprs(fix.frame, fix.free_map)], fix.chart)
    stack = jet.at(sample_points(fix.chart, 4, 3))[0][0].dense()
    lam = np.linalg.eigvalsh(stack @ stack.transpose(0, 2, 1))[:, 0]
    return stack, np.array([0.0, 0.5 * (stack[1] ** 2).sum(), lam[2] * (1.0 - 1e-6), lam[3] * (1.0 + 1e-6)])


@given(_shifted_grams())
@example(_contact_2_grams())
@settings(max_examples=300, deadline=None)
def test_a_shifted_cholesky_certifies_sigma_min(case):
    """The screen's certificate, for every A whose ||A||_F lies in the Gram
    range: where the factorization of A.A^T - tau.I has positive pivots, the
    SVD's sigma_min^2 exceeds tau - err, err = 8 (rows + cols)^2 eps
    ||A||_F^2, and in sigma, as the screen reads it, sigma_min + delta >
    sqrt(tau - e) (see _budget); and where lambda_min(A.A^T) lies farther
    than err from tau, the pivots are positive exactly when LAPACK's
    Cholesky of A.A^T - tau.I succeeds."""
    stack, tau = case
    n, rows, cols = stack.shape
    chol = jets_module.Pattern((stack != 0).any(axis=0)).plan
    positive = chol.least_pivot(chol.gram(_vectors(stack)), tau) > 0
    for a, shift, certified in zip(stack, tau, positive):
        gram = a @ a.T
        if not jets_module.GRAM_RANGE**-2 <= np.trace(gram) <= jets_module.GRAM_RANGE**2:
            continue
        err = 8 * (rows + cols) ** 2 * np.finfo(float).eps * np.trace(gram)
        e, delta = _budget(np.trace(gram), rows, cols)
        if certified:
            sigma = np.linalg.svd(a, compute_uv=False)[-1]
            assert sigma**2 > shift - err
            assert shift <= e or sigma + delta > np.sqrt(shift - e)
        if abs(np.linalg.eigvalsh(gram)[0] - shift) > err:
            try:
                np.linalg.cholesky(gram - shift * np.eye(rows))
                factors = True
            except np.linalg.LinAlgError:
                factors = False
            assert certified == factors


def _vectors(stack):
    """The (rows * cols, n) vectors of a dense stack's entries, a view."""
    return stack.reshape(len(stack), -1).T


def _entry_major(stack):
    """A copy of an (n, rows, cols) stack whose entries' (n,)-vectors are
    contiguous, as JetStack.dense gives them."""
    n, rows, cols = stack.shape
    return np.ascontiguousarray(_vectors(stack)).T.reshape(n, rows, cols)


@st.composite
def _patterned_stacks(draw):
    """A stack of rows x cols matrices that are zero, of either sign,
    outside a random pattern, often with rows 0 and 1 sharing no column,
    with entries that may be -0.0, may underflow in A.A^T or may overflow it
    (||A||_F beyond GRAM_RANGE), C-ordered or entry-major; and its pattern."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    pattern = np.array(draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)
    if rows > 1 and draw(st.booleans()):
        pattern[1] &= ~pattern[0]
    n = draw(st.integers(1, 5))
    values = st.one_of(st.sampled_from([-0.0, 1e-300, -1e-200, 1e300, -1e250]), st.floats(-4.0, 4.0))
    stack = np.array(draw(st.lists(values, min_size=n * rows * cols, max_size=n * rows * cols)))
    stack = stack.reshape(n, rows, cols)
    stack[:, ~pattern] = draw(st.sampled_from([0.0, -0.0]))
    return (_entry_major(stack) if draw(st.booleans()) else stack), pattern


def _fill_between_strangers():
    """Rows 0-2-1-3-0 share a column in turn: eliminating row 0 first joins
    rows 2 and 3, which share none, so the plan has a vector for them."""
    pattern = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [1, 1, 0, 0], [0, 0, 1, 1]], dtype=bool)
    stack = np.random.default_rng(2).uniform(-2.0, 2.0, (3, 4, 4)) * pattern
    return _entry_major(stack), pattern


@given(_patterned_stacks())
@example(_fill_between_strangers())
@settings(max_examples=200, deadline=None)
def test_the_pattern_gram_keeps_the_dense_bound(case):
    """Each vector of _GramCholesky.gram, formed from the pattern alone,
    lies within gamma_cols (|A|.|A|^T)_ij of the exact (A.A^T)_ij (and of
    the dense product, a @ a.T), as _screen's proof needs, underflow aside;
    it is exactly 0 where rows i and j share no column of the pattern, and
    its bits do not depend on the stack's layout: C-ordered, entry-major or
    compact, holding the pattern's entries and every other column, whose
    vectors are found by the pattern's index. A matrix whose ||A||_F lies
    beyond GRAM_RANGE has an inf on its Gram diagonal, and stack_ranks,
    screening every stack, hands it to the SVD if it is dense."""
    stack, pattern = case
    n, rows, cols = stack.shape
    chol = jets_module.Pattern(pattern).plan
    gram = chol.gram(_vectors(stack))
    assert gram.tobytes() == chol.gram(_vectors(np.ascontiguousarray(stack))).tobytes()
    assert gram.tobytes() == chol.gram(_vectors(_entry_major(stack))).tobytes()
    held = pattern.copy()
    held[:, ::2] = True
    compact = jets_module.Pattern(pattern, held)
    assert gram.tobytes() == compact.plan.gram(_vectors(stack)[compact.layout.positions]).tobytes()
    u = Fraction(np.finfo(float).eps) / 2
    gamma, tiny, big = cols * u / (1 - cols * u), cols * Fraction(2.0**-1074), Fraction(np.finfo(float).max)
    for v, (i, j) in enumerate(chol.slots):
        if not (pattern[i] & pattern[j]).any():
            assert (gram[v] == 0).all()
        for a, g in zip(stack, gram[v].tolist()):
            terms = [Fraction(x) * Fraction(y) for x, y in zip(a[i].tolist(), a[j].tolist())]
            size = sum(abs(t) for t in terms)
            if math.isfinite(g):
                assert abs(Fraction(g) - sum(terms)) <= gamma * size + tiny
                with np.errstate(over="ignore", invalid="ignore"):
                    product = (a @ a.T)[i, j]
                assert not math.isfinite(product) or abs(g - product) <= 2.01 * float(gamma) * float(size) + 1e-300
            else:
                assert size * (1 + gamma) >= big
    beyond = np.abs(stack).max(axis=(1, 2)) > jets_module.GRAM_RANGE  # here a square overflows
    assert (gram[chol.diag].sum(axis=0) == np.inf)[beyond].all()
    seen = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(jets_module, "SCREEN_MIN", 1)
        _recording_svd(m, seen)
        r = stack_ranks(stack, pattern=jets_module.Pattern(pattern))
    dense = [stack[i][~np.eye(rows, cols, dtype=bool)].any() for i in range(n)]
    assert all(stack[i].tobytes() in seen for i in np.flatnonzero(beyond & dense))
    _assert_svd_contract(r, stack, {}, seen=seen)


def test_stack_ranks_do_not_depend_on_the_layout():
    """compile_batch stores its values entry-major, so each expression's
    values and each vector of a CompiledJet.at stack are one contiguous
    vector, on a chunk that faults too; and a compact stack, its dense
    matrices and their C-ordered copy get the same StackRanks, bit for bit,
    with the screen and the faulted points' copy."""
    frame = standard_frame(PLANE)
    f = SmoothMap(PLANE, (parse("x + y^2"), parse("y/(x - 0.5)")))
    jet = CompiledJet([d2_exprs(frame, compose(monomial_free_map(2), f))], PLANE)
    points = sample_points(PLANE, 400, 5)
    values, _ = expr_module.compile_batch(f.components, PLANE.coords)(points)
    assert all(values[:, j].flags.c_contiguous for j in range(2))
    pattern = jet.patterns[0]
    assert pattern.layout.screens and not pattern.full
    for faults in ([], [3, 200]):
        points[faults, 0] = 0.5
        (stack,), errors = jet.at(points)
        assert sorted(errors) == faults
        assert all(vector.flags.c_contiguous for vector in stack.values)
        values, _ = expr_module.compile_batch(f.components, PLANE.coords)(points)
        assert values[:, 1].flags.c_contiguous
        errors = {i: exc for i, (_, exc) in errors.items()}
        stack.values[pattern.index[4][pattern.held[4]], 7] = 0.0  # rank deficient: left to the SVD
        dense = stack.dense()
        ranks = [jets_module._stack_ranks(stack, DEFAULT_TOL, errors)]
        for s in (dense, np.ascontiguousarray(dense)):
            ranks.append(stack_ranks(s, DEFAULT_TOL, errors, pattern=jets_module.Pattern(pattern.nonzero)))
        for r in ranks[1:]:
            for name in ("rank", "full_rank", "valid"):
                assert np.array_equal(getattr(ranks[0], name), getattr(r, name))
            assert ranks[0].sigma_min.tobytes() == r.sigma_min.tobytes()
            assert ranks[0].reasons == r.reasons == {i: str(exc) for i, exc in errors.items()}
        assert not ranks[0].full_rank[7]


@pytest.mark.parametrize("name", ["contact-1", "contact-2", "integrable-torus-3"])
def test_compact_stacks_keep_the_bits_of_dense_ones(name):
    """Construct mode's D1 of f and D2 of F o f, held compact, made dense are
    bit for bit the stacks of a tape that computes every entry; so the SVD,
    whose loops numpy picks at run time, gives the same bits for both, and
    the compact stack's StackRanks are the dense one's, bit for bit, under
    the same pattern."""
    fix = fixture_parts(name)
    jets = [d1_exprs(fix.frame, fix.immersion), d2_exprs(fix.frame, fix.free_map)]
    points = sample_points(fix.chart, 2000, 1)
    jet = CompiledJet(jets, fix.chart)
    (compact, errors), (dense, dense_errors) = jet.at(points), dense_tape(jets, fix.chart, points)
    assert not errors and not dense_errors and not jet.patterns[1].full
    for stack, want, pattern in zip(compact, dense, jet.patterns):
        got = stack.dense()
        assert got.tobytes() == want.tobytes() and got.strides == want.strides
        assert np.linalg.svd(got, compute_uv=False).tobytes() == np.linalg.svd(want, compute_uv=False).tobytes()
        r = jets_module._stack_ranks(stack)
        w = stack_ranks(want, pattern=jets_module.Pattern(pattern.nonzero))
        for field in ("rank", "sigma_min", "full_rank", "valid"):
            assert getattr(r, field).tobytes() == getattr(w, field).tobytes()


@pytest.mark.parametrize("deficient", ["zero row", "repeated row"])
def test_a_mostly_deficient_stack_goes_to_the_svd_whole(deficient, monkeypatch):
    """A stack whose matrices share a zero row, or one whose first pass
    clears fewer than half of it, gets no candidates: LAPACK sees each
    matrix once."""
    stack = np.random.default_rng(11).uniform(-2.0, 2.0, (jets_module.SCREEN_MIN, 5, 5))
    if deficient == "zero row":
        stack[:, 4] = 0.0
    else:
        stack[: len(stack) // 2 + 1, 4] = stack[: len(stack) // 2 + 1, 0]
    seen = []
    _recording_svd(monkeypatch, seen)
    r = stack_ranks(stack)
    assert sorted(seen) == sorted(m.tobytes() for m in stack)
    _assert_svd_contract(r, stack, {}, seen=seen)


def test_svd_fallback_covers_the_dense_matrices_only(monkeypatch):
    """When the batched SVD of the dense matrices fails, each dense matrix is
    redone on its own, a failure there is that matrix's reason, and the
    diagonal matrices are never handed to LAPACK."""
    svd = np.linalg.svd
    calls = []

    def flaky(a, *args, **kwargs):
        calls.append(a.copy())
        if a.ndim == 3 or a[0, 1] == 7.0:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    stack = np.array([np.diag([2.0, -3.0]), [[1.0, 2.0], [3.0, 4.0]], np.eye(2), [[1.0, 7.0], [0.0, 1.0]]])
    monkeypatch.setattr(np.linalg, "svd", flaky)
    r = stack_ranks(stack)
    assert r.reasons == {3: "SVD did not converge"}
    assert r.valid.tolist() == [True, True, True, False]
    assert [c.shape for c in calls] == [(2, 2, 2), (2, 2), (2, 2)]
    assert np.array_equal(calls[0], stack[[1, 3]])
    assert (r.sigma_min[0], r.sigma_min[2]) == (2.0, 1.0)
    assert r.sigma_min[1] == svd(stack[1], compute_uv=False)[-1]


def test_a_failed_svd_leaves_no_screen_estimate(monkeypatch):
    """The least matrix of a screened stack fails in the SVD: the next least
    may be one the screen cleared, so the stack is ranked again at an
    infinite least, where every dense matrix gets its own SVD."""
    svd = np.linalg.svd
    rng = np.random.default_rng(5)
    stack = rng.uniform(-2.0, 2.0, (jets_module.SCREEN_MIN, 3, 3))
    least = int(np.argmin(svd(stack, compute_uv=False)[:, -1]))
    calls = []

    def flaky(a, *args, **kwargs):
        calls.append(a.shape)
        if a.ndim == 3 or np.array_equal(a, stack[least]):
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", flaky)
    r = stack_ranks(stack)
    assert r.reasons == {least: "SVD did not converge"}
    assert calls.count((3, 3)) > len(stack)  # the screen's leftovers, then all of them
    own = svd(stack, compute_uv=False)[:, -1]
    assert np.array_equal(r.sigma_min[r.valid], own[r.valid])


def test_no_gallery_d1_stack_reaches_lapack(monkeypatch):
    """Every gallery D1 is diagonal (1 x 1 on the plane, diag(e^{2p}) on the
    tori, I for contact), so a construct check hands LAPACK only D2 stacks."""
    svd = np.linalg.svd
    shapes = []

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    for name in gallery.list_fixtures():
        fix = fixture_parts(name)
        if fix.immersion is None:
            continue
        shapes.clear()
        assert run_fixture(gallery.fixture(name), samples=600, seed=1).verdict == "pass"
        k = fix.frame.k
        assert shapes, name
        assert {shape[1:] for shape in shapes} == {(k + s(k), fix.free_map.q)}, name


def test_lapack_sees_about_one_contact_2_jet_per_chunk(monkeypatch):
    """The Gram screen clears every contact-2 D2 but the first chunk's few
    candidates for its least and, in each later chunk, the few below the
    least so far, so LAPACK sees at most 2% of the 14 x 14 jets."""
    seen = []
    _recording_svd(monkeypatch, seen)
    assert run_fixture(gallery.fixture("contact-2"), samples=10000, seed=1).verdict == "pass"
    assert 0 < len(seen) <= 10000 // 50


def test_lapack_sees_at_most_2_percent_of_integrable_torus_3(monkeypatch):
    """The certificate in sigma clears a 9 x 9 D2 with ||A||_F / sigma_min up
    to about 10^7, so LAPACK sees at most 2% of integrable-torus-3's jets at
    10^4 samples: the candidates and the few worse conditioned."""
    seen = []
    _recording_svd(monkeypatch, seen)
    assert run_fixture(gallery.fixture("integrable-torus-3"), samples=10000, seed=1).verdict == "pass"
    assert 0 < len(seen) <= 10000 // 50


def test_a_jet_keeps_its_screen_plan(monkeypatch):
    """contact-2's D2 chunks share one zero pattern, so a check at 10^4
    samples (5 chunks) builds one elimination plan, kept with the compiled
    jet, and a second check of the same manifest builds none."""
    fix = parse_manifest_text(gallery.show("contact-2"))  # a fresh jet
    built = []

    class Counted(jets_module._GramCholesky):
        def __init__(self, pattern):
            built.append(pattern)
            super().__init__(pattern)

    monkeypatch.setattr(jets_module, "_GramCholesky", Counted)
    assert run_fixture(fix, samples=10000, seed=1).verdict == "pass"
    assert len(built) == 1
    assert run_fixture(fix, samples=10000, seed=1).verdict == "pass"
    assert len(built) == 1


def test_a_wider_pattern_keeps_every_verdict():
    """A stack ranked with a pattern that admits more nonzero entries than
    its own, as a jet's pattern does for a chunk where an entry happens to
    vanish, gets the verdicts and the least sigma_min of its own pattern; the
    pattern builds its plan once, for the first stack it screens."""
    rng = np.random.default_rng(3)
    dense = rng.uniform(-2.0, 2.0, (jets_module.SCREEN_MIN, 6, 6))
    wide = jets_module.Pattern(np.ones((6, 6), dtype=bool))
    assert "plan" not in vars(wide)
    plans = []
    for stack in (np.triu(dense, 1) + np.eye(6), dense, np.triu(dense, 1) + np.eye(6)):
        shared, own = stack_ranks(stack, pattern=wide), stack_ranks(stack)
        for name in ("rank", "full_rank", "valid"):
            assert np.array_equal(getattr(shared, name), getattr(own, name))
        assert shared.sigma_min.min().hex() == own.sigma_min.min().hex()
        assert shared.sigma_min.argmin() == own.sigma_min.argmin()
        plans.append(vars(wide).get("plan"))
    assert plans[0] is not None and plans == [plans[0]] * 3


def _gallery_reports(seed):
    return [run_fixture(gallery.fixture(name), 10000, seed).to_json(False) for name in gallery.list_fixtures()]


@pytest.mark.parametrize("seed", [0, 11])
def test_gallery_reports_do_not_depend_on_the_screen(seed, monkeypatch):
    """Every gallery report at 10^4 samples is, bit for bit, the report made
    with every dense matrix handed to the SVD: in each check's own chunks,
    and in chunks of CHUNK points (CHUNK_BYTES = 0), 20 a check, each after
    the first screened against the check's least so far."""
    screened = _gallery_reports(seed)
    monkeypatch.setattr(checks_module, "CHUNK_BYTES", 0)
    assert 10000 // checks_module.CHUNK >= 5
    assert _gallery_reports(seed) == screened
    monkeypatch.setattr(jets_module, "SCREEN_MIN", math.inf)
    assert _gallery_reports(seed) == screened


def _counted_screens(monkeypatch):
    """Patch _screen and _GramCholesky.least_pivot to record, per screened
    stack, whether it had a least, its m matrices, its least_pivot calls and
    the matrices they factored."""
    screen, least_pivot = jets_module._screen, jets_module._GramCholesky.least_pivot
    screens = []

    def counted_screen(stack, *args):
        screens.append([args[-1] is not None, len(stack), 0, 0])
        return screen(stack, *args)

    def counted_pivot(self, v, shift):
        screens[-1][2:] = screens[-1][2] + 1, screens[-1][3] + v.shape[1]
        return least_pivot(self, v, shift)

    monkeypatch.setattr(jets_module, "_screen", counted_screen)
    monkeypatch.setattr(jets_module._GramCholesky, "least_pivot", counted_pivot)
    return screens


def test_a_check_factors_each_chunk_after_its_first_once(monkeypatch):
    """A check's first screened chunk of m matrices factors the Grams of at
    most PREFIX of them for its own least, then all m once; each later one,
    screened against the check's least so far, factors its m once. So a
    gallery check of c screened chunks makes c + 1 factorizations, not 2c,
    in its own chunks and in chunks of CHUNK points."""
    screens = _counted_screens(monkeypatch)
    for chunk_bytes in (checks_module.CHUNK_BYTES, 0):
        monkeypatch.setattr(checks_module, "CHUNK_BYTES", chunk_bytes)
        counts = {}
        for name in gallery.list_fixtures():
            screens.clear()
            assert run_fixture(gallery.fixture(name), 10000, 1).verdict == "pass"
            counts[name] = len(screens), sum(calls for _, _, calls, _ in screens)
            first, *later = screens or [(False, 0, 0, 0)]
            assert not first[0] and all(least for least, *_ in later), name
            assert first[3] <= first[1] + jets_module.PREFIX and all(m == f for _, m, _, f in later), name
        screened = {name: (c, f) for name, (c, f) in counts.items() if c}
        assert len(screened) == 9 and all(f == c + 1 for c, f in screened.values()), counts
        assert chunk_bytes or min(c for c, _ in screened.values()) >= 5


@pytest.mark.parametrize("prefix", ["cleared", "rank deficient", "beyond the Gram range"])
def test_a_first_chunk_finds_its_least_past_its_prefix(prefix, monkeypatch):
    """A first chunk, with no least yet, of 3 PREFIX dense matrices, a few
    past the first PREFIX with a smaller sigma_min than any of those: the
    least keeps the SVD's bits, and every cleared matrix lies above it. Pass
    A looks for candidates among the first PREFIX matrices only, so the
    least lies past them, and pass B clears only matrices above the
    candidates' least. A few of the prefix may be matrices that the screen
    cannot clear: rank deficient, and then the least, or beyond the Gram
    range. The screen factors at most m + PREFIX Grams."""
    rng = np.random.default_rng(13)
    head = jets_module.PREFIX
    stack = rng.uniform(-2.0, 2.0, (3 * head, 3, 3))
    stack[head + rng.choice(2 * head, head // 20, replace=False)] *= 1e-3  # smaller sigma_min than the prefix's
    odd = np.flatnonzero(rng.random(head) < 0.05)
    if prefix == "rank deficient":
        stack[odd, 2] = stack[odd, 0]
    elif prefix == "beyond the Gram range":
        stack[odd] *= 1e200
    sigma = np.linalg.svd(stack, compute_uv=False)[:, -1]
    least = min(range(len(stack)), key=lambda i: (sigma[i], i))
    assert (least < head) == (prefix == "rank deficient")
    seen = []
    with monkeypatch.context() as m:
        screens = _counted_screens(m)
        _recording_svd(m, seen)
        r = stack_ranks(stack)
    _assert_svd_contract(r, stack, {}, seen)
    assert float(r.sigma_min[least]).hex() == float(sigma[least]).hex()
    ((had_least, screened, _, factored),) = screens
    assert not had_least and screened == len(stack) and factored <= screened + head
    assert len(seen) < len(stack) // 4


@pytest.mark.parametrize("failing", [1, 0], ids=["second", "first"])
def test_a_least_ranks_each_jet_once_where_an_svd_fails(failing, monkeypatch):
    """Of two jets compiled together, given a least, as a check's later
    chunks are, one's SVD fails at the point of the other's least
    sigma_min: each jet is ranked once, and among the points both rank,
    every sigma_min at or below the least keeps the SVD's bits, and every
    other lies in (least, the SVD's]."""
    rng = np.random.default_rng(7)
    stacks = list(rng.uniform(-2.0, 2.0, (2, 512, 2, 2)))  # dense, so screened
    own = np.linalg.svd(stacks, compute_uv=False)[..., -1]
    worst = int(np.argmin(own[1 - failing]))
    stacks[failing][worst] = [[1.0, 7.0], [1.0, 7.0]]  # rank 1, so the screen leaves it to the SVD
    least = float(np.sort(own[1 - failing])[10])
    svd, rank = np.linalg.svd, jets_module._stack_ranks
    ranked = []

    def flaky(a, *args, **kwargs):
        if (a[..., 0, 1] == 7.0).any():
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    def counted(stack, *args):
        ranked.append(stack)
        return rank(stack, *args)

    rows = [[parse("x"), parse("y")], [parse("y"), parse("x")]]
    jet = CompiledJet([rows, rows], PLANE)
    compact = [jets_module.JetStack(_vectors(stack), pattern) for stack, pattern in zip(stacks, jet.patterns)]
    monkeypatch.setattr(CompiledJet, "at", lambda self, points: (compact, {}))
    monkeypatch.setattr(np.linalg, "svd", flaky)
    monkeypatch.setattr(jets_module, "_stack_ranks", counted)
    ranks = jet.ranks(np.zeros((512, 2)), least=least)
    assert ranked == compact
    assert ranks[failing].reasons == {worst: "SVD did not converge"} and not ranks[1 - failing].reasons
    for r, sigma in zip(ranks, own):
        for i in np.flatnonzero(ranks[failing].valid).tolist():
            if sigma[i] <= least:
                assert float(r.sigma_min[i]).hex() == float(sigma[i]).hex()
            else:
                assert least < r.sigma_min[i] <= sigma[i]


@pytest.mark.parametrize("failing", [1, 0], ids=["second", "first"])
def test_a_jet_keeps_its_least_among_the_points_the_other_ranks(failing, monkeypatch):
    """Of two jets compiled together, as construct mode's D1 of f and D2 of
    F o f are, one has no verdict at the point of the other's least sigma_min
    (its SVD fails there): the other keeps its least exact among the points
    both rank, so that least is the next least, with the SVD's value, as with
    no screen. Both jets are ranked again at an infinite least, where every
    sigma_min is exact."""
    rng = np.random.default_rng(7)
    stacks = list(rng.uniform(-2.0, 2.0, (2, 512, 2, 2)))  # dense, so screened
    other = stacks[1 - failing]
    sigma = np.linalg.svd(other, compute_uv=False)[:, -1]
    least, after = np.argsort(sigma)[:2].tolist()
    stacks[failing][least] = [[1.0, 7.0], [1.0, 7.0]]  # rank 1, so the screen leaves it to the SVD
    svd = np.linalg.svd

    def flaky(a, *args, **kwargs):
        if (a[..., 0, 1] == 7.0).any():
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    rows = [[parse("x"), parse("y")], [parse("y"), parse("x")]]
    jet = CompiledJet([rows, rows], PLANE)
    compact = [jets_module.JetStack(_vectors(stack), pattern) for stack, pattern in zip(stacks, jet.patterns)]
    monkeypatch.setattr(CompiledJet, "at", lambda self, points: (compact, {}))
    monkeypatch.setattr(np.linalg, "svd", flaky)
    ranks = jet.ranks(np.zeros((512, 2)))
    assert ranks[failing].reasons == {least: "SVD did not converge"}
    kept = np.flatnonzero(ranks[failing].valid)
    assert kept[np.argmin(ranks[1 - failing].sigma_min[kept])] == after
    assert float(ranks[1 - failing].sigma_min[after]).hex() == float(sigma[after]).hex()


@pytest.mark.parametrize("failing", [1, 0], ids=["second", "first"])
def test_a_failed_svd_ranks_each_jet_at_most_twice(failing, monkeypatch):
    """The two jets above, one's SVD failing at the other's least: each jet
    is ranked once without a least and once at an infinite least, which
    sends its matrices straight to the SVD, so the screen never factors at
    an infinite shift."""
    rng = np.random.default_rng(7)
    stacks = list(rng.uniform(-2.0, 2.0, (2, 512, 2, 2)))
    sigma = np.linalg.svd(stacks[1 - failing], compute_uv=False)[:, -1]
    stacks[failing][int(np.argmin(sigma))] = [[1.0, 7.0], [1.0, 7.0]]
    svd, rank, screen = np.linalg.svd, jets_module._stack_ranks, jets_module._screen
    least_pivot = jets_module._GramCholesky.least_pivot
    ranked, screened, shifts = [], [], []

    def flaky(a, *args, **kwargs):
        if (a[..., 0, 1] == 7.0).any():
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    def counted(stack, tol, errors, least):
        ranked.append((stack, least))
        return rank(stack, tol, errors, least)

    def counted_screen(*args):
        screened.append(args[-1])
        return screen(*args)

    def counted_pivot(self, v, shift):
        shifts.append(shift)
        return least_pivot(self, v, shift)

    rows = [[parse("x"), parse("y")], [parse("y"), parse("x")]]
    jet = CompiledJet([rows, rows], PLANE)
    compact = [jets_module.JetStack(_vectors(stack), pattern) for stack, pattern in zip(stacks, jet.patterns)]
    monkeypatch.setattr(CompiledJet, "at", lambda self, points: (compact, {}))
    monkeypatch.setattr(np.linalg, "svd", flaky)
    monkeypatch.setattr(jets_module, "_stack_ranks", counted)
    monkeypatch.setattr(jets_module, "_screen", counted_screen)
    monkeypatch.setattr(jets_module._GramCholesky, "least_pivot", counted_pivot)
    ranks = jet.ranks(np.zeros((512, 2)))
    assert [(stack is compact[0], least) for stack, least in ranked] == [
        (True, None), (False, None), (True, np.inf), (False, np.inf)
    ]
    assert screened == [None, None]
    assert len(shifts) == 4 and all(np.isfinite(shift).all() for shift in shifts)
    assert ranks[failing].reasons == {int(np.argmin(sigma)): "SVD did not converge"}


class TestPredicates:
    def test_planar_immersion_everywhere(self):
        xi = VectorField(PLANE, (parse("2*y"), parse("1 - y^2")))
        frame = Frame(PLANE, (xi,))
        g = SmoothMap(PLANE, (parse("y*exp(x)"),))
        for point in sample_points(PLANE, samples=200, seed=1):
            assert is_immersion_at(frame, g, point)

    def test_planar_free_by_composition(self):
        xi = VectorField(PLANE, (parse("2*y"), parse("1 - y^2")))
        frame = Frame(PLANE, (xi,))
        fm = SmoothMap(PLANE, (parse("y*exp(x)"), parse("y^2*exp(2*x)")))
        for point in sample_points(PLANE, samples=200, seed=2):
            assert is_free_at(frame, fm, point)

    def test_constant_map_is_not_immersion(self):
        frame = standard_frame(LINE)
        f = SmoothMap(LINE, (parse("5"),))
        assert not is_immersion_at(frame, f, (0.1,))

    def test_below_critical_dimension_is_distinguished(self):
        frame = standard_frame(PLANE)
        f = SmoothMap(PLANE, (parse("x"),))
        with pytest.raises(BelowCriticalDimension):
            is_free_at(frame, f, (0.0, 0.0))

    def test_points_outside_the_box_are_refused(self):
        frame = standard_frame(LINE)
        f = SmoothMap(LINE, (parse("x"), parse("x^2")))
        for matrix in (d1_matrix, d2_matrix):
            assert matrix(frame, f, (4.0,)).shape[1] == 2
            with pytest.raises(OutsideDomain):
                matrix(frame, f, (4.5,))
            with pytest.raises(OutsideDomain):
                matrix(frame, f, (-4.0 - 1e-12,))

    def test_pointwise_and_batch_verdicts_agree(self):
        # det D2 = 12 x^2: rank deficient at x = 0 only, which the grid hits
        frame = standard_frame(LINE)
        f = SmoothMap(LINE, (parse("x^2"), parse("x^3")))
        points = np.concatenate([sample_points(LINE, grid=[9]), sample_points(LINE, samples=20, seed=5)])
        report = check_points(frame, f, points, "free")
        failed = {tuple(failure["point"]) for failure in report.failures}
        assert failed == {(0.0,)}
        for point in points.tolist():
            assert is_free_at(frame, f, point) == (tuple(point) not in failed)
        worst = _ranks(d2_matrix(frame, f, report.worst_point))
        assert worst.sigma_min[0] == report.worst_criterion

        # identity mode: the worst point checked alone gives the same residual
        xi = VectorField(PLANE, (parse("2*y"), parse("1 - y^2")))
        planar = Frame(PLANE, (xi,))
        g = SmoothMap(PLANE, (parse("y*exp(x) + x^3/7"),))
        report = check_points(planar, g, sample_points(PLANE, samples=500, seed=6), "identity")
        assert report.verdict == "pass" and report.worst_criterion > 0.0
        alone = check_points(planar, g, [report.worst_point], "identity")
        assert alone.worst_criterion == report.worst_criterion

        # a point where evaluation faults fails, with the batch check's reason
        h = SmoothMap(LINE, (parse("1/x"),))
        report = check_points(frame, h, points, "immersion")
        (failure,) = report.failures
        assert failure["point"] == [0.0]
        assert not is_immersion_at(frame, h, (0.0,))
        assert check_points(frame, h, [(0.0,)], "immersion").failures == [failure]
        assert "division by zero" in failure["reason"]

    def test_square_d1_det_and_sigma_verdicts_agree(self):
        xi = VectorField(PLANE, (parse("2*y"), parse("1 - y^2")))
        frame = Frame(PLANE, (xi,))
        g = SmoothMap(PLANE, (parse("y*exp(x)"),))
        for point in sample_points(PLANE, samples=100, seed=9):
            m = d1_matrix(frame, g, point)
            assert _ranks(m).full_rank[0] == (abs(np.linalg.det(m)) > 1e-9)


_FRAME = standard_frame(PLANE)
_F = SmoothMap(PLANE, (parse("x"), parse("y*exp(x)")))
_FREE = compose(monomial_free_map(2), _F)


@pytest.mark.parametrize(
    "entry",
    [
        lambda p: d1_matrix(_FRAME, _F, p),
        lambda p: d2_matrix(_FRAME, _F, p),
        lambda p: frame_rank_check(_FRAME, p),
        lambda p: is_free_at(_FRAME, _FREE, p),
        lambda p: check_points(_FRAME, _F, [p], "identity"),
    ],
    ids=["d1_matrix", "d2_matrix", "frame_rank_check", "is_free_at", "check_points"],
)
@pytest.mark.parametrize(
    "point, error",
    [((np.inf, 0.0), ValueError), ((np.nan, 0.0), ValueError), ((0.0, 0.0, 0.0), ChartMismatch)],
    ids=["inf", "nan", "wrong-length"],
)
def test_pointwise_entries_refuse_a_bad_point_before_evaluation(entry, point, error, monkeypatch):
    def evaluated(self, points):
        raise AssertionError("the point reached evaluation")

    monkeypatch.setattr(CompiledJet, "at", evaluated)
    with pytest.raises(error):
        entry(point)


def test_frame_mixing_leaves_rank_invariant():
    rng = np.random.default_rng(12)
    frame = contact_frame(1)
    pi = SmoothMap(frame.chart, (parse("x1"), parse("p1")))
    mix = rng.uniform(-2, 2, (2, 2))
    while abs(np.linalg.det(mix)) < 0.1:
        mix = rng.uniform(-2, 2, (2, 2))
    mixed_vectors = []
    for a in range(2):
        comps = []
        for i in range(frame.chart.dim):
            from hfree.expr import Add, Const, Mul, simplify

            e = Add(
                Mul(Const(float(mix[a, 0])), frame.vectors[0].components[i]),
                Mul(Const(float(mix[a, 1])), frame.vectors[1].components[i]),
            )
            comps.append(simplify(e))
        mixed_vectors.append(VectorField(frame.chart, tuple(comps)))
    mixed = Frame(frame.chart, tuple(mixed_vectors))
    for point in sample_points(frame.chart, samples=50, seed=4):
        assert _ranks(d1_matrix(frame, pi, point)).rank == _ranks(d1_matrix(mixed, pi, point)).rank
        fm = SmoothMap(
            frame.chart,
            tuple(parse(src) for src in ("x1", "p1", "x1^2", "x1*p1", "p1^2")),
        )
        assert _ranks(d2_matrix(frame, fm, point)).rank == _ranks(d2_matrix(mixed, fm, point)).rank
