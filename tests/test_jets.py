import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hfree import expr as expr_module, gallery, jets as jets_module
from hfree.expr import Coord, EvalError, Expr, free_vars, parse, substitute
from hfree.checks import check_points, frame_rank_check, is_free_at, is_immersion_at, run_fixture
from hfree.fields import (
    Chart,
    ChartMismatch,
    Frame,
    OutsideDomain,
    SmoothMap,
    VectorField,
    anticommutator,
)
from hfree.jets import (
    DEFAULT_TOL,
    BelowCriticalDimension,
    CompiledJet,
    compiled_d2,
    d1_matrix,
    d2_exprs,
    d2_matrix,
    pair_labels,
    s,
    stack_ranks,
)
from hfree.constructions import compose, monomial_free_map, standard_frame
from hfree.brackets import contact_frame
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
    "name", [n for n in gallery.list_fixtures() if gallery.fixture(n).frame is not None]
)
def test_d2_rows_equal_the_anticommutator(name):
    """d2_exprs builds its anticommutator rows from the first-order rows; each
    entry equals fields.anticommutator's tree."""
    fix = gallery.fixture(name)
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
    fix = gallery.fixture(name)
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


def test_a_compiled_jet_is_built_once_and_lives_as_long_as_its_map(monkeypatch):
    """Repeated checks of one map build its order-2 jet once. The jet is
    memoised weakly on the map, so dropping the map frees it by reference
    counting alone."""
    calls = []
    build = jets_module.d2_exprs
    monkeypatch.setattr(jets_module, "d2_exprs", lambda *a: calls.append(1) or build(*a))
    frame = Frame(PLANE, (VectorField(PLANE, (parse("1"), parse("0"))),))
    f = SmoothMap(PLANE, (parse("x + y"), parse("x^2 + y")))
    for point in [(0.0, 0.0), (1.0, -1.0), (0.5, 1.5)]:
        assert is_free_at(frame, f, point)
    assert calls == [1]
    jet = weakref.ref(compiled_d2(frame, f))
    gc.disable()
    try:
        del f
        assert jet() is None
    finally:
        gc.enable()


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


def test_stack_ranks_matches_a_matrix_by_matrix_svd():
    """The singular values, rank and verdict of each matrix are, bit for
    bit, those of one SVD per matrix (a 1 x 1 matrix is ranked from its
    entry, which LAPACK returns exactly at these magnitudes); an evaluation
    error is its matrix's reason, and that matrix's entries are not read."""
    rng = np.random.default_rng(3)
    for rows, cols in [(1, 1), (2, 3), (3, 2), (5, 5), (9, 9), (14, 14)]:
        stack = rng.uniform(-2.0, 2.0, (40, rows, cols))
        stack[5, -1] = stack[5, 0]  # rank deficient where rows > 1
        stack[7, rows - 1, cols - 1] = np.inf
        stack[9, 0, 0] = np.nan
        r = stack_ranks(stack, DEFAULT_TOL, {7: EvalError("overflow"), 9: EvalError("division by zero")})
        assert r.reasons == {7: "overflow", 9: "division by zero"}
        assert list(np.flatnonzero(~r.valid)) == [7, 9]
        for i, m in enumerate(stack):
            if i in r.reasons:
                continue
            sigma = np.linalg.svd(m, compute_uv=False)
            rank = int(np.sum(sigma > DEFAULT_TOL * max(1.0, float(sigma[0]))))
            assert (r.sigma_min[i], r.sigma_max[i]) == (sigma[-1], sigma[0])
            assert r.rank[i] == rank
            assert r.full_rank[i] == (rank == min(rows, cols) == rows)


_SHAPES = [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 4), (2, 5)]
_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 1.0, -1.0]),
    st.floats(-4.0, 4.0, allow_nan=False),
)


@st.composite
def _mixed_stacks(draw):
    """An (n, rows, cols) stack of diagonal and dense matrices, off-diagonal
    zeros of either sign, with at most one non-finite entry, often at a
    faulted point, and one more error."""
    rows, cols = draw(st.sampled_from(_SHAPES))
    n = draw(st.integers(1, 12))
    stack = np.array(draw(st.lists(_ENTRIES, min_size=n * rows * cols, max_size=n * rows * cols)))
    stack = stack.reshape(n, rows, cols)
    off = ~np.eye(rows, cols, dtype=bool)
    for i in range(n):
        if draw(st.booleans()):  # diagonal
            stack[i][off] = draw(st.sampled_from([0.0, -0.0]))
    errors = {}
    if draw(st.booleans()):
        i, r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        stack[i, r, c] = draw(st.sampled_from([np.inf, -np.inf, np.nan]))
        if draw(st.booleans()):
            errors[i] = EvalError("overflow")
    if draw(st.booleans()):
        errors[draw(st.integers(0, n - 1))] = EvalError("division by zero")
    return stack, errors


@given(_mixed_stacks())
@settings(max_examples=300, deadline=None)
def test_diagonal_matrices_are_ranked_from_their_diagonal(case):
    """A matrix with no nonzero off-diagonal entry gets exactly the sorted
    |diagonal| as singular values; any other matrix gets, bit for bit, the
    singular values of its own SVD. Reasons and validity do not depend on
    the kind of matrix. A non-finite entry outside the errors is refused."""
    stack, errors = case
    n, rows, cols = stack.shape
    if any(i not in errors and not np.isfinite(m).all() for i, m in enumerate(stack)):
        with pytest.raises(ValueError, match="finite"):
            stack_ranks(stack, DEFAULT_TOL, errors)
        return
    before = stack.copy()
    r = stack_ranks(stack, DEFAULT_TOL, errors)
    assert np.array_equal(stack, before, equal_nan=True)  # the stack is not written
    reasons = {i: str(exc) for i, exc in errors.items()}
    assert r.reasons == reasons
    assert r.valid.tolist() == [i not in reasons for i in range(n)]
    for i, m in enumerate(stack):
        if i in reasons:
            continue
        if (m[~np.eye(rows, cols, dtype=bool)] == 0).all():
            sigma = sorted(abs(float(d)) for d in np.diagonal(m))[::-1]
        else:
            sigma = np.linalg.svd(m, compute_uv=False).tolist()
        rank = sum(v > DEFAULT_TOL * max(1.0, sigma[0]) for v in sigma)
        assert (float(r.sigma_min[i]).hex(), float(r.sigma_max[i]).hex()) == (sigma[-1].hex(), sigma[0].hex())
        assert r.rank[i] == rank
        assert r.full_rank[i] == (rank == rows)


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
    assert (r.sigma_max[0], r.sigma_min[0]) == (3.0, 2.0)
    assert (r.sigma_max[2], r.sigma_min[2]) == (1.0, 1.0)
    assert (r.sigma_max[1], r.sigma_min[1]) == tuple(svd(stack[1], compute_uv=False)[[0, -1]])


def test_no_gallery_d1_stack_reaches_lapack(monkeypatch):
    """Every gallery D1 is diagonal (1 x 1 on the plane, diag(e^{2p}) on the
    tori, I for contact), so run_fixture hands LAPACK only D2 stacks."""
    svd = np.linalg.svd
    shapes = []

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    for name in gallery.list_fixtures():
        fix = gallery.fixture(name)
        if fix.immersion is None:
            continue
        shapes.clear()
        assert run_fixture(fix, samples=600, seed=1).verdict == "pass"
        k = fix.frame.k
        assert shapes, name
        assert {shape[1:] for shape in shapes} == {(k + s(k), fix.free_map.q)}, name


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
