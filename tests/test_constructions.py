import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import bind, block_residual, dense_tape, evaluate, fixture_parts, sym_square
from hfree import constructions as constructions_module
from hfree.checks import check_points, is_free_at, is_immersion_at
from hfree.expr import Const, Coord, EvalError, compile_batch, parse, simplify
from hfree.fields import Chart, ChartMismatch, Frame, SmoothMap, VectorField
from hfree.jets import CompiledJet, JetStack, Pattern, d2_exprs, d2_matrix, s, valid_mask
from hfree.manifest import build_plan, parse_manifest_text
from hfree.constructions import (
    DetIdentity,
    Peel,
    compose,
    monomial_free_map,
    standard_frame,
)
from hfree.sampling import sample_points

PLANE = Chart(coords=("x", "y"), box=((-2.0, 2.0), (-2.0, 2.0)))


def random_quadratic_map(k: int, rng) -> tuple[Frame, SmoothMap]:
    """Degree-<=2 polynomial map R^k -> R^k with the standard frame."""
    chart = Chart(
        coords=tuple(f"x{i + 1}" for i in range(k)),
        box=tuple((-2.0, 2.0) for _ in range(k)),
    )
    comps = []
    for _ in range(k):
        e = Const(float(rng.uniform(-1, 1)))
        for j in range(k):
            e = e + float(rng.uniform(-1, 1)) * Coord(f"x{j + 1}")
        for a in range(k):
            for b in range(a, k):
                e = e + float(rng.uniform(-0.5, 0.5)) * (
                    Coord(f"x{a + 1}") * Coord(f"x{b + 1}")
                )
        comps.append(simplify(e))
    return standard_frame(chart), SmoothMap(chart, tuple(comps))


class TestMonomialFreeMap:
    def test_line(self):
        f = monomial_free_map(1)
        values = [evaluate(c, {"x1": 2.0}) for c in f.components]
        assert values == [2.0, 4.0]

    def test_plane_ordering(self):
        f = monomial_free_map(2)
        point = {"x1": 1.0, "x2": 2.0}
        values = [evaluate(c, point) for c in f.components]
        assert values == [1.0, 2.0, 1.0, 2.0, 4.0]

    def test_plane_jet_at_origin(self):
        f = monomial_free_map(2)
        frame = standard_frame(f.chart)
        det = np.linalg.det(d2_matrix(frame, f, (0.0, 0.0)))
        assert det == pytest.approx(32.0)  # 1*1*4*2*4

    def test_free_on_standard_frame(self):
        for m in (1, 2, 3):
            f = monomial_free_map(m)
            frame = standard_frame(f.chart)
            for point in sample_points(f.chart, samples=50, seed=m):
                assert is_free_at(frame, f, point)


class TestCompose:
    def test_square_of_immersion(self):
        outer = monomial_free_map(1)
        inner = SmoothMap(PLANE, (parse("y*exp(x)"),))
        composed = compose(outer, inner)
        point = {"x": 0.4, "y": -1.2}
        expected = [
            evaluate(parse("y*exp(x)"), point),
            evaluate(parse("y^2*exp(2*x)"), point),
        ]
        got = [evaluate(c, point) for c in composed.components]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_identity_outer(self):
        chart = Chart(coords=("u", "v"), box=((-2.0, 2.0),) * 2)
        outer = SmoothMap(chart, (parse("u"), parse("v")))
        inner = SmoothMap(PLANE, (parse("x + y"), parse("x*y")))
        composed = compose(outer, inner)
        for pt in sample_points(PLANE, samples=20, seed=8):
            binding = bind(PLANE, pt)
            for a, b in zip(composed.components, inner.components):
                assert evaluate(a, binding) == pytest.approx(evaluate(b, binding))

    def test_contact_projection_composition(self):
        from hfree.brackets import contact_frame

        frame = contact_frame(1)
        pi = SmoothMap(frame.chart, (parse("x1"), parse("p1")))
        composed = compose(monomial_free_map(2), pi)
        point = {"x1": 0.5, "p1": -0.25, "t": 1.0}
        got = [evaluate(c, point) for c in composed.components]
        assert got == pytest.approx([0.5, -0.25, 0.25, -0.125, 0.0625])

    def test_arity_mismatch(self):
        with pytest.raises(ChartMismatch):
            compose(monomial_free_map(2), SmoothMap(PLANE, (parse("x"),)))


class TestSymSquare:
    def test_scalar(self):
        assert sym_square(np.array([[3.0]])) == pytest.approx(np.array([[9.0]]))

    def test_identity_to_identity(self):
        for k in (1, 2, 3, 4):
            assert sym_square(np.eye(k)) == pytest.approx(np.eye(s(k)))

    def test_diagonal_example(self):
        # oracle: direct 3x3 determinant of diag(4, 6, 9) is 216 = (det A)^3
        out = sym_square(np.diag([2.0, 3.0]))
        assert out == pytest.approx(np.diag([4.0, 6.0, 9.0]))
        assert np.linalg.det(out) == pytest.approx(216.0)

    def test_determinant_power_law(self):
        rng = np.random.default_rng(5)
        for k in (1, 2, 3, 4):
            for _ in range(100):
                a = rng.uniform(-2, 2, (k, k))
                lhs = np.linalg.det(sym_square(a))
                rhs = np.linalg.det(a) ** (k + 1)
                assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_multiplicative(self):
        rng = np.random.default_rng(6)
        for k in (1, 2, 3, 4):
            a = rng.uniform(-2, 2, (k, k))
            b = rng.uniform(-2, 2, (k, k))
            lhs = sym_square(a @ b)
            rhs = sym_square(a) @ sym_square(b)
            scale = max(1.0, np.abs(rhs).max())
            assert np.abs(lhs - rhs).max() / scale < 1e-10


class TestBlocks:
    def test_planar_k1(self):
        xi = VectorField(PLANE, (parse("2*y"), parse("1 - y^2")))
        frame = Frame(PLANE, (xi,))
        f = SmoothMap(PLANE, (parse("y*exp(x)"),))
        d2_inner, d2_outer, d2_composite, failures = DetIdentity(frame, f, monomial_free_map(1)).blocks(
            np.zeros((1, 2))
        )
        assert not failures
        assert d2_inner[0, :1] == pytest.approx(np.array([[1.0]]))
        assert sym_square(d2_inner[0, :1]) == pytest.approx(np.array([[1.0]]))
        assert block_residual(d2_inner[0], d2_outer[0], d2_composite[0]) < 1e-12

    def test_identity_inner_map(self):
        for k in (1, 2, 3):
            outer = monomial_free_map(k)
            frame = standard_frame(outer.chart)
            inner = SmoothMap(
                outer.chart, tuple(Coord(c) for c in outer.chart.coords)
            )
            d2_inner, _, _, failures = DetIdentity(frame, inner, outer).blocks(np.full((1, k), 0.3))
            assert not failures
            assert d2_inner[0, k:] == pytest.approx(np.zeros((s(k), k)))
            assert sym_square(d2_inner[0, :k]) == pytest.approx(np.eye(s(k)))

    def test_random_quadratic_k2(self):
        rng = np.random.default_rng(7)
        frame, f = random_quadratic_map(2, rng)
        outer = monomial_free_map(2)
        points = sample_points(frame.chart, samples=25, seed=11)
        d2_inner, d2_outer, d2_composite, failures = DetIdentity(frame, f, outer).blocks(points)
        assert not failures
        for blocks in zip(d2_inner, d2_outer, d2_composite):
            assert block_residual(*blocks) < 1e-9


def _identity_cases():
    """(name, frame, f, outer, points): the identity instances of the
    acceptance gate at 100 sample points; f = y*x under the outer map
    (x1^-2, x1^3), whose outer jet at f(p) and composite both fault where
    f(p) = 0, as they do at three of its points; and a map with a constant
    component."""
    from test_acceptance import _identity_instances

    cases = [
        (name, frame, f, outer, sample_points(frame.chart, 100, 17))
        for name, frame, f, outer in _identity_instances()
    ]
    chart = Chart(coords=("x1",), box=((-2.0, 2.0),))
    outer = SmoothMap(chart, (parse("x1^-2"), parse("x1^3")))
    points = np.vstack([sample_points(PLANE, 20, 5), [[0.0, 0.5], [0.5, 0.0], [0.0, 0.0]]])
    frame = Frame(PLANE, (standard_frame(PLANE).vectors[0],))
    cases.append(("y*x", frame, SmoothMap(PLANE, (parse("y*x"),)), outer, points))
    # the outer jet's 2*x1*x2 at f = (x, 0) is -0.0 where x < 0, which
    # simplifying it after substitution would make +0.0
    components = ["x1", "x2", "x1^2*x2", "x1*x2", "x2^2"]
    outer = SmoothMap(monomial_free_map(2).chart, tuple(map(parse, components)))
    f = SmoothMap(PLANE, (parse("x"), Const(0.0)))
    cases.append(("x,0", standard_frame(PLANE), f, outer, sample_points(PLANE, 100, 17)))
    return cases


def _blocks_apart(frame, f, outer, points):
    """blocks() with each jet on a tape of its own, the outer jet run on the
    image at the points where the order-2 jet of f and f are defined, and
    each point's failure named by the first block that faults there."""
    (d2_inner,), errors = CompiledJet([d2_exprs(frame, f)], frame.chart).at(points)
    d2_inner = d2_inner.dense()
    failures = {i: f"inner jet block: {exc}" for i, (_, exc) in errors.items()}
    image, errors = compile_batch(f.components, frame.chart.coords)(points)
    for i, (_, exc) in errors.items():
        failures.setdefault(i, f"outer jet block: {exc}")
    d2_outer = np.full((len(points), outer.q, outer.q), np.nan)
    defined = np.flatnonzero(valid_mask(len(points), failures))
    outer_jet = CompiledJet([d2_exprs(standard_frame(outer.chart), outer)], outer.chart)
    (outer_stack,), errors = outer_jet.at(image[defined])
    d2_outer[defined] = outer_stack.dense()
    for j, (_, exc) in errors.items():
        failures.setdefault(int(defined[j]), f"outer jet block: {exc}")
    (d2_composite,), errors = CompiledJet([d2_exprs(frame, compose(outer, f))], frame.chart).at(points)
    d2_composite = d2_composite.dense()
    for i, (_, exc) in errors.items():
        failures.setdefault(i, f"composite jet block: {exc}")
    return d2_inner, d2_outer, d2_composite, failures


_CASES = _identity_cases()


class TestDetIdentity:
    def test_planar_k1_at_origin(self):
        xi = VectorField(PLANE, (parse("2*y"), parse("1 - y^2")))
        frame = Frame(PLANE, (xi,))
        f = SmoothMap(PLANE, (parse("y*exp(x)"),))
        lhs, rhs, rel, failures = DetIdentity(frame, f, monomial_free_map(1)).residuals(np.zeros((1, 2)))
        assert not failures
        assert lhs[0] == pytest.approx(4.0)
        assert rhs[0] == pytest.approx(4.0)
        assert rel[0] < 1e-12

    def test_degenerate_inner_map(self):
        frame = standard_frame(PLANE)
        frame = Frame(PLANE, (frame.vectors[0],))  # k = 1, d/dx
        f = SmoothMap(PLANE, (parse("y"),))  # constant along the frame
        lhs, rhs, _, failures = DetIdentity(frame, f, monomial_free_map(1)).residuals(np.full((1, 2), 0.5))
        assert not failures
        assert lhs[0] == pytest.approx(0.0, abs=1e-12)
        assert rhs[0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("k", [2, 3])
    def test_random_quadratic(self, k):
        rng = np.random.default_rng(40 + k)
        frame, f = random_quadratic_map(k, rng)
        outer = monomial_free_map(k)
        _, _, rel, failures = DetIdentity(frame, f, outer).residuals(
            sample_points(frame.chart, samples=100, seed=13)
        )
        assert not failures
        assert (rel <= 1e-9).all()

    def test_scaling_stability(self):
        # scaling the inner map rescales both sides consistently
        xi = VectorField(PLANE, (parse("2*y"), parse("1 - y^2")))
        frame = Frame(PLANE, (xi,))
        for c in (0.5, 2.0, -3.0):
            f = SmoothMap(PLANE, (simplify(c * parse("y*exp(x)")),))
            _, _, rel, failures = DetIdentity(frame, f, monomial_free_map(1)).residuals(
                sample_points(PLANE, samples=20, seed=17)
            )
            assert not failures
            assert (rel <= 1e-9).all()

    def test_image_that_overflows_is_a_failure_of_the_outer_block(self):
        # the jet of f along d/dy is finite, but f's value, a product of huge
        # finite factors, overflows where x != 0, before the outer jet at
        # f(p) is reached
        frame = Frame(PLANE, (standard_frame(PLANE).vectors[1],))
        big = "1" + "0" * 200
        f = SmoothMap(PLANE, (parse(f"y + {big}*x*{big}"),))
        points = np.array([[0.5, 0.0], [0.0, 1.0], [-1.0, 2.0]])
        lhs, rhs, rel, failures = DetIdentity(frame, f, monomial_free_map(1)).residuals(points)
        assert {i: (type(exc), str(exc)) for i, exc in failures.items()} == {
            0: (EvalError, "outer jet block: overflow"),
            2: (EvalError, "outer jet block: overflow"),
        }
        assert rel[1] <= 1e-9
        report = check_points(frame, f, [(0.5, 0.0)], "identity")
        assert report.failures == [{"point": [0.5, 0.0], "reason": "outer jet block: overflow"}]

    def test_power_that_overflows_is_a_failure(self):
        # det D1 = 1e102 * exp(x): its cube leaves the float range for x > 1.73
        frame = Frame(PLANE, (standard_frame(PLANE).vectors[0],))
        f = SmoothMap(PLANE, (parse("1" + "0" * 102 + "*exp(x) + y"),))
        points = np.array([[-1.0, 0.5], [1.8, 0.0], [0.0, 1.0], [1.9, -1.0], [1.0, 0.0]])
        identity = DetIdentity(frame, f, monomial_free_map(1))
        _, rhs, rel, failures = identity.residuals(points)
        overflow = "overflow: determinants beyond the float range"
        assert {i: (type(exc), str(exc)) for i, exc in failures.items()} == {
            1: (EvalError, overflow),
            3: (EvalError, overflow),
        }
        # elsewhere rhs is the cube as the square-and-multiply chain takes it,
        # d * (d * d), bit for bit, times the outer jet's peeled determinant:
        # its second row holds one entry, so it is peeled first
        d2_inner, d2_outer, _, _ = identity.blocks(points)
        for i in (0, 2, 4):
            d = float(d2_inner[i, 0, 0])
            assert rhs[i] == d * (d * d) * (d2_outer[i, 1, 1] * d2_outer[i, 0, 0])
            assert rel[i] <= 1e-9
        report = check_points(frame, f, points, "identity")
        assert report.verdict == "fail"
        assert report.failures == [
            {"point": points[i].tolist(), "reason": overflow} for i in (1, 3)
        ]

    @pytest.mark.parametrize("case", _CASES, ids=[case[0] for case in _CASES])
    def test_a_fault_is_named_by_its_first_block(self, case):
        """One tape names each point's failure as blocks on tapes of their own,
        run in turn, do: by the first block that faults, f's own fault counting
        as the outer block's. A point that faults is nan in every block."""
        _, frame, f, outer, points = case
        stacks = DetIdentity(frame, f, outer).blocks(points)
        failures = {i: str(exc) for i, exc in stacks[3].items()}
        assert failures == _blocks_apart(frame, f, outer, points)[3]
        faulted = ~valid_mask(len(points), failures)
        assert all(np.isnan(stack[faulted]).all() for stack in stacks[:3])
        if f.components == (parse("y*x"),):
            # f(p) = 0: the composite's jet, of (y*x)^-2, faults there too,
            # but the outer jet at f(p) comes first
            assert failures == {20 + i: "outer jet block: 0 raised to a negative power" for i in range(3)}
            composite = CompiledJet([d2_exprs(frame, compose(outer, f))], frame.chart)
            assert set(composite.at(points[20:])[1]) == {0, 1, 2}

    # simd: identity mode's outer jet at f(p) runs on one tape with f put
    # in for its coordinates, and must keep the bits of that jet run on
    # f's values.
    @pytest.mark.simd
    @pytest.mark.parametrize("case", _CASES, ids=[case[0] for case in _CASES])
    def test_blocks_keep_the_bits_of_each_jet_on_its_own_tape(self, case):
        """At each point where no block faults, each stack of blocks() equals
        bit for bit that of its jet on a tape of its own, the outer jet's run on
        the image: the outer jet at f(p), with f put in for outer's coordinates
        and not simplified, is the same arithmetic on the same values."""
        _, frame, f, outer, points = case
        *stacks, failures = DetIdentity(frame, f, outer).blocks(points)
        *apart, _ = _blocks_apart(frame, f, outer, points)
        defined = valid_mask(len(points), failures)
        assert defined.sum() >= 20
        for got, want in zip(stacks, apart):
            assert got[defined].tobytes() == want[defined].tobytes()


@st.composite
def _peel_cases(draw):
    """(pattern, held, stack, singular): a (n, size, size) stack of permuted
    block upper triangular matrices, with diagonal blocks of 1 to 3 rows or
    one dense block, each diagonal block diagonally dominant and each column
    scaled by a power of 2 (at most 2^900), so that LU with partial
    pivoting, whose choices a column's scale does not change, takes every
    determinant to a few roundings; entries that may be nonzero may be
    +-0.0 too. A singular case clears a row or a column, or leaves two rows
    one entry each, in one column. The entries held are those that may be
    nonzero and drawn others, which are -0.0, as a held constant 0 is; the
    rest are +0.0, as a core reads them."""
    size = draw(st.integers(1, 6))
    sizes = [size] if size > 1 and draw(st.booleans()) else []
    while sum(sizes) < size:
        sizes.append(draw(st.integers(1, min(3, size - sum(sizes)))))
    pattern = np.zeros((size, size), dtype=bool)
    start = 0
    for b in sizes:
        pattern[start : start + b, start : start + b] = True
        above = draw(st.lists(st.booleans(), min_size=b * (size - start - b), max_size=b * (size - start - b)))
        pattern[start : start + b, start + b :] = np.reshape(above, (b, size - start - b))
        start += b
    n = draw(st.integers(1, 4))
    entry = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0]))
    values = np.reshape(draw(st.lists(entry, min_size=n * size * size, max_size=n * size * size)), (n, size, size))
    diagonal = values[:, range(size), range(size)]
    values[:, range(size), range(size)] = np.copysign(4.0 + 3.0 * np.abs(diagonal), diagonal)
    exponents = draw(st.lists(st.sampled_from([900, -900, 300, -300, 40, -40, 0, 0, 0]), min_size=size, max_size=size))
    values *= 2.0 ** np.array(exponents, dtype=float)
    singular = draw(st.sampled_from([None, None, "row", "column", "shared"] if size > 1 else [None, "row"]))
    if singular == "row":
        pattern[draw(st.integers(0, size - 1))] = False
    elif singular == "column":
        pattern[:, draw(st.integers(0, size - 1))] = False
    elif singular == "shared":
        one, other = draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=2, unique=True))
        pattern[[one, other]] = False
        pattern[[one, other], draw(st.integers(0, size - 1))] = True
    values[:, ~pattern] = 0.0
    held = pattern | np.reshape(draw(st.lists(st.booleans(), min_size=size * size, max_size=size * size)), (size, size))
    values[:, held & ~pattern] = -0.0
    rows, cols = draw(st.permutations(range(size))), draw(st.permutations(range(size)))
    return pattern[np.ix_(rows, cols)], held[np.ix_(rows, cols)], values[:, rows][:, :, cols], singular


# simd: identity mode's peeled determinants multiply tape values.
@pytest.mark.simd
@given(_peel_cases())
@settings(max_examples=300, deadline=None)
def test_a_peeled_determinant_is_lapacks(case):
    """Peel.det agrees with np.linalg.det to a relative 1e-10, with the same
    sign, wherever np.linalg.det is a normal float; where it is inf, 0 or
    subnormal, Peel.det is its value; and a structurally singular pattern
    gives exactly 0, where np.linalg.det is 0 up to 1e-10 of Hadamard's
    bound. The stack holds only the entries its pattern holds."""
    pattern, held, values, singular = case
    n, size, _ = values.shape
    zeros = Pattern(pattern, held)
    got = Peel(zeros).det(JetStack(values.reshape(n, size * size).T[held.reshape(-1)], zeros))
    info = np.finfo(float)
    for g, m in zip(got.tolist(), values):
        with np.errstate(all="ignore"):
            want = float(np.linalg.det(m))
            hadamard = np.log2(np.sqrt(size) * np.abs(m).max(axis=0)).sum()
        if singular:
            assert g == 0.0
            # a bound beyond the float range admits np.linalg.det's inf
            assert want == 0.0 or min(np.log2(abs(want)), 1024.0) <= np.log2(1e-10) + hadamard
        elif info.tiny <= abs(want) <= info.max:
            assert abs(g - want) <= 1e-10 * abs(want) and np.sign(g) == np.sign(want)
        else:
            assert g == want


class TestPeel:
    # simd: identity mode's peeled determinants multiply tape values.
    @pytest.mark.simd
    def test_a_product_that_overflows_on_the_way_takes_lapacks_determinant(self):
        """An outer jet whose peeled entries are 4e200, 2e200, 1, 4e-300 and
        1, in peel order: the product overflows after two factors though the
        determinant, 3.2e101, is in range. That point's determinant is
        np.linalg.det's, bit for bit, and it is no failure."""
        big, tiny = "1" + "0" * 200, "0." + "0" * 299 + "1"
        components = ["x1", "x2", f"{big}*x1^2", f"{big}*x1*x2", f"{tiny}*x2^2"]
        outer = SmoothMap(monomial_free_map(2).chart, tuple(map(parse, components)))
        identity = DetIdentity(standard_frame(PLANE), SmoothMap(PLANE, (parse("x"), parse("y"))), outer)
        points = sample_points(PLANE, 20, 3)
        lhs, rhs, rel, failures = identity.residuals(points)
        _, d2_outer, d2_composite, _ = identity.blocks(points)
        assert not failures
        positions = identity.jet.patterns[2].layout.positions  # of the outer jet's held entries
        assert positions[identity.peels[1].entries].tolist() == [12, 18, 0, 24, 6]
        with np.errstate(over="ignore"):
            assert np.isinf(d2_outer[:, 2, 2] * d2_outer[:, 3, 3]).all()
        assert lhs.tobytes() == np.linalg.det(d2_composite).tobytes()
        assert rhs.tobytes() == np.linalg.det(d2_outer).tobytes()  # det D1 = 1
        assert (rel <= 1e-9).all()

    def test_lapack_sees_only_the_cores_of_identity_sweeps_manifests(self, monkeypatch):
        """The determinants of perfbench's identity-sweep manifests: D1 and
        every outer jet peel completely, and so does contact-1's composite;
        integrable-torus-3's composite leaves a 6 x 6 core and
        planar-hamiltonian's, dense, a 2 x 2 one."""
        det, shapes = np.linalg.det, []

        def counted(a):
            shapes.append(a.shape[1:])
            return det(a)

        monkeypatch.setattr(np.linalg, "det", counted)
        for body, core in _IDENTITY_SWEEP:
            plan = build_plan(parse_manifest_text(f"{body}\n[check]\nmode = identity\n"))
            identity = DetIdentity(plan.frame, plan.smap, monomial_free_map(plan.frame.k))
            shapes.clear()
            _, _, rel, failures = identity.residuals(sample_points(plan.frame.chart, 64, 5))
            assert not failures and (rel <= 1e-9).all()
            assert shapes == core


# perfbench's identity-sweep manifests without [check], and the cores each
# check sends to LAPACK
_IDENTITY_SWEEP = [
    (
        "[manifold]\ncoords = [x, y]\nbox = [[-2, 2], [-2, 2]]\n\n"
        '[frame]\nvectors = [["2*y", "1 - y^2"]]\n\n[map]\ncomponents = ["y*exp(x)"]\n',
        [(2, 2)],
    ),
    ('[structure]\ntype = contact\nn = 1\n\n[map]\ncomponents = ["x1", "p1"]\n', []),
    (
        "[manifold]\ncoords = [phi1, phi2, phi3, p1, p2, p3]\n"
        "box = [[0, 6.283185307179586], [0, 6.283185307179586], [0, 6.283185307179586], [-2, 2], [-2, 2], [-2, 2]]\n"
        "periodic = [true, true, true, false, false, false]\n\n"
        "[structure]\ntype = canonical\nn = 3\n"
        'hamiltonians = ["exp(p1)*cos(phi1)", "exp(p2)*cos(phi2)", "exp(p3)*cos(phi3)"]\n\n'
        '[map]\ncomponents = ["exp(p1)*sin(phi1)", "exp(p2)*sin(phi2)", "exp(p3)*sin(phi3)"]\n',
        [(6, 6)],
    ),
]


class _EveryEntry:
    """A CompiledJet whose one tape computes every entry, ZERO too, and
    whose patterns hold every entry (see helpers.dense_tape)."""

    def __init__(self, jets, chart):
        self.jets, self.chart = jets, chart
        self.patterns = [
            Pattern(np.array([[not (type(e) is Const and e.value == 0) for e in row] for row in rows]))
            for rows in jets
        ]

    def at(self, points):
        stacks, errors = dense_tape(self.jets, self.chart, points)
        return [JetStack(s.reshape(len(points), -1).T, p) for s, p in zip(stacks, self.patterns)], errors


def _sweep_cases():
    """(name, frame, f, outer, points): identity-sweep's manifests at 1000
    sample points."""
    cases = []
    for body, _ in _IDENTITY_SWEEP:
        plan = build_plan(parse_manifest_text(f"{body}\n[check]\nmode = identity\n"))
        points = sample_points(plan.frame.chart, 1000, 3)
        cases.append((f"k={plan.frame.k}", plan.frame, plan.smap, monomial_free_map(plan.frame.k), points))
    return cases


# simd: the compact peel multiplies tape vectors.
@pytest.mark.simd
@pytest.mark.parametrize("case", _sweep_cases() + _CASES, ids=lambda case: case[0])
def test_compact_identity_keeps_the_bits_of_a_tape_of_every_entry(case, monkeypatch):
    """Identity mode's residuals from jets that hold only the entries that
    are not ZERO are bit for bit those from one tape of every entry, whose
    peels read every entry: lhs, rhs and rel at every point, the faulting
    ones too, and the failures."""
    _, frame, f, outer, points = case
    got = DetIdentity(frame, f, outer).residuals(points)
    monkeypatch.setattr(constructions_module, "CompiledJet", _EveryEntry)
    want = DetIdentity(frame, f, outer).residuals(points)
    for g, w in zip(got[:3], want[:3]):
        assert g.tobytes() == w.tobytes()
    assert {i: str(exc) for i, exc in got[3].items()} == {i: str(exc) for i, exc in want[3].items()}


def test_composition_theorem_as_predicate():
    from hfree.gallery import list_fixtures

    for name in list_fixtures():
        fix = fixture_parts(name)
        if fix.immersion is None:
            continue
        composed = compose(monomial_free_map(fix.frame.k), fix.immersion)
        for point in sample_points(fix.chart, samples=25, seed=23):
            if is_immersion_at(fix.frame, fix.immersion, point):
                assert is_free_at(fix.frame, composed, point)
