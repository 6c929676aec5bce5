import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import anticommutator, evaluate, fixture_parts, flat_norm_sq, random_expr

from hfree import gallery
from hfree.checks import frame_rank_check
from hfree.expr import ONE, ZERO, Add, Const, Coord, Mul, Neg, diff, parse, simplify
from hfree.fields import (
    Chart,
    ChartMismatch,
    Frame,
    OutsideDomain,
    SmoothMap,
    VectorField,
    lie_derivative,
)
from hfree.brackets import contact_frame
from hfree.jets import d1_exprs

PLANE = Chart(coords=("x", "y"), box=((-2.0, 2.0), (-2.0, 2.0)))


def vf(*sources):
    return VectorField(PLANE, tuple(parse(s) for s in sources))


def assert_expr_equal(a, b, points, rel=1e-12):
    for p in points:
        va, vb = evaluate(a, p), evaluate(b, p)
        assert va == pytest.approx(vb, rel=rel, abs=1e-12)


def plane_points(n=25, seed=3):
    rng = random.Random(seed)
    return [{"x": rng.uniform(-2, 2), "y": rng.uniform(-2, 2)} for _ in range(n)]


class TestChart:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Chart(coords=("x", "x"), box=((-1.0, 1.0), (-1.0, 1.0)))

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            Chart(coords=("x",), box=((1.0, 1.0),))

    @pytest.mark.parametrize("name", ["pi", "2", "1.5", "x y", "", "sin(x)", "-x"])
    def test_a_name_the_dsl_reads_otherwise_is_rejected(self, name):
        """pi is a constant, a numeral a number and other text no one name,
        so an expression could never read the coordinate."""
        with pytest.raises(ValueError, match="does not read as a coordinate"):
            Chart(coords=(name, "y"), box=((-1.0, 1.0), (-1.0, 1.0)))

    @pytest.mark.parametrize("name", ["x", "sin", "pi2", "_t", "x_1"])
    def test_a_name_the_dsl_reads_as_itself_is_accepted(self, name):
        assert Chart(coords=(name,), box=((-1.0, 1.0),)).coords == (name,)

    def test_periodic_box_enforced(self):
        with pytest.raises(ValueError):
            Chart(coords=("phi",), box=((0.0, 1.0),), periodic=(True,))

    def test_foreign_coordinate_rejected(self):
        with pytest.raises(ChartMismatch):
            VectorField(PLANE, (parse("z"), parse("1")))


class TestLieDerivative:
    def test_hamiltonian_plane_example(self):
        xi = vf("2*y", "1 - y^2")
        got = lie_derivative(xi, parse("y*exp(x)"))
        assert_expr_equal(got, parse("(1+y^2)*exp(x)"), plane_points())

    def test_finite_type_plane_example(self):
        eta = vf("3*y - 1", "1 - y^2")
        got = lie_derivative(eta, parse("y*exp(x)"))
        assert_expr_equal(got, parse("(2*y^2 - y + 1)*exp(x)"), plane_points())

    def test_constant_function(self):
        xi = vf("1", "0")
        assert lie_derivative(xi, Const(5.0)) == Const(0.0)

    def test_linearity(self):
        xi = vf("2*y", "1 - y^2")
        f, g = parse("y*exp(x)"), parse("sin(x*y)")
        lhs = lie_derivative(xi, simplify(3.0 * f + (-2.0) * g))
        rhs = simplify(
            3.0 * lie_derivative(xi, f) + (-2.0) * lie_derivative(xi, g)
        )
        assert_expr_equal(lhs, rhs, plane_points())

    def test_leibniz(self):
        xi = vf("2*y", "1 - y^2")
        f, g = parse("y*exp(x)"), parse("cos(y) + x^2")
        lhs = lie_derivative(xi, simplify(f * g))
        rhs = simplify(f * lie_derivative(xi, g) + g * lie_derivative(xi, f))
        assert_expr_equal(lhs, rhs, plane_points(), rel=1e-10)


class TestAnticommutator:
    def test_doubled_second_derivative(self):
        d_x = vf("1", "0")
        got = anticommutator(d_x, d_x, parse("x^2"))
        assert got == Const(4.0)

    def test_mixed_pair(self):
        d_x, d_y = vf("1", "0"), vf("0", "1")
        assert anticommutator(d_x, d_y, parse("x*y")) == Const(2.0)

    def test_symmetric_in_fields(self):
        xa = vf("2*y", "1 - y^2")
        xb = vf("x", "sin(y)")
        f = parse("y*exp(x)")
        assert_expr_equal(
            anticommutator(xa, xb, f), anticommutator(xb, xa, f), plane_points()
        )


class TestFlatNormSq:
    def test_intrinsically_exact_field(self):
        xi = vf("y*(1 - y^2)", "1 - 3*y^2")
        expected = parse("y^2*(1 - y^2)^2 + (1 - 3*y^2)^2")
        assert_expr_equal(flat_norm_sq(xi), expected, plane_points())

    def test_unit_field(self):
        assert flat_norm_sq(vf("1", "0")) == Const(1.0)

    def test_zero_field(self):
        assert flat_norm_sq(vf("0", "0")) == Const(0.0)


class TestFrameRankCheck:
    def test_nondegenerate_at_origin(self):
        frame = Frame(PLANE, (vf("2*y", "1 - y^2"),))
        assert frame_rank_check(frame, (0.0, 0.0))

    def test_repeated_field_is_degenerate(self):
        frame = Frame(PLANE, (vf("1", "0"), vf("1", "0")))
        assert not frame_rank_check(frame, (0.5, -0.5))

    def test_contact_frame_at_ones(self):
        # independent oracle: evaluate components and row-reduce by hand;
        # rows (1, 0, -1) and (0, 1, 0) are visibly independent
        frame = contact_frame(1)
        assert frame_rank_check(frame, (1.0, 1.0, 1.0))

    def test_point_outside_box(self):
        frame = Frame(PLANE, (vf("1", "0"),))
        with pytest.raises(OutsideDomain):
            frame_rank_check(frame, (5.0, 0.0))

    def test_bad_point_fails_with_its_fault(self):
        frame = Frame(PLANE, (vf("1/x", "0"),))
        assert frame_rank_check(frame, (1.0, 0.0))
        assert not frame_rank_check(frame, (0.0, 0.0))


_FRAMES = {
    name: fixture_parts(name).frame
    for name in gallery.list_fixtures()
    if fixture_parts(name).frame is not None
}
_FRAMES.update((f"contact_frame({n})", contact_frame(n)) for n in (1, 2, 3))


@pytest.mark.parametrize("name", list(_FRAMES))
def test_d1_of_the_coordinate_map_is_the_frame(name):
    """frame_rank_check ranks the order-1 jet of the coordinate map, since
    L_xi x^i = xi^i: each entry is the frame's component node, or a constant
    of the same value (0.0 where the frame has -0.0)."""
    frame = _FRAMES[name]
    coords = SmoothMap(frame.chart, tuple(Coord(c) for c in frame.chart.coords))
    rows = d1_exprs(frame, coords)
    assert len(rows) == frame.k
    for row, v in zip(rows, frame.vectors):
        assert len(row) == len(v.components)
        for got, want in zip(row, v.components):
            assert got is want or (type(got) is type(want) is Const and got.value == want.value)


_trees = st.randoms(use_true_random=False).map(random_expr)
# Zero and one as the field's components, -0.0 and the unsimplified -(0) too.
_components = st.one_of(st.sampled_from([ZERO, ONE, Const(-0.0), Neg(ZERO)]), _trees)
SPACE = Chart(coords=("x", "y", "z"), box=((-2.0, 2.0),) * 3)


@given(st.tuples(_components, _components, _components), _trees)
@settings(max_examples=300, deadline=None)
def test_lie_sum_of_nonzero_terms_is_the_full_sum(components, f):
    """The Lie sum over the nonzero terms is the node that simplify makes of
    the full sum 0 + xi^1 d_1 f + ... + xi^m d_m f. The map has no z, so its
    z term is zero whatever the field's z component is."""
    full = ZERO
    for comp, name in zip(components, SPACE.coords):
        full = Add(full, Mul(comp, diff(f, name)))
    assert lie_derivative(VectorField(SPACE, components), f) is simplify(full)
