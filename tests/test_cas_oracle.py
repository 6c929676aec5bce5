"""A second oracle for the symbolic derivatives: sympy differentiates the
same random trees, and the difference must simplify to exactly 0. sympy's
determinants of the gallery's jets also satisfy the determinant identity
exactly, and are those that identity mode peels from the jets' zero
patterns.

Constants are small dyadic numbers, and every denominator, base of a
negative power and argument of sin, cos and exp depends on a coordinate, so
simplify's constant folding is exact in floating point and the two
derivatives can agree exactly.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

sympy = pytest.importorskip("sympy")

import numpy as np

from helpers import fixture_parts
from hfree.constructions import Peel, compose, monomial_free_map, standard_frame
from hfree.expr import Add, Const, Coord, Cos, Div, Exp, Mul, Neg, Pow, Sin, Sub, diff, free_vars, simplify, to_str
from hfree.fields import Chart, VectorField, lie_derivative
from hfree.jets import CompiledJet, d1_exprs, d2_exprs

COORDS = ("x", "y")
SYMBOLS = {name: sympy.Symbol(name) for name in COORDS}
CHART = Chart(coords=COORDS, box=((-1.0, 1.0), (-1.0, 1.0)))


def to_sympy(e, symbols=SYMBOLS):
    """The tree read by sympy, every float as the exact rational it is."""
    return sympy.sympify(to_str(e).replace("^", "**"), locals=symbols, rational=True)


def _varying(children):
    """Trees that do not simplify to a constant."""
    return children.filter(lambda e: free_vars(simplify(e)))


def _exprs(max_leaves=6):
    atoms = st.one_of(
        st.builds(Const, st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0])),
        st.builds(Coord, st.sampled_from(COORDS)),
    )

    def extend(children):
        return st.one_of(
            st.builds(Add, children, children),
            st.builds(Sub, children, children),
            st.builds(Mul, children, children),
            st.builds(Neg, children),
            st.builds(Div, children, _varying(children)),
            st.builds(Pow, children, st.sampled_from([2, 3])),
            st.builds(Pow, _varying(children), st.sampled_from([-2, -1])),
            st.builds(Sin, _varying(children)),
            st.builds(Cos, _varying(children)),
            st.builds(Exp, _varying(children)),
        )

    return st.recursive(atoms, extend, max_leaves=max_leaves)


def _is_zero(difference) -> bool:
    return sympy.simplify(difference) == 0


@given(_exprs(), st.sampled_from(COORDS))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_diff_agrees_with_sympy(e, x):
    assert _is_zero(to_sympy(diff(e, x)) - sympy.diff(to_sympy(e), SYMBOLS[x]))


@given(st.lists(_exprs(max_leaves=3), min_size=2, max_size=2), _exprs(max_leaves=4))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_lie_derivative_agrees_with_sympy(components, f):
    """L_xi f = sum_i xi^i df/dx^i on a random field xi."""
    xi = VectorField(CHART, tuple(components))
    expected = sum(to_sympy(c) * sympy.diff(to_sympy(f), SYMBOLS[x]) for c, x in zip(components, COORDS))
    assert _is_zero(to_sympy(lie_derivative(xi, f)) - expected)


@pytest.mark.parametrize(
    "name",
    [
        "planar-hamiltonian",
        "planar-finite-type",
        "planar-intrinsically-exact",
        "integrable-torus-1",
        "integrable-torus-2",
        "riemann-poisson-e3",
        "contact-1",
    ],
)
def test_determinant_identity_is_exact(name):
    """det D2(F_k o f) - (det D1 f)^(k+2) det D2 F_k(f) simplifies to exactly 0
    for each gallery fixture with k <= 2, F_k the monomial free map."""
    fix = fixture_parts(name)
    k = fix.frame.k
    outer = monomial_free_map(k)
    symbols = {c: sympy.Symbol(c) for c in fix.chart.coords + outer.chart.coords}

    def det(rows):
        return sympy.Matrix([[to_sympy(e, symbols) for e in row] for row in rows]).det()

    image = {symbols[x]: to_sympy(c, symbols) for x, c in zip(outer.chart.coords, fix.immersion.components)}
    d1 = det(d1_exprs(fix.frame, fix.immersion))
    composite = det(d2_exprs(fix.frame, compose(outer, fix.immersion)))
    d2_outer = det(d2_exprs(standard_frame(outer.chart), outer)).subs(image, simultaneous=True)
    assert _is_zero(composite - d1 ** (k + 2) * d2_outer)


@pytest.mark.parametrize("name", ["contact-1", "integrable-torus-2", "monomial-2", "monomial-3"])
def test_a_peeled_determinant_is_exact(name):
    """At a few dyadic points, Peel.det of an order-2 jet equals sympy's
    exact determinant of it to a relative 1e-13: the composite jets of
    contact-1 (peeled whole) and integrable-torus-2 (one entry peeled off a
    4 x 4 core) under the monomial map, and the monomial map's own jet at
    k = 2 and 3 (peeled whole)."""
    if name.startswith("monomial"):
        outer = monomial_free_map(int(name[-1]))
        chart, rows = outer.chart, d2_exprs(standard_frame(outer.chart), outer)
    else:
        fix = fixture_parts(name)
        chart, rows = fix.chart, d2_exprs(fix.frame, compose(monomial_free_map(fix.frame.k), fix.immersion))
    jet = CompiledJet([rows], chart)
    points = np.array([[0.5, -0.75, 1.25, 0.375][: chart.dim], [1.5, 0.25, -0.5, 1.875][: chart.dim]])
    (stack,), errors = jet.at(points)
    assert not errors
    got = Peel(jet.patterns[0]).det(stack)
    symbols = {c: sympy.Symbol(c) for c in chart.coords}
    matrix = sympy.Matrix([[to_sympy(e, symbols) for e in row] for row in rows])
    for point, peeled in zip(points.tolist(), got.tolist()):
        exact = matrix.subs({symbols[c]: sympy.Rational(x) for c, x in zip(chart.coords, point)}).det()
        want = float(sympy.N(exact, 30))
        assert want != 0.0 and abs(peeled - want) <= 1e-13 * abs(want)
