"""A second oracle for the symbolic derivatives: sympy differentiates the
same random trees, and the difference must simplify to exactly 0.

Constants are small dyadic numbers, and every denominator, base of a
negative power and argument of sin, cos and exp depends on a coordinate, so
simplify's constant folding is exact in floating point and the two
derivatives can agree exactly.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from hfree.expr import Add, Const, Coord, Cos, Div, Exp, Mul, Neg, Pow, Sin, Sub, diff, free_vars, simplify, to_str
from hfree.fields import Chart, VectorField, lie_derivative

COORDS = ("x", "y")
SYMBOLS = {name: sympy.Symbol(name) for name in COORDS}
CHART = Chart(coords=COORDS, box=((-1.0, 1.0), (-1.0, 1.0)))


def to_sympy(e):
    """The tree read by sympy, every float as the exact rational it is."""
    return sympy.sympify(to_str(e).replace("^", "**"), locals=SYMBOLS, rational=True)


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
