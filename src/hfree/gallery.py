"""Named runnable fixtures: chart, frame, candidate immersion, the composed
free map, and the closed-form derivatives they are expected to reproduce."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from .brackets import (
    RPStructure,
    SymplecticChart,
    contact_frame,
    hamiltonian_field,
    novikov_structure,
    poisson_bracket,
)
from .constructions import compose, monomial_free_map
from .expr import parse
from .fields import Chart, Frame, SmoothMap, VectorField


@dataclass(frozen=True)
class Fixture:
    name: str
    chart: Chart | None
    frame: Frame | None
    immersion: SmoothMap | None
    free_map: SmoothMap | None
    # (row, col, expr): entry (row, col) of the order-1 jet matrix must equal
    # expr at every sampled point
    expected: tuple = ()
    # (expr, expected Lie derivative along frame field 0); used for
    # first-integral witnesses, whose derivative is identically zero
    witnesses: tuple = ()
    # callable (Expr, Expr) -> Expr plus test expressions. run_fixture checks
    # the bracket laws only for novikov-t3; for the tori and riemann-poisson-e3
    # they are test data, read only by tests/test_acceptance.py
    bracket: object = None
    bracket_tests: tuple = ()
    notes: tuple = ()


def _planar_chart() -> Chart:
    return Chart(coords=("x", "y"), box=((-2.0, 2.0), (-2.0, 2.0)))


def _planar_fixture(name, xi_comps, immersion_src, expected_src, witness_src, notes=()):
    chart = _planar_chart()
    xi = VectorField(chart, tuple(parse(s) for s in xi_comps))
    frame = Frame(chart, (xi,))
    immersion = SmoothMap(chart, (parse(immersion_src),))
    witnesses = ()
    if witness_src is not None:
        witnesses = ((parse(witness_src), parse("0")),)
    return Fixture(
        name=name,
        chart=chart,
        frame=frame,
        immersion=immersion,
        free_map=compose(monomial_free_map(1), immersion),
        expected=((0, 0, parse(expected_src)),),
        witnesses=witnesses,
        notes=tuple(notes),
    )


def _torus_fixture(n: int) -> Fixture:
    coords = tuple(f"phi{a + 1}" for a in range(n)) + tuple(f"p{a + 1}" for a in range(n))
    box = tuple(((0.0, 2 * math.pi) if i < n else (-2.0, 2.0)) for i in range(2 * n))
    periodic = tuple(i < n for i in range(2 * n))
    chart = Chart(coords=coords, box=box, periodic=periodic)
    sc = SymplecticChart(n=n, chart=chart)
    fields = tuple(
        hamiltonian_field(sc, parse(f"exp(p{a + 1})*cos(phi{a + 1})")) for a in range(n)
    )
    frame = Frame(chart, fields)
    immersion = SmoothMap(
        chart, tuple(parse(f"exp(p{a + 1})*sin(phi{a + 1})") for a in range(n))
    )
    expected = []
    for a in range(n):
        for i in range(n):
            expected.append((a, i, parse(f"exp(2*p{a + 1})" if a == i else "0")))
    return Fixture(
        name=f"integrable-torus-{n}",
        chart=chart,
        frame=frame,
        immersion=immersion,
        free_map=compose(monomial_free_map(n), immersion),
        expected=tuple(expected),
        bracket=partial(poisson_bracket, sc),
        bracket_tests=tuple(
            parse(s)
            for s in [f"exp(p{a + 1})*cos(phi{a + 1})" for a in range(n)]
            + [f"exp(p{a + 1})*sin(phi{a + 1})" for a in range(n)]
        ),
    )


def _rp_e3_fixture() -> Fixture:
    chart = Chart(coords=("x", "y", "z"), box=((-2.0, 2.0),) * 3)
    structure = RPStructure.from_functions(chart, [parse("(1-y^2)*exp(x)")])
    lam = "(1+x^2)"
    h = parse(f"{lam}*z + sin(x*y)")
    sign = -1
    frame = Frame(chart, (hamiltonian_field(structure, h, sign=sign),))
    immersion = SmoothMap(chart, (parse("y*exp(x)"),))
    return Fixture(
        name="riemann-poisson-e3",
        chart=chart,
        frame=frame,
        immersion=immersion,
        free_map=compose(monomial_free_map(1), immersion),
        expected=((0, 0, parse(f"(1+y^2)*{lam}*exp(2*x)")),),
        bracket=partial(poisson_bracket, structure),
        bracket_tests=(parse("x*y"), parse("y*z - x"), parse("x^2 + z")),
        notes=(
            "sign pinned to -1: with rows (grad H, grad h, grad f) the plain "
            "gradient determinant gives -(1+y^2)*lambda*exp(2x) for f = y*exp(x)",
        ),
    )


def _novikov_fixture() -> Fixture:
    structure = novikov_structure((0.0, 0.0, 1.0))
    return Fixture(
        name="novikov-t3",
        chart=structure.chart,
        frame=None,
        immersion=None,
        free_map=None,
        bracket=partial(poisson_bracket, structure),
        bracket_tests=(
            parse("sin(theta1) + cos(theta2)"),
            parse("cos(theta1)*sin(theta3)"),
            parse("sin(theta2)*cos(theta3) + sin(theta1)"),
        ),
        notes=("bracket-laws only: no immersion is claimed for this structure",),
    )


def _contact_fixture(n: int) -> Fixture:
    frame = contact_frame(n)
    chart = frame.chart
    immersion = SmoothMap(chart, tuple(parse(c) for c in chart.coords[:-1]))
    k = 2 * n
    expected = tuple(
        (a, i, parse("1" if a == i else "0")) for a in range(k) for i in range(k)
    )
    return Fixture(
        name=f"contact-{n}",
        chart=chart,
        frame=frame,
        immersion=immersion,
        free_map=compose(monomial_free_map(k), immersion),
        expected=expected,
    )


def _build_registry() -> dict:
    fixtures = [
        _planar_fixture(
            "planar-hamiltonian",
            ("2*y", "1 - y^2"),
            "y*exp(x)",
            "(1 + y^2)*exp(x)",
            "(1 - y^2)*exp(x)",
        ),
        _planar_fixture(
            "planar-finite-type",
            ("3*y - 1", "1 - y^2"),
            "y*exp(x)",
            "(2*y^2 - y + 1)*exp(x)",
            "(1 - y)*(1 + y)^2*exp(x)",
        ),
        _planar_fixture(
            "planar-intrinsically-exact",
            ("y*(1 - y^2)", "1 - 3*y^2"),
            "y*(1 - y^2)*exp(x)",
            "(y^2*(1 - y^2)^2 + (1 - 3*y^2)^2)*exp(x)",
            None,
            notes=(
                "the source displays this derivative without the exp(x) factor; "
                "direct computation carries it, consistent with the general "
                "norm-squared-over-weight rule",
            ),
        ),
        _torus_fixture(1),
        _torus_fixture(2),
        _torus_fixture(3),
        _rp_e3_fixture(),
        _novikov_fixture(),
        _contact_fixture(1),
        _contact_fixture(2),
    ]
    return {f.name: f for f in fixtures}


_REGISTRY = _build_registry()


def list_fixtures() -> list[str]:
    return list(_REGISTRY)


def fixture(name: str) -> Fixture:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown fixture '{name}'; known: {', '.join(_REGISTRY)}") from None
