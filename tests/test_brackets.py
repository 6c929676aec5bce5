import math
import random
from functools import reduce

import pytest

from hfree import brackets
from helpers import bind, contact_form_values, evaluate, fixture_parts
from hfree.expr import Add, Const, Coord, Mul, Neg, Sub, diff, parse, simplify
from hfree.fields import Chart, ChartMismatch, SmoothMap, lie_derivative
from hfree.brackets import (
    RPStructure,
    SymplecticChart,
    contact_frame,
    hamiltonian_field,
    gradient,
    jacobiator,
    novikov_structure,
    poisson_bracket,
    sym_det,
)
from hfree.jets import d1_matrix
from hfree.sampling import sample_points


def symplectic_plane(n=1):
    coords = tuple(f"phi{i + 1}" for i in range(n)) + tuple(
        f"p{i + 1}" for i in range(n)
    )
    box = tuple(((0.0, 2 * math.pi) if i < n else (-2.0, 2.0)) for i in range(2 * n))
    periodic = tuple(i < n for i in range(2 * n))
    return SymplecticChart(n=n, chart=Chart(coords=coords, box=box, periodic=periodic))


def random_bindings(chart, n=20, seed=0):
    return [bind(chart, p) for p in sample_points(chart, samples=n, seed=seed)]


class TestCanonicalBracket:
    def test_canonical_relation(self):
        # sign pairs with the Hamiltonian-field convention: {p, q} = 1
        sc = symplectic_plane()
        assert poisson_bracket(sc, parse("p1"), parse("phi1")) == Const(1.0)
        assert poisson_bracket(sc, parse("phi1"), parse("p1")) == Const(-1.0)

    def test_involution_of_action_like_integrals(self):
        for n in (2, 3):
            sc = symplectic_plane(n)
            integrals = [parse(f"exp(p{a + 1})*cos(phi{a + 1})") for a in range(n)]
            for a in range(n):
                for b in range(n):
                    if a == b:
                        continue
                    assert poisson_bracket(sc, integrals[a], integrals[b]) == Const(0.0)

    def test_momentum_pair_value(self):
        sc = symplectic_plane()
        got = poisson_bracket(
            sc, parse("exp(p1)*cos(phi1)"), parse("exp(p1)*sin(phi1)")
        )
        expected = parse("exp(2*p1)")
        for b in random_bindings(sc.chart):
            assert evaluate(got, b) == pytest.approx(evaluate(expected, b), rel=1e-12)

    def test_antisymmetry(self):
        sc = symplectic_plane(2)
        f, g = parse("phi1*p2 + sin(phi2)"), parse("exp(p1)*cos(phi1) + p2^2")
        total = simplify(poisson_bracket(sc, f, g) + poisson_bracket(sc, g, f))
        for b in random_bindings(sc.chart, seed=3):
            assert evaluate(total, b) == 0.0

    def test_leibniz(self):
        sc = symplectic_plane()
        f, g, h = parse("p1^2"), parse("sin(phi1)"), parse("exp(p1)*cos(phi1)")
        lhs = poisson_bracket(sc, f, simplify(g * h))
        rhs = simplify(
            g * poisson_bracket(sc, f, h) + h * poisson_bracket(sc, f, g)
        )
        for b in random_bindings(sc.chart, seed=4):
            assert evaluate(lhs, b) == pytest.approx(evaluate(rhs, b), rel=1e-10, abs=1e-12)


class TestHamiltonianField:
    def test_momentum_generates_translation(self):
        sc = symplectic_plane()
        x = hamiltonian_field(sc, parse("p1"))
        assert [evaluate(c, {"phi1": 0.3, "p1": 0.7}) for c in x.components] == [1.0, 0.0]

    def test_action_like_integral_field(self):
        sc = symplectic_plane()
        x = hamiltonian_field(sc, parse("exp(p1)*cos(phi1)"))
        expected = [parse("exp(p1)*cos(phi1)"), parse("exp(p1)*sin(phi1)")]
        for b in random_bindings(sc.chart, seed=5):
            got = [evaluate(c, b) for c in x.components]
            want = [evaluate(e, b) for e in expected]
            assert got == pytest.approx(want, rel=1e-12)

    def test_constant_hamiltonian(self):
        sc = symplectic_plane()
        x = hamiltonian_field(sc, parse("3"))
        assert all(c == Const(0.0) for c in x.components)

    def test_consistency_with_bracket(self):
        rng = random.Random(9)
        sc = symplectic_plane(2)
        pool = [
            "phi1*p1", "sin(phi2)*exp(p1)", "p2^2 + cos(phi1)",
            "exp(p2)*cos(phi2)", "phi2*p1 + phi1",
        ]
        for _ in range(50):
            h = parse(rng.choice(pool))
            g = parse(rng.choice(pool))
            x = hamiltonian_field(sc, h)
            lhs = lie_derivative(x, g)
            rhs = poisson_bracket(sc, h, g)
            for b in random_bindings(sc.chart, n=5, seed=rng.randrange(1000)):
                assert evaluate(lhs, b) == pytest.approx(
                    evaluate(rhs, b), rel=1e-10, abs=1e-10
                )


E3 = Chart(coords=("x", "y", "z"), box=((-2.0, 2.0),) * 3)


def e3_structure():
    return RPStructure.from_functions(E3, [parse("(1-y^2)*exp(x)")])


def test_rp_functions_stay_on_the_chart():
    """A fixed function on a coordinate outside the chart is refused, though
    its gradient on the chart's coordinates would not show it."""
    with pytest.raises(ChartMismatch, match=r"\['w'\] not in chart"):
        RPStructure.from_functions(E3, [parse("(1-y^2)*exp(x) + w")])


class TestRPBracket:
    def test_levi_civita_contraction_on_torus(self):
        # constant-gradient bracket must be eps^(ijk) d_i f d_j g B_k
        b = (0.3, -1.1, 0.7)
        structure = novikov_structure(b)
        f = parse("sin(theta1)*cos(theta2)")
        g = parse("cos(theta3) + sin(theta2)")
        got = poisson_bracket(structure, f, g)
        coords = structure.chart.coords
        eps = {
            (0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
            (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1,
        }
        for binding in random_bindings(structure.chart, seed=6):
            expected = 0.0
            for (i, j, k), sign in eps.items():
                expected += (
                    sign
                    * evaluate(diff(f, coords[i]), binding)
                    * evaluate(diff(g, coords[j]), binding)
                    * b[k]
                )
            assert evaluate(got, binding) == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_antisymmetry(self):
        structure = e3_structure()
        f, g = parse("y*exp(x)"), parse("x*z + y^2")
        total = simplify(poisson_bracket(structure, f, g) + poisson_bracket(structure, g, f))
        for binding in random_bindings(E3, seed=7):
            assert evaluate(total, binding) == 0.0

    def test_fixed_function_is_casimir(self):
        structure = e3_structure()
        h1 = parse("(1-y^2)*exp(x)")
        got = poisson_bracket(structure, parse("x*y + z"), h1)
        for binding in random_bindings(E3, seed=8):
            assert evaluate(got, binding) == pytest.approx(0.0, abs=1e-10)

    def test_e3_magnitude(self):
        # |{h, f}| = (1+y^2) * lambda * exp(2x) for h = lambda*z + mu
        structure = e3_structure()
        h = parse("(1+x^2)*z + sin(x*y)")
        f = parse("y*exp(x)")
        got = poisson_bracket(structure, h, f)
        expected = parse("(1+y^2)*(1+x^2)*exp(2*x)")
        for binding in random_bindings(E3, seed=9):
            assert abs(evaluate(got, binding)) == pytest.approx(
                evaluate(expected, binding), rel=1e-10
            )


class TestRPHamiltonianField:
    def test_field_reproduces_bracket(self):
        structure = e3_structure()
        h = parse("(1+x^2)*z + sin(x*y)")
        for sign in (1, -1):
            xi = hamiltonian_field(structure, h, sign=sign)
            for g in (parse("y*exp(x)"), parse("x*z"), parse("y^2 - z")):
                lhs = lie_derivative(xi, g)
                rhs = poisson_bracket(structure, h, g)
                for binding in random_bindings(E3, n=10, seed=10):
                    assert evaluate(lhs, binding) == pytest.approx(
                        sign * evaluate(rhs, binding), rel=1e-10, abs=1e-12
                    )

    def test_e3_positivity_with_pinned_sign(self):
        structure = e3_structure()
        h = parse("(1+x^2)*z + sin(x*y)")
        xi = hamiltonian_field(structure, h, sign=-1)
        lf = lie_derivative(xi, parse("y*exp(x)"))
        expected = parse("(1+y^2)*(1+x^2)*exp(2*x)")
        for binding in random_bindings(E3, seed=11):
            v = evaluate(lf, binding)
            assert v > 0
            assert v == pytest.approx(evaluate(expected, binding), rel=1e-10)

    def test_constant_hamiltonian_gives_zero_field(self):
        xi = hamiltonian_field(e3_structure(), parse("5"))
        assert all(c == Const(0.0) for c in xi.components)

    def test_annihilates_its_hamiltonian(self):
        structure = e3_structure()
        h = parse("(1+x^2)*z + sin(x*y)")
        xi = hamiltonian_field(structure, h)
        lh = lie_derivative(xi, h)
        for binding in random_bindings(E3, seed=12):
            assert evaluate(lh, binding) == pytest.approx(0.0, abs=1e-9)


class TestContactFrame:
    def test_n1_components(self):
        frame = contact_frame(1)
        assert frame.chart.coords == ("x1", "p1", "t")
        xi1, xi2 = frame.vectors
        binding = {"x1": 0.0, "p1": 0.5, "t": -1.0}
        assert [evaluate(c, binding) for c in xi1.components] == [1.0, 0.0, -0.5]
        assert [evaluate(c, binding) for c in xi2.components] == [0.0, 1.0, 0.0]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_annihilates_contact_form(self, n):
        for value in contact_form_values(contact_frame(n)):
            assert value == Const(0.0)

    @pytest.mark.parametrize("n", [1, 2])
    def test_projection_jet_is_identity(self, n):
        import numpy as np

        frame = contact_frame(n)
        pi = SmoothMap(frame.chart, tuple(parse(c) for c in frame.chart.coords[:-1]))
        for point in sample_points(frame.chart, samples=20, seed=13):
            assert d1_matrix(frame, pi, point) == pytest.approx(np.eye(2 * n))


class TestJacobi:
    def test_canonical(self):
        for n in (1, 2, 3):
            sc = symplectic_plane(n)
            bracket = lambda f, g: poisson_bracket(sc, f, g)
            f = parse("p1^2 + phi1" if n == 1 else "p1*p2 + phi1")
            g = parse("sin(phi1)*p1")
            h = parse("cos(phi1) + p1^3")
            jac = jacobiator(bracket, f, g, h)
            for binding in random_bindings(sc.chart, n=10, seed=14):
                assert abs(evaluate(jac, binding)) <= 1e-10

    def test_novikov_torus(self):
        structure = novikov_structure((0.0, 0.0, 1.0))
        bracket = lambda f, g: poisson_bracket(structure, f, g)
        f = parse("sin(theta1) + cos(theta2)")
        g = parse("cos(theta1)*sin(theta3)")
        h = parse("sin(theta2)*cos(theta3)")
        jac = jacobiator(bracket, f, g, h)
        for binding in random_bindings(structure.chart, n=100, seed=15):
            assert abs(evaluate(jac, binding)) <= 1e-8

    def test_riemann_poisson_e3(self):
        structure = e3_structure()
        bracket = lambda f, g: poisson_bracket(structure, f, g)
        rng = random.Random(16)
        pool = ["x*y", "y*z - x", "x^2 + z", "z*y", "x + y + z"]
        for _ in range(10):
            f, g, h = (parse(rng.choice(pool)) for _ in range(3))
            jac = jacobiator(bracket, f, g, h)
            for binding in random_bindings(E3, n=10, seed=rng.randrange(1000)):
                assert abs(evaluate(jac, binding)) <= 1e-8


def _random_function(rng, coords):
    atoms = [f"{c}" for c in coords] + [f"sin({c})" for c in coords] + [f"exp({c})" for c in coords]
    terms = [f"{rng.uniform(-2, 2)!r}*{rng.choice(atoms)}*{rng.choice(atoms)}" for _ in range(3)]
    return parse(" + ".join(terms))


def _random_structure(m, seed):
    rng = random.Random(seed)
    chart = Chart(coords=tuple(f"x{i + 1}" for i in range(m)), box=((-1.0, 1.0),) * m)
    return RPStructure.from_functions(chart, [_random_function(rng, chart.coords) for _ in range(m - 2)]), rng


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_bracket_is_the_determinant_of_the_stacked_gradients(m):
    """The bivector bracket against the cofactor determinant of the rows
    (grad h_1; ...; grad h_(m-2); grad f; grad g) at random points."""
    structure, rng = _random_structure(m, seed=100 + m)
    chart = structure.chart
    for _ in range(3):
        f, g = _random_function(rng, chart.coords), _random_function(rng, chart.coords)
        got = poisson_bracket(structure, f, g)
        rows = [list(r) for r in structure.h_gradients] + [list(gradient(chart, f)), list(gradient(chart, g))]
        oracle = sym_det(rows)
        for binding in random_bindings(chart, n=10, seed=rng.randrange(1000)):
            assert evaluate(got, binding) == pytest.approx(evaluate(oracle, binding), rel=1e-12)


def _canonical_sum(sc, f, g):
    """sum_a (df/dp_a dg/dq^a - df/dq^a dg/dp_a), every pair built."""
    q, p = sc.chart.coords[: sc.n], sc.chart.coords[sc.n :]
    terms = [Sub(Mul(diff(f, pa), diff(g, qa)), Mul(diff(f, qa), diff(g, pa))) for qa, pa in zip(q, p)]
    return simplify(reduce(Add, terms))


def _cofactor_bracket(structure, f, g):
    rows = [list(r) for r in structure.h_gradients]
    return sym_det(rows + [list(gradient(structure.chart, f)), list(gradient(structure.chart, g))])


@pytest.mark.parametrize(
    "name, hamiltonian, sign",
    [
        ("integrable-torus-1", None, 1),
        ("integrable-torus-2", None, 1),
        ("integrable-torus-3", None, 1),
        ("riemann-poisson-e3", "(1+x^2)*z + sin(x*y)", -1),
        ("novikov-t3", None, 1),
    ],
)
def test_gallery_brackets_and_fields_are_the_explicit_trees(name, hamiltonian, sign):
    """Every gallery structure's brackets and Hamiltonian fields are the very
    trees of the explicit canonical sum or the m = 3 cofactor determinant
    (repr tells -0.0 from 0.0)."""
    fix = fixture_parts(name)
    assert fix.bracket.func is poisson_bracket
    structure = fix.bracket.args[0]
    oracle = _canonical_sum if isinstance(structure, SymplecticChart) else _cofactor_bracket
    exprs = list(fix.bracket_tests) + [Coord(x) for x in structure.chart.coords]
    for f in exprs:
        for g in exprs:
            assert repr(poisson_bracket(structure, f, g)) == repr(oracle(structure, f, g))

    def oracle_field(h, sign):
        comps = [oracle(structure, h, Coord(x)) for x in structure.chart.coords]
        return [simplify(Neg(c)) for c in comps] if sign == -1 else comps

    for h in fix.bracket_tests:
        for s in (1, -1):
            assert repr(hamiltonian_field(structure, h, s).components) == repr(tuple(oracle_field(h, s)))
    if isinstance(structure, SymplecticChart):
        hams = [parse(f"exp(p{a + 1})*cos(phi{a + 1})") for a in range(structure.n)]
        assert repr(fix.frame.vectors) == repr(tuple(hamiltonian_field(structure, h) for h in hams))
    if hamiltonian is not None:
        (field,) = fix.frame.vectors
        assert repr(field.components) == repr(tuple(oracle_field(parse(hamiltonian), sign)))


def test_a_built_bivector_makes_no_determinant_calls(monkeypatch):
    """The minors are computed once per structure: with its bivector built, a
    bracket or a Hamiltonian field calls sym_det no more."""
    calls = []
    monkeypatch.setattr(brackets, "sym_det", lambda rows: calls.append(len(rows)) or sym_det(rows))
    structure, rng = _random_structure(5, seed=7)
    assert structure.bivector and calls
    calls.clear()
    f, g = _random_function(rng, structure.chart.coords), _random_function(rng, structure.chart.coords)
    poisson_bracket(structure, f, g)
    hamiltonian_field(structure, f, sign=-1)
    assert calls == []
