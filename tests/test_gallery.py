import pytest

from helpers import bind, evaluate, flat_norm_sq
from hfree.expr import parse
from hfree.fields import lie_derivative
from hfree.gallery import fixture, list_fixtures
from hfree.checks import is_free_at, is_immersion_at
from hfree.checks import run_fixture
from hfree.sampling import sample_points


def test_registry_names():
    assert list_fixtures() == [
        "planar-hamiltonian",
        "planar-finite-type",
        "planar-intrinsically-exact",
        "integrable-torus-1",
        "integrable-torus-2",
        "integrable-torus-3",
        "riemann-poisson-e3",
        "novikov-t3",
        "contact-1",
        "contact-2",
    ]


def test_unknown_name():
    with pytest.raises(KeyError):
        fixture("no-such-fixture")


def test_planar_hamiltonian_expected_row():
    fix = fixture("planar-hamiltonian")
    row, col, expected = fix.expected[0]
    got = lie_derivative(fix.frame.vectors[row], fix.immersion.components[col])
    reference = parse("(1+y^2)*exp(x)")
    for point in sample_points(fix.chart, samples=50, seed=1):
        binding = bind(fix.chart, point)
        assert evaluate(got, binding) == pytest.approx(
            evaluate(reference, binding), rel=1e-12
        )
        assert evaluate(expected, binding) == pytest.approx(
            evaluate(reference, binding), rel=1e-12
        )


def test_contact_frame_components():
    fix = fixture("contact-1")
    xi1 = fix.frame.vectors[0]
    binding = {"x1": 0.0, "p1": 0.75, "t": 0.0}
    assert [evaluate(c, binding) for c in xi1.components] == [1.0, 0.0, -0.75]


@pytest.mark.parametrize("name", [n for n in list_fixtures() if n != "novikov-t3"])
def test_expected_formulas_match_symbolic(name):
    fix = fixture(name)
    points = sample_points(fix.chart, samples=1000, seed=2)
    for row, col, expected in fix.expected:
        got = lie_derivative(fix.frame.vectors[row], fix.immersion.components[col])
        for point in points[:200]:
            binding = bind(fix.chart, point)
            want = evaluate(expected, binding)
            assert evaluate(got, binding) == pytest.approx(
                want, rel=1e-10, abs=1e-10 * max(1.0, abs(want))
            )


@pytest.mark.parametrize("name", [n for n in list_fixtures() if n != "novikov-t3"])
def test_immersion_and_free_at_sampled_points(name):
    fix = fixture(name)
    from hfree.constructions import compose, monomial_free_map

    assert fix.free_map == compose(monomial_free_map(fix.frame.k), fix.immersion)
    for point in sample_points(fix.chart, samples=100, seed=3):
        assert is_immersion_at(fix.frame, fix.immersion, point)
        assert is_free_at(fix.frame, fix.free_map, point)


def test_first_integral_witnesses_vanish():
    for name in ("planar-hamiltonian", "planar-finite-type"):
        fix = fixture(name)
        witness, expected = fix.witnesses[0]
        assert evaluate(expected, {}) == 0.0
        derived = lie_derivative(fix.frame.vectors[0], witness)
        for point in sample_points(fix.chart, samples=200, seed=4):
            assert abs(evaluate(derived, bind(fix.chart, point))) <= 1e-12


def test_intrinsically_exact_norm_relation():
    fix = fixture("planar-intrinsically-exact")
    lf = lie_derivative(fix.frame.vectors[0], fix.immersion.components[0])
    norm_sq = flat_norm_sq(fix.frame.vectors[0])
    for point in sample_points(fix.chart, samples=100, seed=5):
        binding = bind(fix.chart, point)
        want = evaluate(norm_sq, binding) * evaluate(parse("exp(x)"), binding)
        assert evaluate(lf, binding) == pytest.approx(want, rel=1e-10)
        assert evaluate(lf, binding) > 0


def test_run_fixture_reports():
    report = run_fixture(fixture("planar-hamiltonian"), samples=300, seed=6)
    assert report.verdict == "pass"
    assert report.points_checked == 300
    assert report.worst_point is not None

    report = run_fixture(fixture("novikov-t3"), samples=50, seed=6)
    assert report.verdict == "pass"
