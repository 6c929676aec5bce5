import json
import math

import pytest

from helpers import bind, evaluate, fixture_parts, flat_norm_sq
from hfree import expr as expr_module, gallery
from hfree.brackets import (
    RPStructure,
    SymplecticChart,
    contact_frame,
    hamiltonian_field,
    novikov_structure,
)
from hfree.cli import main
from hfree.constructions import compose, monomial_free_map
from hfree.expr import parse
from hfree.fields import Chart, Frame, SmoothMap, VectorField, lie_derivative
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
    with pytest.raises(KeyError):
        gallery.show("no-such-fixture")


def test_listing_parses_nothing(monkeypatch, capsys):
    """`gallery list` reads only the names: no manifest is parsed."""

    def refused(text):
        raise AssertionError("a manifest was parsed")

    monkeypatch.setattr(gallery, "parse_manifest_text", refused)
    monkeypatch.setattr(gallery, "_parsed", {})
    assert main(["gallery", "list"]) == 0
    assert capsys.readouterr().out.split() == list_fixtures()


def test_a_fixture_is_parsed_and_compiled_once(monkeypatch):
    """fixture() returns one manifest per name, and its second check builds
    no jet and compiles no tape: the plan and tape of the first stay on it."""
    m = fixture("integrable-torus-2")
    assert fixture("integrable-torus-2") is m
    run_fixture(m, samples=100, seed=1)
    compiled = []

    def counted(*args):
        compiled.append(args)
        return expr_module.compile_batch(*args)

    for module in ("checks", "jets"):
        monkeypatch.setattr(f"hfree.{module}.compile_batch", counted)
    assert run_fixture(m, samples=100, seed=2).verdict == "pass"
    assert compiled == []


def _planar(vector, component):
    chart = Chart(coords=("x", "y"), box=((-2.0, 2.0), (-2.0, 2.0)))
    return chart, Frame(chart, (VectorField(chart, tuple(parse(c) for c in vector)),)), (parse(component),)


def _torus(n):
    coords = tuple(f"phi{a + 1}" for a in range(n)) + tuple(f"p{a + 1}" for a in range(n))
    box = tuple(((0.0, 2 * math.pi) if i < n else (-2.0, 2.0)) for i in range(2 * n))
    chart = Chart(coords=coords, box=box, periodic=tuple(i < n for i in range(2 * n)))
    sc = SymplecticChart(n=n, chart=chart)
    frame = Frame(chart, tuple(hamiltonian_field(sc, parse(f"exp(p{a + 1})*cos(phi{a + 1})")) for a in range(n)))
    return chart, frame, tuple(parse(f"exp(p{a + 1})*sin(phi{a + 1})") for a in range(n))


def _riemann_poisson_e3():
    chart = Chart(coords=("x", "y", "z"), box=((-2.0, 2.0),) * 3)
    structure = RPStructure.from_functions(chart, [parse("(1-y^2)*exp(x)")])
    frame = Frame(chart, (hamiltonian_field(structure, parse("(1+x^2)*z + sin(x*y)"), sign=-1),))
    return chart, frame, (parse("y*exp(x)"),)


def _contact(n):
    frame = contact_frame(n)
    return frame.chart, frame, tuple(parse(c) for c in frame.chart.coords[:-1])


# each construct fixture's chart, frame and map, built directly from the
# library's constructors
_DIRECT = {
    "planar-hamiltonian": lambda: _planar(("2*y", "1 - y^2"), "y*exp(x)"),
    "planar-finite-type": lambda: _planar(("3*y - 1", "1 - y^2"), "y*exp(x)"),
    "planar-intrinsically-exact": lambda: _planar(("y*(1 - y^2)", "1 - 3*y^2"), "y*(1 - y^2)*exp(x)"),
    **{f"integrable-torus-{n}": (lambda n=n: _torus(n)) for n in (1, 2, 3)},
    "riemann-poisson-e3": _riemann_poisson_e3,
    **{f"contact-{n}": (lambda n=n: _contact(n)) for n in (1, 2)},
}


@pytest.mark.parametrize("name", list(_DIRECT))
def test_manifest_builds_the_construction(name):
    """A construct fixture's manifest gives the chart, frame and map of the
    library's constructors, and the composite with the monomial free map."""
    chart, frame, components = _DIRECT[name]()
    fix = fixture_parts(name)
    assert fix.chart == chart and fix.frame == frame
    assert fix.immersion == SmoothMap(chart, components)
    assert fix.free_map == compose(monomial_free_map(len(components)), SmoothMap(chart, components))
    assert fixture(name).mode == "construct"


def test_novikov_manifest_is_the_novikov_structure():
    fix = fixture_parts("novikov-t3")
    assert fix.bracket.args[0] == novikov_structure((0.0, 0.0, 1.0))
    assert fixture("novikov-t3").mode == "bracket-laws"
    assert fixture("novikov-t3").tolerance == 1e-8


def test_planar_hamiltonian_expected_row():
    fix = fixture_parts("planar-hamiltonian")
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
    fix = fixture_parts("contact-1")
    xi1 = fix.frame.vectors[0]
    binding = {"x1": 0.0, "p1": 0.75, "t": 0.0}
    assert [evaluate(c, binding) for c in xi1.components] == [1.0, 0.0, -0.75]


@pytest.mark.parametrize("name", [n for n in list_fixtures() if n != "novikov-t3"])
def test_expected_formulas_match_symbolic(name):
    fix = fixture_parts(name)
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
    fix = fixture_parts(name)
    for point in sample_points(fix.chart, samples=100, seed=3):
        assert is_immersion_at(fix.frame, fix.immersion, point)
        assert is_free_at(fix.frame, fix.free_map, point)


def test_first_integral_witnesses_vanish():
    for name in ("planar-hamiltonian", "planar-finite-type"):
        fix = fixture_parts(name)
        derived = lie_derivative(fix.frame.vectors[0], fix.witnesses[0])
        for point in sample_points(fix.chart, samples=200, seed=4):
            assert abs(evaluate(derived, bind(fix.chart, point))) <= 1e-12


def test_intrinsically_exact_norm_relation():
    fix = fixture_parts("planar-intrinsically-exact")
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
    assert report.mode == "construct"
    assert report.points_checked == 300
    assert report.worst_point is not None

    report = run_fixture(fixture("novikov-t3"), samples=50, seed=6)
    assert report.verdict == "pass"
    assert report.mode == "bracket-laws"
    assert report.fixture_notes == ["bracket-laws only: no immersion is claimed for this structure"]


def _report(args, capsys) -> dict:
    main(args + ["--json"])
    data = json.loads(capsys.readouterr().out)
    del data["wall_time_ms"], data["fixture_notes"]
    return data


@pytest.mark.parametrize("name", list_fixtures())
def test_a_shown_fixture_checks_as_the_gallery_runs_it(name, tmp_path, capsys):
    """`hfree check` of the text `gallery show` prints gives the report of
    `gallery run`, both at the CLI defaults (10^4 samples, seed 0)."""
    assert main(["gallery", "show", name]) == 0
    path = tmp_path / f"{name}.toml"
    path.write_text(capsys.readouterr().out)
    assert _report(["check", str(path)], capsys) == _report(["gallery", "run", name], capsys)


def test_show_prints_the_notes_as_comments(capsys):
    assert main(["gallery", "show", "novikov-t3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# note: bracket-laws only: no immersion is claimed for this structure\n")
    assert "mode = bracket-laws\n" in out
    known = ", ".join(gallery.list_fixtures())
    for command in ("show", "run"):
        assert main(["gallery", command, "no-such-fixture"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: unknown fixture 'no-such-fixture'; known: {known}\n"
