import gc
import textwrap

import pytest

from hfree import expr, gallery
from hfree.checks import run_check
from hfree.expr import parse
from hfree.manifest import (
    ManifestError,
    _texts,
    build_frame,
    build_map,
    build_plan,
    parse_manifest_text,
)

PLANAR = textwrap.dedent(
    """
    [manifold]
    coords = [x, y]
    box = [[-2, 2], [-2, 2]]

    [frame]
    vectors = [["2*y", "1 - y^2"]]

    [map]
    components = ["y*exp(x)"]

    [check]
    mode = immersion
    samples = 100
    seed = 7
    tolerance = 1e-9
    """
)


def test_parse_planar_manifest():
    m = parse_manifest_text(PLANAR)
    assert m.chart.coords == ("x", "y")
    assert m.mode == "immersion"
    assert m.samples == 100 and m.seed == 7
    frame = build_frame(m)
    assert frame.k == 1
    smap = build_map(m)
    assert smap.q == 1


def test_comments_and_blank_lines():
    text = PLANAR.replace("[check]", "# leading comment\n[check]")
    m = parse_manifest_text(text + "\n# trailing\n")
    assert m.mode == "immersion"


def test_grid_plan():
    text = PLANAR + "\n"
    text = text.replace("samples = 100", "samples = 100\ngrid = [5, 5]")
    m = parse_manifest_text(text)
    assert m.grid == [5, 5]


def test_structure_contact():
    text = textwrap.dedent(
        """
        [structure]
        type = contact
        n = 2

        [map]
        components = ["x1", "p1", "x2", "p2"]

        [check]
        mode = immersion
        samples = 10
        """
    )
    m = parse_manifest_text(text)
    assert m.chart.dim == 5
    assert build_frame(m).k == 4


def test_structure_riemann_poisson():
    text = textwrap.dedent(
        """
        [manifold]
        coords = [x, y, z]
        box = [[-2, 2], [-2, 2], [-2, 2]]

        [structure]
        type = riemann-poisson
        H = ["(1-y^2)*exp(x)"]
        hamiltonian = "(1+x^2)*z + sin(x*y)"
        sign = -1

        [map]
        components = ["y*exp(x)"]

        [check]
        mode = immersion
        samples = 10
        """
    )
    m = parse_manifest_text(text)
    frame = build_frame(m)
    assert frame.k == 1


@pytest.mark.parametrize(
    "mutation,fragment",
    [
        (("mode = immersion", "mode = nonsense"), "mode"),
        (("[manifold]", "[elsewhere]"), "manifold"),
        (("components = [\"y*exp(x)\"]", "components = []"), "components"),
        (("samples = 100", "samples = 0"), "samples"),
        (("tolerance = 1e-9", "tolerance = -1"), "tolerance"),
        (("vectors = [[\"2*y\", \"1 - y^2\"]]", "vectors = [[\"2*y\"]]"), "component"),
        (("\"y*exp(x)\"", "\"y*exp(\""), "expression"),
        (("box = [[-2, 2], [-2, 2]]", "box = [[false, true], [-2, 2]]"), "box edges"),
        (("box = [[-2, 2], [-2, 2]]", 'box = [["-1", 2], [-2, 2]]'), "box edges"),
        (("box = [[-2, 2], [-2, 2]]", "box = [[-2, 0, 2], [-2, 2]]"), "box edges"),
        # on a [0, 2*pi) axis, where a periodic flag is valid
        (("[[-2, 2], [-2, 2]]", '[[0, 6.283185307179586], [-2, 2]]\nperiodic = ["false", false]'), "periodic"),
        (("[[-2, 2], [-2, 2]]", "[[0, 6.283185307179586], [-2, 2]]\nperiodic = [no, false]"), "periodic"),
        (("[-2, 2]]\n", "[-2, 2]]\nperiodic = false\n"), "periodic"),
    ],
)
def test_bad_manifests(mutation, fragment):
    old, new = mutation
    text = PLANAR.replace(old, new)
    with pytest.raises(ManifestError) as err:
        m = parse_manifest_text(text)
        build_frame(m)
        build_map(m)
    assert fragment.lower() in str(err.value).lower()


_IMMERSION_OF_A_COORDINATE = """
[manifold]
coords = [{name}, y]
box = [[-1, 1], [-1, 1]]

[frame]
vectors = [["1", "0"]]

[map]
components = ["{name}"]

[check]
mode = immersion
"""


@pytest.mark.parametrize("name", ["pi", "2"])
def test_a_coordinate_the_dsl_reads_otherwise_is_refused(name):
    """The map is the coordinate, so D1 = 1; but the DSL reads pi and 2 as
    constants, which made the check fail with rank 0 < 1. The chart is
    refused instead, in [manifold] and in [outer]."""
    with pytest.raises(ManifestError, match=r"bad \[manifold\] section: coordinate name '%s'" % name):
        build_frame(parse_manifest_text(_IMMERSION_OF_A_COORDINATE.format(name=name)))
    text = _IMMERSION_OF_A_COORDINATE.format(name="x").replace("immersion", "construct")
    outer = f'[outer]\ncoords = [{name}]\ncomponents = ["{name}", "{name}^2"]\n\n[check]'
    with pytest.raises(ManifestError, match=r"bad \[outer\] section: coordinate name '%s'" % name):
        run_check(parse_manifest_text(text.replace("[check]", outer)))


def test_syntax_error_carries_line():
    bad = PLANAR.replace("samples = 100", "samples 100")
    with pytest.raises(ManifestError) as err:
        parse_manifest_text(bad)
    assert err.value.line is not None


def test_frame_and_structure_exclusive():
    text = PLANAR + "\n[structure]\ntype = contact\nn = 1\n"
    with pytest.raises(ManifestError):
        parse_manifest_text(text)


def test_equal_manifests_share_their_trees_and_symbolic_work(monkeypatch):
    """Hash-consing: the same manifest read twice gives the identical trees,
    and the second order-2 jet is built from the memos of the first without
    a new node: its Lie sums are built simplified, and every node they
    reach is live in the first jet."""
    from hfree.jets import d2_exprs

    text = PLANAR.replace('["y*exp(x)"]', '["y*exp(x)", "y^2*exp(2*x) + sin(x*y)"]')
    first = parse_manifest_text(text)
    frame, smap = build_frame(first), build_map(first)
    rows = d2_exprs(frame, smap)
    built = []
    new = expr._new
    monkeypatch.setattr(expr, "_new", lambda *node: built.append(node) or new(*node))
    second = parse_manifest_text(text)
    again = build_frame(second), build_map(second)
    assert again[1].components == smap.components
    assert all(a is b for a, b in zip(again[1].components, smap.components))
    assert all(
        a is b for u, v in zip(again[0].vectors, frame.vectors) for a, b in zip(u.components, v.components)
    )
    rows_again = d2_exprs(*again)
    assert all(a is b for row, row_again in zip(rows, rows_again) for a, b in zip(row, row_again))
    assert built == []
    assert expr.Const(0.0) is not expr.Const(-0.0)
    assert expr.Const(0.0) == expr.Const(-0.0)


_FRESH = textwrap.dedent(
    """
    [manifold]
    coords = [fresh_x, fresh_y]
    box = [[-2, 2], [-2, 2]]

    [frame]
    vectors = [[FRAME]]

    [map]
    components = [MAP]

    [check]
    mode = MODE
    samples = 50
    """
)

_OUTER = '[outer]\ncoords = [fresh_u]\ncomponents = ["fresh_u", "fresh_u^2"]\n'
_FRAME = '"2*fresh_y", "1 - fresh_y^2"'
# a frame and a map that repeat parenthesised groups, a call's argument among them
_GROUPED_FRAME = '"(1 + fresh_y^2)", "2*(1 + fresh_y^2)"'
_GROUPED_MAP = '"exp(fresh_x + fresh_y)*(fresh_x + fresh_y) + (fresh_x + fresh_y)"'


@pytest.mark.parametrize(
    "mode, components, outer, frame",
    [
        ("immersion", '"fresh_y*exp(fresh_x)"', "", _FRAME),
        ("free", '"fresh_y*exp(fresh_x)", "fresh_y^2*exp(2*fresh_x) + sin(fresh_x*fresh_y)"', "", _FRAME),
        ("identity", '"fresh_y*exp(fresh_x)"', _OUTER, _FRAME),
        ("construct", '"fresh_y*exp(fresh_x)"', _OUTER, _FRAME),
        ("immersion", _GROUPED_MAP, "", _GROUPED_FRAME),
    ],
    ids=["immersion", "free", "identity", "construct", "repeated-groups"],
)
def test_a_finished_check_leaves_no_node_behind(mode, components, outer, frame):
    """Every tree of a check, its jets' included, is freed once the check
    and its manifest are done: no cache holds a jet or a node past the
    manifest whose plan it was built for, the memo of the groups its plan
    parsed included."""
    text = _FRESH.replace("MAP", components).replace("MODE", mode).replace("FRAME", frame) + outer
    gc.collect()
    size = len(expr._table)
    assert run_check(parse_manifest_text(text)).verdict == "pass"
    gc.collect()
    assert len(expr._table) == size


@pytest.mark.parametrize("name", gallery.list_fixtures())
def test_a_plans_group_memo_parses_each_text_as_it_parses_alone(name):
    """A plan's texts share one memo of parenthesised groups: each text is
    the tree that it parses to alone, and so is each component of the plan."""
    m = gallery.fixture(name)
    texts = [t for value in (m.frame_vectors, m.structure, m.map_components, m.outer) for t in _texts(value)]
    groups = {}
    assert all(parse(t, groups) is parse(t) for t in texts)
    plan = build_plan(m)
    assert all(c is parse(t) for c, t in zip(plan.smap.components, m.map_components))
    if m.frame_vectors is not None:
        vectors = [c for v in plan.frame.vectors for c in v.components]
        assert vectors == [parse(t) for v in m.frame_vectors for t in v]
