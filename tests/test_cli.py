import contextlib
import io
import json
import os
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import evaluate, random_expr, strict_json
import hfree
from hfree import checks, cli
from hfree.cli import main
from hfree.expr import Add, Const, Coord, Div, EvalError, Exp, Mul, NestingError, Pow, Sub, parse, to_str
from hfree.manifest import ManifestError, build_plan, parse_manifest_text


@pytest.fixture
def planar_manifest(tmp_path):
    path = tmp_path / "planar.toml"
    path.write_text(
        textwrap.dedent(
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
            samples = 500
            seed = 0
            tolerance = 1e-9
            """
        )
    )
    return str(path)


RECIPROCAL_MANIFEST = textwrap.dedent(
    """
    [manifold]
    coords = [x, y]
    box = [[-1, 1], [-1, 1]]

    [frame]
    vectors = [["1", "0"]]

    [map]
    components = ["1/x"]

    [check]
    mode = identity
    grid = [3, 3]
    """
)


def _strip_wall_time(payload: str) -> dict:
    data = json.loads(payload)
    data.pop("wall_time_ms")
    return data


class TestCheck:
    def test_pass_exit_zero(self, planar_manifest, capsys):
        assert main(["check", planar_manifest]) == 0
        assert "pass" in capsys.readouterr().out

    def test_constant_map_fails(self, planar_manifest, tmp_path, capsys):
        text = open(planar_manifest).read().replace('"y*exp(x)"', '"3"')
        bad = tmp_path / "const.toml"
        bad.write_text(text)
        assert main(["check", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "fail" in out

    def test_manifest_error_exit_two(self, planar_manifest, tmp_path, capsys):
        text = open(planar_manifest).read().replace("mode = immersion", "mode = bogus")
        bad = tmp_path / "bad.toml"
        bad.write_text(text)
        assert main(["check", str(bad)]) == 2

    def test_a_coordinate_named_pi_exit_two(self, planar_manifest, tmp_path, capsys):
        text = open(planar_manifest).read().replace("coords = [x, y]", "coords = [pi, y]")
        bad = tmp_path / "pi.toml"
        bad.write_text(text.replace("y*exp(x)", "y*exp(pi)"))
        assert main(["check", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: bad [manifold] section: coordinate name 'pi'")

    def test_missing_file_exit_two(self):
        assert main(["check", "/nonexistent/manifest"]) == 2

    def test_below_critical_dimension_verdict(self, planar_manifest, tmp_path, capsys):
        text = open(planar_manifest).read().replace(
            "mode = immersion", "mode = free"
        )
        manifest = tmp_path / "free.toml"
        manifest.write_text(text)
        # q = 1 < k + s_k = 2: distinguished verdict, non-zero exit
        assert main(["check", str(manifest), "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "below-critical-dimension"
        assert data["points_checked"] == 0

    def test_json_report_schema(self, planar_manifest, capsys):
        assert main(["check", planar_manifest, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert list(data) == [
            "verdict",
            "mode",
            "points_checked",
            "worst",
            "failures",
            "fixture_notes",
            "wall_time_ms",
        ]
        assert data["points_checked"] == 500
        assert set(data["worst"]) == {"point", "criterion"}


class TestVerifyIdentity:
    def test_planar_identity(self, planar_manifest, capsys):
        assert main(["verify-identity", planar_manifest, "--quiet"]) == 0
        assert capsys.readouterr().out.strip() == "pass"

    def test_undefined_inner_jet_reasons(self, tmp_path, capsys):
        manifest = tmp_path / "reciprocal.toml"
        manifest.write_text(RECIPROCAL_MANIFEST)
        assert main(["check", str(manifest), "--json"]) == 1
        failures = json.loads(capsys.readouterr().out)["failures"]
        assert failures == [
            {"point": [0.0, y], "reason": "inner jet block: division by zero"}
            for y in (-1.0, 0.0, 1.0)
        ]


@pytest.mark.parametrize(
    "literal",
    [
        "1" + "0" * 103,  # det D1 = 1e103: its cube raises OverflowError in float **
        "5" + "0" * 102,  # det D1 = 5e102: the cube is finite, the products are not
    ],
    ids=["power-overflows", "residual-nan"],
)
def test_identity_beyond_the_float_range_fails_with_strict_json(literal, tmp_path, capsys):
    manifest = tmp_path / "huge.toml"
    manifest.write_text(
        RECIPROCAL_MANIFEST.replace("[-1, 1]", "[-2, 2]")
        .replace('"1/x"', f'"{literal}*x + y"')
        .replace("grid = [3, 3]", "samples = 20")
    )
    assert main(["check", str(manifest), "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""  # no internal error, no traceback
    data = strict_json(captured.out)
    assert data["verdict"] == "fail"
    assert {f["reason"] for f in data["failures"]} == {"overflow: determinants beyond the float range"}
    assert len(data["failures"]) == 20
    assert data["worst"] is None  # a residual that is not finite is no criterion


def test_overflow_at_a_point_is_a_failure(planar_manifest, tmp_path, capsys):
    text = open(planar_manifest).read().replace('"y*exp(x)"', '"exp(exp(exp(3*x)))"')
    manifest = tmp_path / "overflow.toml"
    manifest.write_text(text)
    assert main(["check", str(manifest), "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "fail"
    # math.exp overflows, and so does the product of huge finite factors in
    # the jet: both are the same evaluation fault
    reasons = {f["reason"] for f in data["failures"]}
    assert reasons == {"overflow"}


def test_overflowing_constant_is_a_failure_at_each_point(tmp_path, capsys):
    # simplify used to fold exp(1000) and crash with OverflowError
    manifest = tmp_path / "constant-overflow.toml"
    manifest.write_text(
        textwrap.dedent(
            """
            [manifold]
            coords = [x, y]
            box = [[-1, 1], [-1, 1]]

            [frame]
            vectors = [["1", "0"]]

            [map]
            components = ["exp(1000)*x"]

            [check]
            mode = immersion
            samples = 40
            """
        )
    )
    assert main(["check", str(manifest), "--json"]) == 1
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert data["verdict"] == "fail"
    assert data["failures"] == [
        {"point": failure["point"], "reason": "overflow"} for failure in data["failures"]
    ]
    assert len(data["failures"]) == data["points_checked"] == 40
    assert "Traceback" not in captured.err


def test_free_check_of_a_huge_map_writes_nothing_to_stderr(tmp_path, capsys):
    # its jets, near 1e200, would overflow in A.A^T: the rank screen leaves
    # them to the SVD, which ranks them without a warning
    manifest = tmp_path / "huge-free.toml"
    manifest.write_text(
        textwrap.dedent(
            """
            [manifold]
            coords = [x, y]
            box = [[-2, 2], [-2, 2]]

            [frame]
            vectors = [["2*y", "1 - y^2"]]

            [map]
            components = ["B*y*exp(x)", "B*y^2*exp(2*x)"]

            [check]
            mode = free
            samples = 600
            """
        ).replace("B", "1" + "0" * 200)
    )
    assert main(["check", str(manifest), "--json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["verdict"] == "pass"
    assert captured.err == ""


# simd: each check picks its own chunk length, and its report must not depend
# on it on any of numpy's loops.
@pytest.mark.simd
@pytest.mark.parametrize(
    "manifest, args",
    [
        (None, ["gallery", "run", "integrable-torus-2", "--samples", "600", "--seed", "5"]),
        (None, ["gallery", "run", "novikov-t3", "--samples", "300", "--seed", "5"]),
        (None, ["gallery", "run", "planar-hamiltonian", "--samples", "12000", "--seed", "5"]),
        ("planar-identity", ["check"]),
        ("planar-construct", ["check"]),
        ("reciprocal", ["check"]),
    ],
)
def test_report_does_not_depend_on_chunk_size(
    manifest, args, planar_manifest, tmp_path, monkeypatch, capsys
):
    """The same report from chunks of 1, 7 and CHUNK points and from the
    check's own chunk length. planar-hamiltonian's own chunks are longer than
    CHUNK, and its 12000 samples span more than one of them."""
    if manifest in ("planar-identity", "planar-construct"):
        mode = manifest.removeprefix("planar-")
        text = open(planar_manifest).read().replace("mode = immersion", f"mode = {mode}")
        text = text.replace("samples = 500", "samples = 600")
    elif manifest == "reciprocal":
        text = RECIPROCAL_MANIFEST
    if manifest is not None:
        path = tmp_path / f"{manifest}.toml"
        path.write_text(text)
        args = args + [str(path)]
    lengths = []
    add = checks._Fold.add

    def counted(fold, start, crit, *rest):
        lengths.append(len(crit))
        return add(fold, start, crit, *rest)

    monkeypatch.setattr(checks._Fold, "add", counted)
    payloads = []
    for chunk in (1, 7, checks.CHUNK, None):
        lengths.clear()
        with monkeypatch.context() as patch:
            if chunk is not None:  # a budget of no bytes leaves chunks of CHUNK points
                patch.setattr(checks, "CHUNK", chunk)
                patch.setattr(checks, "CHUNK_BYTES", 0)
            main(args + ["--json"])
        payloads.append(json.dumps(_strip_wall_time(capsys.readouterr().out), indent=2))
        if chunk is not None:
            assert lengths[0] == min(chunk, sum(lengths))
    if "planar-hamiltonian" in args:
        assert len(lengths) >= 2 and lengths[0] > checks.CHUNK
    assert payloads[0] == payloads[1] == payloads[2] == payloads[3]


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
    samples = 20
    """
)

SPACE = PLANAR.replace("[x, y]", "[x, y, z]").replace("[[-2, 2], [-2, 2]]", "[[-2, 2], [-2, 2], [-2, 2]]")


def _structure(text: str, structure: str) -> str:
    """The manifest text with its [frame] section replaced by a [structure]."""
    head, _, rest = text.partition("[frame]")
    return head + "[structure]\n" + structure + "\n" + rest.split("\n", 2)[2]


BIG = "1" + "0" * 200  # finite, but its square is not
D_DX = PLANAR.replace('"2*y", "1 - y^2"', '"1", "0"')
CANONICAL = _structure(PLANAR.replace("[x, y]", "[q, p]"), "type = canonical\nn = 1").replace(
    "mode = immersion", "mode = bracket-laws"
)


@pytest.mark.parametrize(
    "text, reason",
    [
        (D_DX.replace('"y*exp(x)"', f'"{BIG}*x*{BIG} + y"'), "overflow"),
        (D_DX.replace('"y*exp(x)"', f'"1/({BIG}*{BIG}*(x+3)) + x + y"'), "overflow"),
        (
            D_DX.replace('"y*exp(x)"', f'"{BIG}*y*{BIG}*exp(x)"').replace("= immersion", "= identity"),
            "inner jet block: overflow",
        ),
        # a bracket-law residual that cannot be evaluated is not a residual of 0
        (CANONICAL.replace('"y*exp(x)"', f'"q*{BIG}*{BIG}*p", "q^2", "p^2 + q"'), "antisymmetry: overflow"),
        (CANONICAL.replace('"y*exp(x)"', f'"exp(q)*{BIG}*{BIG}", "p*q", "p^3"'), "antisymmetry: overflow"),
    ],
    ids=["immersion-product", "immersion-quotient", "identity", "bracket-laws-product", "bracket-laws-exp"],
)
def test_overflow_is_one_fault_in_every_mode(text, reason, tmp_path, capsys):
    """A value beyond the float range is an evaluation fault of its point in
    every mode: each point fails with the fault as its reason and has no
    criterion."""
    manifest = tmp_path / "overflow.toml"
    manifest.write_text(text)
    assert main(["check", str(manifest), "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    data = strict_json(captured.out)
    assert data["verdict"] == "fail"
    assert data["worst"] is None
    assert {f["reason"] for f in data["failures"]} == {reason}
    assert len(data["failures"]) == data["points_checked"] == 20


@pytest.mark.parametrize(
    "text, section",
    [
        (PLANAR.replace('["2*y", "1 - y^2"]', '["2*z", "1"]'), "frame"),
        (PLANAR.replace('[["2*y", "1 - y^2"]]', '[["1", "0"], ["0", "1"], ["1", "1"]]'), "frame"),
        (_structure(SPACE, 'type = canonical\nhamiltonians = ["x"]'), "structure"),
        (
            _structure(SPACE, 'type = canonical').replace("mode = immersion", "mode = bracket-laws")
            .replace('["y*exp(x)"]', '["x", "y", "z"]'),
            "structure",
        ),
        (_structure(PLANAR, 'type = riemann-poisson\nH = ["x"]\nhamiltonian = "y"'), "structure"),
        (
            _structure(SPACE, 'type = riemann-poisson\nH_gradients = [["1", "0"]]\nhamiltonian = "x"'),
            "structure",
        ),
        # d/dx, d/dy and d/dz of H drop w, so only the chart check sees it
        (_structure(SPACE, 'type = riemann-poisson\nH = ["(1-y^2)*exp(x) + w"]\nhamiltonian = "y"'), "structure"),
        (
            PLANAR.replace("mode = immersion", "mode = identity")
            + '[outer]\ncoords = [u]\ncomponents = ["v", "u^2"]\n',
            "outer",
        ),
        # a string where an array belongs is not read one character at a time
        (
            PLANAR.replace("mode = immersion", "mode = construct").replace('"y*exp(x)"', '"x"')
            + '[outer]\ncoords = "u"\ncomponents = ["u", "u^2"]\n',
            "outer",
        ),
        (
            PLANAR.replace("mode = immersion", "mode = construct").replace('"y*exp(x)"', '"x"')
            + '[outer]\ncoords = [u]\ncomponents = "u2"\n',
            "outer",
        ),
        (_structure(SPACE, 'type = riemann-poisson\nH_gradients = ["111"]\nhamiltonian = "x"'), "structure"),
        (_structure(PLANAR, "type = contact").replace('["y*exp(x)"]', '["x", "y"]'), "structure"),
        (
            _structure(PLANAR, "type = [1]").replace("mode = immersion", "mode = bracket-laws")
            .replace('["y*exp(x)"]', '["x", "y", "x*y"]'),
            "structure",
        ),
        (PLANAR.replace("samples = 20", "grid = [2.5, 3]"), "check"),
        (PLANAR.replace("samples = 20", 'grid = ["a", 3]'), "check"),
        (PLANAR.replace("samples = 20", "tolerance = nan"), "check"),
        (PLANAR.replace("samples = 20", "tolerance = inf"), "check"),
        (PLANAR.replace("mode = immersion", "mode = immersion\nmode = free"), "check"),
        (PLANAR.replace('components = ["y*exp(x)"]', 'components = ["y*exp(x)"]\ncomponents = ["x"]'), "map"),
        (PLANAR.replace("samples = 20", "samples = 2.7"), "check"),
        (PLANAR.replace("samples = 20", "samples = true"), "check"),
        (PLANAR.replace("samples = 20", 'samples = "20"'), "check"),
        (PLANAR.replace("samples = 20", "samples = 20\nseed = 1.5"), "check"),
        (PLANAR.replace("coords = [x, y]", "coords = [x, y]\ndim = 2.0"), "manifold"),
        ('[structure]\ntype = contact\nn = 1.5\n[map]\ncomponents = ["x1", "p1"]\n[check]\nmode = free\n', "structure"),
        (_structure(PLANAR, 'type = canonical\nn = true\nhamiltonians = ["x"]'), "structure"),
        (_structure(SPACE, 'type = riemann-poisson\nH = ["x"]\nhamiltonian = "y"\nsign = -1.0'), "structure"),
        (PLANAR.replace("samples = 20", "grid = [true, 2]"), "check"),
        (PLANAR.replace("samples = 20", "samples = 20\ntolerance = true"), "check"),
        (PLANAR.replace("samples = 20", 'samples = 20\ntolerance = "1e-3"'), "check"),
        # a box edge that overflows to inf once sampled at x = inf and passed
        (
            PLANAR.replace("[[-2, 2], [-2, 2]]", f"[[-2, 1{'0' * 400}.0], [-2, 2]]")
            .replace('"y*exp(x)"', '"x + y"'),
            "manifold",
        ),
        (PLANAR.replace("[[-2, 2], [-2, 2]]", "[[-2, 2], [-inf, 2]]"), "manifold"),
        (PLANAR.replace("[[-2, 2], [-2, 2]]", "[[-1e308, 1e308], [-2, 2]]"), "manifold"),
        # integer exponents beyond 2^53, a chain of them bounded before it is computed
        (PLANAR.replace('"y*exp(x)"', '"x^9^9^3"'), "map"),
        (PLANAR.replace('"y*exp(x)"', '"x^9^9^9"'), "map"),
        (PLANAR.replace('"y*exp(x)"', '"x^' + "9" * 400 + '"'), "map"),
        # point arrays beyond sampling.MAX_COORDINATES, refused before they are allocated
        (PLANAR.replace("samples = 20", "samples = 100000000000"), "check"),
        (PLANAR.replace("samples = 20", "grid = [100000, 100000]"), "check"),
        (PLANAR.replace("samples = 20", "samples = 16777217"), "check"),
    ],
)
def test_bad_manifest_exits_two_naming_its_section(text, section, tmp_path, capsys):
    # exit 1 is a fail verdict, which a manifest that cannot be checked must not look like
    path = tmp_path / "bad.toml"
    path.write_text(text)
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"[{section}]" in err
    assert "Traceback" not in err


PERIODIC_GRID = textwrap.dedent(
    """
    [manifold]
    coords = [x]
    box = [[0, 6.283185307179586]]
    periodic = PERIODIC

    [frame]
    vectors = [["1"]]

    [map]
    components = ["sin(x)"]

    [check]
    mode = immersion
    grid = [5]
    """
)


@pytest.mark.parametrize(
    "periodic, code",
    [("[true]", 0), ("[false]", 1), ('["false"]', 2), ("[no]", 2), ("[1]", 2)],
)
def test_periodic_flags_are_booleans(periodic, code, tmp_path, capsys):
    """A periodic grid leaves out the far edge 2*pi, so it misses the zero of
    cos(x) at pi/2 that the closed grid hits: a quoted "false" or a bare word
    must not read as true and turn that fail into a pass."""
    path = tmp_path / "periodic.toml"
    path.write_text(PERIODIC_GRID.replace("PERIODIC", periodic))
    assert main(["check", str(path)]) == code
    err = capsys.readouterr().err
    assert ("bad [manifold] section: periodic" in err) == (code == 2)


# A 2,000-term sum, whose tree is 2,000 nodes deep, and 1,000 nested
# parentheses or unary minuses, which the parser descends one level each.
DEEP = [("+".join(["x"] * 2000), 2000), ("(" * 1000 + "x" + ")" * 1000, 1000), ("-" * 1000 + "x", 1000)]


@pytest.mark.parametrize("text, depth", DEEP)
def test_deep_map_exits_two_on_one_line(text, depth, tmp_path, capsys):
    path = tmp_path / "deep.toml"
    path.write_text(PLANAR.replace('"y*exp(x)"', f'"{text}"'))
    assert main(["check", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: bad [map] section: expression nested {depth} deep: ")
    assert err.count("\n") == 1


def test_a_check_does_not_depend_on_what_the_process_parsed_before(tmp_path, capsys):
    """Each plan parses its groups with a memo of its own, dropped with the
    build. A memo that outlived it, shared by later manifests or kept by
    parse across calls, would let DEEP's 1,000 nested parentheses parse once
    earlier texts had parsed their inner groups one level at a time, and the
    check of that map, x, would pass instead of exiting 2. A map that
    repeats a group keeps its report too."""
    deep, grouped = tmp_path / "deep.toml", tmp_path / "grouped.toml"
    deep.write_text(PLANAR.replace('"y*exp(x)"', f'"{DEEP[1][0]}"'))
    grouped.write_text(PLANAR.replace('"y*exp(x)"', '"(y)*exp((x)) + (x)*(y)"'))

    def outcomes():
        return [(main(["check", str(path)]), capsys.readouterr()) for path in (deep, grouped)]

    before = outcomes()
    for j in range(1, 1000):
        nested = "(" * j + "x" + ")" * j
        with contextlib.suppress(NestingError):
            parse(nested)
        with contextlib.suppress(ManifestError):
            build_plan(parse_manifest_text(PLANAR.replace('"y*exp(x)"', f'"{nested}"')))
    assert outcomes() == before
    (code, (out, err)), (grouped_code, (grouped_out, _)) = before
    assert code == 2 and out == ""
    assert err.startswith(f"error: bad [map] section: expression nested {DEEP[1][1]} deep: ")
    assert grouped_code == 0 and grouped_out.startswith("verdict: pass\n")


_SUM_OF_PRODUCTS = textwrap.dedent(
    """
    [manifold]
    coords = [x, y]
    box = [[1, 2], [1, 2]]

    [frame]
    vectors = [["1", "0"]]

    [map]
    components = [MAP]

    [check]
    mode = MODE
    samples = 20
    """
)


@pytest.mark.parametrize("mode", ["immersion", "free", "identity"])
def test_a_sum_of_480_products_checks(mode, tmp_path):
    """The recursive walks take a fixed number of Python frames per tree
    level, and building nodes simplified adds none: a map that is a sum of
    480 terms c*x*y, 482 levels deep, still checks in every mode, where 500
    terms exit 2. Its derivative along d/dx is 240*y, nowhere 0 on the box.
    The check runs as the CLI does, in a fresh interpreter, since the test
    runner's own frames count against the recursion limit."""
    total = '"' + " + ".join(["0.5*x*y"] * 480) + '"'
    path = tmp_path / "sum.toml"
    components = total + (', "x^2"' if mode == "free" else "")
    path.write_text(_SUM_OF_PRODUCTS.replace("MAP", components).replace("MODE", mode))
    src = os.path.dirname(os.path.dirname(hfree.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    command = [sys.executable, "-m", "hfree.cli", "check", "--quiet", str(path)]
    run = subprocess.run(command, env=env, capture_output=True, text=True)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == "pass\n"


def test_deep_composite_exits_two_on_one_line(tmp_path, capsys):
    """Identity mode substitutes the map into the outer map, so the
    composite's jet is about as deep as the two together; the error names the
    deeper of the two."""
    path = tmp_path / "deep.toml"
    text = PLANAR.replace("immersion", "identity").replace('"y*exp(x)"', '"' + "+".join(["x*y"] * 400) + '"')
    path.write_text(text + '[outer]\ncomponents = ["' + "+".join(["x1"] * 400) + '", "x1^2"]\n')
    assert main(["check", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: bad [map] section: expression nested 401 deep: ")
    assert err.count("\n") == 1


def test_internal_error_exits_three_on_one_line(planar_manifest, monkeypatch, capsys):
    def broken(manifest):
        raise RuntimeError("no such luck")

    monkeypatch.setattr(cli, "run_check", broken)
    assert main(["check", planar_manifest]) == 3
    captured = capsys.readouterr()
    assert captured.err == "internal error: RuntimeError: no such luck\n"
    assert captured.out == ""


class TestGallery:
    def test_list(self, capsys):
        assert main(["gallery", "list"]) == 0
        names = capsys.readouterr().out.split()
        assert "planar-hamiltonian" in names
        assert "contact-2" in names

    def test_run_pass(self, capsys):
        code = main(
            ["gallery", "run", "planar-hamiltonian", "--samples", "500", "--seed", "7"]
        )
        assert code == 0

    def test_unknown_fixture_exit_two(self, capsys):
        assert main(["gallery", "run", "no-such-fixture"]) == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_tolerance_must_be_finite_and_positive(self, tol, capsys):
        """The manifest's rule: no residual exceeds a nan tolerance, and every
        rank and residual test reads differently at 0 or below, so exit 2."""
        for name in ("contact-1", "novikov-t3"):
            with pytest.raises(SystemExit) as exit_:
                main(["gallery", "run", name, "--samples", "50", "--tol", tol])
            assert exit_.value.code == 2
            err = capsys.readouterr().err
            assert err.endswith(f"error: argument --tol: tolerance must be finite and positive, got {tol}\n")

    @pytest.mark.parametrize("seed", ["18446744073709551616", "-1"])
    def test_seed_must_fit_in_64_unsigned_bits(self, seed, capsys):
        """The manifest's rule: 2^64 would wrap to seed 0's report."""
        with pytest.raises(SystemExit) as exit_:
            main(["gallery", "run", "contact-1", "--samples", "50", "--seed", seed])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"error: argument --seed: seed must fit in 64 unsigned bits, got {seed}\n")

    def test_samples_beyond_the_bound_exit_two(self, capsys):
        assert main(["gallery", "run", "contact-1", "--samples", "100000000000"]) == 2
        err = capsys.readouterr().err
        assert err == "error: 100000000000 points in 3 dimensions exceed the bound of 33554432 coordinates\n"

    def test_largest_seed_runs(self, capsys):
        assert main(["gallery", "run", "contact-1", "--samples", "50", "--seed", str(2**64 - 1)]) == 0

    def test_deterministic_json(self, capsys):
        args = [
            "gallery", "run", "planar-hamiltonian",
            "--samples", "300", "--seed", "11", "--json",
        ]
        assert main(args) == 0
        first = _strip_wall_time(capsys.readouterr().out)
        assert main(args) == 0
        second = _strip_wall_time(capsys.readouterr().out)
        assert json.dumps(first, sort_keys=False) == json.dumps(second, sort_keys=False)


# second operands that fault at some points: a coordinate as a divisor,
# negative powers, exp beyond the float range and an unbound coordinate
_FAULT_PRONE = [
    Coord("x"),
    Div(Const(1.0), Coord("y")),
    Pow(Coord("x"), -1),
    Pow(Coord("y"), -3),
    Exp(Const(709.7)),
    Exp(Const(710.0)),
    Exp(Mul(Const(700.0), Coord("x"))),
    Coord("z"),
]
_VALUES = [0.0, -0.0, 5e-324, 1e-200, 1e200, -1e200]


# simd: hfree eval must give the tree walk's bits on each of numpy's loops.
@pytest.mark.simd
class TestEval:
    def test_paper_value(self, capsys):
        assert main(["eval", "(1+y^2)*exp(x)", "--at", "x=0,y=0"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_division_by_zero(self, capsys):
        assert main(["eval", "1/x", "--at", "x=0"]) == 1

    def test_overflow_is_an_evaluation_error(self, capsys):
        assert main(["eval", "exp(1000)"]) == 1
        assert capsys.readouterr().err.strip() == "evaluation error: overflow"

    def test_overflowing_product_is_an_evaluation_error(self, capsys):
        assert main(["eval", f"{BIG}*{BIG}"]) == 1
        assert capsys.readouterr().err.strip() == "evaluation error: overflow"

    def test_parse_error_exit_two(self, capsys):
        assert main(["eval", "sin(x"]) == 2

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_binding_exit_two(self, value, capsys):
        assert main(["eval", "x-x", "--at", f"x={value}"]) == 2
        assert capsys.readouterr().err == f"error: binding 'x={value}': coordinate values must be finite\n"

    @pytest.mark.parametrize("bindings", ["x=1,x=2", "x=1,y=0, x =1"])
    def test_repeated_binding_exit_two(self, bindings, capsys):
        assert main(["eval", "x", "--at", bindings]) == 2
        assert capsys.readouterr().err == "error: coordinate 'x' bound twice\n"

    @pytest.mark.parametrize("bindings, name", [("pi=1,x=2", "pi"), ("x=2,3=1", "3"), ("=1", "")])
    def test_binding_a_name_the_dsl_reads_otherwise_exit_two(self, bindings, name, capsys):
        """pi + x at pi=1 printed pi + 2, the binding silently ignored."""
        assert main(["eval", "pi + x", "--at", bindings]) == 2
        part = next(p for p in bindings.split(",") if p.startswith(f"{name}="))
        err = f"error: binding {part!r}: {name!r} does not read as a coordinate in an expression\n"
        assert capsys.readouterr() == ("", err)

    def test_superscript_digit_is_a_parse_error(self, capsys):
        assert main(["eval", "2*\u00b2"]) == 2
        err = capsys.readouterr().err
        assert "at offset 2" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "text, at, out, err",
        [
            ("-0", "", "-0\n", ""),
            ("exp(709.7)", "", "1.6549840276802644e+308\n", ""),
            ("1/0", "", "", "evaluation error: division by zero\n"),
            ("0^-1", "", "", "evaluation error: 0 raised to a negative power\n"),
            ("x + z", "x=1", "", "evaluation error: unbound coordinate 'z'\n"),
        ],
    )
    def test_edge_outputs(self, text, at, out, err, capsys):
        assert main(["eval", "--at", at, "--", text]) == (1 if err else 0)
        assert capsys.readouterr() == (out, err)

    @pytest.mark.parametrize("args", [["-x", "--at", "x=2"], ["--at", "x=2", "-x"], ["--at", "x=2", "--", "-x"]])
    def test_leading_minus_is_the_expression(self, args, capsys):
        assert main(["eval", *args]) == 0
        assert capsys.readouterr() == ("-2\n", "")

    def test_missing_expression_exit_two(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["eval", "--at", "x=2"])
        assert raised.value.code == 2
        assert capsys.readouterr().err.endswith("hfree eval: error: the following arguments are required: expr\n")

    @pytest.mark.parametrize("text, depth", DEEP)
    def test_deep_expression_exit_two(self, text, depth, capsys):
        assert main(["eval", text, "--at", "x=1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: expression nested {depth} deep: ")
        assert err.count("\n") == 1

    @given(
        st.randoms(use_true_random=False),
        st.sampled_from([None, Add, Sub, Mul, Div]),
        st.sampled_from(_FAULT_PRONE),
        st.dictionaries(st.sampled_from(["x", "y"]), st.sampled_from(_VALUES) | st.floats(-3, 3)),
    )
    @example(random.Random(0), Mul, Exp(Const(709.7)), {"x": 1.0, "y": 0.0})
    @example(random.Random(1), Div, Coord("x"), {"x": -0.0})
    @settings(max_examples=300, deadline=None)
    def test_prints_the_oracles_value_or_fault(self, rng, op, leaf, point):
        """Over random trees, alone or with a leaf that can fault: hfree eval
        prints the tree walk's value, exit 0, or its fault, exit 1."""
        e = random_expr(rng) if op is None else op(random_expr(rng), leaf)
        at = ",".join(f"{name}={value!r}" for name, value in point.items())
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["eval", "--at", at, "--", to_str(e)])
        try:
            want = (0, f"{evaluate(e, point):.17g}\n", "")
        except EvalError as exc:
            want = (1, "", f"evaluation error: {exc}\n")
        assert (code, out.getvalue(), err.getvalue()) == want


def test_unknown_subcommand_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2
