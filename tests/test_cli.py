import json
import textwrap

import pytest

from helpers import strict_json
from hfree import checks, cli
from hfree.cli import main


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


@pytest.mark.parametrize(
    "manifest, args",
    [
        (None, ["gallery", "run", "integrable-torus-2", "--samples", "600", "--seed", "5"]),
        (None, ["gallery", "run", "novikov-t3", "--samples", "300", "--seed", "5"]),
        ("planar-identity", ["check"]),
        ("reciprocal", ["check"]),
    ],
)
def test_report_does_not_depend_on_chunk_size(
    manifest, args, planar_manifest, tmp_path, monkeypatch, capsys
):
    if manifest == "planar-identity":
        text = open(planar_manifest).read().replace("mode = immersion", "mode = identity")
        text = text.replace("samples = 500", "samples = 600")
    elif manifest == "reciprocal":
        text = RECIPROCAL_MANIFEST
    if manifest is not None:
        path = tmp_path / f"{manifest}.toml"
        path.write_text(text)
        args = args + [str(path)]
    payloads = []
    for chunk in (1, 7, checks.CHUNK):
        monkeypatch.setattr(checks, "CHUNK", chunk)
        main(args + ["--json"])
        payloads.append(json.dumps(_strip_wall_time(capsys.readouterr().out), indent=2))
    assert payloads[0] == payloads[1] == payloads[2]


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

    def test_superscript_digit_is_a_parse_error(self, capsys):
        assert main(["eval", "2*\u00b2"]) == 2
        err = capsys.readouterr().err
        assert "at offset 2" in err and "Traceback" not in err


def test_unknown_subcommand_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2
