import math

import pytest
from hypothesis import example, given, settings, strategies as st

from hfree.expr import (
    Add,
    Const,
    Coord,
    EvalError,
    Exp,
    Mul,
    ParseError,
    Pow,
    Sin,
    Sub,
    compile_expr,
    diff,
    evaluate,
    free_vars,
    parse,
    simplify,
    to_str,
)


class TestParse:
    def test_simple_product(self):
        assert parse("2*y") == Mul(Const(2.0), Coord("y"))

    def test_grammar_forced_tree(self):
        expected = Mul(
            Mul(Coord("y"), Sub(Const(1.0), Pow(Coord("y"), 2))), Exp(Coord("x"))
        )
        assert parse("y*(1-y^2)*exp(x)") == expected

    def test_function_product(self):
        from hfree.expr import Cos

        assert parse("exp(p)*cos(phi)") == Mul(Exp(Coord("p")), Cos(Coord("phi")))

    def test_pi_is_reserved(self):
        assert evaluate(parse("pi"), {}) == math.pi

    def test_negative_exponent(self):
        assert evaluate(parse("x^-2"), {"x": 2.0}) == 0.25

    def test_precedence(self):
        assert evaluate(parse("1 + 2*3^2"), {}) == 19.0

    def test_unary_minus_of_power(self):
        assert evaluate(parse("-x^2"), {"x": 3.0}) == -9.0

    @pytest.mark.parametrize(
        "src", ["(x", "sin(x", "x^1.5", "tan(x)", "x +", "", "1..2", "x y"]
    )
    def test_malformed(self, src):
        with pytest.raises(ParseError):
            parse(src)

    def test_error_position_in_range(self):
        try:
            parse("x + (y*")
        except ParseError as exc:
            assert 0 <= exc.position <= len("x + (y*")
        else:
            pytest.fail("expected a parse error")


class TestEval:
    def test_paper_value_at_origin(self):
        assert evaluate(parse("(1+y^2)*exp(x)"), {"x": 0.0, "y": 0.0}) == 1.0

    def test_coordinate(self):
        assert evaluate(parse("x"), {"x": 3.0}) == 3.0

    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            evaluate(parse("1/x"), {"x": 0.0})

    def test_zero_to_negative_power(self):
        with pytest.raises(EvalError):
            evaluate(parse("x^-1"), {"x": 0.0})

    def test_unbound(self):
        with pytest.raises(EvalError):
            evaluate(parse("x + y"), {"x": 1.0})


class TestDiff:
    def test_exp_factor(self):
        d = diff(parse("y*exp(x)"), "x")
        for y in (-1.5, 0.0, 2.0):
            assert evaluate(d, {"x": 0.3, "y": y}) == pytest.approx(
                y * math.exp(0.3), rel=1e-12
            )

    def test_polynomial_times_exp(self):
        d = diff(parse("(1-y^2)*exp(x)"), "y")
        ref = parse("-2*y*exp(x)")
        for y in (-0.7, 0.1, 1.3):
            p = {"x": 0.5, "y": y}
            assert evaluate(d, p) == pytest.approx(evaluate(ref, p), rel=1e-12)

    def test_trig(self):
        d = diff(parse("exp(p)*cos(phi)"), "phi")
        ref = parse("-exp(p)*sin(phi)")
        for phi in (0.0, 1.0, 2.5):
            pt = {"p": 0.2, "phi": phi}
            assert evaluate(d, pt) == pytest.approx(evaluate(ref, pt), abs=1e-14)

    def test_absent_coordinate(self):
        assert diff(parse("y*exp(y)"), "x") == Const(0.0)


class TestSimplify:
    def test_zero_elimination(self):
        assert simplify(parse("0*x + y")) == Coord("y")

    def test_one_elimination(self):
        assert simplify(parse("x^1 * 1")) == Coord("x")

    def test_constant_folding(self):
        assert simplify(parse("2*3")) == Const(6.0)

    def test_idempotent_on_examples(self):
        for src in ["0*x + y", "x - -y", "-(-x)", "2*x*0 + 3^2", "x/1 - 0/y"]:
            once = simplify(parse(src))
            assert simplify(once) == once


class TestFreeVars:
    def test_two(self):
        assert free_vars(parse("y*exp(x)")) == {"x", "y"}

    def test_none(self):
        assert free_vars(parse("7")) == frozenset()

    def test_single(self):
        assert free_vars(parse("sin(t)-t")) == {"t"}


# ---------------------------------------------------------------------------
# property tests

_names = st.sampled_from(["x", "y"])


def _exprs(max_depth=4):
    atoms = st.one_of(
        st.builds(Const, st.floats(-2, 2, allow_nan=False, width=32).map(float)),
        st.builds(Coord, _names),
    )

    def extend(children):
        from hfree.expr import Cos, Neg

        return st.one_of(
            st.builds(Add, children, children),
            st.builds(Sub, children, children),
            st.builds(Mul, children, children),
            st.builds(Neg, children),
            st.builds(Sin, children),
            st.builds(Cos, children),
            st.builds(lambda b, n: Pow(b, n), children, st.integers(0, 3)),
        )

    return st.recursive(atoms, extend, max_leaves=12)


_points = st.fixed_dictionaries(
    {"x": st.floats(-1, 1, allow_nan=False), "y": st.floats(-1, 1, allow_nan=False)}
)


def test_printer_keeps_right_nested_sums():
    x, y, z = Coord("x"), Coord("y"), Coord("z")
    assert to_str(Add(x, Add(y, z))) == "x + (y + z)"
    assert to_str(Add(x, Sub(y, z))) == "x + (y - z)"
    assert to_str(Add(Add(x, y), z)) == "x + y + z"
    assert to_str(Sub(Add(x, y), z)) == "x + y - z"


@given(_exprs(), _points)
@example(Add(Const(1.0), Add(Coord("x"), Const(-1.0))), {"x": 0.5087419799320582, "y": 0.0})
@example(Add(Sin(Coord("x")), Sub(Coord("x"), Coord("x"))), {"x": 0.25, "y": 0.0})
@settings(max_examples=300, deadline=None)
def test_roundtrip_print_parse(e, point):
    reparsed = parse(to_str(e))
    assert evaluate(reparsed, point) == evaluate(e, point)


@given(_exprs(), _points)
@settings(max_examples=300, deadline=None)
def test_simplify_preserves_value(e, point):
    v = evaluate(e, point)
    w = evaluate(simplify(e), point)
    assert w == pytest.approx(v, rel=1e-12, abs=1e-12)


@given(_exprs())
@settings(max_examples=300, deadline=None)
def test_simplify_idempotent(e):
    once = simplify(e)
    assert simplify(once) == once


def _outcome(fn, e, point):
    try:
        return fn(e, point)
    except Exception as exc:
        return type(exc), str(exc)


def _compiled(e, point):
    return compile_expr(e)(point)


@given(_exprs(), _points)
@settings(max_examples=200, deadline=None)
def test_compiled_matches_interpreted(e, point):
    """Bit-exact agreement, and the same exception type and message when one
    engine raises."""
    assert _outcome(_compiled, e, point) == _outcome(evaluate, e, point)


_BIG = Const(1e200)


@pytest.mark.parametrize(
    "e, point, message",
    [
        (parse("1/x"), {"x": 0.0}, "division by zero"),
        (parse("x^-2"), {"x": 0.0}, "0 raised to a negative power"),
        (parse("(1/x)/(x^-1)"), {"x": 0.0}, "division by zero"),
        (parse("exp(1000)"), {}, "overflow"),
        (parse("exp(exp(exp(3*x)))"), {"x": 2.0}, "overflow"),
        (Pow(Mul(_BIG, Coord("x")), 2), {"x": 1.0}, "overflow"),
        (Sin(Mul(Mul(_BIG, _BIG), Coord("x"))), {"x": 1.0}, "math domain error"),
        (parse("x + z"), {"x": 1.0}, "unbound coordinate 'z'"),
    ],
)
def test_engines_share_error_policy(e, point, message):
    """Every arithmetic fault at a point is an EvalError, worded alike by both
    engines."""
    assert _outcome(evaluate, e, point) == (EvalError, message)
    assert _outcome(_compiled, e, point) == (EvalError, message)


@given(_exprs(), _points, _names)
@settings(max_examples=200, deadline=None)
def test_mixed_partials_commute(e, point, first):
    other = "y" if first == "x" else "x"
    a = evaluate(simplify(diff(diff(e, first), other)), point)
    b = evaluate(simplify(diff(diff(e, other), first)), point)
    assert a == pytest.approx(b, rel=1e-12, abs=1e-9)
