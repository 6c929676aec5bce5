import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import evaluate, fixture_parts, reference_diff, reference_simplify
from hfree import expr as expr_module
from hfree.expr import (
    Add,
    Const,
    Coord,
    Cos,
    Div,
    EvalError,
    Exp,
    Mul,
    Neg,
    ONE,
    ParseError,
    Pow,
    Sin,
    Sub,
    ZERO,
    compile_batch,
    diff,
    free_vars,
    names_a_coordinate,
    parse,
    simplify,
    to_str,
)
from hfree.fields import Chart, VectorField, lie_derivative, simplified_sum, symmetrize
from hfree.jets import CompiledJet, d1_exprs


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

    @given(st.text(alphabet="xyp_i1²٣é (.-\t", max_size=5) | st.sampled_from(["pi", "pi2", "sin", "exp(x)", "2", "x\t"]))
    @settings(max_examples=300, deadline=None)
    def test_a_coordinate_name_is_what_parse_reads_as_that_coordinate(self, name):
        try:
            itself = parse(name) is Coord(name)
        except ParseError:
            itself = False
        assert names_a_coordinate(name) == itself

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

    @pytest.mark.parametrize(
        "src, position, expected, found",
        [
            ("x^- 2", 3, "integer exponent", " "),
            ("x^2.5", 3, "integer exponent", "."),
            ("x^.5", 2, "integer exponent", "."),
            ("x^+-2", 3, "integer exponent", "-"),
            ("x^-", 3, "integer exponent", "end of input"),
            ("1..2", 2, "end of input", "."),
            (".5.3", 2, "end of input", "."),
            ("x^2^-1 ", 7, "non-negative exponent in exponent chain", "end of input"),
            # exponents beyond 2^53, chains bounded before they are computed
            ("x^9^9^9", 2, "an exponent of magnitude at most 2^53", "9"),
            ("x^9^9^3", 2, "an exponent of magnitude at most 2^53", "9"),
            ("x^2^54", 2, "an exponent of magnitude at most 2^53", "2"),
            ("x^1^9007199254740993", 4, "an exponent of magnitude at most 2^53", "9"),
            ("x^" + "9" * 400, 2, "an exponent of magnitude at most 2^53", "9"),
            ("x^-" + "9" * 400, 2, "an exponent of magnitude at most 2^53", "-"),
            ("x^" + "9" * 5000, 2, "an exponent of magnitude at most 2^53", "9"),
            ("tan (x)", 4, "one of sin, cos, exp", "tan"),
            (".", 1, "a number", "end of input"),
            ("2*.", 3, "a number", "end of input"),
            ("x + ", 4, "a number, coordinate, function call or '('", "end of input"),
            ("sin x", 4, "end of input", "x"),
            ("(x", 2, "')'", "end of input"),
            ("2*\u00b2", 2, "a number, coordinate, function call or '('", "\u00b2"),
            ("x^\u00b2", 2, "integer exponent", "\u00b2"),
            ("2\u00b2", 1, "end of input", "\u00b2"),
            ("\u2460*x", 0, "a number, coordinate, function call or '('", "\u2460"),
            # a literal that rounds to infinity
            ("x*1" + "0" * 400, 2, "a number within the float range", "1"),
            ("2 - " + "9" * 309 + ".5", 4, "a number within the float range", "9"),
        ],
    )
    def test_error_names_the_first_unusable_character(self, src, position, expected, found):
        with pytest.raises(ParseError) as info:
            parse(src)
        assert (info.value.position, info.value.expected, info.value.found) == (position, expected, found)

    def test_exponent_at_the_bound_differentiates_exactly(self):
        for src, n in [("x^2^53", 2**53), ("x^9007199254740992", 2**53), ("x^-9007199254740992", -(2**53))]:
            e = parse(src)
            assert e.exponent == n
            assert diff(e, "x") == Mul(Const(float(n)), Pow(Coord("x"), n - 1))
            assert int(float(n)) == n

    def test_decimal_digits_of_any_script_are_numbers(self):
        # str.isdecimal: Arabic-Indic three is a digit; superscript two is not
        assert parse("\u0663*x^\u0662") == parse("3*x^2")

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

    def test_folding_that_overflows_is_left_to_evaluation(self):
        # exp(1000) would overflow; the node stays so that every point reports it
        e = simplify(parse("exp(1000)*x + sin(2)"))
        assert e == Add(Mul(Exp(Const(1000.0)), Coord("x")), Const(math.sin(2.0)))
        assert simplify(Pow(Const(1e200), 2)) == Pow(Const(1e200), 2)
        with pytest.raises(ValueError, match="constants must be finite"):
            Sin(Const(math.inf))
        with pytest.raises(EvalError, match="overflow"):
            evaluate(e, {"x": 1.0})

    def test_folding_matches_evaluate_bit_for_bit(self):
        """Every op over constant children: where evaluate returns a value,
        simplify folds to the same bits; where it raises, overflow of
        1e200*1e200 included, the node stays unfolded, but for the 0/c -> 0
        rewrite of 0/0."""
        values = [0.0, -0.0, 1.0, -1.0, 2.5, -3.0]
        values += [1e200, -1e200, 5e-324, -5e-324, 710.0, 1e16]
        consts = [Const(v) for v in values]
        trees = [op(a) for op in (Neg, Sin, Cos, Exp) for a in consts]
        trees += [op(a, b) for op in (Add, Sub, Mul, Div) for a in consts for b in consts]
        trees += [Pow(a, n) for a in consts for n in range(-3, 4)]
        assert len(trees) == 708
        unfolded = 0
        for e in trees:
            out = simplify(e)
            try:
                value = evaluate(e, {})
            except EvalError:
                unfolded += 1
                if type(e) is Div and e.left.value == 0.0 and e.right.value == 0.0:
                    assert out is Const(0.0)
                else:
                    assert out is e
                continue
            assert type(out) is Const
            assert out.value.hex() == value.hex()
        assert unfolded > 40
        assert simplify(Mul(Const(1e200), Const(1e200))) is Mul(Const(1e200), Const(1e200))

    @pytest.mark.parametrize(
        "build",
        [lambda: Const(math.inf), lambda: Const(math.nan), lambda: Coord("x") + math.inf],
        ids=["inf", "nan", "coerced"],
    )
    def test_constants_must_be_finite(self, build):
        with pytest.raises(ValueError, match="constants must be finite"):
            build()

    def test_overflowing_product_of_literals_prints_and_reparses(self):
        # 200-digit literals are finite; their product is not, so it stays a
        # product, which overflows at every point, as its reparsed text does
        big = "1" + "7" * 199
        e = simplify(parse(f"{big}*{big}*x"))
        assert e is Mul(Mul(Const(float(big)), Const(float(big))), Coord("x"))
        text = to_str(e)
        for x in (2.0, -0.5, 0.0):
            assert _outcome(evaluate, parse(text), {"x": x}) == _outcome(evaluate, e, {"x": x})
            assert _outcome(evaluate, e, {"x": x}) == (EvalError, "overflow")

    @pytest.mark.parametrize("src", ["0*(1/x)", "1/x - 1/x"])
    def test_simplification_may_enlarge_the_domain(self, src):
        # documented in simplify: the original is undefined at x = 0, the
        # simplified form is 0 there
        e = parse(src)
        assert simplify(e) == Const(0.0)
        with pytest.raises(EvalError, match="division by zero"):
            evaluate(e, {"x": 0.0})
        assert evaluate(simplify(e), {"x": 0.0}) == 0.0

    def test_idempotent_on_examples(self):
        # simplify(once) would return once from its memo; the reference reads no memo
        for src in ["0*x + y", "x - -y", "-(-x)", "2*x*0 + 3^2", "x/1 - 0/y"]:
            once = simplify(parse(src))
            assert reference_simplify(once) is once
            assert reference_simplify(parse(src)) is once

    def test_memo_returns_the_identical_tree(self):
        e = parse("x*sin(x*y) + x/(1 + y^2)")
        once = simplify(e)
        assert simplify(e) is once
        assert simplify(once) is once
        d = diff(e, "x")
        assert diff(e, "x") is d
        assert diff(e, "y") is not d
        assert d is reference_simplify(reference_diff(e, "x"))

    def test_memo_is_not_part_of_the_value(self):
        src = "x*exp(y) - 0*x"
        e = parse(src)
        before = hash(e), repr(e)
        simplify(e)
        diff(e, "y")
        assert e._simple is not None and e._diffs
        assert parse(src) is e and (hash(e), repr(e)) == before
        assert repr(e) == (
            "Sub(left=Mul(left=Coord(name='x'), right=Exp(arg=Coord(name='y'))), "
            "right=Mul(left=Const(value=0.0), right=Coord(name='x')))"
        )


class TestInterning:
    def test_equal_trees_are_one_node(self):
        assert parse("x*sin(x*y) + 1") is parse("x * sin(x*y) + 1")
        assert Add(Coord("x"), Const(1.0)) is parse("x + 1")
        assert parse("x + 1") is not parse("1 + x")
        assert Pow(Coord("x"), 2) is not Pow(Coord("x"), 3)

    def test_constants_compare_by_value_but_keep_their_sign(self):
        assert Const(0.0) is not Const(-0.0)
        assert Const(0.0) == Const(-0.0) and hash(Const(0.0)) == hash(Const(-0.0))
        assert Const(2.0) is Const(2) and Const(2.0) != Const(3.0)
        assert Const(1.0) != Coord("x") and Const(1.0) != 1.0
        # composite nodes compare by identity, so a signed zero tells them apart
        assert Add(Coord("x"), Const(0.0)) != Add(Coord("x"), Const(-0.0))
        assert math.copysign(1.0, compile_batch([Const(-0.0)], ())(np.empty((1, 0)))[0][0, 0]) == -1.0

    def test_nodes_survive_copy_and_pickle_as_themselves(self):
        import copy
        import pickle

        e = parse("x*exp(-y) + 2.5")
        assert copy.copy(e) is e and copy.deepcopy(e) is e
        assert pickle.loads(pickle.dumps(e)) is e


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
_BIG = Const(1e200)


def _exprs(max_depth=4, faulting=False, huge=False):
    """Random trees; with faulting, also division, exp and negative powers,
    which can raise EvalError; with huge, also the constants +-1e200, whose
    products leave the float range."""
    atoms = [
        st.builds(Const, st.floats(-2, 2, allow_nan=False, width=32).map(float)),
        st.builds(Coord, _names),
    ]
    if huge:
        atoms.append(st.sampled_from([_BIG, Const(-1e200)]))
    atoms = st.one_of(*atoms)

    def extend(children):
        from hfree.expr import Cos, Neg

        nodes = [
            st.builds(Add, children, children),
            st.builds(Sub, children, children),
            st.builds(Mul, children, children),
            st.builds(Neg, children),
            st.builds(Sin, children),
            st.builds(Cos, children),
            st.builds(lambda b, n: Pow(b, n), children, st.integers(0, 3)),
        ]
        if faulting:
            nodes += [
                st.builds(Div, children, children),
                st.builds(Exp, children),
                st.builds(lambda b, n: Pow(b, n), children, st.integers(-3, -1)),
            ]
        return st.one_of(*nodes)

    return st.recursive(atoms, extend, max_leaves=12)


_points = st.fixed_dictionaries(
    {"x": st.floats(-1, 1, allow_nan=False), "y": st.floats(-1, 1, allow_nan=False)}
)


class TestGroupMemo:
    def test_each_group_is_parsed_once_per_memo(self, monkeypatch):
        alone = parse("sin(x+y)*(x+y) + (x+y)^2")
        descents = []
        descend = expr_module._Parser.expr
        monkeypatch.setattr(expr_module._Parser, "expr", lambda p: descents.append(p.i) or descend(p))
        groups = {}
        assert parse("sin(x + y)*(x + y) + (x + y)^2", groups) is alone
        assert list(groups) == ["x + y"] and groups["x + y"] is Add(Coord("x"), Coord("y"))
        # the text and the one group: the call's argument and the two groups share it
        assert len(descents) == 2
        descents.clear()
        assert parse("exp(x + y) - ((x + y))", groups) is Sub(Exp(groups["x + y"]), groups["x + y"])
        assert len(descents) == 2  # the text and "(x + y)"

    @pytest.mark.parametrize("src", ["(x y) + (x y)", "sin(x y)", "(x + y", "((x)"])
    def test_a_group_that_does_not_parse_is_not_kept(self, src):
        groups = {}
        with pytest.raises(ParseError) as first:
            parse(src, groups)
        assert set(groups) <= {"x"}
        with pytest.raises(ParseError) as again:
            parse(src, groups)
        assert (again.value.position, again.value.found) == (first.value.position, first.value.found)

    @given(st.lists(_exprs(), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_a_shared_memo_gives_each_text_the_tree_it_has_alone(self, trees):
        texts = [to_str(e) for e in trees]
        texts += [f"sin({t})*({t}) - (({t}))^2" for t in texts]
        groups = {}
        assert all(parse(t, groups) is parse(t) for t in texts)


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
    assert evaluate(reparsed, point).hex() == evaluate(e, point).hex()


def test_negative_zero_prints_with_its_sign():
    """A constant prints as its exact decimal, so -0.0 keeps its sign bit, and
    is parenthesised as a base as a negative constant is."""
    x, nz = Coord("x"), Const(-0.0)
    assert to_str(nz) == "-0"
    assert to_str(Pow(nz, 3)) == "(-0)^3"
    for e in (nz, Pow(nz, 3), Pow(nz, 2), Mul(x, nz), Sub(nz, Const(0.0)), Add(x, Const(1e16))):
        assert evaluate(parse(to_str(e)), {"x": 1.0}).hex() == evaluate(e, {"x": 1.0}).hex()


@given(_exprs(), _points)
@settings(max_examples=300, deadline=None)
def test_simplify_preserves_value(e, point):
    v = evaluate(e, point)
    w = evaluate(simplify(e), point)
    assert w == pytest.approx(v, rel=1e-12, abs=1e-12)


@given(_exprs(faulting=True), _points)
@settings(max_examples=300, deadline=None)
def test_simplify_preserves_value_where_defined(e, point):
    """Over trees with division, exp and negative powers: where e evaluates,
    simplify(e) evaluates too, and agrees where the value is finite (0*inf
    may simplify to 0). Where e raises, either outcome is allowed."""
    try:
        v = evaluate(e, point)
    except EvalError:
        return
    w = evaluate(simplify(e), point)
    if math.isfinite(v):
        assert w == pytest.approx(v, rel=1e-12, abs=1e-12)


@given(_exprs(faulting=True))
@settings(max_examples=300, deadline=None)
def test_simplify_idempotent(e):
    # simplify(once) would return once from its memo; the reference reads no memo
    once = simplify(e)
    assert reference_simplify(once) is once
    assert reference_simplify(e) is once


@given(_exprs(faulting=True), _names)
@settings(max_examples=300, deadline=None)
def test_memoised_diff_matches_the_memo_free_reference(e, x):
    """diff, built from the memoised derivatives of the children, is the
    reference simplification of the whole unsimplified derivative tree."""
    assert diff(e, x) is reference_simplify(reference_diff(e, x))


_XY = Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)))


@given(_exprs(faulting=True), _exprs(faulting=True), _exprs(faulting=True), _names)
@example(Neg(Coord("x")), Const(-0.0), Neg(Coord("y")), "x")
@settings(max_examples=200, deadline=None)
def test_symbolic_operations_build_only_simplified_nodes(f, u, v, x):
    """diff, lie_derivative, simplified_sum and symmetrize build through
    make, so what each returns is its own memo-free reference
    simplification, and the node that the reference gives for the
    unsimplified tree: no node in it is one that a rule rewrites."""
    xi = VectorField(_XY, (u, v))
    lf, lu = lie_derivative(xi, f), lie_derivative(xi, u)
    lie_terms = [
        d if comp is ONE else Mul(comp, d)
        for comp, name in zip((u, v), ("x", "y"))
        if comp != ZERO and (d := diff(f, name)) != ZERO
    ]
    terms = [f, lf, Mul(u, v), lu]
    zero_is_zero = lambda e: ZERO if e == ZERO else e  # a sum that folds to -0.0 is ZERO
    built = [
        (diff(f, x), reference_simplify(reference_diff(f, x))),
        (lf, zero_is_zero(reference_simplify(reduce(Add, lie_terms))) if lie_terms else ZERO),
        (simplified_sum(terms), zero_is_zero(reference_simplify(reduce(Add, terms)))),
        (symmetrize(lf, lu), reference_simplify(Add(lf, lu))),
    ]
    for e, want in built:
        assert reference_simplify(e) is e
        assert e is want


def _outcome(fn, e, point):
    try:
        return fn(e, point)
    except Exception as exc:
        return type(exc), str(exc)


def _compiled(e, point):
    """The batched engine at a single point."""
    names = sorted(point)
    values, errors = compile_batch([e], names)(np.array([[point[n] for n in names]]))
    if errors:
        raise errors[0][1]
    return float(values[0, 0])


_FAULT = Div(Const(1.0), Coord("x"))  # 1/x: faults at every point with x = 0
_ENGINE_CHUNK = 7


def _bits(values):
    """Exact bit patterns, so that -0.0 differs from 0.0 and nan equals nan."""
    return tuple(float(v).hex() for v in values)


def _evaluate_all(exprs, point):
    return _bits(evaluate(e, point) for e in exprs)


@given(
    _exprs(faulting=True),
    st.lists(_points, min_size=_ENGINE_CHUNK + 1, max_size=3 * _ENGINE_CHUNK),
    st.lists(
        st.tuples(st.integers(0, 4 * _ENGINE_CHUNK), st.floats(-1, 1, allow_nan=False)),
        min_size=1,
        max_size=_ENGINE_CHUNK,
    ),
)
@settings(max_examples=200, deadline=None)
def test_compiled_matches_interpreted(e, points, faults):
    """Over a batch of several chunks with faulting points mixed in (often two
    or more in one chunk), each chunk one call of the compiled engine: every
    point's row agrees with evaluate() bit for bit, and a point where
    evaluate() raises gets the same exception type and message, without
    changing any other point."""
    for fault_at, y in faults:
        points.insert(min(fault_at, len(points)), {"x": 0.0, "y": y})
    exprs = [e, _FAULT]
    run = compile_batch(exprs, ("x", "y"))
    for start in range(0, len(points), _ENGINE_CHUNK):
        chunk = points[start : start + _ENGINE_CHUNK]
        values, errors = run(np.array([[p["x"], p["y"]] for p in chunk]))
        for i, point in enumerate(chunk):
            if i in errors:
                j, exc = errors[i]
                got = type(exc), str(exc)
                assert np.isnan(values[i]).all()
            else:
                got = _bits(values[i].tolist())
            assert got == _outcome(_evaluate_all, exprs, point)


@given(_exprs(faulting=True, huge=True), st.lists(_points, min_size=1, max_size=3 * _ENGINE_CHUNK))
@example(Add(Mul(Mul(_BIG, Coord("x")), _BIG), Coord("y")), [{"x": 1.0, "y": 0.5}, {"x": 0.0, "y": 0.5}])
@settings(max_examples=200, deadline=None)
def test_a_value_beyond_the_float_range_is_an_overflow_fault(e, points):
    """Every value compile_batch returns is finite, and at every point where
    it faults, evaluate() raises the same EvalError: overflow is one fault in
    both engines, for + - * / as for exp and ^."""
    rows = np.array([[p["x"], p["y"]] for p in points])
    values, errors = compile_batch([e], ("x", "y"))(rows)
    for i, point in enumerate(points):
        if i in errors:
            exc = errors[i][1]
            assert _outcome(evaluate, e, point) == (EvalError, str(exc))
            assert type(exc) is EvalError
        else:
            assert np.isfinite(values[i]).all()


def test_chunk_with_several_faults_keeps_every_other_row():
    """A chunk with faults at its ends and in its middle: the faulting points
    get evaluate()'s errors and every other row its own values."""
    x = Coord("x")
    exprs = [Div(Const(1.0), x), Mul(x, Exp(x))]
    xs = [0.0, 0.5, -1.5, 0.0, 2.0, 0.0, 0.25, -0.75, 1.0, 0.0]
    values, errors = compile_batch(exprs, ("x",))(np.array([[v] for v in xs]))
    assert {i: (j, str(exc)) for i, (j, exc) in errors.items()} == {
        i: (0, "division by zero") for i, v in enumerate(xs) if v == 0.0
    }
    for i, v in enumerate(xs):
        if v != 0.0:
            assert _bits(values[i].tolist()) == _evaluate_all(exprs, {"x": v})


@pytest.mark.parametrize("zeros", [range(256), [77], range(0, 256, 17), []])
def test_a_faulting_chunk_costs_one_trace(zeros, monkeypatch):
    """A chunk of 256 points costs one tape run, and one more, the trace, if
    any point faults, however many do."""
    counts = {"run": 0, "trace": 0}

    def counted(name, original):
        def call(tape, *args):
            counts[name] += 1
            return original(tape, *args)

        return call

    for name in counts:
        monkeypatch.setattr(expr_module._Tape, name, counted(name, getattr(expr_module._Tape, name)))
    xs = [0.0 if i in zeros else 0.5 + i for i in range(256)]
    values, errors = compile_batch([Div(Const(1.0), Coord("x"))], ("x",))(np.array([[v] for v in xs]))
    assert counts == {"run": 1, "trace": 1 if zeros else 0}
    assert {i: str(exc) for i, (_, exc) in errors.items()} == {i: "division by zero" for i in zeros}
    for i, v in enumerate(xs):
        if i not in zeros:
            assert values[i, 0] == 1.0 / v


# ops that build a later expression of a list from earlier ones
_OVER = [Add, Sub, Mul, Div]
_OVER += [lambda a, b: Neg(a), lambda a, b: Exp(b), lambda a, b: Pow(a, 1), lambda a, b: Pow(b, 2)]
_TREES = _exprs(faulting=True)


@st.composite
def _dags(draw):
    """A list of expressions, each a random tree or an op over two earlier
    ones: the list shares subtrees, and later ops read earlier outputs."""
    exprs = []
    for _ in range(draw(st.integers(1, 8))):
        if exprs and draw(st.booleans()):
            a, b = draw(st.sampled_from(exprs)), draw(st.sampled_from(exprs))
            exprs.append(draw(st.sampled_from(_OVER))(a, b))
        else:
            exprs.append(draw(_TREES))
    return exprs


@given(_dags(), st.integers(0, 2**32 - 1))
# x + y's buffer is free once its power is taken, before sin(x) is computed
@example([Mul(Pow(Add(Coord("x"), Coord("y")), 1), Sin(Coord("x")))], 0)
@settings(max_examples=100, deadline=None)
def test_buffer_reuse_never_overwrites_a_live_value(exprs, seed):
    """A tape reuses a buffer once the last op that reads its value has run.
    So the list compiled as one tape, its buffers given out (floats()), gives
    at every point the bits of each expression compiled alone, whose ops each
    make a new array, or, where it faults, the first expression that faults
    alone and its error; at chunk lengths 1, 7 and 513, each run over three
    chunks. The first point of each chunk gets evaluate()'s outcome."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(-1.0, 1.0, (2 * 513 + 1, 2))
    points[rng.integers(0, len(points), 20), rng.integers(0, 2, 20)] = 0.0  # where 1/x or 1/y faults
    together = compile_batch(exprs, ("x", "y"))
    together.floats()
    alone = [compile_batch([e], ("x", "y")) for e in exprs]
    for length in (1, 7, 513):
        for start in range(0, 2 * length + 1, length):
            chunk = points[start : start + length]
            values, errors = together(chunk)
            point = dict(zip(("x", "y"), chunk[0].tolist()))
            got = (type(errors[0][1]), str(errors[0][1])) if 0 in errors else _bits(values[0].tolist())
            assert got == _outcome(_evaluate_all, exprs, point)
            first, rows = {}, np.ones(len(chunk), dtype=bool)
            rows[list(errors)] = False
            for j, (vals, errs) in enumerate(run(chunk) for run in alone):
                for i, (_, exc) in errs.items():
                    first.setdefault(i, (j, str(exc)))
                assert np.array_equal(values[rows, j].view(np.uint64), vals[rows, 0].view(np.uint64))
            assert {i: (j, str(exc)) for i, (j, exc) in errors.items()} == first


def _outcomes(exprs, coords, rows):
    """Per point: the bits of every value, or (index, error type, message) of
    the first expression that faults; from compile_batch and from evaluate()."""
    values, errors = compile_batch(exprs, coords)(np.array(rows, dtype=float).reshape(len(rows), len(coords)))
    compiled = [
        (errors[i][0], type(errors[i][1]), str(errors[i][1])) if i in errors else _bits(values[i].tolist())
        for i in range(len(rows))
    ]
    reference = []
    for row in rows:
        point = dict(zip(coords, row))
        for j, e in enumerate(exprs):
            if isinstance(fault := _outcome(evaluate, e, point), tuple):
                reference.append((j,) + fault)
                break
        else:
            reference.append(_evaluate_all(exprs, point))
    return compiled, reference


_X = Coord("x")
_ROWS = [[-1.5], [0.0], [0.25], [-0.0], [2.0]]


@pytest.mark.parametrize(
    "exprs, messages",
    [
        ([Const(-0.0), _X, Const(0.0), Neg(Const(0.0))], set()),
        ([Sin(Const(0.5)), Cos(Const(-2.0)), Exp(Const(0.7)), Pow(Const(1.3), 3), Pow(Const(-2.5), -3)], set()),
        ([Sin(Neg(Const(1.0))), Exp(Exp(Const(0.5))), Pow(Add(Const(0.5), Const(0.25)), 2), Mul(_X, Cos(Const(3.0)))], set()),
        ([_X, Div(Const(1.0), Const(0.0))], {"division by zero"}),
        ([Exp(Const(1000.0)), _X], {"overflow"}),
        ([Pow(Const(0.0), -2)], {"0 raised to a negative power"}),
        ([Mul(_X, Const(2.0)), Add(_X, Coord("z"))], {"unbound coordinate 'z'"}),
        # at +-0 both factors fault, and the message is the left one's
        ([Mul(Pow(_X, -1), Div(Const(1.0), _X))], {"0 raised to a negative power"}),
        ([Mul(Div(Const(1.0), _X), Pow(_X, -1))], {"division by zero"}),
        # expression 0 faults at +-0 first, and expression 1 everywhere else
        ([Div(Const(1.0), _X), Add(_X, Coord("z"))], {"division by zero", "unbound coordinate 'z'"}),
    ],
)
def test_tape_edge_cases_match_evaluate(exprs, messages):
    """Signed zeros, functions of unfolded constants, trees that fault at
    every point without a coordinate (or with an unbound one), and points
    where several nodes fault: bit for bit, error for error, what evaluate()
    gives at each point."""
    compiled, reference = _outcomes(exprs, ("x",), _ROWS)
    assert compiled == reference
    assert {outcome[2] for outcome in compiled if type(outcome[0]) is int} == messages


def test_constant_outputs_keep_their_bits_on_both_paths():
    """Outputs that mix +0.0, -0.0 and other constants, each written as
    its register's float, x and 1/x, which faults at x = 0: at
    chunk lengths 1, 7 and 513, on the run path (no point of the chunk
    faults) and on the trace path (some point does), every point gets
    evaluate()'s outcome, bit for bit and with the sign of each zero, and a
    faulting point's row is nan in every column."""
    exprs = [Const(0.0), Const(-0.0), _FAULT, Const(0.0), Const(2.5), _X, Const(-3.0), Const(0.0)]
    run = compile_batch(exprs, ("x",))
    run.floats()  # the buffers the engine reuses
    rng = np.random.default_rng(2)
    for length in (1, 7, 513):
        for faults in (False, True):
            chunk = rng.uniform(-1.0, 1.0, (length, 1))
            if faults:
                chunk[rng.integers(0, length, 1 + length // 50), 0] = rng.choice([0.0, -0.0])
            values, errors = run(chunk)
            assert bool(errors) == faults
            for i, x in enumerate(chunk[:, 0].tolist()):
                expected = _outcome(_evaluate_all, exprs, {"x": x})
                if i in errors:
                    j, exc = errors[i]
                    assert (j, type(exc), str(exc)) == (2,) + expected
                    assert np.isnan(values[i]).all()
                else:
                    assert _bits(values[i].tolist()) == expected


def test_all_constant_jet_is_broadcast():
    """contact-1's D1 is the identity: every entry a constant, every row I."""
    fix = fixture_parts("contact-1")
    entries = [e for row in d1_exprs(fix.frame, fix.immersion) for e in row]
    assert all(type(e) is Const for e in entries)
    points = np.random.default_rng(3).uniform(-1.0, 1.0, (300, 3))
    compiled, reference = _outcomes(entries, fix.chart.coords, points.tolist())
    assert compiled == reference == [_bits([1.0, 0.0, 0.0, 1.0])] * 300
    (stack,), errors = CompiledJet([d1_exprs(fix.frame, fix.immersion)], fix.chart).at(points)
    assert not errors and (stack.dense() == np.eye(2)).all()


def test_per_element_rounding_matches_evaluate():
    """Powers, exp and sin over a chunk of arrays agree with evaluate() at
    each value, one float at a time, bit for bit: both engines take a power
    as the same chain of multiplications and exp as numpy's, which differ
    from float ** and libm's exp in a few percent of values."""
    x = Coord("x")
    exprs = [Pow(x, n) for n in (-3, -2, 2, 3, 4)] + [Exp(x), Sin(x), Mul(x, Exp(Sin(x)))]
    points = np.random.default_rng(0).uniform(-3.0, 3.0, (2000, 1))
    values, errors = compile_batch(exprs, ("x",))(points)
    assert not errors
    expected = [_evaluate_all(exprs, {"x": v}) for v in points[:, 0].tolist()]
    assert [_bits(row) for row in values.tolist()] == expected


_EDGE_BASES = [[0.0], [-0.0], [5e-324], [1e-243], [1e154], [-1e154], [-3.7], [1.0000001]]
_EXP_MAX = 709.782712893384  # the largest argument whose exp is finite
# its neighbours, and an argument whose exp is below the least subnormal
_EXP_EDGES = [[math.nextafter(_EXP_MAX, -math.inf)], [_EXP_MAX], [math.nextafter(_EXP_MAX, math.inf)], [-745.2]]


@pytest.mark.parametrize(
    "e, rows",
    [pytest.param(Pow(_X, n), _EDGE_BASES, id=f"x^{n}") for n in [*range(-60, 61), 2**53, -(2**53)]]
    + [pytest.param(Exp(_X), _EXP_EDGES, id="exp(x)")],
)
def test_engines_agree_at_the_edges(e, rows):
    """Powers of zeros, subnormals, bases near the square root of the float
    range and bases near 1, and exp at the ends of its range: the same bits
    or the same EvalError from both engines."""
    compiled, reference = _outcomes([e], ("x",), rows)
    assert compiled == reference


@pytest.mark.parametrize(
    "e, point, message",
    [
        (parse("1/x"), {"x": 0.0}, "division by zero"),
        (parse("x^-2"), {"x": 0.0}, "0 raised to a negative power"),
        (parse("x^-3"), {"x": -0.0}, "0 raised to a negative power"),
        # 1/y is beyond the float range, and so is its power
        (parse("x^-2"), {"x": 1e-243}, "overflow"),
        (parse("x^-1"), {"x": 5e-324}, "overflow"),
        (parse("(1/x)/(x^-1)"), {"x": 0.0}, "division by zero"),
        (parse("exp(1000)"), {}, "overflow"),
        (parse("exp(exp(exp(3*x)))"), {"x": 2.0}, "overflow"),
        (Pow(Mul(_BIG, Coord("x")), 2), {"x": 1.0}, "overflow"),
        (Sin(Mul(Mul(_BIG, _BIG), Coord("x"))), {"x": 1.0}, "overflow"),
        (parse("x + z"), {"x": 1.0}, "unbound coordinate 'z'"),
        # without the engine's floating-point error policy, numpy would return exp(-inf) = 0
        (parse("exp(-1/x^2)"), {"x": 0.0}, "division by zero"),
        # faults that a later node hides: in numpy both values are finite
        (parse("1/(1/x)"), {"x": 0.0}, "division by zero"),
        (parse("exp(-exp(x))"), {"x": 1000.0}, "overflow"),
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
