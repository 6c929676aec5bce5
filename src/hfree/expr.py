"""Expression trees: parsing, symbolic differentiation, simplification,
evaluation, and compilation into batched numpy code.

The grammar is deliberately tiny -- {+, -, *, /, ^, sin, cos, exp} over named
coordinates with integer exponents -- and every operation here is a pure
function on immutable trees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class EvalError(Exception):
    """Raised when an expression cannot be evaluated at a point."""


@dataclass(frozen=True)
class Expr:
    """Base node. Subclasses are the only valid instances.

    The two class attributes below are not fields: they are the empty memos
    that simplify() and diff() fill in on an instance (see there), so they
    take no part in equality, hashing or repr."""

    _simple = None  # True once simplified, else the simplified form
    _diffs = None  # coordinate name -> derivative

    def __add__(self, other):
        return Add(self, _coerce(other))

    def __radd__(self, other):
        return Add(_coerce(other), self)

    def __sub__(self, other):
        return Sub(self, _coerce(other))

    def __rsub__(self, other):
        return Sub(_coerce(other), self)

    def __mul__(self, other):
        return Mul(self, _coerce(other))

    def __rmul__(self, other):
        return Mul(_coerce(other), self)

    def __truediv__(self, other):
        return Div(self, _coerce(other))

    def __rtruediv__(self, other):
        return Div(_coerce(other), self)

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("exponents must be integers")
        return Pow(self, n)

    def __neg__(self):
        return Neg(self)


def _coerce(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float)):
        return Const(float(v))
    raise TypeError(f"cannot build an expression from {v!r}")


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Coord(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Sin(Expr):
    arg: Expr


@dataclass(frozen=True)
class Cos(Expr):
    arg: Expr


@dataclass(frozen=True)
class Exp(Expr):
    arg: Expr


ZERO = Const(0.0)
ONE = Const(1.0)

_FUNCS = {"sin": Sin, "cos": Cos, "exp": Exp}


# ---------------------------------------------------------------------------
# Parsing


class ParseError(Exception):
    def __init__(self, position: int, expected: str, found: str):
        self.position = position
        self.expected = expected
        self.found = found
        super().__init__(f"at offset {position}: expected {expected}, found {found}")


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.pos = 0

    def error(self, expected: str):
        found = self.src[self.pos] if self.pos < len(self.src) else "end of input"
        raise ParseError(self.pos, expected, found)

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def accept(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.accept(ch):
            self.error(f"'{ch}'")

    def parse(self) -> Expr:
        e = self.expr()
        self.skip_ws()
        if self.pos != len(self.src):
            self.error("end of input")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            if self.accept("+"):
                e = Add(e, self.term())
            elif self.accept("-"):
                e = Sub(e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.unary()
        while True:
            if self.accept("*"):
                e = Mul(e, self.unary())
            elif self.accept("/"):
                e = Div(e, self.unary())
            else:
                return e

    def unary(self) -> Expr:
        if self.accept("-"):
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek() != "^":
            return base
        # exponents are integer literals; chains like x^2^3 fold right to left
        exps = []
        while self.accept("^"):
            exps.append(self.integer())
        n = exps[-1]
        for e in reversed(exps[:-1]):
            if n < 0:
                self.error("non-negative exponent in exponent chain")
            n = e**n
        return Pow(base, n)

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.src) and self.src[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.src) and self.src[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            self.error("integer exponent")
        if self.pos < len(self.src) and self.src[self.pos] == ".":
            raise ParseError(self.pos, "integer exponent", ".")
        return int(self.src[start : self.pos])

    def atom(self) -> Expr:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            e = self.expr()
            self.expect(")")
            return e
        if ch.isdigit() or ch == ".":
            return self.number()
        if ch.isalpha() or ch == "_":
            name = self.ident()
            if self.peek() == "(":
                if name not in _FUNCS:
                    raise ParseError(self.pos, "one of sin, cos, exp", name)
                self.pos += 1
                e = self.expr()
                self.expect(")")
                return _FUNCS[name](e)
            if name == "pi":
                return Const(math.pi)
            return Coord(name)
        self.error("a number, coordinate, function call or '('")

    def number(self) -> Expr:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.src) and self.src[self.pos].isdigit():
            self.pos += 1
        if self.pos < len(self.src) and self.src[self.pos] == ".":
            self.pos += 1
            while self.pos < len(self.src) and self.src[self.pos].isdigit():
                self.pos += 1
        if self.pos == start or self.src[start : self.pos] == ".":
            self.error("a number")
        return Const(float(self.src[start : self.pos]))

    def ident(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.src) and (
            self.src[self.pos].isalnum() or self.src[self.pos] == "_"
        ):
            self.pos += 1
        return self.src[start : self.pos]


def parse(src: str) -> Expr:
    """Parse the textual DSL into an expression tree."""
    return _Parser(src).parse()


# ---------------------------------------------------------------------------
# Printing

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


def _prec(e: Expr) -> int:
    if isinstance(e, (Add, Sub)):
        return _PREC_ADD
    if isinstance(e, (Mul, Div)):
        return _PREC_MUL
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, Const) and e.value < 0:
        return _PREC_NEG
    if isinstance(e, Pow):
        return _PREC_POW
    return _PREC_ATOM


def _wrap(e: Expr, minimum: int) -> str:
    s = to_str(e)
    return f"({s})" if _prec(e) < minimum else s


def to_str(e: Expr) -> str:
    """Render an expression in the DSL syntax.

    parse(to_str(e)) evaluates bit for bit like e at every point. The reparsed
    tree need not equal e: Const(-1.0), for instance, reads back as
    Neg(Const(1.0)).
    """
    if isinstance(e, Const):
        v = e.value
        if v == int(v) and abs(v) < 1e16:
            return str(int(v))
        # exact positional decimal, so parsing reproduces the float bit for bit
        from decimal import Decimal

        return format(Decimal(v), "f")
    if isinstance(e, Coord):
        return e.name
    if isinstance(e, Neg):
        return "-" + _wrap(e.arg, _PREC_NEG)
    # float + is not associative, so a sum on the right of + or - keeps its parentheses
    if isinstance(e, Add):
        return f"{_wrap(e.left, _PREC_ADD)} + {_wrap(e.right, _PREC_ADD + 1)}"
    if isinstance(e, Sub):
        return f"{_wrap(e.left, _PREC_ADD)} - {_wrap(e.right, _PREC_ADD + 1)}"
    if isinstance(e, Mul):
        return f"{_wrap(e.left, _PREC_MUL)}*{_wrap(e.right, _PREC_MUL + 1)}"
    if isinstance(e, Div):
        return f"{_wrap(e.left, _PREC_MUL)}/{_wrap(e.right, _PREC_MUL + 1)}"
    if isinstance(e, Pow):
        return f"{_wrap(e.base, _PREC_ATOM)}^{e.exponent}"
    if isinstance(e, Sin):
        return f"sin({to_str(e.arg)})"
    if isinstance(e, Cos):
        return f"cos({to_str(e.arg)})"
    if isinstance(e, Exp):
        return f"exp({to_str(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Evaluation: the tree-walking reference interpreter. Both engines report an
# arithmetic fault with the same EvalError message.

_DIV_ZERO = "division by zero"


def _neg_pow(base: float, n: int) -> float:
    if base == 0.0:
        raise EvalError("0 raised to a negative power")
    return float(base**n)


def _arith_error(exc: ArithmeticError | ValueError) -> EvalError:
    if isinstance(exc, OverflowError):
        return EvalError("overflow")
    return EvalError(str(exc))


def evaluate(e: Expr, point: dict) -> float:
    """Evaluate at a coordinate binding, operands left to right. Raises
    EvalError on unbound names, division by zero, 0 raised to a negative
    power, overflow and math domain errors. This is the reference that
    compile_batch matches bit for bit and falls back to at a fault."""
    try:
        return _evaluate(e, point)
    except (OverflowError, ValueError) as exc:
        raise _arith_error(exc) from None


def _evaluate(e: Expr, point: dict) -> float:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Coord):
        try:
            return float(point[e.name])
        except KeyError:
            raise EvalError(f"unbound coordinate '{e.name}'") from None
    if isinstance(e, Neg):
        return -_evaluate(e.arg, point)
    if isinstance(e, Add):
        return _evaluate(e.left, point) + _evaluate(e.right, point)
    if isinstance(e, Sub):
        return _evaluate(e.left, point) - _evaluate(e.right, point)
    if isinstance(e, Mul):
        return _evaluate(e.left, point) * _evaluate(e.right, point)
    if isinstance(e, Div):
        num = _evaluate(e.left, point)
        denom = _evaluate(e.right, point)
        if denom == 0.0:
            raise EvalError(_DIV_ZERO)
        return num / denom
    if isinstance(e, Pow):
        base = _evaluate(e.base, point)
        if e.exponent < 0:
            return _neg_pow(base, e.exponent)
        return float(base**e.exponent)
    if isinstance(e, Sin):
        return math.sin(_evaluate(e.arg, point))
    if isinstance(e, Cos):
        return math.cos(_evaluate(e.arg, point))
    if isinstance(e, Exp):
        return math.exp(_evaluate(e.arg, point))
    raise TypeError(f"not an expression node: {e!r}")


def free_vars(e: Expr) -> frozenset:
    """The set of coordinate names occurring in the tree."""
    if isinstance(e, Const):
        return frozenset()
    if isinstance(e, Coord):
        return frozenset({e.name})
    if isinstance(e, (Neg, Sin, Cos, Exp)):
        return free_vars(e.arg)
    if isinstance(e, (Add, Sub, Mul, Div)):
        return free_vars(e.left) | free_vars(e.right)
    if isinstance(e, Pow):
        return free_vars(e.base)
    raise TypeError(f"not an expression node: {e!r}")


def substitute(e: Expr, bindings: dict) -> Expr:
    """Replace coordinates by expressions (simultaneous substitution)."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Coord):
        return bindings.get(e.name, e)
    if isinstance(e, Neg):
        return Neg(substitute(e.arg, bindings))
    if isinstance(e, Add):
        return Add(substitute(e.left, bindings), substitute(e.right, bindings))
    if isinstance(e, Sub):
        return Sub(substitute(e.left, bindings), substitute(e.right, bindings))
    if isinstance(e, Mul):
        return Mul(substitute(e.left, bindings), substitute(e.right, bindings))
    if isinstance(e, Div):
        return Div(substitute(e.left, bindings), substitute(e.right, bindings))
    if isinstance(e, Pow):
        return Pow(substitute(e.base, bindings), e.exponent)
    if isinstance(e, Sin):
        return Sin(substitute(e.arg, bindings))
    if isinstance(e, Cos):
        return Cos(substitute(e.arg, bindings))
    if isinstance(e, Exp):
        return Exp(substitute(e.arg, bindings))
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Differentiation


def diff(e: Expr, coord: str) -> Expr:
    """Exact partial derivative with respect to a coordinate name, simplified.

    Memoised: e keeps its derivative per coordinate, so a repeated call
    returns the identical object. The memo is an attribute of e and lives
    and dies with it; it holds no reference back to e, so a dropped tree is
    freed at once, without waiting for the cycle collector. The derivative
    is built at the root from the memoised derivatives and simplified forms
    of e's children, and equals simplify() of the whole unsimplified
    derivative tree."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Coord):
        return ONE if e.name == coord else ZERO
    memo = e._diffs
    if memo is None:
        memo = {}
        object.__setattr__(e, "_diffs", memo)
    d = memo.get(coord)
    if d is None:
        d = memo[coord] = simplify(_diff(e, coord))
    return d


def _diff(e: Expr, x: str) -> Expr:
    """The derivative rule at the root of a composite node."""
    if isinstance(e, Neg):
        return Neg(diff(e.arg, x))
    if isinstance(e, Add):
        return Add(diff(e.left, x), diff(e.right, x))
    if isinstance(e, Sub):
        return Sub(diff(e.left, x), diff(e.right, x))
    if isinstance(e, Mul):
        l, r = simplify(e.left), simplify(e.right)
        return Add(Mul(diff(e.left, x), r), Mul(l, diff(e.right, x)))
    if isinstance(e, Div):
        l, r = simplify(e.left), simplify(e.right)
        num = Sub(Mul(diff(e.left, x), r), Mul(l, diff(e.right, x)))
        return Div(num, Pow(r, 2))
    if isinstance(e, Pow):
        if e.exponent == 0:
            return ZERO
        base = simplify(e.base)
        return Mul(Mul(Const(float(e.exponent)), Pow(base, e.exponent - 1)), diff(e.base, x))
    # exp(u)' = exp(u) u' takes a new Exp node, not e itself, so that no
    # derivative refers back to the node it is memoised on
    if isinstance(e, Sin):
        return Mul(Cos(simplify(e.arg)), diff(e.arg, x))
    if isinstance(e, Cos):
        return Neg(Mul(Sin(simplify(e.arg)), diff(e.arg, x)))
    if isinstance(e, Exp):
        return Mul(Exp(simplify(e.arg)), diff(e.arg, x))
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Simplification


def _is_const(e: Expr, v: float | None = None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


def _local(e: Expr) -> Expr:
    """One rewrite step at the root; children are assumed simplified."""
    if isinstance(e, Neg):
        a = e.arg
        if isinstance(a, Neg):
            return a.arg
        if isinstance(a, Const):
            return Const(-a.value)
        return e
    if isinstance(e, Add):
        l, r = e.left, e.right
        if _is_const(l) and _is_const(r):
            return Const(l.value + r.value)
        if _is_const(l, 0.0):
            return r
        if _is_const(r, 0.0):
            return l
        if isinstance(r, Neg):
            return Sub(l, r.arg)
        if isinstance(l, Neg):
            return Sub(r, l.arg)
        return e
    if isinstance(e, Sub):
        l, r = e.left, e.right
        if _is_const(l) and _is_const(r):
            return Const(l.value - r.value)
        if _is_const(r, 0.0):
            return l
        if _is_const(l, 0.0):
            return Neg(r)
        if isinstance(r, Neg):
            return Add(l, r.arg)
        if l == r:
            return ZERO
        return e
    if isinstance(e, Mul):
        l, r = e.left, e.right
        if _is_const(l) and _is_const(r):
            return Const(l.value * r.value)
        if _is_const(l, 0.0) or _is_const(r, 0.0):
            return ZERO
        if _is_const(l, 1.0):
            return r
        if _is_const(r, 1.0):
            return l
        if isinstance(l, Neg):
            return Neg(Mul(l.arg, r))
        if isinstance(r, Neg):
            return Neg(Mul(l, r.arg))
        return e
    if isinstance(e, Div):
        l, r = e.left, e.right
        if _is_const(l) and _is_const(r) and r.value != 0.0:
            return Const(l.value / r.value)
        if _is_const(l, 0.0):
            return ZERO
        if _is_const(r, 1.0):
            return l
        if isinstance(l, Neg):
            return Neg(Div(l.arg, r))
        return e
    if isinstance(e, Pow):
        if e.exponent == 0:
            return ONE
        if e.exponent == 1:
            return e.base
        if _is_const(e.base) and not (e.base.value == 0.0 and e.exponent < 0):
            return _fold_const(lambda v: float(v**e.exponent), e, e.base)
        return e
    if isinstance(e, (Sin, Cos, Exp)) and _is_const(e.arg):
        return _fold_const(_FOLD[type(e)], e, e.arg)
    return e


_FOLD = {Sin: math.sin, Cos: math.cos, Exp: math.exp}


def _fold_const(fn, e: Expr, arg: Const) -> Expr:
    """fn of a constant as a constant; e unfolded where fn raises (exp(1000)),
    so the fault is reported at each point, as evaluate reports it."""
    try:
        return Const(fn(arg.value))
    except (OverflowError, ValueError):
        return e


def simplify(e: Expr) -> Expr:
    """Best-effort normalization: constant folding, 0/1 identities, Neg pulling.
    Idempotent; not a canonical form.

    Where e evaluates, simplify(e) evaluates to the same value up to rounding
    (the property tests hold it to 1e-12 on random trees). Simplification may
    enlarge the domain of definition: 0*(1/x) and 1/x - 1/x simplify to 0,
    which evaluates at x = 0, where the original raises EvalError (division
    by zero).

    Memoised: e keeps its simplified form, and a simplified node is flagged
    as such, so simplifying either again returns at once. The memo is an
    attribute of e and lives and dies with it (a flag, not a reference to e
    itself, so no reference cycle keeps a dropped tree alive). Children are
    simplified first, so only the rewrites at new nodes cost work."""
    done = e._simple
    if done is not None:
        return e if done is True else done
    if isinstance(e, (Const, Coord)):
        return e
    if isinstance(e, Pow):
        base = simplify(e.base)
        out = e if base is e.base else Pow(base, e.exponent)
    elif isinstance(e, (Add, Sub, Mul, Div)):
        l, r = simplify(e.left), simplify(e.right)
        out = e if l is e.left and r is e.right else type(e)(l, r)
    else:  # Neg, Sin, Cos, Exp
        arg = simplify(e.arg)
        out = e if arg is e.arg else type(e)(arg)
    # every rewrite in _local returns a new node or a strict subtree, never a
    # node equal to out, so identity tells whether one applied
    reduced = _local(out)
    if reduced is out:
        object.__setattr__(out, "_simple", True)
    else:
        out = simplify(reduced)
    if out is not e:
        object.__setattr__(e, "_simple", out)
    return out


# ---------------------------------------------------------------------------
# Compilation: one straight-line numpy function per list of expressions

_BINARY_OPS = {Add: "+", Sub: "-", Mul: "*", Div: "/"}
_PROGRAM_GLOBALS = {
    "_array": np.array,
    "_cos": np.cos,
    "_empty": np.empty,
    "_exp": math.exp,
    "_full": np.full,
    "_neg_pow": _neg_pow,
    "_sin": np.sin,
    "_stack": np.stack,
}


def _unbound(name: str):
    raise EvalError(f"unbound coordinate '{name}'")


def compile_batch(exprs, coords):
    """Compile expressions into one function of an (n, len(coords)) array of
    points, columns in coordinate order.

    The function returns an (n, len(exprs)) array of values and a dict that
    maps each point where evaluation faulted to (index of the first faulting
    expression, its EvalError); that point's row is nan. Values agree with
    evaluate() bit for bit and a faulting point gets evaluate()'s exact error.

    Each structurally distinct subtree is computed once, as one temporary.
    +, -, *, /, negation, sin and cos run as numpy ufuncs, which round as the
    float operations in evaluate() do; exp and integer powers run per element
    through math.exp and float ** for the same reason. With finite constants
    and coordinates, every fault evaluate() reports raises a floating-point
    error here too. A call that raises one is bisected (see _bisect) down to
    the faulting points, or to small parts that fault in both halves, and
    evaluate() evaluates those points; every row is computed elementwise,
    so every point keeps its bits. A call with a
    non-finite constant or coordinate is evaluated point by point with
    evaluate()."""
    exprs = list(exprs)
    coords = tuple(coords)
    column = {name: j for j, name in enumerate(coords)}
    env = dict(_PROGRAM_GLOBALS, _unbound=_unbound)
    lines = []
    temps: dict = {}  # structural key -> temporary
    seen: dict = {}  # id(node) -> temporary; keys are built bottom-up, so no tree is hashed
    finite = True

    def emit(e: Expr) -> str:
        nonlocal finite
        name = seen.get(id(e))
        if name is not None:
            return name
        if isinstance(e, Const):
            value = float(e.value)
            finite = finite and math.isfinite(value)
            key = (Const, value.hex())  # keeps 0.0 and -0.0 apart
            code = None
        elif isinstance(e, Coord):
            key = (Coord, e.name)
            j = column.get(e.name)
            code = f"_x[:, {j}]" if j is not None else f"_unbound({e.name!r})"
        elif isinstance(e, Neg):
            key = (Neg, emit(e.arg))
            code = f"-{key[1]}"
        elif isinstance(e, (Sin, Cos)):
            key = (type(e), emit(e.arg))
            code = f"_{type(e).__name__.lower()}({key[1]})"
        elif isinstance(e, Exp):
            key = (Exp, emit(e.arg))
            code = f"_array([_exp(v) for v in {key[1]}.tolist()])"
        elif isinstance(e, Pow):
            key = (Pow, emit(e.base), e.exponent)
            power = f"_neg_pow(v, {e.exponent})" if e.exponent < 0 else f"v ** {e.exponent}"
            code = f"_array([{power} for v in {key[1]}.tolist()])"
        elif type(e) in _BINARY_OPS:
            key = (type(e), emit(e.left), emit(e.right))
            code = f"{key[1]} {_BINARY_OPS[type(e)]} {key[2]}"
        else:
            raise TypeError(f"not an expression node: {e!r}")
        name = temps.get(key)
        if name is None:
            name = temps[key] = f"t{len(temps)}"
            if code is None:
                env[f"{name}_value"] = value
                code = f"_full(_n, {name}_value)"
            lines.append(f"    {name} = {code}\n")
        seen[id(e)] = name
        return name

    outputs = [emit(e) for e in exprs]
    result = f"_stack(({', '.join(outputs)},), axis=1)" if outputs else "_empty((_n, 0))"
    src = "def _program(_x, _n):\n" + "".join(lines) + f"    return {result}\n"
    exec(src, env)
    program = env["_program"]

    def run(points: np.ndarray):
        if not (finite and np.isfinite(points).all()):
            return _evaluate_rows(exprs, coords, points)
        values = np.empty((points.shape[0], len(exprs)))
        faulted = []
        with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
            if not _fill(program, points, values, 0, points.shape[0]):
                _bisect(program, points, values, 0, points.shape[0], faulted)
        if not faulted:
            return values, {}
        values[faulted], errors = _evaluate_rows(exprs, coords, points[faulted])
        return values, {faulted[i]: fault for i, fault in errors.items()}

    return run


def _fill(program, points, out, lo: int, hi: int) -> bool:
    """out[lo:hi] = the program's values at points[lo:hi]; False if it raises."""
    try:
        out[lo:hi] = program(points[lo:hi], hi - lo)
        return True
    except (ArithmeticError, ValueError, EvalError):
        return False


# A part of at most _LEAF points that raises in both halves goes to evaluate()
# whole; faults _LEAF or more points apart are still found one by one.
_LEAF = 16


def _bisect(program, points, out, lo: int, hi: int, faulted: list):
    """Fill out[lo:hi], a part on which the program raised: run each half once
    and go on in each half that raised, down to one point or to a part of at
    most _LEAF points that raised in both halves. Those points go to
    `faulted` in order, their rows left to the caller. A chunk of n points
    that all fault costs about 4n/_LEAF calls, not 2n - 1."""
    if hi - lo == 1:
        faulted.append(lo)
        return
    mid = (lo + hi) // 2
    raised = [(a, b) for a, b in ((lo, mid), (mid, hi)) if not _fill(program, points, out, a, b)]
    if len(raised) == 2 and hi - lo <= _LEAF:
        faulted.extend(range(lo, hi))
        return
    for a, b in raised:
        _bisect(program, points, out, a, b, faulted)


def _evaluate_rows(exprs, coords, points):
    """The reference interpreter, point by point: compile_batch's fallback."""
    values = np.full((len(points), len(exprs)), np.nan)
    errors = {}
    for i, row in enumerate(points.tolist()):
        binding = dict(zip(coords, row))
        for j, e in enumerate(exprs):
            try:
                values[i, j] = evaluate(e, binding)
            except EvalError as exc:
                errors[i] = (j, exc)
                values[i] = np.nan
                break
    return values, errors
