"""Expression trees: parsing, symbolic differentiation, simplification and
compilation into a tape of batched numpy calls, the one evaluation engine.

The grammar is deliberately tiny -- {+, -, *, /, ^, sin, cos, exp} over named
coordinates with integer exponents -- and every operation here is a pure
function on immutable trees. Every constant is finite (see compile_batch).

Nodes are hash-consed: building a node equal to a live node returns that
node, so equal trees are one object. Equality of nodes is identity and
hashing is O(1), with one exception: constants compare by value, as floats
do, so Const(0.0) == Const(-0.0), although the two are distinct nodes. The
table of live nodes holds them weakly, so a dropped tree is freed and leaves
the table. simplify, diff and free_vars keep their results on the node, so
every occurrence of a subtree, in every jet, shares them.

Each operation is a method of the node. The shapes (Const, Coord, _Unary,
_Binary, Pow) walk a node's children: to rebuild it, print it, fold it and
emit its tape ops. Each concrete class is one op's row: ufunc, the numpy
rule on the tape; fn, the float rule of constant folding, which is the ufunc
at a float64 scalar, or for + - * / and negation Python's float operation,
which rounds as the ufunc does; prec and symbol, for the printer; _d, the
derivative rule; and _local, its rewrite. An integer power is one chain of
IEEE multiplications (integer_power) on the tape and in folding.

Each row has one rewrite rule, on its children: its shape's fold, else its
_local rule (see _rewrite). Nodes are built simplified: make(cls, *children)
applies the rule to simplified children before it interns anything, so the
node that a rule rewrites is never built. simplify, every _d rule and the
sums of fields.py build through make, so diff keeps a node's derivative as
_d builds it and does not simplify it again.

The parser parses each parenthesised group and call argument once per memo
of groups, keyed by the text between the parentheses, whose matching ')'
_tokens finds. parse keeps a memo for one text, or takes the caller's: a
manifest's plan keeps one for its texts, which lasts for that one plan
build (see manifest.build_plan).
"""

from __future__ import annotations

import math
import operator
import sys
import weakref
from _weakref import _remove_dead_weakref
from decimal import Decimal
from heapq import heappop, heappush

import numpy as np


class EvalError(Exception):
    """Raised when an expression cannot be evaluated at a point."""


# ---------------------------------------------------------------------------
# Nodes and the intern table

# (class, then children by identity, or the exponent, name or constant's
# float.hex) -> weak reference to the live node. A key's child ids are those
# of live objects: the node holds its children, and its entry leaves the
# table when it dies.
_table: dict = {}


class _Ref(weakref.ref):
    """A weak reference to a node that knows the node's key in the table."""

    __slots__ = ("key",)


def _forget(ref: _Ref):
    # removes the entry only while it still holds this dead reference
    _remove_dead_weakref(_table, ref.key)


def _missing():
    """Stands in for a dead reference: _table.get(key, _missing)() is the
    live node under key, or None."""
    return None


def _new(cls, key, *fields):
    """A fresh node of cls with the given fields, entered in the table under
    key. Every node is built here."""
    node = object.__new__(cls)
    node._simple = node._diffs = node._free = None
    for name, value in zip(cls._fields, fields):
        setattr(node, name, value)
    ref = _table[key] = _Ref(node, _forget)
    ref.key = key
    return node


class Expr:
    """Base node. Subclasses are the only valid instances; their constructors
    return the live node equal to the one asked for, if there is one.

    A node is shared by every tree that contains it, so it is never changed:
    its fields are set once, by its constructor. _simple, _diffs and _free
    are the memos of simplify (and make), diff and free_vars (see there),
    each of which only ever holds one value; they take no part in equality,
    hashing or repr.

    A shape defines _args(f) (the node's constructor arguments, f applied
    to each child), _vars() (free_vars), _str() (to_str), _emit(tape) (the
    register of the node's value) and _fold(*args) (the constant of a node
    of constant children, else None; it raises where the value is not a
    finite float). A row defines _d(x), the derivative rule at the root,
    built simplified (see make), and may define _local(*args), its rewrite
    of simplified children: a node built simplified or one of the children,
    else None."""

    __slots__ = ("_simple", "_diffs", "_free", "__weakref__")
    _fields: tuple = ()
    prec = 5  # binding strength in print: atoms and calls bind tightest

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

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

    @staticmethod
    def _fold(*args):
        return None

    @staticmethod
    def _local(*args):
        return None


def _coerce(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float)):
        return Const(float(v))
    raise TypeError(f"cannot build an expression from {v!r}")


class Const(Expr):
    """A finite float constant (else ValueError). It compares by value, so
    Const(0.0) == Const(-0.0), but it is interned by its bits, so the two
    are distinct nodes."""

    __slots__ = ("value",)
    _fields = __slots__

    def __new__(cls, value):
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"constants must be finite, got {value}")
        key = (cls, value.hex())
        return _table.get(key, _missing)() or _new(cls, key, value)

    def __eq__(self, other):
        if type(other) is not Const:
            return NotImplemented
        return self is other or self.value == other.value

    def __hash__(self):
        return hash(self.value)

    @property
    def prec(self):
        # a constant with a sign bit (-0.0 too) prints with it, as a negation does
        return Neg.prec if math.copysign(1.0, self.value) < 0 else Expr.prec

    def _args(self, f):
        return (self.value,)

    def _vars(self):
        return frozenset()

    def _str(self):
        # exact positional decimal, so parsing reproduces the float bit for bit
        return format(Decimal(self.value), "f")

    def _emit(self, t):
        return t.const(self.value)

    def _d(self, x):
        return ZERO


class Coord(Expr):
    __slots__ = ("name",)
    _fields = __slots__

    def __new__(cls, name):
        key = (cls, name)
        return _table.get(key, _missing)() or _new(cls, key, name)

    def _args(self, f):
        return (self.name,)

    def _vars(self):
        return frozenset((self.name,))

    def _str(self):
        return self.name

    def _emit(self, t):
        if self.name in t.column:
            return t.own(t.column[self.name], 0)
        # a name with no column is 0/0 at each point, so that the run raises
        unbound = t.code(f"unbound coordinate '{self.name}'")
        return t.own(lambda x, out: np.zeros(len(x)) / 0.0, 0, fault=lambda x: unbound)

    def _d(self, x):
        return ONE if self.name == x else ZERO


class _Unary(Expr):
    """A function of one argument, printed as a call."""

    __slots__ = ("arg",)
    _fields = __slots__

    def __new__(cls, arg):
        key = (cls, id(arg))
        return _table.get(key, _missing)() or _new(cls, key, arg)

    def _args(self, f):
        return (f(self.arg),)

    def _vars(self):
        return free_vars(self.arg)

    def _str(self):
        return f"{self.symbol}({to_str(self.arg)})"

    @classmethod
    def fn(cls, value: float) -> float:
        """The row's ufunc at one value, as a float64 scalar: the bits of its
        array loop on the tape. A value beyond the float range is inf."""
        with np.errstate(all="ignore"):
            return float(cls.ufunc(value))

    def _emit(self, t):
        return t.op(self.ufunc, t.array(self.arg))

    @classmethod
    def _fold(cls, a):
        return Const(cls.fn(a.value)) if type(a) is Const else None


class _Binary(Expr):
    """An infix operator."""

    __slots__ = ("left", "right")
    _fields = __slots__

    def __new__(cls, left, right):
        key = (cls, id(left), id(right))
        return _table.get(key, _missing)() or _new(cls, key, left, right)

    def _args(self, f):
        return f(self.left), f(self.right)

    def _vars(self):
        return free_vars(self.left) | free_vars(self.right)

    def _str(self):
        # float + is not associative, so a sum on the right of + or - keeps its parentheses
        return f"{_wrap(self.left, self.prec)}{self.symbol}{_wrap(self.right, self.prec + 1)}"

    def _emit(self, t):
        return t.op(self.ufunc, t.slot(self.left), t.slot(self.right))

    @classmethod
    def _fold(cls, l, r):
        if type(l) is Const and type(r) is Const:
            return Const(cls.fn(l.value, r.value))
        return None


def integer_power(base, n: int):
    """base^n for an integer n, by square and multiply over IEEE *, on a float
    or an array: the same multiplications in the same order, so the same bits
    in Python and in numpy. A negative n raises 1/base to -n, rather than
    dividing 1 by base^-n, so that a tiny base overflows as its power does
    instead of dividing by a power that underflowed to 0. At n = 0 the power
    is 1.0."""
    if n < 0:
        base, n = 1.0 / base, -n
    out = None
    while n:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if n:  # a square that no later factor uses could overflow needlessly
            base = base * base
    return 1.0 if out is None else out


class Pow(Expr):
    """base^exponent for an integer exponent: integer_power on the tape and
    in folding. The tape names the fault of a zero base and a negative
    exponent, where folding raises ZeroDivisionError; any other value beyond
    the float range is overflow."""

    __slots__ = ("base", "exponent")
    _fields = __slots__
    prec, symbol = 4, "^"

    def __new__(cls, base, exponent):
        key = (cls, id(base), exponent)
        return _table.get(key, _missing)() or _new(cls, key, base, exponent)

    def _args(self, f):
        return f(self.base), self.exponent

    def _vars(self):
        return free_vars(self.base)

    def _str(self):
        return f"{_wrap(self.base, self.prec + 1)}{self.symbol}{self.exponent}"

    def _emit(self, t):
        n, zero = self.exponent, t.code("0 raised to a negative power")
        # an array base, so that the chain runs under numpy's error policy
        base = t.array(self.base)
        if n == 1:  # integer_power would return its base, whose buffer may be reused
            return base
        power = lambda v, out: integer_power(v, n)
        return t.own(power, base, fault=lambda v: np.where(v == 0, zero, 1), array=n != 0)

    @staticmethod
    def _fold(base, n):
        return Const(integer_power(base.value, n)) if type(base) is Const else None

    def _d(self, x):
        n = self.exponent
        if n == 0:
            return ZERO
        power = make(Mul, Const(float(n)), make(Pow, simplify(self.base), n - 1))
        return make(Mul, power, diff(self.base, x))

    @staticmethod
    def _local(base, n):
        if n == 0:
            return ONE
        if n == 1:
            return base
        return None


class Neg(_Unary):
    """A prefix operator, not a call. Negation is exact, so on the tape a
    constant argument is not spread over the chunk."""

    __slots__ = ()
    fn, ufunc, prec, symbol = operator.neg, np.negative, 3, "-"

    def _str(self):
        return self.symbol + _wrap(self.arg, self.prec)

    def _emit(self, t):
        return t.op(self.ufunc, t.slot(self.arg))

    def _d(self, x):
        return make(Neg, diff(self.arg, x))

    @staticmethod
    def _local(a):
        return a.arg if type(a) is Neg else None


class Add(_Binary):
    __slots__ = ()
    fn, ufunc, prec, symbol = operator.add, np.add, 1, " + "

    def _d(self, x):
        return make(Add, diff(self.left, x), diff(self.right, x))

    @staticmethod
    def _local(l, r):
        if _is_const(l, 0.0):
            return r
        if _is_const(r, 0.0):
            return l
        if type(r) is Neg:
            return make(Sub, l, r.arg)
        if type(l) is Neg:
            return make(Sub, r, l.arg)
        return None


class Sub(_Binary):
    __slots__ = ()
    fn, ufunc, prec, symbol = operator.sub, np.subtract, 1, " - "

    def _d(self, x):
        return make(Sub, diff(self.left, x), diff(self.right, x))

    @staticmethod
    def _local(l, r):
        if _is_const(r, 0.0):
            return l
        if _is_const(l, 0.0):
            return make(Neg, r)
        if type(r) is Neg:
            return make(Add, l, r.arg)
        if l is r:
            return ZERO
        return None


class Mul(_Binary):
    __slots__ = ()
    fn, ufunc, prec, symbol = operator.mul, np.multiply, 2, "*"

    def _d(self, x):
        l, r = simplify(self.left), simplify(self.right)
        return make(Add, make(Mul, diff(self.left, x), r), make(Mul, l, diff(self.right, x)))

    @staticmethod
    def _local(l, r):
        if _is_const(l, 0.0) or _is_const(r, 0.0):
            return ZERO
        if _is_const(l, 1.0):
            return r
        if _is_const(r, 1.0):
            return l
        if type(l) is Neg:
            return make(Neg, make(Mul, l.arg, r))
        if type(r) is Neg:
            return make(Neg, make(Mul, l, r.arg))
        return None


class Div(_Binary):
    __slots__ = ()
    fn, ufunc, prec, symbol = operator.truediv, np.divide, 2, "/"

    def _emit(self, t):
        zero = t.code("division by zero")
        fault = lambda a, b: np.where(b == 0, zero, 1)
        return t.op(self.ufunc, t.slot(self.left), t.slot(self.right), fault=fault)

    def _d(self, x):
        l, r = simplify(self.left), simplify(self.right)
        num = make(Sub, make(Mul, diff(self.left, x), r), make(Mul, l, diff(self.right, x)))
        return make(Div, num, make(Pow, r, 2))

    @staticmethod
    def _local(l, r):
        if _is_const(l, 0.0):  # also 0/0, which does not fold
            return ZERO
        if _is_const(r, 1.0):
            return l
        if type(l) is Neg:
            return make(Neg, make(Div, l.arg, r))
        return None


class Sin(_Unary):
    __slots__ = ()
    ufunc, symbol = np.sin, "sin"

    def _d(self, x):
        return make(Mul, make(Cos, simplify(self.arg)), diff(self.arg, x))


class Cos(_Unary):
    __slots__ = ()
    ufunc, symbol = np.cos, "cos"

    def _d(self, x):
        return make(Neg, make(Mul, make(Sin, simplify(self.arg)), diff(self.arg, x)))


class Exp(_Unary):
    __slots__ = ()
    # numpy's exp in folding too: libm's exp differs from it by an ulp in a
    # few percent of values, and only numpy's runs over an array
    ufunc, symbol = np.exp, "exp"

    def _d(self, x):
        return make(Mul, make(Exp, simplify(self.arg)), diff(self.arg, x))


ZERO = Const(0.0)
ONE = Const(1.0)

_FUNCS = {cls.symbol: cls for cls in (Sin, Cos, Exp)}


def _is_const(e: Expr, v: float) -> bool:
    return type(e) is Const and e.value == v


# ---------------------------------------------------------------------------
# Parsing


class ParseError(Exception):
    def __init__(self, position: int, expected: str, found: str):
        self.position = position
        self.expected = expected
        self.found = found
        super().__init__(f"at offset {position}: expected {expected}, found {found}")


class NestingError(ValueError):
    """An expression nested too deeply for the recursive walks (parsing,
    simplify, diff and compilation) under Python's recursion limit."""

    def __init__(self, depth: int):
        self.depth = depth
        super().__init__(
            f"expression nested {depth} deep: walking it exceeds Python's recursion limit of {sys.getrecursionlimit()}"
        )


def _tokens(src: str) -> tuple:
    """The tokens of src as (kind, start, end) offsets, whitespace skipped:
    kind "num" for a number (decimal digits, optionally a point and more
    digits, or a point first), "id" for a name (a letter or _, then letters,
    digits or _), the character itself for any other, and "" for the end of
    input; and, by the index of each '(' token that is closed, the index of
    its matching ')' token."""
    tokens, closes, opened = [], {}, []
    n = len(src)
    i = 0
    while True:
        while i < n and src[i].isspace():
            i += 1
        if i == n:
            tokens.append(("", n, n))
            return tokens, closes
        start, ch = i, src[i]
        i += 1
        if ch.isdecimal() or ch == ".":
            kind = "num"
            while i < n and src[i].isdecimal():
                i += 1
            if ch != "." and i < n and src[i] == ".":
                i += 1
                while i < n and src[i].isdecimal():
                    i += 1
        elif ch.isalpha() or ch == "_":
            kind = "id"
            while i < n and (src[i].isalnum() or src[i] == "_"):
                i += 1
        else:
            kind = ch
            if ch == "(":
                opened.append(len(tokens))
            elif ch == ")" and opened:
                closes[opened.pop()] = len(tokens)
        tokens.append((kind, start, i))


# The largest exponent magnitude: Pow._d's Const(float(n)) is exact up to 2^53.
_MAX_EXPONENT = 2**53
_EXPONENT_BOUND = "an exponent of magnitude at most 2^53"


class _Parser:
    """Recursive descent over the tokens; an error names the offset of the
    first character it could not use. groups maps the text inside each
    pair of parentheses parsed so far, a group's or a call's, to its tree."""

    def __init__(self, src: str, groups: dict):
        self.src = src
        self.tokens, self.closes = _tokens(src)
        self.groups = groups
        self.i = 0

    def error(self, expected: str, at: int | None = None):
        at = self.tokens[self.i][1] if at is None else at
        found = self.src[at] if at < len(self.src) else "end of input"
        raise ParseError(at, expected, found)

    def peek(self) -> str:
        return self.tokens[self.i][0]

    def accept(self, kind: str) -> bool:
        if self.tokens[self.i][0] == kind:
            self.i += 1
            return True
        return False

    def expect(self, kind: str):
        if not self.accept(kind):
            self.error(f"'{kind}'")

    def text(self) -> str:
        """The current token's text; moves past it."""
        _, start, end = self.tokens[self.i]
        self.i += 1
        return self.src[start:end]

    def parse(self) -> Expr:
        e = self.expr()
        if self.peek() != "":
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
        # exponents are integer literals; chains like x^2^3 fold right to left,
        # each power bounded before it is computed
        exps = []
        while self.accept("^"):
            exps.append((self.tokens[self.i][1], self.integer()))
        n = exps[-1][1]
        for at, e in reversed(exps[:-1]):
            if n < 0:
                self.error("non-negative exponent in exponent chain")
            # |e| >= 2 with n > 53 is beyond the bound, and e**n is not computed
            if abs(e) > 1 and n > 53 or abs(e**n) > _MAX_EXPONENT:
                self.error(_EXPONENT_BOUND, at)
            n = e**n
        return Pow(base, n)

    def integer(self) -> int:
        """An optionally signed run of digits, the sign and the digits
        adjacent, and no decimal point."""
        kind, start, _ = self.tokens[self.i]
        first, sign = start, ""
        if kind in ("+", "-"):
            sign = kind
            self.i += 1
            kind, at, _ = self.tokens[self.i]
            if at != start + 1:
                self.error("integer exponent", start + 1)
            start = at
        digits = self.text() if kind == "num" else ""
        whole = digits.partition(".")[0]
        if not whole:
            self.error("integer exponent", start)
        if whole != digits:
            raise ParseError(start + len(whole), "integer exponent", ".")
        # 2^53 has 16 digits; int() refuses a literal of over 4300 digits
        if len(whole.lstrip("0")) > 16 or int(whole) > _MAX_EXPONENT:
            self.error(_EXPONENT_BOUND, first)
        return int(sign + whole)

    def group(self) -> Expr:
        """The expression in the parentheses that open at the current token,
        parsed once per memo of groups: the same text between them is the
        same tree. A '(' that is never closed is parsed, to its error."""
        close = self.closes.get(self.i)
        text = None if close is None else self.src[self.tokens[self.i][2] : self.tokens[close][1]]
        e = self.groups.get(text)
        if e is not None:
            self.i = close + 1
            return e
        self.i += 1
        e = self.expr()
        self.expect(")")  # so an unclosed '(' stores nothing
        self.groups[text] = e
        return e

    def atom(self) -> Expr:
        kind = self.peek()
        if kind == "(":
            return self.group()
        if kind == "num":
            start = self.tokens[self.i][1]
            src = self.text()
            if src == ".":
                self.error("a number", start + 1)
            if not math.isfinite(value := float(src)):
                self.error("a number within the float range", start)
            return Const(value)
        if kind == "id":
            name = self.text()
            if self.peek() == "(":
                if name not in _FUNCS:
                    raise ParseError(self.tokens[self.i][1], "one of sin, cos, exp", name)
                return _FUNCS[name](self.group())
            if name == "pi":
                return Const(math.pi)
            return Coord(name)
        self.error("a number, coordinate, function call or '('")


def parse(src: str, groups: dict | None = None) -> Expr:
    """Parse the textual DSL into an expression tree; NestingError where the
    text nests too deeply for the parser's recursion.

    groups is the memo of the parenthesised groups and call arguments parsed
    so far, by their text, for a caller that parses several texts
    (manifest.build_plan keeps one per plan); by default each text has its
    own. Each group's text is parsed once per memo, and the tree is the one
    that parsing it again would give, since nodes are hash-consed."""
    try:
        return _Parser(src, {} if groups is None else groups).parse()
    except RecursionError:
        raise NestingError(_text_depth(src)) from None


def names_a_coordinate(name: str) -> bool:
    """Whether the DSL reads `name` as the coordinate of that name, that is
    whether parse(name) is Coord(name): name is one name token (see _tokens)
    and not pi, so not a numeral nor text of several tokens or with spaces
    around it."""
    head = name[:1]
    return (head.isalpha() or head == "_") and name.replace("_", "a").isalnum() and name != "pi"


def _text_depth(src: str) -> int:
    """How deep the parser descends into src: a level for each parenthesis
    or call, and one for each unary minus, which lasts to the next binary
    operator in its parentheses. Counted over the tokens, without recursion."""
    base = level = deepest = 0
    groups, previous = [], ""
    for kind, _, _ in _tokens(src)[0]:
        if kind == "(":
            groups.append((base, level))
            base = level = level + 1
        elif kind == ")" and groups:
            base, level = groups.pop()
        elif kind in ("+", "-", "*", "/") and previous in ("id", "num", ")"):
            level = base
        elif kind == "-" and previous != "^":
            level += 1
        deepest = max(deepest, level)
        previous = kind
    return deepest


def depth(e: Expr) -> int:
    """The number of nodes on the longest path from e down to a leaf. It
    keeps a stack of its own, not Python's, so it measures a tree too deep
    for the recursive walks."""
    heights, stack = {}, [e]
    while stack:
        node = stack[-1]
        children = [c for c in (getattr(node, f) for f in node._fields) if isinstance(c, Expr)]
        pending = [c for c in children if id(c) not in heights]
        if pending:
            stack.extend(pending)
        else:
            heights[id(stack.pop())] = 1 + max((heights[id(c)] for c in children), default=0)
    return heights[id(e)]


def nesting(src: str) -> int:
    """How deep DSL text nests: its tree's depth, or where the parser's own
    recursion gives out, how deep the parser descends (0 for text that does
    not parse)."""
    try:
        return depth(parse(src))
    except NestingError as exc:
        return exc.depth
    except ParseError:
        return 0


# ---------------------------------------------------------------------------
# Printing and the symbolic operations


def _wrap(e: Expr, minimum: int) -> str:
    s = e._str()
    return f"({s})" if e.prec < minimum else s


def to_str(e: Expr) -> str:
    """Render an expression in the DSL syntax.

    parse(to_str(e)) has e's value, bit for bit, at every point. The reparsed
    tree need not equal e: Const(-1.0), for instance, reads back as
    Neg(Const(1.0)).
    """
    return e._str()


def free_vars(e: Expr) -> frozenset:
    """The set of coordinate names occurring in the tree. Memoised on e."""
    names = e._free
    if names is None:
        names = e._free = e._vars()
    return names


def substitute(e: Expr, bindings: dict) -> Expr:
    """Replace coordinates by expressions (simultaneous substitution)."""
    if type(e) is Coord:
        return bindings.get(e.name, e)
    return type(e)(*e._args(lambda child: substitute(child, bindings)))


def diff(e: Expr, coord: str) -> Expr:
    """Exact partial derivative with respect to a coordinate name, simplified.

    Memoised: e keeps its derivative per coordinate, so a repeated call, on
    e or on any equal tree, returns the identical object. The memo is an
    attribute of e and lives and dies with it. A derivative may refer back to
    its node (exp(u)' = exp(u)*u'), a reference cycle that the cycle
    collector frees. The derivative is built simplified at the root (see
    make) from the memoised derivatives and simplified forms of e's
    children, and equals simplify() of the whole unsimplified derivative
    tree, so it is kept as it is built, with no second walk."""
    memo = e._diffs
    if memo is None:
        memo = e._diffs = {}
    d = memo.get(coord)
    if d is None:
        d = memo[coord] = e._d(coord)
    return d


def simplify(e: Expr) -> Expr:
    """Best-effort normalization: constant folding, 0/1 identities, Neg pulling.
    Idempotent; not a canonical form.

    Where e has a value, simplify(e) has the same value up to rounding (the
    property tests hold it to 1e-12 on random trees). Simplification may
    enlarge the domain of definition: 0*(1/x) and 1/x - 1/x simplify to 0,
    which has a value at x = 0, where the original faults (division by
    zero).

    Memoised: e keeps its simplified form, and a simplified node is flagged
    as such, so simplifying either again, or any equal tree, returns at once.
    The memo is an attribute of e and lives and dies with it. Children are
    simplified first and e is rebuilt from them by make, so a live node is
    simplified at most once."""
    done = e._simple
    if done is None:
        out = make(type(e), *e._args(simplify))
        if out is not e:  # else make flagged e
            e._simple = out
        return out
    return e if done is True else done


def make(cls, *args) -> Expr:
    """simplify(cls(*args)) for simplified children: the rewrite of cls's
    row at the children (see _rewrite) where one applies, else the node
    cls(*args), flagged as simplified. A rewrite is built through make too,
    so the node that a rule rewrites is never interned and the result needs
    no second walk. Each call adds no frame per tree level: the children
    are built already."""
    out = _rewrite(cls, *args)
    if out is None:
        out = cls(*args)
        out._simple = True
    return out


def _rewrite(cls, *args):
    """The one rewrite of cls(*args) at simplified children, or None: a node
    of constants folds to the constant that the tape computes for it, else
    the row's _local rule applies. Where the fold fails (1/0 and 0^-1 raise
    ZeroDivisionError; Const refuses the inf of exp(1000) or 1e200*1e200),
    the node stays unfolded, so each point reports its fault."""
    try:
        out = cls._fold(*args)
    except (ArithmeticError, ValueError):
        out = None
    return cls._local(*args) if out is None else out


# ---------------------------------------------------------------------------
# Compilation: one tape of numpy calls per list of expressions


class _Tape:
    """compile_batch's program: one register per distinct node, in the order
    a walk from the leaves reaches them. Register 0 holds the chunk of points,
    register 1 None, a constant's its float, and an op (r, fn, a, b, o) sets
    register r to fn(regs[a], regs[o]), or fn(regs[a], regs[b], regs[o]) if
    b is not None. Arithmetic on floats gives a float, so a node without
    coordinates may hold one.

    An op's fn is a ufunc, whose value is an array where an operand's is, or
    a function that makes its own value and ignores o (see own). Once
    floats() has given out the buffers, each ufunc op with an array value
    writes it into register o, one of the run's buffers, passed as numpy's
    positional out; until then, and for every other op, o is register 1,
    None, and an op's value is a new array, which the run keeps to its end.
    A linear scan over the ops gives out the buffers (M. Poletto and V.
    Sarkar, "Linear scan register allocation", TOPLAS 21, 1999): a
    register's buffer is free once the last op that reads it has run, so that
    op may write its value over it, and an output keeps its buffer to the end
    of the run.

    fault_fns[i] is op i's fault: a function of its operands' values that
    gives the code of the op's own fault at the points where its value is
    not finite, or None for overflow. A code is an index into faults, the
    messages: 0 is none, 1 overflow.

    outputs[j] is the register of output j; a constant output's register
    holds its float, which a run writes over the whole row."""

    def __init__(self, exprs, coords):
        self.column = {name: (lambda x, out, j=j: x[:, j]) for j, name in enumerate(coords)}
        self.init, self.ops, self.fault_fns = [None, None], [], []
        self.owns = {}  # by register of an op that makes its own value, whether it is an array
        self.faults = [None, "overflow"]
        self.slots = {}  # by id(node): Const(0.0) == Const(-0.0), but each has a register
        self.outputs = [self.slot(e) for e in exprs]
        self.buffers = None

    def slot(self, e: Expr) -> int:
        r = self.slots.get(id(e))
        if r is None:
            r = self.slots[id(e)] = e._emit(self)
        return r

    def const(self, value: float) -> int:
        self.init.append(value)
        return len(self.init) - 1

    def code(self, message: str) -> int:
        if message not in self.faults:
            self.faults.append(message)
        return self.faults.index(message)

    def op(self, ufunc, a: int, b: int | None = None, fault=None) -> int:
        self.ops.append([len(self.init), ufunc, a, b, 1])
        self.fault_fns.append(fault)
        self.init.append(None)
        return len(self.init) - 1

    def own(self, fn, a: int, b: int | None = None, fault=None, array: bool = True) -> int:
        """The register of an op whose fn, a function of the operands and an
        unused out, makes its own value, an array if `array`."""
        r = self.op(fn, a, b, fault)
        self.owns[r] = array
        return r

    def array(self, e: Expr) -> int:
        """e's register as an array: e without coordinates is spread over the
        chunk, so that a function of it keeps the bits of numpy's array loop."""
        a = self.slot(e)
        return a if free_vars(e) else self.own(lambda c, x, out: np.full(len(x), c), a, 0)

    def floats(self) -> int:
        """What a run holds per point: its buffers, each op's own array (a
        coordinate's column, a view, counts one), and its outputs. The first
        call gives out the buffers."""
        if self.buffers is None:
            self.buffers = self._allocate()
        return len(self.buffers) + sum(self.owns.values()) + len(self.outputs)

    def _last_reads(self) -> dict:
        """By register, the register of the op that reads it last (an op's
        register tells its place in the run), or one past every op for an
        output."""
        last = {}
        for r, _, a, b, _ in self.ops:
            last[a] = last[b] = r
        last.update(dict.fromkeys(self.outputs, len(self.init)))
        return last

    def _allocate(self) -> range:
        """Give each ufunc op with an array value its buffer, in the order of
        the run, and return the buffers' registers, which follow the ops'. A
        buffer is free again from the op that reads its value last, so that
        op may write over its operand: each element of a ufunc's value is
        computed from the same element of each operand, so numpy needs no
        copy."""
        last, end = self._last_reads(), len(self.init)
        arrays = {r for r, array in self.owns.items() if array}
        busy, free = [], []  # busy: a heap of last read * end + buffer, each buffer k < end
        for op in self.ops:
            r, _, a, b, _ = op
            if r in self.owns or not (a in arrays or b in arrays):
                continue
            arrays.add(r)
            while busy and busy[0] < (r + 1) * end:
                free.append(heappop(busy) % end)
            k = free.pop() if free else len(busy) + len(free)
            heappush(busy, last[r] * end + k)
            op[4] = end + k
        self.init += [None] * (len(busy) + len(free))
        return range(end, len(self.init))

    def _registers(self, x: np.ndarray) -> list:
        regs = self.init.copy()
        regs[0] = x
        for i in self.buffers or ():
            regs[i] = np.empty(len(x))
        return regs

    def run(self, x: np.ndarray, out: np.ndarray):
        """out[j] = expression j at the points x; fresh buffers each call."""
        regs = self._registers(x)
        for r, fn, a, b, o in self.ops:
            regs[r] = fn(regs[a], regs[o]) if b is None else fn(regs[a], regs[b], regs[o])
        for j, r in enumerate(self.outputs):
            out[j] = regs[r]

    def trace(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """run for a chunk where it raises, under np.errstate(all="ignore"):
        the same values, and each output's fault code per point, returned as
        an array shaped as out. A register's code is its left operand's if
        not 0, else its right operand's, else its op's own fault where its
        value is not finite: the first fault met with operands computed left
        to right. A register and its codes, of the least integer type that
        holds them, are dropped after their last read."""
        regs, codes = self._registers(x), [0] * len(self.init)
        last, code_type = self._last_reads(), np.min_scalar_type(len(self.faults) - 1)
        for (r, fn, a, b, o), fault in zip(self.ops, self.fault_fns):
            args = (regs[a],) if b is None else (regs[a], regs[b])
            cause = 1 if fault is None else fault(*args)  # before the op writes over an operand
            regs[r] = fn(*args, regs[o])
            first = codes[a] if b is None else np.where(codes[a], codes[a], codes[b])
            own = np.where(np.isfinite(regs[r]), 0, cause)
            codes[r] = np.where(first, first, own).astype(code_type)
            for v in (a, b):
                if v is not None and last[v] == r:
                    regs[v] = codes[v] = None
        found = np.empty(out.shape, code_type)
        for j, r in enumerate(self.outputs):
            out[j], found[j] = regs[r], codes[r]
        return found


def compile_batch(exprs, coords):
    """Compile expressions into one function of an (n, len(coords)) array of
    finite points, columns in coordinate order.

    The function returns an (n, len(exprs)) array of values and a dict that
    maps each point where evaluation faulted to (index of the first faulting
    expression, its EvalError); that point's row is nan, and every other
    value is finite. The values are stored entry-major, as the transpose of
    a (len(exprs), n) array, so each expression's column is one contiguous
    vector, which the tape writes at once. The faults are division by zero,
    0 raised to a negative power, an unbound coordinate and overflow: a
    value beyond the float range, of + - * / as of exp and ^.

    The function runs a tape (see _Tape): one numpy call per distinct node.
    +, -, *, / and negation are numpy ufuncs, which round as the Python float
    operations of constant folding do; sin, cos and exp are numpy ufuncs,
    which folding applies to one float64 at a time; and an integer power is
    one chain of multiplications (see integer_power). So a folded constant
    has the bits of its unfolded node. Constants are finite (see Const) and
    so are the points, so every fault raises a floating-point error. A chunk
    whose run raises one runs once more as a trace (see _Tape.trace), which
    gives each point its first fault; the arithmetic is the same, so every
    point keeps its bits. A constant expression, ZERO (+0.0) or -0.0 too,
    is written as any value is: its register's float fills its row.

    The function's floats() is what a run holds per point (see
    _Tape.floats); its first call gives the tape the buffers it reuses, so a
    tape that never runs a chunk large enough to count pays nothing for them.
    A trace holds the same buffers, and drops every other value and its
    fault codes, a byte each, after their last read."""
    exprs = list(exprs)
    tape = _Tape(exprs, tuple(coords))

    def run(points: np.ndarray):
        values = np.empty((len(exprs), points.shape[0]))
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
                tape.run(points, values)
            return values.T, {}
        except ArithmeticError:
            with np.errstate(all="ignore"):
                codes = tape.trace(points, values)
        rows = np.flatnonzero(codes.any(axis=0))
        values[:, rows] = np.nan
        first = (codes[:, rows] != 0).argmax(axis=0).tolist()
        return values.T, {i: (j, EvalError(tape.faults[codes[j, i]])) for i, j in zip(rows.tolist(), first)}

    run.floats = tape.floats
    return run
