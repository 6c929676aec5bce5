"""Shared test utilities: the tree-walking evaluator that is the tests'
oracle for the compiled engine, a bounded random expression generator, the
central-difference oracle used to validate symbolic derivatives, a memo-free
reference simplifier and derivative, the jet helpers that only tests use
(the anticommutator, the flat norm, the symmetric square, the block law of
the chain-rule factorization, the ranking of a dense stack and a tape of
every entry of a jet), the contact form's pairings, the gallery fixtures'
built parts and the closed forms they reproduce, and a strict RFC 8259
JSON reader."""

import json
import math
import random
from bisect import bisect_right
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

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
    Pow,
    Sin,
    Sub,
    ZERO,
    _rewrite,
)
from hfree import gallery, jets
from hfree.constructions import compose
from hfree.expr import compile_batch, parse
from hfree.fields import ChartMismatch, lie_derivative, simplified_sum, symmetrize
from hfree.jets import DEFAULT_TOL, JetStack, Pattern, pair_labels, valid_mask
from hfree.manifest import _build_bracket, build_plan


def evaluate(e, point: dict) -> float:
    """e at a coordinate binding, by a walk over the tree on Python floats,
    operands left to right. It raises EvalError at the first fault it meets:
    an unbound coordinate, division by zero, 0 raised to a negative power,
    or overflow, a value of any node beyond the float range.

    It is independent of the node rows it checks: each class has its own
    float rule here. + - * / and negation are Python's IEEE operations;
    sin, cos and exp are numpy's at one float64, as the tape's array loops
    are; an integer power is square and multiply over 1/base for a negative
    exponent, the chain of multiplications that the tape runs."""
    t = type(e)
    if t is Const:
        return e.value
    if t is Coord:
        if e.name not in point:
            raise EvalError(f"unbound coordinate '{e.name}'")
        return float(point[e.name])
    if t is Pow:
        value = _power(evaluate(e.base, point), e.exponent)
    elif t in _BINARY:
        left, right = evaluate(e.left, point), evaluate(e.right, point)
        if t is Div and right == 0.0:
            raise EvalError("division by zero")
        value = _BINARY[t](left, right)
    else:
        value = _UNARY[t](evaluate(e.arg, point))
    if not math.isfinite(value):
        raise EvalError("overflow")
    return value


def _power(base: float, n: int) -> float:
    if n < 0:
        if base == 0.0:
            raise EvalError("0 raised to a negative power")
        base, n = 1.0 / base, -n
    out = 1.0 if n == 0 else None
    while n:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if n:
            base = base * base
    return out


def _at_float64(ufunc):
    def rule(x: float) -> float:
        with np.errstate(all="ignore"):
            return float(ufunc(np.float64(x)))

    return rule


_BINARY = {Add: lambda a, b: a + b, Sub: lambda a, b: a - b, Mul: lambda a, b: a * b, Div: lambda a, b: a / b}
_UNARY = {Neg: lambda a: -a, Sin: _at_float64(np.sin), Cos: _at_float64(np.cos), Exp: _at_float64(np.exp)}


COORDS = ("x", "y")


def random_expr(rng: random.Random, depth: int = 3):
    """A random expression whose values and low-order derivatives stay small
    on [-1, 1]^2, so central differences are a trustworthy oracle."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Coord(rng.choice(COORDS))
        return Const(round(rng.uniform(-2.0, 2.0), 3))
    op = rng.randrange(8)
    if op == 0:
        return Add(random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    if op == 1:
        return Sub(random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    if op == 2:
        return Mul(random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    if op == 3:
        # keep denominators bounded away from zero
        denom = Add(Const(2.0), Pow(Coord(rng.choice(COORDS)), 2))
        return Div(random_expr(rng, depth - 1), denom)
    if op == 4:
        return Pow(random_expr(rng, depth - 1), rng.randrange(2, 4))
    if op == 5:
        return Sin(random_expr(rng, depth - 1))
    if op == 6:
        return Cos(random_expr(rng, depth - 1))
    if op == 7 and depth <= 2:
        return Exp(random_expr(rng, depth - 1))
    return Neg(random_expr(rng, depth - 1))


def random_point(rng: random.Random) -> dict:
    return {c: rng.uniform(-1.0, 1.0) for c in COORDS}


def central_difference(e, coord: str, point: dict, h: float = 1e-5) -> float:
    lo = dict(point)
    hi = dict(point)
    lo[coord] -= h
    hi[coord] += h
    return (evaluate(e, hi) - evaluate(e, lo)) / (2.0 * h)


def bounded_pair(rng: random.Random, limit: float = 1e3):
    """Draw (expr, point) pairs until all stencil values stay below limit."""
    while True:
        e = random_expr(rng)
        p = random_point(rng)
        try:
            values = [abs(evaluate(e, p))]
            for c in COORDS:
                for delta in (-1e-5, 1e-5, -1e-2, 1e-2):
                    q = dict(p)
                    q[c] += delta
                    values.append(abs(evaluate(e, q)))
        except EvalError:
            continue
        if max(values) < limit and all(math.isfinite(v) for v in values):
            return e, p


def reference_simplify(e):
    """simplify() without its memo: simplify the children, apply one rewrite
    at the root (the row's rule on the children) and, if one applied,
    simplify its result, else rebuild the node. It neither reads nor writes
    the memo on the nodes, so it checks what the memo returns."""
    if isinstance(e, (Const, Coord)):
        return e
    if isinstance(e, Pow):
        args = (reference_simplify(e.base), e.exponent)
    elif isinstance(e, (Add, Sub, Mul, Div)):
        args = (reference_simplify(e.left), reference_simplify(e.right))
    else:  # Neg, Sin, Cos, Exp
        args = (reference_simplify(e.arg),)
    reduced = _rewrite(type(e), *args)
    return type(e)(*args) if reduced is None else reference_simplify(reduced)


def reference_diff(e, x: str):
    """The whole unsimplified derivative tree of e, built without any memo;
    diff(e, x) equals reference_simplify() of it."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Coord):
        return Const(1.0) if e.name == x else ZERO
    if isinstance(e, Neg):
        return Neg(reference_diff(e.arg, x))
    if isinstance(e, (Add, Sub)):
        return type(e)(reference_diff(e.left, x), reference_diff(e.right, x))
    if isinstance(e, Mul):
        return Add(Mul(reference_diff(e.left, x), e.right), Mul(e.left, reference_diff(e.right, x)))
    if isinstance(e, Div):
        num = Sub(Mul(reference_diff(e.left, x), e.right), Mul(e.left, reference_diff(e.right, x)))
        return Div(num, Pow(e.right, 2))
    if isinstance(e, Pow):
        if e.exponent == 0:
            return ZERO
        power = Mul(Const(float(e.exponent)), Pow(e.base, e.exponent - 1))
        return Mul(power, reference_diff(e.base, x))
    if isinstance(e, Sin):
        return Mul(Cos(e.arg), reference_diff(e.arg, x))
    if isinstance(e, Cos):
        return Neg(Mul(Sin(e.arg), reference_diff(e.arg, x)))
    return Mul(Exp(e.arg), reference_diff(e.arg, x))  # Exp


def anticommutator(xa, xb, f):
    """The symmetrized second-order operator (L_a L_b + L_b L_a) applied to f."""
    if xa.chart != xb.chart:
        raise ChartMismatch("anticommutator fields must share a chart")
    return symmetrize(
        lie_derivative(xa, lie_derivative(xb, f)), lie_derivative(xb, lie_derivative(xa, f))
    )


def flat_norm_sq(xi):
    """Squared Euclidean norm of the field (flat metric)."""
    return simplified_sum(Pow(comp, 2) for comp in xi.components)


def sym_square(a) -> np.ndarray:
    """The induced matrix on unordered index pairs; a representation of GL_k
    with det(sym_square(A)) = (det A)^(k+1)."""
    a = np.asarray(a, dtype=float)
    k = a.shape[0]
    if a.shape != (k, k):
        raise ValueError("sym_square needs a square matrix")
    pairs = pair_labels(k)
    out = np.empty((len(pairs), len(pairs)))
    for i, (p, q) in enumerate(pairs):
        for j, (c, d) in enumerate(pairs):
            if c == d:
                out[i, j] = a[p, c] * a[q, c]
            else:
                out[i, j] = a[p, c] * a[q, d] + a[p, d] * a[q, c]
    return out


def bind(chart, point) -> dict:
    """A point of the chart as the coordinate binding that evaluate takes."""
    return dict(zip(chart.coords, map(float, point)))


def block_residual(d2_inner, d2_outer, d2_composite) -> float:
    """At one point, with the jets of DetIdentity.blocks: the relative
    entrywise residual of the order-2 jet of outer(f) against B times the
    order-2 jet of outer, where B = [[D1, 0], [C, sym_square(D1)]] and the
    order-2 jet of f is [[D1], [C]]."""
    k = d2_inner.shape[1]
    d1, c = d2_inner[:k], d2_inner[k:]
    block = np.block([[d1, np.zeros((k, len(c)))], [c, sym_square(d1)]])
    prod = block @ d2_outer
    scale = max(1.0, float(np.abs(d2_composite).max()), float(np.abs(prod).max()))
    return float(np.abs(d2_composite - prod).max()) / scale


def stack_ranks(entries, tol=DEFAULT_TOL, errors=None, *, pattern=None, least=None):
    """jets._stack_ranks over a dense (n, rows, cols) stack, ranked as a
    JetStack that holds every entry, the vectors a view of `entries`. Every
    matrix outside `errors` must be finite, as a compiled jet's are, else
    ValueError. `pattern` says which entries may be nonzero; without one,
    the pattern is read from the matrices of the points that did not
    fault. Without a least, a stack is ranked again at least = np.inf by
    CompiledJet.ranks' rule (jets._rerank)."""
    n, rows, cols = entries.shape
    valid = valid_mask(n, errors or {})
    if not np.isfinite(entries[valid]).all():
        raise ValueError("jet entries must be finite outside the faulted points")
    if pattern is None:
        pattern = Pattern(np.any(entries != 0, axis=0, where=valid[:, None, None]))
    if not pattern.full:
        raise ValueError("a dense stack's pattern must hold every entry")
    stack = JetStack(entries.reshape(n, rows * cols).T, pattern)
    ranks = jets._stack_ranks(stack, tol, errors, least)
    if least is None and jets._rerank([ranks], errors or {}):
        ranks = jets._stack_ranks(stack, tol, errors, np.inf)
    return ranks


def dense_tape(jets, chart, points):
    """Each jet's (n, rows, cols) stack and the faults, from one tape that
    computes every entry, ZERO among them, and holds the stacks as
    entry-major views of its values: the dense layout that a JetStack,
    which holds only the entries that are not ZERO, must reproduce bit for
    bit. The faults map each faulting point to (the index of the jet of its
    first faulting entry, that entry's EvalError), as CompiledJet.at does."""
    entries = [e for rows in jets for row in rows for e in row]
    values, errors = compile_batch(entries, chart.coords)(points)
    stacks, ends = [], [0]
    for rows in jets:
        shape = (len(rows), len(rows[0]))
        stacks.append(values[:, ends[-1] : ends[-1] + shape[0] * shape[1]].reshape((len(points),) + shape))
        ends.append(ends[-1] + shape[0] * shape[1])
    return stacks, {i: (bisect_right(ends, j) - 1, exc) for i, (j, exc) in errors.items()}


def contact_form_values(frame) -> list:
    """Pairings of the annihilating one-form dt + p_i dx^i with each frame
    field; all must simplify to zero.

    Note the plus sign: it is the kernel form matched to the trivialization
    xi_i = d/dx^i - p_i d/dt used here.
    """
    ps = [Coord(f"p{i + 1}") for i in range((frame.chart.dim - 1) // 2)]
    return [
        simplified_sum([v.components[-1]] + [Mul(p, c) for p, c in zip(ps, v.components)])
        for v in frame.vectors
    ]


def _torus_expected(n):
    return [(a, i, f"exp(2*p{a + 1})" if a == i else "0") for a in range(n) for i in range(n)]


def _contact_expected(n):
    return [(a, i, "1" if a == i else "0") for a in range(2 * n) for i in range(2 * n)]


# The closed forms of PAPER.md that the gallery's maps reproduce: per
# fixture, (row, column, expression) for entries of D1 of its map along its
# frame, and first integrals, functions whose derivative along frame field 0
# is identically zero.
EXPECTED = {
    "planar-hamiltonian": [(0, 0, "(1 + y^2)*exp(x)")],
    "planar-finite-type": [(0, 0, "(2*y^2 - y + 1)*exp(x)")],
    "planar-intrinsically-exact": [(0, 0, "(y^2*(1 - y^2)^2 + (1 - 3*y^2)^2)*exp(x)")],
    **{f"integrable-torus-{n}": _torus_expected(n) for n in (1, 2, 3)},
    "riemann-poisson-e3": [(0, 0, "(1+y^2)*(1+x^2)*exp(2*x)")],
    **{f"contact-{n}": _contact_expected(n) for n in (1, 2)},
}
WITNESSES = {
    "planar-hamiltonian": ["(1 - y^2)*exp(x)"],
    "planar-finite-type": ["(1 - y)*(1 + y)^2*exp(x)"],
}
# test functions of the bracket laws where the manifest has none
BRACKET_TESTS = {"riemann-poisson-e3": ["x*y", "y*z - x", "x^2 + z"]}


@lru_cache(maxsize=None)
def fixture_parts(name: str) -> SimpleNamespace:
    """A gallery fixture's parts, built from its manifest: chart and frame,
    the map (immersion) and free_map = outer(immersion), its closed forms
    (expected, witnesses), and its Poisson bracket with test functions
    (bracket, bracket_tests) where its structure has one. The frame and
    maps are None for novikov-t3, which checks the bracket laws only."""
    m = gallery.fixture(name)
    plan = build_plan(m)
    parts = SimpleNamespace(
        chart=m.chart,
        frame=plan.frame,
        immersion=None if plan.frame is None else plan.smap,
        free_map=None if plan.frame is None else compose(plan.outer, plan.smap),
        expected=[(row, col, parse(src)) for row, col, src in EXPECTED.get(name, [])],
        witnesses=[parse(src) for src in WITNESSES.get(name, [])],
        bracket=None,
        bracket_tests=(),
    )
    if (m.structure or {}).get("type") in ("canonical", "riemann-poisson"):
        parts.bracket = plan.bracket or _build_bracket(m)
        if plan.frame is None:
            parts.bracket_tests = plan.smap.components
        elif name in BRACKET_TESTS:
            parts.bracket_tests = tuple(parse(src) for src in BRACKET_TESTS[name])
        else:  # the tori: the first integrals and the map's components
            parts.bracket_tests = tuple(parse(h) for h in m.structure["hamiltonians"]) + plan.smap.components
    return parts


def _reject_constant(name):
    raise ValueError(f"not RFC 8259 JSON: {name}")


def strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity, which RFC 8259
    JSON does not have."""
    return json.loads(text, parse_constant=_reject_constant)
