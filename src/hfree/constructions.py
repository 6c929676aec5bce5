"""Building free maps out of immersions: the monomial map, composition and
the determinant-identity check."""

from __future__ import annotations

import numpy as np

from .expr import ONE, ZERO, Coord, EvalError, Expr, Mul, integer_power, simplify, substitute
from .fields import Chart, ChartMismatch, Frame, SmoothMap, VectorField
from .jets import CompiledJet, JetStack, Pattern, d2_exprs, pair_labels, s


def standard_frame(chart: Chart) -> Frame:
    """The coordinate frame {d/dx^1, ..., d/dx^m}."""
    m = chart.dim
    vectors = []
    for i in range(m):
        comps = [ONE if j == i else ZERO for j in range(m)]
        vectors.append(VectorField(chart, tuple(comps)))
    return Frame(chart, tuple(vectors))


def monomial_chart(m: int, half_width: float = 2.0) -> Chart:
    names = tuple(f"x{i + 1}" for i in range(m))
    box = tuple((-half_width, half_width) for _ in range(m))
    return Chart(coords=names, box=box)


def monomial_free_map(m: int) -> SmoothMap:
    """All monic monomials of degree 1 and 2 in m coordinates, degree-1 first,
    degree-2 pairs (a, b) with a <= b in lexicographic order."""
    if m < 1:
        raise ValueError("m must be positive")
    chart = monomial_chart(m)
    comps: list[Expr] = [Coord(n) for n in chart.coords]
    for a, b in pair_labels(m):
        comps.append(simplify(Mul(Coord(chart.coords[a]), Coord(chart.coords[b]))))
    return SmoothMap(chart, tuple(comps))


def compose(outer: SmoothMap, inner: SmoothMap) -> SmoothMap:
    """Symbolic composition outer(inner): substitute inner's components for
    outer's coordinates. The result lives on inner's chart."""
    if inner.q != outer.chart.dim:
        raise ChartMismatch(
            f"inner map has {inner.q} components, outer chart has {outer.chart.dim} coordinates"
        )
    bindings = dict(zip(outer.chart.coords, inner.components))
    comps = tuple(simplify(substitute(c, bindings)) for c in outer.components)
    return SmoothMap(inner.chart, comps)


def _normal(x: np.ndarray) -> np.ndarray:
    """Where x is a normal float: finite, and not 0 or subnormal."""
    magnitude = np.abs(x)
    return (magnitude >= np.finfo(float).tiny) & (magnitude <= np.finfo(float).max)


class Peel:
    """The determinants of the leading (cols, cols) block of a stack of
    (rows, cols) matrices by Laplace expansion along its Pattern, planned
    once from it. The plan repeatedly removes a row or column of the
    remaining submatrix that has exactly one entry that may be nonzero, rows
    first, each in index order: det = +- entry * det(minor). A row or column
    with no such entry makes every determinant 0. What is left, rows and
    columns ascending, is the core, which goes to LAPACK. So det = sign *
    (the product of the peeled entries, in peel order) * det(core), the sign
    the product of the cofactors' signs; nothing peeled leaves the whole
    block to LAPACK. The plan keeps the vectors (see Pattern.index) of the
    peeled entries and of the core; a core entry not held is +0.0.

    The product is exact to a rounding per factor while every partial
    product stays in the normal float range. A matrix where that is not
    sure, whose core's determinant is not a normal float, or whose
    determinant is neither 0 nor a normal float, gets np.linalg.det of its
    whole block instead. So a determinant beyond the float range is
    np.linalg.det's inf, and one within it never overflows or underflows on
    the way."""

    def __init__(self, pattern: Pattern):
        size = pattern.shape[1]
        # the entries that may be nonzero, per row among the remaining columns
        # and per column among the remaining rows
        in_row = [{j for j, x in enumerate(row) if x} for row in pattern.nonzero[:size].tolist()]
        in_col = [{i for i, x in enumerate(col) if x} for col in pattern.nonzero[:size].T.tolist()]
        rows, cols = list(range(size)), list(range(size))
        peeled = []  # (row, column), in peel order
        self.singular = self.negate = False
        while rows:
            if not all(in_row[r] for r in rows) or not all(in_col[c] for c in cols):
                self.singular = True
                break
            one = [(r, *in_row[r]) for r in rows if len(in_row[r]) == 1]
            one = one or [(*in_col[c], c) for c in cols if len(in_col[c]) == 1]
            if not one:
                break
            r, c = one[0]
            i, j = rows.index(r), cols.index(c)
            self.negate ^= (i + j) % 2 == 1  # the cofactor's sign in the remaining submatrix
            del rows[i], cols[j]
            for other in in_row[r]:
                in_col[other].discard(r)
            for other in in_col[c]:
                in_row[other].discard(c)
            peeled.append((r, c))
        self.size, self.core_size = size, len(rows)
        index = pattern.index.tolist()
        self.entries = np.array([index[r][c] for r, c in peeled], dtype=np.intp)
        self.core = np.array([index[r][c] for r in rows for c in cols], dtype=np.intp)
        self.fill = np.flatnonzero(self.core < 0)  # not held: det reads vector -1, then +0.0
        # a factor of magnitude in [2^-(limit + 1), 2^limit) keeps every
        # partial product of len(entries) of them in the normal range
        self.limit = 1022 // max(len(peeled), 1) - 1

    @property
    def floats(self) -> int:
        """The most det copies per matrix beyond the stack: its factors and
        their exponents, its core, or, where the peel is not sure, the whole
        block, each at most size^2 floats."""
        return self.size**2

    def det(self, stack: JetStack) -> np.ndarray:
        """The (n,) determinants of the leading (size, size) block of a
        stack's n matrices, read from its entry-major vectors."""
        values, n = stack.values, len(stack)
        if self.singular:
            return np.zeros(n)
        with np.errstate(all="ignore"):
            if len(self.core):
                core = values[self.core]
                core[self.fill] = 0.0
                core = np.linalg.det(core.T.reshape(n, self.core_size, self.core_size))
                if not len(self.entries):
                    return core
            factors = values[self.entries]
            det = np.multiply.reduce(factors, axis=0)
            if self.negate:
                np.negative(det, out=det)
            if len(self.core):
                det *= core
            # a 0 is exact where a factor is 0; one from underflow is caught
            # by the factors' exponents or by the core's determinant, which
            # outside the normal range, 0 too, says nothing of the whole's
            unsure = ~_normal(det) & (det != 0)
            if len(self.core):
                unsure |= ~_normal(core)
            if len(self.entries) > 1:
                _, exponent = np.frexp(factors, out=(factors, None))
                unsure |= np.abs(exponent, out=exponent).max(axis=0) > self.limit
            if unsure.any():
                i = np.flatnonzero(unsure)
                det[i] = np.linalg.det(stack.take(i).dense()[:, : self.size])
        return det


class DetIdentity:
    """The chain-rule factorization of the order-2 jet of outer(f), compiled
    once into one tape and evaluated over (n, dim) arrays of points. Requires
    critical dimensions: f has k components and outer has k + s_k components
    over a k-coordinate chart.

    The tape's jets come in the order in which a fault names its block: the
    order-2 jet of f, f's components as a 1 x k jet, the order-2 jet of outer
    along the standard frame with f put in for outer's coordinates, and the
    order-2 jet of outer(f). The outer jet's entries are substituted, not
    simplified, so the tape does the arithmetic of the outer jet at the image
    values. The image may fall outside the outer chart's sampling box."""

    def __init__(self, frame: Frame, f: SmoothMap, outer: SmoothMap):
        k = frame.k
        if f.q != k:
            raise ChartMismatch(f"inner map must have {k} components, got {f.q}")
        if outer.chart.dim != k or outer.q != k + s(k):
            raise ChartMismatch(
                f"outer map must be {k} -> {k + s(k)}, got {outer.chart.dim} -> {outer.q}"
            )
        self.k = k
        bindings = dict(zip(outer.chart.coords, f.components))
        outer_jet = d2_exprs(standard_frame(outer.chart), outer)
        at_image = [[substitute(e, bindings) for e in row] for row in outer_jet]
        jets = [d2_exprs(frame, f), [list(f.components)], at_image, d2_exprs(frame, compose(outer, f))]
        self.jet = CompiledJet(jets, frame.chart)
        inner, _, outer_pattern, composite = self.jet.patterns
        self.peels = (Peel(inner), Peel(outer_pattern), Peel(composite))

    @property
    def floats(self) -> int:
        """What residuals() holds per point at its peak: the tape's while it
        runs, then the tape's values, the entries that its jets hold, whose
        views are the stacks, the most that one determinant copies (see
        Peel.floats; it takes one at a time) and at most six arrays of
        determinants. It ranks nothing, so it holds no Gram screen, and
        np.linalg.det copies one matrix at a time beyond its input."""
        values = sum(np.count_nonzero(pattern.held) for pattern in self.jet.patterns)
        return max(self.jet.at_floats, values + max(peel.floats for peel in self.peels) + 6)

    def _stacks(self, points: np.ndarray):
        (d2_inner, _, d2_outer, d2_composite), errors = self.jet.at(points)
        block = ("inner", "outer", "outer", "composite")
        failures = {i: type(exc)(f"{block[jet]} jet block: {exc}") for i, (jet, exc) in errors.items()}
        return d2_inner, d2_outer, d2_composite, failures

    def blocks(self, points: np.ndarray):
        """Stacks of the order-2 jets of f, of outer at f(p) and of outer(f),
        and a dict mapping each point where one of them, or f, faulted to its
        error, named by the block of its first faulting entry: an error of f
        is one of the outer block. A point that faults is nan in all three
        stacks, the entries that their patterns do not hold too, which the
        dense stacks (see JetStack.dense) hold as +0.0 elsewhere."""
        *stacks, failures = self._stacks(points)
        blocks = [stack.dense() for stack in stacks]
        for block in blocks:
            block[list(failures)] = np.nan
        return *blocks, failures

    def residuals(self, points: np.ndarray):
        """Arrays lhs = det(order-2 jet of outer(f)), rhs = det(order-1 jet
        of f)^(k+2) * det(order-2 jet of outer) and their relative residual,
        and the failures of blocks(), plus each point whose residual is not
        finite (a determinant or a product of them beyond the float range);
        those points' entries are meaningless. Each determinant is its Peel's,
        planned once from the jet's zero pattern: the product of the entries
        that Laplace expansion peels off, times np.linalg.det of what is left,
        if anything (see Peel)."""
        *stacks, failures = self._stacks(points)
        d1, outer, lhs = (peel.det(stack) for peel, stack in zip(self.peels, stacks))
        with np.errstate(all="ignore"):
            rhs = integer_power(d1, self.k + 2) * outer
            rel = np.abs(lhs - rhs) / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        for i in np.flatnonzero(~np.isfinite(rel)).tolist():
            failures.setdefault(i, EvalError("overflow: determinants beyond the float range"))
        return lhs, rhs, rel, failures
