"""Building free maps out of immersions: the monomial map, composition and
the determinant-identity check."""

from __future__ import annotations

import numpy as np

from .expr import ONE, ZERO, Coord, EvalError, Expr, Mul, integer_power, simplify, substitute
from .fields import Chart, ChartMismatch, Frame, SmoothMap, VectorField
from .jets import CompiledJet, d2_exprs, pair_labels, s


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
        self.jet = CompiledJet(jets, frame.chart, compact=False)

    @property
    def floats(self) -> int:
        """What residuals() holds per point at its peak: the tape's while it
        runs, then the tape's values, whose views are the stacks, and at most
        six arrays of determinants. It ranks nothing, so it holds no Gram
        screen, and np.linalg.det copies one matrix at a time."""
        return max(self.jet.at_floats, sum(rows * cols for rows, cols in self.jet.shapes) + 6)

    def blocks(self, points: np.ndarray):
        """Stacks of the order-2 jets of f, of outer at f(p) and of outer(f),
        and a dict mapping each point where one of them, or f, faulted to its
        error, named by the block of its first faulting entry: an error of f
        is one of the outer block. A point that faults is nan in all three
        stacks. The tape holds every entry, ZERO too (see CompiledJet), since
        every matrix goes to np.linalg.det, so each stack is a view of its
        values."""
        (d2_inner, _, d2_outer, d2_composite), errors = self.jet.at(points)
        block = ("inner", "outer", "outer", "composite")
        failures = {i: type(exc)(f"{block[jet]} jet block: {exc}") for i, (jet, exc) in errors.items()}
        return d2_inner.dense(), d2_outer.dense(), d2_composite.dense(), failures

    def residuals(self, points: np.ndarray):
        """Arrays lhs = det(order-2 jet of outer(f)), rhs = det(order-1 jet
        of f)^(k+2) * det(order-2 jet of outer) and their relative residual,
        and the failures of blocks(), plus each point whose residual is not
        finite (a determinant or a product of them beyond the float range);
        those points' entries are meaningless."""
        d2_inner, d2_outer, d2_composite, failures = self.blocks(points)
        with np.errstate(all="ignore"):
            lhs = np.linalg.det(d2_composite)
            rhs = integer_power(np.linalg.det(d2_inner[:, : self.k]), self.k + 2) * np.linalg.det(d2_outer)
            rel = np.abs(lhs - rhs) / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        for i in np.flatnonzero(~np.isfinite(rel)).tolist():
            failures.setdefault(i, EvalError("overflow: determinants beyond the float range"))
        return lhs, rhs, rel, failures

