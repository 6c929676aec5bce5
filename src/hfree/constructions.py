"""Building free maps out of immersions: the monomial map, composition and
the determinant-identity check."""

from __future__ import annotations

import numpy as np

from .expr import ONE, ZERO, Coord, EvalError, Expr, Mul, compile_batch, integer_power, simplify, substitute
from .fields import Chart, ChartMismatch, Frame, SmoothMap, VectorField
from .jets import compiled_d2, pair_labels, s, valid_mask


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
    once and evaluated over (n, dim) arrays of points. Requires critical
    dimensions: f has k components and outer has k + s_k components over a
    k-coordinate chart."""

    def __init__(self, frame: Frame, f: SmoothMap, outer: SmoothMap):
        k = frame.k
        if f.q != k:
            raise ChartMismatch(f"inner map must have {k} components, got {f.q}")
        if outer.chart.dim != k or outer.q != k + s(k):
            raise ChartMismatch(
                f"outer map must be {k} -> {k + s(k)}, got {outer.chart.dim} -> {outer.q}"
            )
        self.k = k
        self.inner = compiled_d2(frame, f)
        self.image = compile_batch(f.components, frame.chart.coords)
        self.outer = compiled_d2(standard_frame(outer.chart), outer)
        self.composite = compiled_d2(frame, compose(outer, f))

    @property
    def floats(self) -> int:
        """What residuals() holds per point at its peak. It ranks nothing, so
        it holds no Gram screen, and np.linalg.det copies one matrix at a
        time."""
        ((rows, cols),), ((outer_rows, outer_cols),) = self.inner.shapes, self.outer.shapes
        inner, outer = rows * cols, outer_rows * outer_cols
        # while each tape runs, the stacks made before it; outer.at runs on the
        # image at the defined points, beside the np.full outer stack; then the
        # three stacks (the composite's is shaped as the outer's) and at most
        # six arrays of determinants
        return max(
            self.inner.at_floats,
            inner + self.image.floats(),
            inner + 2 * self.k + outer + self.outer.at_floats,
            inner + self.k + outer + self.composite.at_floats,
            inner + 2 * outer + 6,
        )

    def blocks(self, points: np.ndarray):
        """Stacks of the order-2 jets of f, of outer at f(p) and of outer(f),
        and a dict mapping each point where one of them faulted to its error,
        named by the first block that faulted."""
        (d2_inner,), errors = self.inner.at(points)
        failures = {i: type(exc)(f"inner jet block: {exc}") for i, exc in errors.items()}
        image, errors = self.image(points)
        for i, (_, exc) in errors.items():
            failures.setdefault(i, type(exc)(f"outer jet block: {exc}"))
        # the outer jet is taken along the standard frame at the image points,
        # which may fall outside the outer chart's sampling box
        d2_outer = np.full((len(points),) + self.outer.shapes[0], np.nan)
        defined = np.flatnonzero(valid_mask(len(points), failures))
        if defined.size:
            (d2_outer[defined],), errors = self.outer.at(image[defined])
            for j, exc in errors.items():
                failures.setdefault(int(defined[j]), type(exc)(f"outer jet block: {exc}"))
        (d2_composite,), errors = self.composite.at(points)
        for i, exc in errors.items():
            failures.setdefault(i, type(exc)(f"composite jet block: {exc}"))
        return d2_inner, d2_outer, d2_composite, failures

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

