"""Building free maps out of immersions: the monomial map, composition,
the symmetric-square representation and the determinant-identity check."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .expr import Coord, Expr, Mul, evaluate, simplify, substitute
from .fields import Chart, ChartMismatch, Frame, SmoothMap, VectorField
from .expr import ONE, ZERO
from .jets import compiled_d2, pair_labels, s


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


@lru_cache(maxsize=256)
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


def sym_square(a: np.ndarray) -> np.ndarray:
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


@dataclass(frozen=True)
class BlockDecomposition:
    d1: np.ndarray
    c: np.ndarray
    d: np.ndarray
    d2_outer: np.ndarray
    d2_composite: np.ndarray

    def block_matrix(self) -> np.ndarray:
        k = self.d1.shape[0]
        sk = self.d.shape[0]
        top = np.hstack([self.d1, np.zeros((k, sk))])
        bottom = np.hstack([self.c, self.d])
        return np.vstack([top, bottom])

    def block_residual(self) -> float:
        """Relative entrywise residual of d2_composite vs block * d2_outer."""
        prod = self.block_matrix() @ self.d2_outer
        scale = max(1.0, float(np.abs(self.d2_composite).max()), float(np.abs(prod).max()))
        return float(np.abs(self.d2_composite - prod).max()) / scale


@dataclass(frozen=True)
class IdentityResidual:
    lhs: float
    rhs: float
    rel_residual: float


def block_decomposition(
    frame: Frame, f: SmoothMap, outer: SmoothMap, point
) -> BlockDecomposition:
    """Evaluate, at one point, every matrix in the chain-rule factorization of
    the order-2 jet of outer(f). Requires critical dimensions: f has k
    components and outer has k + s_k components over a k-coordinate chart."""
    k = frame.k
    if f.q != k:
        raise ChartMismatch(f"inner map must have {k} components, got {f.q}")
    if outer.chart.dim != k or outer.q != k + s(k):
        raise ChartMismatch(
            f"outer map must be {k} -> {k + s(k)}, got {outer.chart.dim} -> {outer.q}"
        )
    try:
        d2_inner = compiled_d2(frame, f).at(point).entries
    except Exception as exc:
        raise type(exc)(f"inner jet block: {exc}") from exc
    d1 = d2_inner[:k, :]
    c = d2_inner[k:, :]
    # outer jet is taken along the standard frame at the image point, which
    # may fall outside the outer chart's sampling box
    image = tuple(float(evaluate(comp, frame.chart.bind(point))) for comp in f.components)
    try:
        d2_outer = compiled_d2(standard_frame(outer.chart), outer).at(image).entries
    except Exception as exc:
        raise type(exc)(f"outer jet block: {exc}") from exc
    try:
        d2_composite = compiled_d2(frame, compose(outer, f)).at(point).entries
    except Exception as exc:
        raise type(exc)(f"composite jet block: {exc}") from exc
    return BlockDecomposition(
        d1=d1, c=c, d=sym_square(d1), d2_outer=d2_outer, d2_composite=d2_composite
    )


def verify_det_identity(
    frame: Frame, f: SmoothMap, outer: SmoothMap, point, tol: float = 1e-9
) -> IdentityResidual:
    """Check det(order-2 jet of outer(f)) against det(order-1 jet of f)^(k+2)
    times det(order-2 jet of outer)."""
    dec = block_decomposition(frame, f, outer, point)
    k = frame.k
    lhs = float(np.linalg.det(dec.d2_composite))
    rhs = float(np.linalg.det(dec.d1)) ** (k + 2) * float(np.linalg.det(dec.d2_outer))
    rel = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
    return IdentityResidual(lhs=lhs, rhs=rhs, rel_residual=rel)
