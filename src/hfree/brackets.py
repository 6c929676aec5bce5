"""Poisson-type structures: the canonical symplectic bracket, flat
Riemann-Poisson brackets built from m-2 fixed functions, and the canonical
contact frame on R^(2n+1).

All brackets return expressions, so iterated brackets (Jacobi testing) are
plain symbolic composition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .expr import (
    Add,
    Const,
    Coord,
    Expr,
    Mul,
    Neg,
    ONE,
    Sub,
    ZERO,
    simplify,
)
from .expr import diff as ddx
from .fields import Chart, ChartMismatch, Frame, VectorField


@dataclass(frozen=True)
class SymplecticChart:
    """A 2n-dimensional chart with coordinates ordered (q^1..q^n, p_1..p_n),
    pairing q^i with p_i."""

    n: int
    chart: Chart

    def __post_init__(self):
        if self.chart.dim != 2 * self.n:
            raise ChartMismatch(f"symplectic chart must have dimension {2 * self.n}")

    @property
    def angles(self) -> tuple[str, ...]:
        return self.chart.coords[: self.n]

    @property
    def momenta(self) -> tuple[str, ...]:
        return self.chart.coords[self.n :]


@dataclass(frozen=True)
class RPStructure:
    """Flat Riemann-Poisson structure on an m-dimensional chart, determined by
    m-2 fixed functions stored as their gradients. Constant gradients allow
    multivalued linear functions (e.g. B_i theta^i on a torus)."""

    chart: Chart
    h_gradients: tuple[tuple[Expr, ...], ...]

    def __post_init__(self):
        m = self.chart.dim
        if m < 3:
            raise ChartMismatch("a Riemann-Poisson chart needs dimension >= 3")
        if len(self.h_gradients) != m - 2:
            raise ChartMismatch(f"need exactly {m - 2} fixed functions, got {len(self.h_gradients)}")
        grads = tuple(tuple(g) for g in self.h_gradients)
        object.__setattr__(self, "h_gradients", grads)
        for g in grads:
            if len(g) != m:
                raise ChartMismatch("each gradient needs one component per coordinate")
            for c in g:
                self.chart.check_expr(c)

    @classmethod
    def from_functions(cls, chart: Chart, h_list) -> "RPStructure":
        return cls(chart, tuple(gradient(chart, h) for h in h_list))


def gradient(chart: Chart, f: Expr) -> tuple[Expr, ...]:
    chart.check_expr(f)
    return tuple(ddx(f, name) for name in chart.coords)


def sym_det(rows: list) -> Expr:
    """Symbolic determinant by cofactor expansion along the first row."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    if n == 1:
        return simplify(rows[0][0])
    total: Expr = ZERO
    for j in range(n):
        minor = [[r[c] for c in range(n) if c != j] for r in rows[1:]]
        term = Mul(rows[0][j], sym_det(minor))
        total = Add(total, term) if j % 2 == 0 else Sub(total, term)
    return simplify(total)


def canonical_bracket(s: SymplecticChart, f: Expr, g: Expr) -> Expr:
    """{f, g} = sum_a (df/dp_a dg/dq^a - df/dq^a dg/dp_a).

    Oriented so that {h, g} equals the Lie derivative of g along the
    Hamiltonian field of h (see hamiltonian_field); the canonical relation
    reads {p_a, q^a} = 1. A pair (q, p) both of whose products have a zero
    factor adds nothing, so it is not built.
    """
    s.chart.check_expr(f)
    s.chart.check_expr(g)
    total: Expr = ZERO
    for q, p in zip(s.angles, s.momenta):
        fp, gq, fq, gp = ddx(f, p), ddx(g, q), ddx(f, q), ddx(g, p)
        if ZERO in (fp, gq) and ZERO in (fq, gp):
            continue
        total = Add(total, Sub(Mul(fp, gq), Mul(fq, gp)))
    return simplify(total)


def hamiltonian_field(s: SymplecticChart, h: Expr) -> VectorField:
    """X_h, whose components are the brackets {h, x} with the coordinates
    (dh/dp_a, then -dh/dq^a), so that L_{X_h} g = {h, g}."""
    return VectorField(s.chart, tuple(canonical_bracket(s, h, Coord(x)) for x in s.chart.coords))


def rp_bracket(r: RPStructure, f: Expr, g: Expr) -> Expr:
    """{f, g}_H as the determinant of the stacked gradient rows
    (grad h_1; ...; grad h_(m-2); grad f; grad g), flat metric and standard
    orientation."""
    rows = [list(gr) for gr in r.h_gradients]
    rows.append(list(gradient(r.chart, f)))
    rows.append(list(gradient(r.chart, g)))
    return sym_det(rows)


def rp_hamiltonian_field(r: RPStructure, h: Expr, sign: int = 1) -> VectorField:
    """The field xi with L_xi g = sign * {h, g}_H for every g: its components
    are sign * {h, x} over the coordinates x, as the bracket is linear in dg."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    comps = [rp_bracket(r, h, Coord(x)) for x in r.chart.coords]
    if sign == -1:
        comps = [simplify(Neg(c)) for c in comps]
    return VectorField(r.chart, tuple(comps))


def novikov_structure(b: tuple[float, float, float]) -> RPStructure:
    """Constant-field bracket on the 3-torus: the fixed function is the
    multivalued B_i theta^i, stored via its constant gradient B."""
    chart = Chart(
        coords=("theta1", "theta2", "theta3"),
        box=((0.0, 2 * math.pi),) * 3,
        periodic=(True, True, True),
    )
    grad = tuple(Const(float(v)) for v in b)
    return RPStructure(chart, (grad,))


def contact_chart(n: int, half_width: float = 2.0) -> Chart:
    names = tuple(f"x{i + 1}" for i in range(n)) + tuple(
        f"p{i + 1}" for i in range(n)
    ) + ("t",)
    box = tuple((-half_width, half_width) for _ in names)
    return Chart(coords=names, box=box)


def contact_frame(n: int) -> Frame:
    """The canonical contact trivialization on R^(2n+1):
    xi_i = d/dx^i - p_i d/dt and xi_(n+i) = d/dp_i."""
    if n < 1:
        raise ValueError("n must be positive")
    chart = contact_chart(n)
    m = chart.dim
    vectors = []
    for i in range(n):
        comps: list[Expr] = [ZERO] * m
        comps[i] = ONE
        comps[m - 1] = simplify(Neg(Coord(f"p{i + 1}")))
        vectors.append(VectorField(chart, tuple(comps)))
    for i in range(n):
        comps = [ZERO] * m
        comps[n + i] = ONE
        vectors.append(VectorField(chart, tuple(comps)))
    return Frame(chart, tuple(vectors))


def contact_form_values(frame: Frame) -> list[Expr]:
    """Pairings of the annihilating one-form dt + p_i dx^i with each frame
    field; all must simplify to zero.

    Note the plus sign: it is the kernel form matched to the trivialization
    xi_i = d/dx^i - p_i d/dt used here.
    """
    chart = frame.chart
    n = (chart.dim - 1) // 2
    out = []
    for v in frame.vectors:
        total: Expr = v.components[-1]
        for i in range(n):
            total = Add(total, Mul(Coord(f"p{i + 1}"), v.components[i]))
        out.append(simplify(total))
    return out


def jacobiator(bracket, f: Expr, g: Expr, h: Expr) -> Expr:
    """{f,{g,h}} + {g,{h,f}} + {h,{f,g}}, brackets composed symbolically and
    simplified. `bracket` is any callable (Expr, Expr) -> Expr."""
    return simplify(
        Add(Add(bracket(f, bracket(g, h)), bracket(g, bracket(h, f))), bracket(h, bracket(f, g)))
    )
