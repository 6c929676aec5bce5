"""Poisson structures as bivectors, and the canonical contact frame on
R^(2n+1).

A structure describes itself by its bivector: entries (i, j, c) with
{f, g} = sum c * (d_i f d_j g - d_j f d_i g). The canonical symplectic
structure has c = 1 on each pair (p_a, q^a); a flat Riemann-Poisson
structure has the signed complementary minors of its m-2 fixed gradient
rows, computed once per structure. One bracket and one Hamiltonian-field
builder serve both.

All brackets return expressions, so iterated brackets (Jacobi testing) are
plain symbolic composition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .expr import Add, Const, Coord, Expr, Mul, Neg, ONE, Sub, ZERO, simplify
from .expr import diff as ddx
from .fields import Chart, ChartMismatch, Frame, VectorField, simplified_sum


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
    def bivector(self) -> tuple:
        """(p_a, q^a, 1) for each a, so that {p_a, q^a} = 1 and {h, g} is the
        Lie derivative of g along the Hamiltonian field of h."""
        return tuple((self.n + a, a, ONE) for a in range(self.n))


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

    @cached_property
    def bivector(self) -> tuple:
        """The determinant of the stacked rows (grad h_1; ...;
        grad h_(m-2); grad f; grad g), flat metric and standard orientation,
        expanded along its last two rows: for each i < j, the signed minor of
        the fixed rows without columns i and j, ordered by the columns that
        remain. Zero minors are dropped."""
        m = self.chart.dim
        entries = []
        for rest in combinations(range(m), m - 2):
            i, j = (c for c in range(m) if c not in rest)
            minor = sym_det([[row[c] for c in rest] for row in self.h_gradients])
            c = minor if (i + j) % 2 else simplify(Neg(minor))
            if c != ZERO:
                entries.append((i, j, c))
        return tuple(entries)


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


def poisson_bracket(structure: SymplecticChart | RPStructure, f: Expr, g: Expr) -> Expr:
    """{f, g} = sum over the structure's bivector entries (i, j, c) of
    c * (d_i f d_j g - d_j f d_i g). An entry both of whose products have a
    zero factor adds nothing, so it is not built."""
    df, dg = gradient(structure.chart, f), gradient(structure.chart, g)
    terms = []
    for i, j, c in structure.bivector:
        if ZERO in (df[i], dg[j]) and ZERO in (df[j], dg[i]):
            continue
        term = Sub(Mul(df[i], dg[j]), Mul(df[j], dg[i]))
        terms.append(term if c is ONE else Mul(c, term))
    return simplified_sum(terms)


def hamiltonian_field(
    structure: SymplecticChart | RPStructure, h: Expr, sign: int = 1
) -> VectorField:
    """The field xi with L_xi g = sign * {h, g} for every g: its components
    are sign * {h, x} over the coordinates x, as the bracket is linear in dg."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    comps = [poisson_bracket(structure, h, Coord(x)) for x in structure.chart.coords]
    if sign == -1:
        comps = [simplify(Neg(c)) for c in comps]
    return VectorField(structure.chart, tuple(comps))


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


def jacobiator(bracket, f: Expr, g: Expr, h: Expr) -> Expr:
    """{f,{g,h}} + {g,{h,f}} + {h,{f,g}}, brackets composed symbolically and
    simplified. `bracket` is any callable (Expr, Expr) -> Expr."""
    return simplify(
        Add(Add(bracket(f, bracket(g, h)), bracket(g, bracket(h, f))), bracket(h, bracket(f, g)))
    )
