"""Charts, vector fields, frames and the Lie-derivative calculus."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

from .expr import Add, Expr, Mul, ONE, ZERO, free_vars, make, names_a_coordinate, simplify
from .expr import diff as ddx


class ChartMismatch(Exception):
    """An expression or field refers to coordinates outside its chart."""


class OutsideDomain(Exception):
    """A sample point lies outside the chart's box."""


@dataclass(frozen=True)
class Chart:
    """A single coordinate system with a sampling box.

    Periodic axes are angular with period 2*pi and box exactly [0, 2*pi);
    periodicity is sampler metadata only. Box edges and widths are finite.
    """

    coords: tuple[str, ...]
    box: tuple[tuple[float, float], ...]
    periodic: tuple[bool, ...] = ()

    def __post_init__(self):
        if not self.coords:
            raise ValueError("chart needs at least one coordinate")
        if len(set(self.coords)) != len(self.coords):
            raise ValueError("coordinate names must be distinct")
        for name in self.coords:
            if not names_a_coordinate(name):
                raise ValueError(f"coordinate name {name!r} does not read as a coordinate in an expression")
        if not self.periodic:
            object.__setattr__(self, "periodic", (False,) * len(self.coords))
        if len(self.box) != len(self.coords) or len(self.periodic) != len(self.coords):
            raise ValueError("box and periodic must match the coordinate count")
        for (lo, hi), per in zip(self.box, self.periodic):
            if not math.isfinite(hi - lo):
                raise ValueError(f"box interval [{lo}, {hi}] must have finite edges and width")
            if not lo < hi:
                raise ValueError(f"degenerate box interval [{lo}, {hi}]")
            if per and not (lo == 0.0 and abs(hi - 2 * math.pi) < 1e-12):
                raise ValueError("periodic axes must use the box [0, 2*pi)")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def check_expr(self, e: Expr):
        extra = free_vars(e) - set(self.coords)
        if extra:
            raise ChartMismatch(f"coordinates {sorted(extra)} not in chart {self.coords}")

    def point_array(self, points) -> np.ndarray:
        """Finite points as an (n, dim) float array, columns in coordinate order."""
        array = np.array(points, dtype=float)
        if array.ndim != 2 or array.shape[1] != self.dim:
            raise ChartMismatch(f"points of shape {array.shape} on a {self.dim}-dim chart")
        if not np.isfinite(array).all():
            raise ValueError("point coordinates must be finite")
        return array

    def check_point(self, point) -> np.ndarray:
        """One finite point of the box as a (1, dim) array (see point_array)."""
        array = self.point_array([point])
        (row,) = array.tolist()
        if not all(lo <= v <= hi for v, (lo, hi) in zip(row, self.box)):
            raise OutsideDomain(f"point {tuple(row)} outside box {self.box}")
        return array


@dataclass(frozen=True)
class VectorField:
    """Coefficients of the coordinate basis fields on a chart."""

    chart: Chart
    components: tuple[Expr, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) != self.chart.dim:
            raise ChartMismatch("vector field needs one component per coordinate")
        for c in self.components:
            self.chart.check_expr(c)


@dataclass(frozen=True)
class Frame:
    """An ordered list of vector fields spanning a distribution on a chart.

    Pointwise linear independence is not assumed; it is checked numerically.
    """

    chart: Chart
    vectors: tuple[VectorField, ...]

    def __post_init__(self):
        object.__setattr__(self, "vectors", tuple(self.vectors))
        if not 1 <= len(self.vectors) <= self.chart.dim:
            raise ChartMismatch("frame size must be between 1 and the chart dimension")
        for v in self.vectors:
            if v.chart != self.chart:
                raise ChartMismatch("all frame fields must share the frame's chart")

    @property
    def k(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class SmoothMap:
    """A map into R^q given by q scalar expression components."""

    chart: Chart
    components: tuple[Expr, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise ChartMismatch("a map needs at least one component")
        for c in self.components:
            self.chart.check_expr(c)

    @property
    def q(self) -> int:
        return len(self.components)


def lie_derivative(xi: VectorField, f: Expr) -> Expr:
    """Directional derivative of f along xi: sum_i xi^i * d f / d x^i, over
    the terms with no zero-constant factor, built simplified (see
    simplified_sum). A zero result is ZERO, not -0.0."""
    xi.chart.check_expr(f)
    return simplified_sum(
        d if comp is ONE else make(Mul, simplify(comp), d)
        for comp, name in zip(xi.components, xi.chart.coords)
        if comp != ZERO and (d := ddx(f, name)) != ZERO
    )


def simplified_sum(terms) -> Expr:
    """simplify() of the terms folded left to right with Add, built
    simplified: the simplified terms folded with make(Add, ...). ZERO (not
    -0.0) for no terms or a zero-constant sum."""
    terms = [simplify(t) for t in terms]
    total = reduce(partial(make, Add), terms) if terms else ZERO
    return ZERO if total == ZERO else total


def symmetrize(ab: Expr, ba: Expr) -> Expr:
    """The anticommutator's value from its two ordered terms L_a L_b f and
    L_b L_a f: simplify(Add(ab, ba)), built simplified."""
    return make(Add, simplify(ab), simplify(ba))

