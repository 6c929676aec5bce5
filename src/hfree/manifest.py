"""Flat sectioned key-value manifests.

Format: `[section]` headers followed by `key = value` lines. Values are
numbers, booleans, bare words, quoted strings (expressions in the DSL), or
bracketed arrays of values, arbitrarily nested. `#` starts a comment.

Sections: [manifold] (coords, box, periodic), [frame] (vectors) or
[structure] (type plus parameters), [map] (components), optional [outer]
(coords, components), [check] (mode, samples, seed, tolerance, grid).

`parse_manifest_text` reads the text into a Manifest; `build_plan` builds
and validates the frame and the maps, or the bracket, that its check needs,
once: the plan stays on the manifest, so a later check of it reuses them and
what a check compiled from them. `draw_points` samples its [check] domain.
An error in any of them is a ManifestError, and one raised while building
names its section.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .brackets import RPStructure, SymplecticChart, contact_frame, hamiltonian_field, poisson_bracket
from .constructions import monomial_free_map
from .expr import NestingError, ParseError, nesting, parse
from .fields import Chart, ChartMismatch, Frame, SmoothMap, VectorField
from .jets import s
from .sampling import sample_points


class ManifestError(Exception):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


MODES = ("immersion", "free", "construct", "identity", "bracket-laws")


@dataclass
class Manifest:
    chart: Chart
    frame_vectors: list | None  # list of component-string lists
    structure: dict | None  # {"type": ..., plus parameters}
    map_components: list
    outer: dict | None  # {"coords": [...], "components": [...]}
    mode: str
    samples: int = 10000
    seed: int = 0
    tolerance: float = 1e-9
    grid: list | None = None
    notes: tuple = ()  # lines its reports carry; only the gallery's manifests have them
    # build_plan's plan, built at the first check (see build_plan)
    plan: Plan | None = field(default=None, init=False, repr=False, compare=False)


def _parse_value(text: str, line: int):
    value, rest = _value(text.strip(), line)
    if rest.strip():
        raise ManifestError(f"trailing input after value: {rest.strip()!r}", line)
    return value


def _value(text: str, line: int):
    text = text.lstrip()
    if not text:
        raise ManifestError("missing value", line)
    if text[0] == "[":
        items = []
        rest = text[1:].lstrip()
        if rest.startswith("]"):
            return items, rest[1:]
        while True:
            item, rest = _value(rest, line)
            items.append(item)
            rest = rest.lstrip()
            if rest.startswith(","):
                rest = rest[1:]
                continue
            if rest.startswith("]"):
                return items, rest[1:]
            raise ManifestError(f"expected ',' or ']' in array near {rest[:10]!r}", line)
    if text[0] == '"':
        end = text.find('"', 1)
        if end < 0:
            raise ManifestError("unterminated string", line)
        return text[1:end], text[end + 1 :]
    # bare token: number, boolean, or word
    end = 0
    while end < len(text) and text[end] not in ",]\" \t":
        end += 1
    token, rest = text[:end], text[end:]
    for kind in (int, float):
        try:
            return kind(token), rest
        except ValueError:
            pass
    return {"true": True, "false": False}.get(token, token), rest


def parse_manifest_text(text: str) -> Manifest:
    sections: dict[str, dict] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name in sections:
                raise ManifestError(f"duplicate section [{name}]", lineno)
            sections[name] = {}
            current = name
            continue
        if current is None:
            raise ManifestError("key outside any section", lineno)
        if "=" not in line:
            raise ManifestError(f"expected 'key = value', got {line!r}", lineno)
        key, _, rhs = line.partition("=")
        key = key.strip()
        if key in sections[current]:
            raise ManifestError(f"duplicate key '{key}' in section [{current}]", lineno)
        sections[current][key] = _parse_value(rhs, lineno)
    return _interpret(sections)


def _strip_comment(line: str) -> str:
    if "#" not in line:
        return line
    in_string = False
    for i, ch in enumerate(line):
        if ch == '"':
            in_string = not in_string
        elif ch == "#" and not in_string:
            return line[:i]
    return line


def _integer(section: dict, key: str, default: int) -> int:
    """The section's integer value of key; a float, a boolean or a string is
    an error, not truncated or converted."""
    value = section.get(key, default)
    if type(value) is not int:
        raise ManifestError(f"{key} must be an integer, got {value!r}")
    return value


@contextmanager
def _section(name: str):
    """Report an error raised while reading or building section [name], also
    one from a constructor such as Chart or SmoothMap, as a ManifestError."""
    try:
        yield
    except (ManifestError, ChartMismatch, ValueError, TypeError, ArithmeticError) as exc:
        raise ManifestError(f"bad [{name}] section: {exc}") from exc


def _interpret(sections: dict) -> Manifest:
    structure = sections.get("structure")
    if structure is not None and not isinstance(structure.get("type"), str):
        raise ManifestError("[structure] needs a 'type' name")
    if "frame" in sections and structure is not None:
        raise ManifestError("give either [frame] or [structure], not both")

    if "manifold" in sections:
        chart = _chart_from(sections["manifold"])
    elif structure is not None and structure.get("type") == "contact":
        with _section("structure"):
            chart = contact_frame(_integer(structure, "n", 1)).chart
    else:
        raise ManifestError("missing required section [manifold]")

    frame_vectors = None
    if "frame" in sections:
        frame_vectors = sections["frame"].get("vectors")
        if not isinstance(frame_vectors, list) or not frame_vectors:
            raise ManifestError("[frame] needs a non-empty 'vectors' array")

    if "check" not in sections:
        raise ManifestError("missing required section [check]")
    check = sections["check"]
    with _section("check"):
        mode = check.get("mode")
        if mode not in MODES:
            raise ManifestError(f"mode must be one of {MODES}, got {mode!r}")
        grid = check.get("grid")
        if grid is not None and not (
            isinstance(grid, list)
            and len(grid) == chart.dim
            and all(type(c) is int and c >= 1 for c in grid)
        ):
            raise ManifestError("grid needs one positive integer count per coordinate axis")
        samples = _integer(check, "samples", 10000)
        seed = _integer(check, "seed", 0)
        tolerance = check.get("tolerance", 1e-9)
        if type(tolerance) not in (int, float):
            raise ManifestError(f"tolerance must be a number, got {tolerance!r}")
        tolerance = float(tolerance)
        if samples < 1:
            raise ManifestError("samples must be positive")
        if not (math.isfinite(tolerance) and tolerance > 0):
            raise ManifestError("tolerance must be finite and positive")
        if not 0 <= seed < 2**64:
            raise ManifestError("seed must fit in 64 unsigned bits")

    components = sections.get("map", {}).get("components", [])
    if not isinstance(components, list) or (mode != "bracket-laws" and not components):
        raise ManifestError("[map] needs a non-empty 'components' array")

    outer = sections.get("outer")
    if outer is not None and not isinstance(outer.get("components"), list):
        raise ManifestError("[outer] needs a 'components' array")
    if outer is not None and not isinstance(outer.get("coords", []), list):
        raise ManifestError("[outer] 'coords' must be an array")

    return Manifest(
        chart, frame_vectors, structure, components, outer, mode, samples, seed, tolerance, grid
    )


def _chart_from(section: dict) -> Chart:
    with _section("manifold"):
        coords = section.get("coords")
        if not isinstance(coords, list) or not coords:
            raise ManifestError("needs a non-empty 'coords' array")
        box = section.get("box")
        if not isinstance(box, list) or len(box) != len(coords):
            raise ManifestError("needs a 'box' array with one [lo, hi] per coordinate")
        if "dim" in section and _integer(section, "dim", len(coords)) != len(coords):
            raise ManifestError("dim does not match the number of coordinates")
        pairs = all(isinstance(b, list) and len(b) == 2 for b in box)
        if not (pairs and all(type(e) in (int, float) for b in box for e in b)):
            raise ManifestError(f"box edges must be [lo, hi] pairs of numbers, got {box!r}")
        periodic = section.get("periodic", [False] * len(coords))
        if not (isinstance(periodic, list) and all(type(p) is bool for p in periodic)):
            raise ManifestError(f"periodic needs true or false per coordinate, got {periodic!r}")
        return Chart(
            coords=tuple(str(c) for c in coords),
            box=tuple((float(lo), float(hi)) for lo, hi in box),
            periodic=tuple(periodic),
        )


def _parse_expr(src, groups: dict | None = None):
    try:
        return parse(str(src), groups)
    except ParseError as exc:
        raise ManifestError(f"bad expression {str(src)!r}: {exc}") from exc


@dataclass
class Plan:
    """What a manifest's check runs on, built and validated by build_plan."""

    frame: Frame | None = None  # every mode but bracket-laws
    smap: SmoothMap | None = None  # the map; in bracket-laws mode, the test functions
    outer: SmoothMap | None = None  # construct and identity modes
    bracket: object = None  # bracket-laws mode: (Expr, Expr) -> Expr
    # checks._judge of the rest, compiled at the first check (None before it
    # and below the critical dimension): it takes each chunk's tolerance and
    # its smaller_is_worse says which criterion is worse
    judge: object = None


def build_plan(m: Manifest) -> Plan:
    """Build, for the manifest's mode, the frame and the map, the outer map
    (construct and identity modes), or the bracket and its test functions
    (bracket-laws mode). Every error is a ManifestError naming its section.
    The plan is built once and kept on the manifest: its sections must not
    change after its first check. Its texts share one memo of parenthesised
    groups (see expr.parse), so each group's text is parsed once per plan;
    the memo is the build's own and is dropped with it."""
    if m.plan is None:
        try:
            m.plan = _build_plan(m)
        except RecursionError:
            raise too_deep(m) from None
    return m.plan


def draw_points(m: Manifest) -> np.ndarray:
    """The manifest's sample points, one finite (n, dim) array."""
    with _section("check"):
        return sample_points(m.chart, m.samples, m.seed, m.grid)


def too_deep(m: Manifest) -> ManifestError:
    """The error of a manifest whose expressions nest too deeply for the
    recursive walks (see expr.NestingError): it names the deepest one's
    section and depth."""
    sections = {"frame": m.frame_vectors, "structure": m.structure, "map": m.map_components, "outer": m.outer}
    found = ((nesting(text), name) for name, value in sections.items() for text in _texts(value))
    depth, name = max(found, default=(0, "map"))
    return ManifestError(f"bad [{name}] section: {NestingError(depth)}")


def _texts(value):
    """The strings of a manifest value, in its arrays and tables."""
    if isinstance(value, str):
        yield value
    elif isinstance(value, (list, dict)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _texts(item)


def _build_plan(m: Manifest) -> Plan:
    if m.mode not in MODES:
        raise ManifestError(f"bad [check] section: mode must be one of {MODES}, got {m.mode!r}")
    groups: dict = {}
    if m.mode == "bracket-laws":
        plan = Plan(bracket=_build_bracket(m, groups), smap=build_map(m, groups))
        if plan.smap.q < 3:
            raise ManifestError("bad [map] section: bracket-laws mode needs three test functions")
        return plan
    plan = Plan(frame=build_frame(m, groups), smap=build_map(m, groups))
    k, q = plan.frame.k, plan.smap.q
    if m.mode == "identity":
        if q != k:
            raise ManifestError(f"bad [map] section: identity mode needs a map with {k} components")
        plan.outer = build_outer(m, k, groups)
        if plan.outer.chart.dim != k or plan.outer.q != k + s(k):
            raise ManifestError(f"bad [outer] section: outer map must be {k} -> {k + s(k)}")
    elif m.mode == "construct":
        plan.outer = build_outer(m, q, groups)
        if plan.outer.chart.dim != q:
            raise ManifestError(f"bad [outer] section: outer map needs {q} coordinates, one per map component")
    return plan


def build_frame(m: Manifest, groups: dict | None = None) -> Frame:
    """Materialize the frame, either from explicit vectors or a structure.
    groups is the memo of parenthesised groups that parsing shares (see
    expr.parse); without one, each text has its own."""
    if m.frame_vectors is not None:
        with _section("frame"):
            fields = []
            for i, comps in enumerate(m.frame_vectors):
                if not isinstance(comps, list) or len(comps) != m.chart.dim:
                    raise ManifestError(f"vector {i} needs {m.chart.dim} component expressions")
                fields.append(VectorField(m.chart, tuple(_parse_expr(c, groups) for c in comps)))
            return Frame(m.chart, tuple(fields))
    if m.structure is None:
        raise ManifestError("missing required section [frame] or [structure]")
    with _section("structure"):
        kind = m.structure["type"]
        if kind == "contact":
            frame = contact_frame(_integer(m.structure, "n", 1))
            if frame.chart != m.chart:
                raise ManifestError("a contact structure brings its own chart; drop [manifold]")
            return frame
        if kind == "canonical":
            sc = _symplectic_chart(m)
            hams = m.structure.get("hamiltonians")
            if not isinstance(hams, list) or not hams:
                raise ManifestError("canonical structure needs a 'hamiltonians' array")
            return Frame(m.chart, tuple(hamiltonian_field(sc, _parse_expr(h, groups)) for h in hams))
        if kind == "riemann-poisson":
            h = m.structure.get("hamiltonian")
            if h is None:
                raise ManifestError("riemann-poisson frame needs a 'hamiltonian' expression")
            sign = _integer(m.structure, "sign", 1)
            field = hamiltonian_field(build_rp_structure(m, groups), _parse_expr(h, groups), sign=sign)
            return Frame(m.chart, (field,))
        raise ManifestError(f"unknown structure type {kind!r}")


def _symplectic_chart(m: Manifest) -> SymplecticChart:
    return SymplecticChart(n=_integer(m.structure, "n", m.chart.dim // 2), chart=m.chart)


def build_rp_structure(m: Manifest, groups: dict | None = None) -> RPStructure:
    spec = m.structure or {}
    if "H_gradients" in spec:
        rows = spec["H_gradients"]
        if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
            raise ManifestError("riemann-poisson structure needs 'H_gradients' as an array of arrays")
        grads = tuple(tuple(_parse_expr(c, groups) for c in row) for row in rows)
        return RPStructure(m.chart, grads)
    h_list = spec.get("H")
    if not isinstance(h_list, list) or not h_list:
        raise ManifestError("riemann-poisson structure needs an 'H' (or 'H_gradients') array")
    return RPStructure.from_functions(m.chart, [_parse_expr(h, groups) for h in h_list])


# the structure types that have a Poisson bracket
_BRACKETS = ("canonical", "riemann-poisson")


def _build_bracket(m: Manifest, groups: dict | None = None):
    """The bracket of bracket-laws mode, as a function (Expr, Expr) -> Expr."""
    kind = (m.structure or {}).get("type")
    if kind not in _BRACKETS:
        raise ManifestError(f"bracket-laws mode needs a [structure] of type {' or '.join(_BRACKETS)}")
    with _section("structure"):
        structure = _symplectic_chart(m) if kind == "canonical" else build_rp_structure(m, groups)
        return partial(poisson_bracket, structure)


def build_map(m: Manifest, groups: dict | None = None) -> SmoothMap:
    with _section("map"):
        return SmoothMap(m.chart, tuple(_parse_expr(c, groups) for c in m.map_components))


def build_outer(m: Manifest, dim: int, groups: dict | None = None) -> SmoothMap:
    """The outer map of construct and identity modes: the [outer] components
    over its coords (x1..x<dim> by default), or the monomial free map of dim
    coordinates without [outer]. The outer chart's box, (-2, 2) on every
    axis, is never sampled: each mode reads the outer map at the image
    points f(p), with no box check."""
    if m.outer is None:
        return monomial_free_map(dim)
    with _section("outer"):
        coords = [str(c) for c in m.outer.get("coords", [f"x{i + 1}" for i in range(dim)])]
        chart = Chart(coords=tuple(coords), box=((-2.0, 2.0),) * len(coords))
        return SmoothMap(chart, tuple(_parse_expr(c, groups) for c in m.outer["components"]))


def load_manifest(path: str) -> Manifest:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_manifest_text(fh.read())
    except OSError as exc:
        raise ManifestError(f"cannot read {path}: {exc}") from exc
